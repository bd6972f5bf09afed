"""Confusion graphs and their exact coloring.

Two message tuples confound some receiver when they agree on everything it
knows but differ in the message it wants; no zero-error code may give them
the same codeword.  The optimal codelength is therefore ceil(log2 chi) of
the confusion graph, and proper colorings with 2^L colors are exactly the
valid codes of length L.

The confusion graph is translation invariant: u and v are adjacent iff
u xor v lies in a difference set, so it is built once from that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from indexcoding.bounds import _translations, mais, minrank_witness
from indexcoding.graph import MAX_ENUM_VERTICES, Digraph


@dataclass(frozen=True)
class ConfusionGraph:
    """Vertices are all message tuples of n_messages bits; adj[u] is the
    bitmask of tuples confusable with u."""

    n_messages: int
    diffs: tuple[int, ...]
    adj: tuple[int, ...]

    @property
    def size(self) -> int:
        return 1 << self.n_messages


def confounds(g: Digraph, i: int, z: int) -> bool:
    """The zero-error rule: receiver i confuses x and x ^ z iff z flips
    the message i wants while fixing all of i's priors."""
    return bool(z >> i & 1) and not z & g.rows[i]


def confusion_diffs(g: Digraph) -> tuple[int, ...]:
    """Nonzero difference patterns z that confound some receiver."""
    return tuple(z for z in range(1, 1 << g.n) if any(confounds(g, i, z) for i in range(g.n)))


def build_confusion(g: Digraph) -> ConfusionGraph:
    diffs = confusion_diffs(g)
    size = 1 << g.n
    adj = []
    for u in range(size):
        mask = 0
        for z in diffs:
            mask |= 1 << (u ^ z)
        adj.append(mask)
    return ConfusionGraph(g.n, diffs, tuple(adj))


def _search_coloring(adj: Sequence[int], keep: int, k: int) -> list[int] | None:
    """Exhaustive k-coloring, by backtracking, of the subgraph induced on
    the vertex mask keep: a color per vertex, -1 for a vertex outside keep,
    or None if there is none.

    The next vertex to color is always a most-saturated uncolored one, so
    dead ends surface early.  An uncolored vertex may open at most one
    fresh color, which breaks the symmetry among the colors.
    """
    colors = [-1] * len(adj)
    seen = [0] * len(adj)

    def assign(uncolored: int, used: int) -> bool:
        if uncolored == 0:
            return True
        v = -1
        rank = (-1, -1)
        m = uncolored
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            r = (seen[w].bit_count(), (adj[w] & uncolored).bit_count())
            if r > rank:
                v, rank = w, r
        remaining = uncolored ^ (1 << v)
        for c in range(min(k, used + 1)):
            if seen[v] >> c & 1:
                continue
            colors[v] = c
            touched = 0
            w_mask = adj[v] & remaining
            while w_mask:
                w = (w_mask & -w_mask).bit_length() - 1
                w_mask &= w_mask - 1
                if not seen[w] >> c & 1:
                    seen[w] |= 1 << c
                    touched |= 1 << w
            if assign(remaining, max(used, c + 1)):
                return True
            while touched:
                w = (touched & -touched).bit_length() - 1
                touched &= touched - 1
                seen[w] ^= 1 << c
        colors[v] = -1
        return False

    return colors if assign(keep, 0) else None


def find_coloring(cg: ConfusionGraph, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a color-per-tuple vector, or None if chi > k:
    the plain exhaustive search over every tuple, with no packing.  Only
    tests and perfbench/traced.py call this and is_k_colorable; the
    package decides chi through chromatic_number alone."""
    found = _search_coloring(cg.adj, (1 << cg.size) - 1, k)
    return None if found is None else tuple(found)


def is_k_colorable(cg: ConfusionGraph, k: int) -> bool:
    return chromatic_number(cg) <= k


def _maximum_independent_sets(adj: Sequence[int], nv: int) -> tuple[int, ...]:
    """Every maximum independent set of a Cayley graph on GF(2)^n,
    nv = 2^n, as bitmasks, each listed once; alpha is the size of any.

    The sets through vertex 0 are grown from 0 by vertices above the last
    one added, so each is found once.  A branch is dropped once it cannot
    reach the largest size found so far, and the sets kept are dropped
    whenever that size rises.  Every other maximum set is a translate of
    one of them: a set T holding t is the translate by t of T ^ t, which
    holds 0.  So the answer is the translates of those sets, each set's
    translates in turn, with repeats dropped.
    """
    best = 0
    through_zero = []
    stack = [(1, ((1 << nv) - 2) & ~adj[0])]
    while stack:
        cur, cand = stack.pop()
        size = cur.bit_count()
        if size + cand.bit_count() < best:
            continue
        if cand == 0:
            if size > best:
                best, through_zero = size, []
            through_zero.append(cur)
            continue
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            stack.append((cur | (1 << v), cand & ~adj[v]))
    found = {}
    for s in through_zero:
        for moves in _translations(nv.bit_length() - 1):
            moved = s
            for shift, low in moves:
                moved = (moved & low) << shift | (moved >> shift) & low
            found[moved] = None
    return tuple(found)


def _k_colorable(adj: Sequence[int], nv: int, k: int, alpha: int, maximum_sets: Sequence[int]) -> bool:
    """Exact k-colorability of a Cayley graph on GF(2)^n, nv = 2^n,
    packing maximum color classes first.

    A k-coloring leaves slack alpha * k - nv, the sum of alpha - |class|
    over its k classes, so at most slack classes fall short of alpha and
    at least k - slack are pairwise disjoint maximum independent sets.
    When k - slack >= 1 the graph is therefore k-colorable iff some
    packing of k - slack disjoint maximum independent sets leaves a
    remainder that the exhaustive search colors with slack colors.  When
    that remainder is not empty, translating by one of its vertices moves
    the packing off vertex 0 and maps the remainder's coloring along, so
    only packings of sets that avoid 0 are tried.
    """
    slack = alpha * k - nv
    if slack < 0:
        return False
    need = k - slack
    full = (1 << nv) - 1
    if need <= 0:
        return _search_coloring(adj, full, k) is not None
    if nv > need * alpha:
        maximum_sets = [s for s in maximum_sets if not s & 1]

    def pack(start: int, used: int, left: int) -> bool:
        if left == 0:
            return _search_coloring(adj, full & ~used, slack) is not None
        for index in range(start, len(maximum_sets) - left + 1):
            s = maximum_sets[index]
            if not s & used and pack(index + 1, used | s, left - 1):
                return True
        return False

    return pack(0, 0, need)


def chromatic_number(cg: ConfusionGraph) -> int:
    """Least k for which the graph is k-colorable, counting up from
    ceil(size / alpha); k = size always succeeds.

    Every color class is an independent set, so no graph has fewer than
    size / alpha colors, and the walk may start there because it only
    needs a start no larger than chi.  A clique would never raise that
    start: the graph is vertex-transitive, so alpha * omega <= size and
    omega <= ceil(size / alpha).  On the five-vertex gap classes the start
    is 7 against a clique of 4.  Each k is decided by _k_colorable over
    the maximum independent sets, enumerated once through vertex 0 of this
    Cayley graph on GF(2)^n; alpha is the size of any of them.
    """
    maximum_sets = _maximum_independent_sets(cg.adj, cg.size)
    alpha = maximum_sets[0].bit_count()
    k = -(-cg.size // alpha)
    while not _k_colorable(cg.adj, cg.size, k, alpha, maximum_sets):
        k += 1
    return k


def ell_star(g: Digraph) -> int:
    """Exact optimal zero-error codelength, decided as verify.analyze does:
    equal bounds settle it outright, otherwise it is the bit width of the
    confusion graph's chromatic number."""
    lo = mais(g)
    if lo == minrank_witness(g, lo)[0]:
        return lo
    if g.n > MAX_ENUM_VERTICES:
        raise ValueError(f"exact codelength between differing bounds needs n <= {MAX_ENUM_VERTICES}")
    return (chromatic_number(build_confusion(g)) - 1).bit_length()
