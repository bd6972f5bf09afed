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


def _max_clique(adj: Sequence[int], nv: int) -> int:
    """Maximum clique bitmask by pivoted branch and bound: the chromatic
    lower bound, and the precolored seed that breaks color symmetry."""
    best = 0
    stack = [(0, (1 << nv) - 1)]
    while stack:
        cur, cand = stack.pop()
        if cur.bit_count() + cand.bit_count() <= best.bit_count():
            continue
        if cand == 0:
            best = cur
            continue
        pivot = -1
        pivot_deg = -1
        m = cand
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[v] & cand).bit_count()
            if deg > pivot_deg:
                pivot, pivot_deg = v, deg
        ext = cand & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            stack.append((cur | (1 << v), cand & adj[v]))
            cand ^= 1 << v
    return best


def _search_coloring(adj: Sequence[int], nv: int, k: int, clique: int | None = None) -> list[int] | None:
    """Exhaustive k-coloring by backtracking, or None.

    The next vertex to color is always a most-saturated uncolored one, so
    dead ends surface early.  Symmetry is broken two ways: a clique (a
    maximum one unless passed in) is preassigned distinct colors, and an
    uncolored vertex may open at most one fresh color.
    """
    if k <= 0:
        return None if nv else []
    if k >= nv:
        return list(range(nv))
    if clique is None:
        clique = _max_clique(adj, nv)
    if clique.bit_count() > k:
        return None
    colors = [-1] * nv
    seen = [0] * nv
    uncolored = (1 << nv) - 1
    used = 0
    m = clique
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        colors[v] = used
        uncolored ^= 1 << v
        w_mask = adj[v]
        while w_mask:
            w = (w_mask & -w_mask).bit_length() - 1
            w_mask &= w_mask - 1
            seen[w] |= 1 << used
        used += 1

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

    if assign(uncolored, used):
        return colors
    return None


def find_coloring(cg: ConfusionGraph, k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a color-per-tuple vector, or None if chi > k.
    Only tests and perfbench/traced.py call this and is_k_colorable;
    the package decides chi through chromatic_number alone."""
    found = _search_coloring(cg.adj, cg.size, k)
    return None if found is None else tuple(found)


def is_k_colorable(cg: ConfusionGraph, k: int) -> bool:
    return _search_coloring(cg.adj, cg.size, k) is not None


def _vertices(mask: int) -> list[int]:
    """The vertices in a mask, in increasing order."""
    verts = []
    while mask:
        verts.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return verts


def _induced(adj: Sequence[int], keep: int) -> list[int]:
    """Adjacency of the subgraph induced on the vertex mask keep, its
    vertices renumbered in increasing order."""
    verts = _vertices(keep)
    pos = {v: i for i, v in enumerate(verts)}
    sub = []
    for v in verts:
        row = 0
        m = adj[v] & keep
        while m:
            row |= 1 << pos[(m & -m).bit_length() - 1]
            m &= m - 1
        sub.append(row)
    return sub


def _clique_through_zero(adj: Sequence[int]) -> int:
    """A maximum clique of a Cayley graph on GF(2)^n, as a bitmask: vertex 0
    plus a maximum clique of the subgraph induced on its neighbours.  Some
    maximum clique contains 0, since translating by any of its vertices is
    an automorphism that moves that vertex to 0."""
    verts = _vertices(adj[0])
    sub = _max_clique(_induced(adj, adj[0]), len(verts))
    return 1 | sum(1 << v for i, v in enumerate(verts) if sub >> i & 1)


def _independence_number(adj: Sequence[int], nv: int) -> int:
    """Largest independent set size of a Cayley graph on GF(2)^n, nv = 2^n:
    a maximum clique of the complement, itself a Cayley graph, found
    through vertex 0 among 0's non-neighbours."""
    full = (1 << nv) - 1
    return _clique_through_zero([full ^ mask ^ (1 << u) for u, mask in enumerate(adj)]).bit_count()


def _maximum_independent_sets(adj: Sequence[int], nv: int, alpha: int) -> tuple[int, ...]:
    """Every independent set of size alpha of a Cayley graph on GF(2)^n,
    nv = 2^n, as bitmasks, each listed once.

    The sets through vertex 0 are grown from 0 by vertices above the last
    one added, so each is found once.  Every other set is a translate of
    one of them: a set T holding t is the translate by t of T ^ t, which
    holds 0.  So the answer is the translates of those sets, each set's
    translates in turn, with repeats dropped.
    """
    through_zero = []
    stack = [(1, ((1 << nv) - 2) & ~adj[0])]
    while stack:
        cur, cand = stack.pop()
        if cur.bit_count() == alpha:
            through_zero.append(cur)
            continue
        if cur.bit_count() + cand.bit_count() < alpha:
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


def _k_colorable(
    adj: Sequence[int], nv: int, k: int, clique: int, alpha: int, maximum_sets: Sequence[int]
) -> bool:
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
    if need <= 0:
        return _search_coloring(adj, nv, k, clique) is not None
    if nv > need * alpha:
        maximum_sets = [s for s in maximum_sets if not s & 1]
    full = (1 << nv) - 1

    def pack(start: int, used: int, left: int) -> bool:
        if left == 0:
            rest = full & ~used
            return _search_coloring(_induced(adj, rest), rest.bit_count(), slack) is not None
        for index in range(start, len(maximum_sets) - left + 1):
            s = maximum_sets[index]
            if not s & used and pack(index + 1, used | s, left - 1):
                return True
        return False

    return pack(0, 0, need)


def chromatic_number(cg: ConfusionGraph) -> int:
    """Least k for which the graph is k-colorable, counting up from
    max(omega, ceil(size / alpha)); k = size always succeeds.

    Every color class is an independent set, so no graph has fewer than
    size / alpha colors.  On these vertex-transitive graphs that bound is
    the fractional chromatic number; on the five-vertex gap classes it is
    7 against a clique of 4, so the walk skips three refutations that
    cannot succeed.  Each k is decided by _k_colorable over the maximum
    independent sets, enumerated once.  The graph is a Cayley graph on
    GF(2)^n, so omega, alpha and those sets are all found through vertex 0.
    """
    clique = _clique_through_zero(cg.adj)
    alpha = _independence_number(cg.adj, cg.size)
    maximum_sets = _maximum_independent_sets(cg.adj, cg.size, alpha)
    k = max(clique.bit_count(), -(-cg.size // alpha))
    while not _k_colorable(cg.adj, cg.size, k, clique, alpha, maximum_sets):
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
