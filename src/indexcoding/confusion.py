"""Confusion graphs and their exact coloring.

Two message tuples confound some receiver when they agree on everything it
knows but differ in the message it wants; no zero-error code may give them
the same codeword.  The optimal codelength is therefore ceil(log2 chi) of
the confusion graph, and proper colorings with 2^L colors are exactly the
valid codes of length L.

The confusion graph is a Cayley graph on GF(2)^n, held as its adjacency
masks: u and v are adjacent iff u xor v lies in the set of tuples
confusable with 0, so it is built once from that set, translated by each u.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from indexcoding.graph import Digraph


@lru_cache(maxsize=None)
def _confusable(n: int) -> tuple[tuple[int, ...], ...]:
    """The zero-error rule as a table: _confusable(n)[i][prior] is the 2^n-bit
    set of differences z that flip the message receiver i wants (bit i of z)
    and fix all of its priors (z & prior == 0), so i confuses x and x ^ z."""
    zs = range(1 << n)
    return tuple(tuple(sum(1 << z for z in zs if z >> i & 1 and not z & prior) for prior in zs) for i in range(n))


@lru_cache(maxsize=None)
def _translations(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per n-bit vector c, the masked swaps that move a set of n-bit
    vectors, held as a 2^n-bit mask, by c: one (1 << j, mask of the
    vectors with bit j clear) per bit j of c, swapping the two halves."""
    halves = [(1 << j, sum(1 << v for v in range(1 << n) if not v >> j & 1)) for j in range(n)]
    return tuple(tuple(halves[j] for j in range(n) if c >> j & 1) for c in range(1 << n))


def _translate(mask: int, moves: tuple[tuple[int, int], ...]) -> int:
    """The set of vectors in mask, each xored with c, for moves = _translations(n)[c]."""
    for shift, low in moves:
        mask = (mask & low) << shift | (mask >> shift) & low
    return mask


def build_confusion(g: Digraph) -> tuple[int, ...]:
    """The confusion graph on the 2^n message tuples as adjacency masks:
    bit v of adj[u] is set iff some receiver confuses u and v.  Row 0 is
    the union over receivers i of _confusable(n)[i][rows[i]], and row u is
    row 0 translated by u."""
    confusable = reduce(or_, map(tuple.__getitem__, _confusable(g.n), g.rows))
    return tuple(_translate(confusable, moves) for moves in _translations(g.n))


def _assign(adj: Sequence[int], k: int, colors: list[int], seen: list[int], uncolored: int, used: int) -> bool:
    """_search_coloring's step: color the mask uncolored, with colors
    0..used-1 open and seen[w] the colors on w's colored neighbours."""
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
        if _assign(adj, k, colors, seen, remaining, max(used, c + 1)):
            return True
        while touched:
            w = (touched & -touched).bit_length() - 1
            touched &= touched - 1
            seen[w] ^= 1 << c
    colors[v] = -1
    return False


def _search_coloring(adj: Sequence[int], keep: int, k: int) -> list[int] | None:
    """Exhaustive k-coloring, by backtracking, of the subgraph induced on
    the vertex mask keep: a color per vertex, -1 for a vertex outside keep,
    or None if there is none.

    The next vertex to color is always a most-saturated uncolored one, so
    dead ends surface early.  An uncolored vertex may open at most one
    fresh color, which breaks the symmetry among the colors.
    """
    colors = [-1] * len(adj)
    return colors if _assign(adj, k, colors, [0] * len(adj), keep, 0) else None


def find_coloring(adj: Sequence[int], k: int) -> tuple[int, ...] | None:
    """A proper k-coloring as a color-per-tuple vector, or None if chi > k:
    the plain exhaustive search over every tuple, with no packing.  Only
    tests and perfbench/traced.py call this and is_k_colorable; the
    package decides chi through chromatic_number alone."""
    found = _search_coloring(adj, (1 << len(adj)) - 1, k)
    return None if found is None else tuple(found)


def is_k_colorable(adj: Sequence[int], k: int) -> bool:
    return chromatic_number(adj) <= k


def _maximum_independent_sets(adj: Sequence[int]) -> tuple[int, ...]:
    """Every maximum independent set of a Cayley graph on GF(2)^n, as
    bitmasks, each listed once; alpha is the size of any.

    The sets through vertex 0 are grown from 0 by vertices above the last
    one added, so each is found once.  A branch is dropped once it cannot
    reach the largest size found so far, and the sets kept are dropped
    whenever that size rises.  Every other maximum set is a translate of
    one of them: a set T holding t is the translate by t of T ^ t, which
    holds 0.  So the answer is the translates of those sets, each set's
    translates in turn, with repeats dropped.
    """
    nv = len(adj)
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
    translations = _translations(nv.bit_length() - 1)
    return tuple(dict.fromkeys(_translate(s, moves) for s in through_zero for moves in translations))


def _pack(
    adj: Sequence[int], colors: int, maximum_sets: Sequence[int], full: int,
    translations: Sequence[tuple[tuple[int, int], ...]], failed: set[int], start: int, used: int, left: int,
) -> bool:
    """_k_colorable's step: place left more disjoint sets from
    maximum_sets[start:] off the mask used, then color the rest of full."""
    if left == 0:
        rest = full & ~used
        if rest in failed:
            return False
        if _search_coloring(adj, rest, colors) is not None:
            return True
        m = rest
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            failed.add(_translate(rest, translations[u]))
        return False
    for index in range(start, len(maximum_sets) - left + 1):
        s = maximum_sets[index]
        if not s & used and _pack(adj, colors, maximum_sets, full, translations, failed, index + 1, used | s, left - 1):
            return True
    return False


def _k_colorable(adj: Sequence[int], k: int, maximum_sets: Sequence[int]) -> bool:
    """Exact k-colorability of a Cayley graph on GF(2)^n, nv = 2^n tuples,
    packing maximum color classes first; alpha is the size of each.

    A k-coloring leaves slack alpha * k - nv, the sum of alpha - |class|
    over its k classes, so at most slack classes fall short of alpha and
    at least need = max(k - slack, 0) are pairwise disjoint maximum
    independent sets.  The graph is therefore k-colorable iff some packing
    of need disjoint maximum independent sets leaves a remainder that the
    exhaustive search colors with the other min(slack, k) colors.  When
    that remainder is not empty, translating by one of its vertices moves
    the packing off vertex 0 and maps the remainder's coloring along, so
    only packings of sets that avoid 0 are tried.

    A translation is an automorphism, so a remainder R, which then holds
    0, is colorable iff each of its translates R ^ u is.  Those that hold
    0, the only ones that can be remainders, are the translates by the
    vertices u of R.  So once R's search fails, they are all recorded as
    failed, and a later packing that leaves one of them is not searched:
    each translation class of remainders is searched at most once, and a
    colorable remainder is reached no later than without the record.
    """
    nv = len(adj)
    alpha = maximum_sets[0].bit_count()
    slack = alpha * k - nv
    if slack < 0:
        return False
    need = max(k - slack, 0)
    if nv > need * alpha:
        maximum_sets = [s for s in maximum_sets if not s & 1]
    return _pack(adj, min(slack, k), maximum_sets, (1 << nv) - 1, _translations(nv.bit_length() - 1), set(), 0, 0, need)


def chromatic_number(adj: Sequence[int]) -> int:
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
    maximum_sets = _maximum_independent_sets(adj)
    k = -(-len(adj) // maximum_sets[0].bit_count())
    while not _k_colorable(adj, k, maximum_sets):
        k += 1
    return k


def ell_star(g: Digraph) -> int:
    """Exact optimal zero-error codelength by its definition: the bit width
    of the confusion graph's chromatic number.  The package decides it
    only in verify.analyze, which colors only when the bounds differ."""
    return (chromatic_number(build_confusion(g)) - 1).bit_length()
