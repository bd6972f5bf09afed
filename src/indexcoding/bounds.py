"""Sandwich bounds on the optimal codelength.

For a side-information graph g, mais(g) <= optimal length <= minrank(g):
the order of a largest acyclic induced subgraph from below, the minimal
GF(2) rank of a fitting matrix from above.  A matrix fits g when its
diagonal is all ones and every off-diagonal one sits on an arc; its rows
read as XOR masks form a linear code of length equal to its rank.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, product
from operator import or_
from typing import Iterable

from indexcoding.graph import MAX_ENUM_VERTICES, Digraph, subset_is_acyclic


def gf2_row_basis(rows: Iterable[int]) -> list[int]:
    """Greedy independent subset of the rows, kept in input order."""
    pivots: dict[int, int] = {}
    basis = []
    for row in rows:
        vec = row
        while vec:
            p = vec.bit_length() - 1
            if p not in pivots:
                pivots[p] = vec
                basis.append(row)
                break
            vec ^= pivots[p]
    return basis


@lru_cache(maxsize=None)
def _masks_largest_first(n: int) -> tuple[int, ...]:
    """The nonempty n-bit masks, by popcount from n down to 1."""
    return tuple(sorted(range(1, 1 << n), key=int.bit_count, reverse=True))


def mais(g: Digraph) -> int:
    """Order of a largest acyclic induced subgraph: the first acyclic
    subset, trying larger subsets first (a single vertex always is)."""
    return next(mask.bit_count() for mask in _masks_largest_first(g.n) if subset_is_acyclic(g, mask))


@lru_cache(maxsize=None)
def _row_string_order(n: int) -> tuple[int, ...]:
    """All n-bit masks ordered by their row strings, char j being the
    coefficient of x_{j+1}: the bit-reversals of 0, 1, 2, ..."""
    return tuple(int(format(k, f"0{n}b")[::-1], 2) for k in range(1 << n))


@lru_cache(maxsize=None)
def _candidates(n: int, i: int, allowed: int) -> tuple[int, ...]:
    """Rows for vertex i: e_i plus any subset of the other allowed
    columns, in row-string order."""
    return tuple(m for m in _row_string_order(n) if m >> i & 1 and not m & ~allowed)


@lru_cache(maxsize=None)
def _translations(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per n-bit vector c, the masked swaps that move a set of n-bit
    vectors, held as a 2^n-bit mask, by c: one (1 << j, mask of the
    vectors with bit j clear) per bit j of c, swapping the two halves."""
    halves = [(1 << j, sum(1 << v for v in range(1 << n) if not v >> j & 1)) for j in range(n)]
    return tuple(tuple(halves[j] for j in range(n) if c >> j & 1) for c in range(1 << n))


@lru_cache(maxsize=None)
def _containing(n: int, k: int) -> tuple[int, ...]:
    """Per n-bit vector v, the k-dimensional subspaces of GF(2)^n that hold
    v, as a bit set over the subspaces.  The subspaces are numbered by
    their reduced echelon bases: one row per pivot p, with bit p set, the
    other pivots' bits clear and any of the free bits below p."""
    holders = [0] * (1 << n)
    bases = []
    for pivots in combinations(range(n), k):
        taken = sum(1 << p for p in pivots)
        bases += product(*([1 << p | low for low in range(1 << p) if not low & taken] for p in pivots))
    for index, basis in enumerate(bases):
        span = [0]
        for row in basis:
            span += [v ^ row for v in span]
        for v in span:
            holders[v] |= 1 << index
    return tuple(holders)


@lru_cache(maxsize=None)
def _reach(n: int, k: int) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
    """Per vertex i and prior set r of i, indexed [i][r]: the k-dimensional
    subspaces that hold some candidate row of i, as a bit set in the
    numbering of _containing, and the candidates in row-string order, each
    paired with the subspaces that hold it.  A set r holding i itself
    shares the entry of r without i."""
    holders = _containing(n, k)
    table = []
    for i in range(n):
        entries = []
        for prior in range(1 << n):
            if prior >> i & 1:
                entries.append(entries[prior ^ 1 << i])
            else:
                pairs = tuple((holders[cand], cand) for cand in _candidates(n, i, prior | 1 << i))
                entries.append((reduce(or_, (held for held, _ in pairs)), pairs))
        table.append(tuple(entries))
    return tuple(table)


def _fit_in_lattice(g: Digraph, target: int) -> tuple[int, ...] | None:
    """The string-lex smallest fitting matrix of rank at most target, or
    None.  The rows of such a matrix lie in some target-dimensional
    subspace, so it exists iff some subspace holds a candidate row of every
    vertex.  The live subspaces are those that hold the rows chosen so far
    and meet every vertex's candidates; any one of them completes the
    matrix, so each vertex in turn takes its first candidate that a live
    subspace holds, the least row any completion has there, and the live
    set shrinks to the subspaces holding it."""
    table = _reach(g.n, target)
    entries = [table[i][row] for i, row in enumerate(g.rows)]
    live = -1
    for reach, _ in entries:
        live &= reach
    if not live:
        return None
    rows = []
    for _, pairs in entries:
        for held, cand in pairs:
            if held & live:
                live &= held
                rows.append(cand)
                break
    return tuple(rows)


def _fit_by_search(g: Digraph, target: int) -> tuple[int, ...] | None:
    """The first fitting matrix of rank at most target that a branch and
    bound over the candidate rows finds, or None: the string-lex smallest,
    since each vertex tries its candidates in row-string order.  The span
    of the rows chosen so far is held as a 2^n-bit set, bit v set iff the
    vector v lies in it, so membership is one shift and adding a row is a
    union with the span's translate.  Whether the rows from vertex i on
    can complete the matrix depends only on (i, span), the rank being
    log2 of the span's size; so each span that fails at level i is
    recorded and never searched again."""
    n = g.n
    candidates = [_candidates(n, i, g.rows[i] | 1 << i) for i in range(n)]
    moves = _translations(n)
    failed: list[set[int]] = [set() for _ in range(n + 1)]

    def dfs(i: int, span: int, rank: int) -> list[int] | None:
        if i == n:
            return []
        dead = failed[i + 1]
        for cand in candidates[i]:
            if span >> cand & 1:
                nxt, nxt_rank = span, rank
            elif rank < target:
                moved = span
                for shift, low in moves[cand]:
                    moved = (moved & low) << shift | (moved >> shift) & low
                nxt, nxt_rank = span | moved, rank + 1
            else:
                continue
            if nxt in dead:
                continue
            tail = dfs(i + 1, nxt, nxt_rank)
            if tail is not None:
                return [cand] + tail
        failed[i].add(span)
        return None

    rows = dfs(0, 1, 0)
    return None if rows is None else tuple(rows)


def minrank_witness(g: Digraph, known_mais: int) -> tuple[int, tuple[int, ...]]:
    """(minrank, fitting matrix of that rank).

    Tries target ranks upward from known_mais, the caller's mais(g), below
    which no fitting matrix has rank.  Per vertex the candidate rows are
    e_i plus any subset of the prior set, and the matrix returned is the
    string-lex smallest fitting one of minimal rank.  Up to
    MAX_ENUM_VERTICES vertices a target is decided in the lattice of
    subspaces of GF(2)^n (see _fit_in_lattice); above, where the lattice
    grows to 200,787 four-dimensional subspaces at n = 8, by branch and
    bound with a fresh set of failed spans per target (see _fit_by_search).
    """
    fit = _fit_in_lattice if g.n <= MAX_ENUM_VERTICES else _fit_by_search
    for target in range(known_mais, g.n + 1):
        rows = fit(g, target)
        if rows is not None:
            return target, rows
    raise AssertionError("identity matrix always fits, rank n is reachable")
