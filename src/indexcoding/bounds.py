"""Sandwich bounds on the optimal codelength.

For a side-information graph g, mais(g) <= optimal length <= minrank(g):
the order of a largest acyclic induced subgraph from below, the minimal
GF(2) rank of a fitting matrix from above.  A matrix fits g when its
diagonal is all ones and every off-diagonal one sits on an arc; its rows
read as XOR masks form a linear code of length equal to its rank.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from indexcoding.graph import Digraph, subset_is_acyclic


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


def minrank_witness(g: Digraph, known_mais: int) -> tuple[int, tuple[int, ...]]:
    """(minrank, fitting matrix of that rank) by branch and bound.

    Tries target ranks upward from known_mais, the caller's mais(g), below
    which no fitting matrix has rank; per vertex the candidate rows are e_i
    plus any subset of the prior set, tried in row-string order, so the
    first matrix found is the string-lex smallest one of minimal rank.  The
    span of the rows chosen so far is held as a 2^n-bit set, bit v set iff
    the vector v lies in it, so membership is one shift and adding a row
    is a union with the span's translate.  Under a fixed target, whether
    the rows from vertex i on can complete the matrix depends only on
    (i, span), the rank being log2 of the span's size; so each span that
    fails at level i is recorded, in sets that start empty for each
    target, and never searched again there.
    """
    n = g.n
    candidates = [_candidates(n, i, g.rows[i] | 1 << i) for i in range(n)]
    moves = _translations(n)

    def dfs(i: int, span: int, rank: int, target: int) -> list[int] | None:
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
            tail = dfs(i + 1, nxt, nxt_rank, target)
            if tail is not None:
                return [cand] + tail
        failed[i].add(span)
        return None

    for target in range(known_mais, n + 1):
        failed: list[set[int]] = [set() for _ in range(n + 1)]
        rows = dfs(0, 1, 0, target)
        if rows is not None:
            return target, tuple(rows)
    raise AssertionError("identity matrix always fits, rank n is reachable")
