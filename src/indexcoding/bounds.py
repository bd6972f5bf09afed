"""Sandwich bounds on the optimal codelength.

For a side-information graph g, mais(g) <= optimal length <= minrank(g):
the order of a largest acyclic induced subgraph from below, the minimal
GF(2) rank of a fitting matrix from above.  A matrix fits g when its
diagonal is all ones and every off-diagonal one sits on an arc; its rows
read as XOR masks form a linear code of length equal to its rank.
"""

from __future__ import annotations

from typing import Iterable

from indexcoding.graph import Digraph, subset_is_acyclic


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of bitmask row vectors."""
    pivots: dict[int, int] = {}
    rank = 0
    for vec in rows:
        while vec:
            p = vec.bit_length() - 1
            if p not in pivots:
                pivots[p] = vec
                rank += 1
                break
            vec ^= pivots[p]
    return rank


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


def fits(g: Digraph, rows: Iterable[int]) -> bool:
    """True iff the matrix has an all-ones diagonal and off-diagonal
    support inside g's arc set."""
    rows = tuple(rows)
    if len(rows) != g.n:
        return False
    for i, row in enumerate(rows):
        if not row >> i & 1:
            return False
        if (row ^ (1 << i)) & ~g.rows[i]:
            return False
    return True


def mais(g: Digraph) -> int:
    """Order of a largest acyclic induced subgraph."""
    best = 1
    for mask in range(1, 1 << g.n):
        if mask.bit_count() > best and subset_is_acyclic(g, mask):
            best = mask.bit_count()
    return best


def _string_lex_key(mask: int, n: int) -> int:
    """Reorder bits so integer comparison matches left-to-right comparison
    of the n-char row string whose char j is the coefficient of x_{j+1}."""
    key = 0
    for j in range(n):
        if mask >> j & 1:
            key |= 1 << (n - 1 - j)
    return key


def minrank_witness(g: Digraph, known_mais: int | None = None) -> tuple[int, tuple[int, ...]]:
    """(minrank, fitting matrix of that rank) by branch and bound.

    Tries target ranks upward from mais(g), or from known_mais when the
    caller already has it; per vertex the candidate rows are e_i plus any
    subset of the prior set, tried in string-lex order, so the first matrix
    found is the string-lex smallest one of minimal rank.
    """
    n = g.n
    candidates: list[list[int]] = []
    for i in range(n):
        subs = []
        sub = g.rows[i]
        while True:
            subs.append(sub | (1 << i))
            if sub == 0:
                break
            sub = (sub - 1) & g.rows[i]
        subs.sort(key=lambda m: _string_lex_key(m, n))
        candidates.append(subs)

    pivots: dict[int, int] = {}

    def dfs(i: int, rank: int, target: int) -> list[int] | None:
        if i == n:
            return []
        for cand in candidates[i]:
            vec = cand
            while vec:
                p = vec.bit_length() - 1
                b = pivots.get(p)
                if b is None:
                    break
                vec ^= b
            if vec == 0:
                tail = dfs(i + 1, rank, target)
                if tail is not None:
                    return [cand] + tail
            elif rank < target:
                p = vec.bit_length() - 1
                pivots[p] = vec
                tail = dfs(i + 1, rank + 1, target)
                del pivots[p]
                if tail is not None:
                    return [cand] + tail
        return None

    if known_mais is None:
        known_mais = mais(g)
    for target in range(known_mais, n + 1):
        rows = dfs(0, 0, target)
        if rows is not None:
            return target, tuple(rows)
    raise AssertionError("identity matrix always fits, rank n is reachable")


def minrank(g: Digraph) -> int:
    return minrank_witness(g)[0]
