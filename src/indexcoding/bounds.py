"""Sandwich bounds on the optimal codelength.

For a side-information graph g, mais(g) <= optimal length <= minrank(g):
the order of a largest acyclic induced subgraph from below, the minimal
GF(2) rank of a fitting matrix from above.  A matrix fits g when its
diagonal is all ones and every off-diagonal one sits on an arc; its rows
read as XOR masks form a linear code of length equal to its rank.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Iterable

from indexcoding.graph import Digraph


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
def _acyclic_orders(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The ordered subsets (S, order) of range(n), larger S first, and per
    vertex i and out-neighbour set r of i, indexed [i][r], the bit set of
    those where i is outside S or every arc of i into S points to a vertex
    before i in the order.  ANDed over a graph's vertices, that leaves the
    (S, order) where every arc inside S points backward, so S induces an
    acyclic subgraph; every acyclic S has such an order.  The first part
    gives S by bit index."""
    ordered = [order for size in range(n, 0, -1) for order in permutations(range(n), size)]
    subsets = tuple(sum(1 << v for v in order) for order in ordered)
    # per vertex: the bits of the (S, order), grouped by the vertices of S
    # after the vertex in the order (none when the vertex is outside S)
    by_forbidden: list[dict[int, int]] = [{} for _ in range(n)]
    for index, order in enumerate(ordered):
        forbidden = [0] * n
        later = 0
        for v in reversed(order):
            forbidden[v] = later
            later |= 1 << v
        for groups, f in zip(by_forbidden, forbidden):
            groups[f] = groups.get(f, 0) | 1 << index
    table = tuple(
        tuple(reduce(or_, (bits for forbidden, bits in groups.items() if not forbidden & r), 0) for r in range(1 << n))
        for groups in by_forbidden
    )
    return subsets, table


def mais(g: Digraph) -> int:
    """Order of a largest acyclic induced subgraph: the largest S left by
    ANDing the vertices' entries of _acyclic_orders (a single vertex always
    is acyclic, so one is left)."""
    subsets, table = _acyclic_orders(g.n)
    live = -1
    for entries, row in zip(table, g.rows):
        live &= entries[row]
    return subsets[(live & -live).bit_length() - 1].bit_count()


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
    paired with the subspaces that hold it.  The candidates are the masks
    that hold i and no vertex outside r | 1 << i, and row-string order,
    char j being the coefficient of x_{j+1}, lists the masks as the
    bit-reversals of 0, 1, 2, ...  A set r holding i itself shares the
    entry of r without i."""
    holders = _containing(n, k)
    order = [int(format(m, f"0{n}b")[::-1], 2) for m in range(1 << n)]
    table = []
    for i in range(n):
        entries = []
        for prior in range(1 << n):
            if prior >> i & 1:
                entries.append(entries[prior ^ 1 << i])
            else:
                outside = ~(prior | 1 << i)
                pairs = tuple((holders[m], m) for m in order if m >> i & 1 and not m & outside)
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


def minrank_witness(g: Digraph, known_mais: int) -> tuple[int, tuple[int, ...]]:
    """(minrank, fitting matrix of that rank).

    Tries target ranks upward from known_mais, the caller's mais(g), below
    which no fitting matrix has rank.  Per vertex the candidate rows are
    e_i plus any subset of the prior set, and the matrix returned is the
    string-lex smallest fitting one of minimal rank.  Each target is
    decided in the lattice of subspaces of GF(2)^n (see _fit_in_lattice).
    """
    for target in range(known_mais, g.n + 1):
        rows = _fit_in_lattice(g, target)
        if rows is not None:
            return target, rows
    raise AssertionError("identity matrix always fits, rank n is reachable")
