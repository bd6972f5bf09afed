"""GF(2) linear algebra, the acyclic bound, and minrank."""

import random

import pytest

import oracles
from indexcoding.bounds import _containing, gf2_row_basis, mais, minrank_witness
from indexcoding.graph import (
    Digraph,
    digraph_from_code,
    digraph_from_key,
    enumerate_nonisomorphic,
    parse_digraph,
    subset_is_acyclic,
)

PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")
FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")


def gf2_rank(rows):
    return len(gf2_row_basis(rows))


def minrank(g):
    return minrank_witness(g, mais(g))[0]


def test_gf2_rank_known_values():
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([0b111, 0b111]) == 1
    assert gf2_rank([0b110, 0b011, 0b101]) == 2


def test_gf2_rank_matches_oracle_on_random_matrices():
    rng = random.Random(29)
    for _ in range(200):
        rows = [rng.getrandbits(8) for _ in range(rng.randint(1, 8))]
        assert gf2_rank(rows) == oracles.rank_gf2(rows)


def test_gf2_row_basis_subset_order_and_span():
    rng = random.Random(31)
    for _ in range(100):
        rows = [rng.getrandbits(6) for _ in range(rng.randint(1, 8))]
        basis = gf2_row_basis(rows)
        assert len(basis) == gf2_rank(rows)
        assert gf2_rank(basis) == len(basis)
        # basis rows appear in the input, in input order
        it = iter(rows)
        assert all(any(row == b for row in it) for b in basis)


def test_fits():
    assert oracles.fits(4, FIG.rows, (0b0111, 0b1101 | 0b0010, 0b0111, 0b1001))
    identity = (0b0001, 0b0010, 0b0100, 0b1000)
    assert oracles.fits(4, FIG.rows, identity)
    assert not oracles.fits(4, FIG.rows, identity[:3])
    # diagonal must be all ones
    assert not oracles.fits(4, FIG.rows, (0b0110, 0b0010, 0b0100, 0b1000))
    # off-diagonal support must stay inside the arc set: 1 does not know x4
    assert not oracles.fits(4, FIG.rows, (0b1001, 0b0010, 0b0100, 0b1000))
    # no entries beyond the n columns
    assert not oracles.fits(4, FIG.rows, (0b10001, 0b0010, 0b0100, 0b1000))


def test_mais_matches_oracle_exhaustively_small():
    # every labeled graph up to four vertices, 4096 of them at n = 4
    for n in (1, 2, 3, 4):
        for code in range(1 << (n * (n - 1))):
            g = digraph_from_code(n, code)
            assert mais(g) == oracles.mais_order(n, g.rows)


def test_mais_matches_oracle_all_four_vertex_classes():
    for g in enumerate_nonisomorphic(4):
        assert mais(g) == oracles.mais_order(4, g.rows)


def test_mais_table_matches_the_largest_first_acyclic_search():
    # the search mais replaced: the first acyclic subset, larger subsets
    # first, on every class representative
    classes = 0
    for n in range(1, 6):
        masks = sorted(range(1, 1 << n), key=int.bit_count, reverse=True)
        for g in enumerate_nonisomorphic(n):
            assert mais(g) == next(m.bit_count() for m in masks if subset_is_acyclic(g, m))
            classes += 1
    assert classes == 9846


def test_mais_spot_values():
    assert mais(PENTAGON) == 2
    assert mais(FIG) == 2
    assert mais(parse_digraph("n 5")) == 5
    k5 = parse_digraph("n 5 ; 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5")
    assert mais(k5) == 1


def test_minrank_matches_enumeration_oracle_all_small_classes():
    for n in (1, 2, 3, 4):
        for g in enumerate_nonisomorphic(n):
            assert minrank(g) == oracles.minrank_value(n, g.rows)


def test_minrank_witness_is_string_lex_minimal():
    for n in (2, 3):
        for g in enumerate_nonisomorphic(n):
            rank, rows = minrank_witness(g, mais(g))
            orank, orows = oracles.minrank_best(n, g.rows)
            assert (rank, rows) == (orank, orows)
    rng = random.Random(37)
    reps = list(enumerate_nonisomorphic(4))
    for g in rng.sample(reps, 40):
        assert minrank_witness(g, mais(g)) == oracles.minrank_best(4, g.rows)


def test_minrank_witness_matches_pivot_reference():
    # every labeled graph up to four vertices, then seeded five-vertex ones
    graphs = [digraph_from_code(n, code) for n in (1, 2, 3, 4) for code in range(1 << (n * (n - 1)))]
    assert len(graphs) == 4165
    rng = random.Random(53)
    graphs += [digraph_from_code(5, rng.getrandbits(20)) for _ in range(1000)]
    for g in graphs:
        lo = mais(g)
        assert minrank_witness(g, lo) == oracles.minrank_witness_pivots(g.n, g.rows, lo)


def test_minrank_witness_matches_pivot_reference_on_gap_classes(gap_records):
    # on a gap class no matrix of rank mais fits, so the first target fails:
    # its live set is empty, as no subspace of that dimension meets every
    # vertex's candidate rows
    rng = random.Random(59)
    assert len(gap_records) == 28
    for r in gap_records:
        rep = digraph_from_key(r.key)
        for _ in range(4):
            perm = tuple(rng.sample(range(5), 5))
            g = Digraph(5, oracles.relabel(5, rep.rows, perm))
            lo = mais(g)
            assert lo < r.minrank
            assert minrank_witness(g, lo) == oracles.minrank_witness_pivots(5, g.rows, lo)


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of GF(2)^n."""
    count = 1
    for j in range(k):
        count = count * ((1 << (n - j)) - 1) // ((1 << (j + 1)) - 1)
    return count


def test_containing_counts_every_subspace_once():
    assert [gaussian_binomial(5, k) for k in range(6)] == [1, 31, 155, 155, 31, 1]
    for n in range(1, 6):
        for k in range(n + 1):
            holders = _containing(n, k)
            everything = (1 << gaussian_binomial(n, k)) - 1
            # every subspace holds the zero vector
            assert holders[0] == everything
            # a nonzero vector lies in as many k-subspaces as there are
            # (k-1)-subspaces of the quotient by it
            per_vector = gaussian_binomial(n - 1, k - 1) if k else 0
            assert all(h.bit_count() == per_vector for h in holders[1:])
            # and the subspaces are distinct: no two hold the same vectors
            members = [sum(1 << v for v, h in enumerate(holders) if h >> s & 1) for s in range(gaussian_binomial(n, k))]
            assert len(set(members)) == len(members)
            assert all(m.bit_count() == 1 << k for m in members)


def test_minrank_witness_fits_and_has_witnessed_rank():
    rng = random.Random(41)
    for _ in range(40):
        g = digraph_from_code(5, rng.getrandbits(20))
        rank, rows = minrank_witness(g, mais(g))
        assert oracles.fits(5, g.rows, rows)
        assert oracles.rank_gf2(list(rows)) == rank
        assert mais(g) <= rank <= g.n


def test_minrank_spot_values():
    assert minrank(FIG) == 2
    assert minrank(PENTAGON) == oracles.minrank_value(5, PENTAGON.rows) == 3
    k5 = parse_digraph("n 5 ; 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5")
    # the all-ones matrix fits the complete graph and has rank one
    assert oracles.fits(5, k5.rows, (0b11111,) * 5)
    assert oracles.rank_gf2([0b11111] * 5) == 1
    assert minrank(k5) == 1
    assert minrank(parse_digraph("n 5")) == 5


def test_fig_witness_rows():
    rank, rows = minrank_witness(FIG, mais(FIG))
    assert rank == 2
    assert rows == (0b0111, 0b1110, 0b0111, 0b1001)
