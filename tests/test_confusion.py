"""Confusion graph construction, exact coloring, exact codelength."""

import itertools
import random

import pytest

import oracles
from indexcoding import confusion
from indexcoding.bounds import mais, minrank_witness
from indexcoding.codec import code_from_coloring, is_valid_code
from indexcoding.confusion import (
    build_confusion,
    chromatic_number,
    confusion_diffs,
    ell_star,
    find_coloring,
    is_k_colorable,
)
from indexcoding.graph import digraph_from_code, digraph_from_key, enumerate_nonisomorphic, parse_digraph
from indexcoding.verify import analyze

PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")
FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")


def test_diff_set_contains_every_unit_vector():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = digraph_from_code(n, rng.getrandbits(n * (n - 1)))
        diffs = set(confusion_diffs(g))
        assert all(1 << i in diffs for i in range(n))
        # defining property of every member
        for z in diffs:
            assert any(z >> i & 1 and z & g.rows[i] == 0 for i in range(n))


def test_confusion_adjacency_matches_definition_oracle():
    for g in enumerate_nonisomorphic(3):
        cg = build_confusion(g)
        assert list(cg.adj) == oracles.confusion_adjacency(3, g.rows)
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = digraph_from_code(n, rng.getrandbits(n * (n - 1)))
        cg = build_confusion(g)
        assert list(cg.adj) == oracles.confusion_adjacency(n, g.rows)


def test_confusion_is_translation_invariant():
    cg = build_confusion(FIG)
    for u in range(cg.size):
        for v in range(cg.size):
            if u != v:
                expected = (u ^ v) in set(cg.diffs)
                assert bool(cg.adj[u] >> v & 1) == expected


def test_chromatic_matches_cover_dp_oracle_small():
    for n in (1, 2, 3):
        for g in enumerate_nonisomorphic(n):
            cg = build_confusion(g)
            assert chromatic_number(cg) == oracles.chromatic_dp(list(cg.adj))


def _small_and_gap_graphs(gap_records):
    graphs = [g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)]
    assert len(graphs) == 238
    return graphs + [digraph_from_key(r.key) for r in gap_records]


def test_independence_number_matches_oracle(gap_records):
    for g in _small_and_gap_graphs(gap_records):
        cg = build_confusion(g)
        # alpha is the size of every set the maximum-set search returns
        sizes = {s.bit_count() for s in confusion._maximum_independent_sets(cg.adj, cg.size)}
        assert sizes == {oracles.independence_number(list(cg.adj))}


def test_clique_never_raises_the_independence_start(gap_records):
    # the confusion graph is vertex-transitive, so alpha * omega <= 2^n and
    # omega <= ceil(2^n / alpha), the walk's start; omega is alpha of the
    # complement
    for g in _small_and_gap_graphs(gap_records):
        cg = build_confusion(g)
        full = (1 << cg.size) - 1
        complement = [full ^ mask ^ (1 << u) for u, mask in enumerate(cg.adj)]
        alpha = oracles.independence_number(list(cg.adj))
        omega = oracles.independence_number(complement)
        assert alpha * omega <= cg.size == 1 << g.n
        assert omega <= -(-cg.size // alpha)


def test_chromatic_walk_starts_at_the_independence_bound(gap_records, monkeypatch):
    decide = confusion._k_colorable
    walks = {}

    def recorded(adj, nv, k, alpha, maximum_sets):
        walk.append(k)
        return decide(adj, nv, k, alpha, maximum_sets)

    monkeypatch.setattr(confusion, "_k_colorable", recorded)
    for r in gap_records:
        walk = walks[r.key.hex] = []
        cg = build_confusion(digraph_from_key(r.key))
        assert chromatic_number(cg) == r.chromatic
        # the first k tried is ceil(32 / alpha), with alpha from the oracle
        assert walk[0] == -(-cg.size // oracles.independence_number(list(cg.adj))) == 7
    assert sorted(r.chromatic for r in gap_records) == [7] * 26 + [8] * 2
    assert {key: walk for key, walk in walks.items() if walk != [7]} == {
        "0x355ad": [7, 8],
        "0x356ac": [7, 8],
    }


def test_maximum_independent_sets_match_brute_force():
    for g in (g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)):
        cg = build_confusion(g)
        alpha = oracles.independence_number(list(cg.adj))
        expected = {
            sum(1 << v for v in subset)
            for subset in itertools.combinations(range(cg.size), alpha)
            if all(not cg.adj[u] >> v & 1 for u, v in itertools.combinations(subset, 2))
        }
        found = confusion._maximum_independent_sets(cg.adj, cg.size)
        assert len(found) == len(expected) and set(found) == expected


def test_packing_decision_agrees_with_the_plain_search(gap_records):
    for g in _small_and_gap_graphs(gap_records):
        cg = build_confusion(g)
        sets = confusion._maximum_independent_sets(cg.adj, cg.size)
        alpha = sets[0].bit_count()
        chi = chromatic_number(cg)
        for k in (chi - 1, chi):
            plain = confusion._search_coloring(cg.adj, (1 << cg.size) - 1, k) is not None
            assert confusion._k_colorable(cg.adj, cg.size, k, alpha, sets) == plain == (k == chi)


def test_refutations_pack_only_sets_that_avoid_vertex_zero(gap_records, monkeypatch):
    # at k = 7, alpha = 5 leaves slack 3: four disjoint maximum sets and a
    # twelve-vertex remainder for three colours; of the 1600 packings only
    # the 600 that avoid vertex 0 are tried
    search = confusion._search_coloring
    colours_asked = []

    def counted(adj, keep, k):
        colours_asked.append(k)
        return search(adj, keep, k)

    monkeypatch.setattr(confusion, "_search_coloring", counted)
    remainder_searches = {}
    for r in gap_records:
        if r.chromatic == 8:
            colours_asked.clear()
            assert chromatic_number(build_confusion(digraph_from_key(r.key))) == 8
            remainder_searches[r.key.hex] = colours_asked.count(3)
    assert remainder_searches == {"0x355ad": 600, "0x356ac": 600}


def test_k_colorability_brackets_chromatic_number():
    for g in (g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)):
        cg = build_confusion(g)
        chi = chromatic_number(cg)
        assert not is_k_colorable(cg, chi - 1)
        coloring = find_coloring(cg, chi)
        assert coloring is not None
        assert len(set(coloring)) <= chi
        assert oracles.proper_coloring(list(cg.adj), coloring)
        assert is_valid_code(g, code_from_coloring(g.n, coloring))


def test_k_colorable_edge_cases():
    cg = build_confusion(parse_digraph("n 2"))
    assert not is_k_colorable(cg, 0)
    assert is_k_colorable(cg, cg.size)
    assert find_coloring(cg, cg.size) == tuple(range(cg.size))


def test_proper_coloring_rejects_conflicts():
    g = parse_digraph("n 2")
    # tuples 00 and 01 confound receiver 1, so equal colors must be rejected
    assert not is_valid_code(g, code_from_coloring(2, (0, 0, 1, 2)))
    with pytest.raises(ValueError):
        code_from_coloring(2, (0, 1))


def test_pentagon_chromatic_number():
    cg = build_confusion(PENTAGON)
    chi = chromatic_number(cg)
    # independent lower bound: 32 tuples / independence number
    alpha = oracles.independence_number(list(cg.adj))
    lower = -(-cg.size // alpha)
    assert lower <= chi <= 8
    assert chi == 8
    assert not is_k_colorable(cg, 7)


def test_ell_star_spot_values():
    assert ell_star(FIG) == 2
    assert ell_star(PENTAGON) == 3
    assert ell_star(parse_digraph("n 1")) == 1
    assert ell_star(parse_digraph("n 5")) == 5
    k5 = parse_digraph("n 5 ; 1-2 1-3 1-4 1-5 2-3 2-4 2-5 3-4 3-5 4-5")
    assert ell_star(k5) == 1


def test_ell_star_equals_chromatic_bit_width_small():
    for n in (1, 2, 3):
        for g in enumerate_nonisomorphic(n):
            chi = oracles.chromatic_dp(list(build_confusion(g).adj))
            assert ell_star(g) == (chi - 1).bit_length()


def test_ell_star_stays_inside_sandwich_sampled():
    rng = random.Random(53)
    for _ in range(60):
        g = digraph_from_code(4, rng.getrandbits(12))
        ell = ell_star(g)
        assert mais(g) <= ell <= minrank_witness(g, mais(g))[0]


def test_ell_star_agrees_with_analyze(full_records):
    # the sweep's records are analyze's output on each class representative
    records = [r for r in full_records if r.n <= 4 or r.gap]
    assert len(records) == 238 + 28
    for r in records:
        assert ell_star(digraph_from_key(r.key)) == r.ell_star
    assert ell_star(PENTAGON) == analyze(PENTAGON).ell_star


def test_ell_star_large_orders():
    complete6 = parse_digraph("n 6 ; " + " ".join(f"{i}-{j}" for i in range(1, 7) for j in range(i + 1, 7)))
    assert ell_star(complete6) == 1
    # pentagon plus an isolated vertex leaves the bounds apart at n=6
    apart = parse_digraph("n 6 ; 1-3 3-5 5-2 2-4 4-1")
    with pytest.raises(ValueError):
        ell_star(apart)
