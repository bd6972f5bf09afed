"""Confusion graph construction, exact coloring, exact codelength."""

import gzip
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from indexcoding import confusion
from indexcoding.bounds import mais, minrank_witness
from indexcoding.codec import code_from_coloring
from indexcoding.confusion import (
    build_confusion,
    chromatic_number,
    ell_star,
    find_coloring,
    is_k_colorable,
)
from indexcoding.graph import digraph_from_code, digraph_from_key, enumerate_nonisomorphic, parse_digraph
from indexcoding.verify import analyze

PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")
FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")
PINNED_REPORT = Path(__file__).resolve().parents[1] / "perfbench" / "expected_report.csv.gz"


def test_diff_set_contains_every_unit_vector():
    # exhaustive over every labeled graph with n <= 4: vertex 0's row is
    # exactly the differences that confound some receiver, unit vectors included
    for n in range(1, 5):
        for code in range(1 << (n * (n - 1))):
            g = digraph_from_code(n, code)
            diffs = build_confusion(g)[0]
            assert all(diffs >> (1 << i) & 1 for i in range(n))
            assert diffs == sum(
                1 << z for z in range(1 << n) if any(z >> i & 1 and not z & g.rows[i] for i in range(n))
            )


def test_confusable_table_is_the_zero_error_rule():
    for n in range(1, 6):
        table = confusion._confusable(n)
        assert len(table) == n
        for i, per_prior in enumerate(table):
            assert len(per_prior) == 1 << n
            for prior, confusable in enumerate(per_prior):
                assert confusable == sum(1 << z for z in range(1 << n) if z >> i & 1 and not z & prior)


def test_translate_moves_every_vector_by_c():
    rng = random.Random(59)
    for n in range(1, 6):
        for c, moves in enumerate(confusion._translations(n)):
            for mask in [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(20)]:
                moved = sum(1 << (v ^ c) for v in range(1 << n) if mask >> v & 1)
                assert confusion._translate(mask, moves) == moved


def test_confusion_adjacency_matches_definition_oracle(gap_records):
    # every labeled graph with n <= 3, every class with n = 4, the gap classes
    graphs = [digraph_from_code(n, code) for n in (1, 2, 3) for code in range(1 << (n * (n - 1)))]
    graphs += list(enumerate_nonisomorphic(4)) + [digraph_from_key(r.key) for r in gap_records]
    assert len(graphs) == 69 + 218 + 28
    for g in graphs:
        assert list(build_confusion(g)) == oracles.confusion_adjacency(g.n, g.rows)


def test_confusion_is_translation_invariant():
    adj = build_confusion(FIG)
    for u in range(len(adj)):
        for v in range(len(adj)):
            assert adj[u] >> v & 1 == adj[0] >> (u ^ v) & 1


def test_chromatic_matches_cover_dp_oracle_small():
    for n in (1, 2, 3):
        for g in enumerate_nonisomorphic(n):
            adj = build_confusion(g)
            assert chromatic_number(adj) == oracles.chromatic_dp(list(adj))


def _small_and_gap_graphs(gap_records):
    graphs = [g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)]
    assert len(graphs) == 238
    return graphs + [digraph_from_key(r.key) for r in gap_records]


def test_independence_number_matches_oracle(gap_records):
    for g in _small_and_gap_graphs(gap_records):
        adj = build_confusion(g)
        # alpha is the size of every set the maximum-set search returns
        sizes = {s.bit_count() for s in confusion._maximum_independent_sets(adj)}
        assert sizes == {oracles.independence_number(list(adj))}


def test_clique_never_raises_the_independence_start(gap_records):
    # the confusion graph is vertex-transitive, so alpha * omega <= 2^n and
    # omega <= ceil(2^n / alpha), the walk's start; omega is alpha of the
    # complement
    for g in _small_and_gap_graphs(gap_records):
        adj = build_confusion(g)
        full = (1 << len(adj)) - 1
        complement = [full ^ mask ^ (1 << u) for u, mask in enumerate(adj)]
        alpha = oracles.independence_number(list(adj))
        omega = oracles.independence_number(complement)
        assert alpha * omega <= len(adj) == 1 << g.n
        assert omega <= -(-len(adj) // alpha)


def test_chromatic_walk_starts_at_the_independence_bound(gap_records, monkeypatch):
    decide = confusion._k_colorable
    walks = {}

    def recorded(adj, k, maximum_sets):
        walk.append(k)
        return decide(adj, k, maximum_sets)

    monkeypatch.setattr(confusion, "_k_colorable", recorded)
    for r in gap_records:
        walk = walks[r.key.hex] = []
        adj = build_confusion(digraph_from_key(r.key))
        assert chromatic_number(adj) == r.chromatic
        # the first k tried is ceil(32 / alpha), with alpha from the oracle
        assert walk[0] == -(-len(adj) // oracles.independence_number(list(adj))) == 7
    assert sorted(r.chromatic for r in gap_records) == [7] * 26 + [8] * 2
    assert {key: walk for key, walk in walks.items() if walk != [7]} == {
        "0x355ad": [7, 8],
        "0x356ac": [7, 8],
    }


def test_maximum_independent_sets_match_brute_force():
    for g in (g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)):
        adj = build_confusion(g)
        alpha = oracles.independence_number(list(adj))
        expected = {
            sum(1 << v for v in subset)
            for subset in itertools.combinations(range(len(adj)), alpha)
            if all(not adj[u] >> v & 1 for u, v in itertools.combinations(subset, 2))
        }
        found = confusion._maximum_independent_sets(adj)
        assert len(found) == len(expected) and set(found) == expected


def test_packing_decision_agrees_with_the_plain_search(gap_records):
    for g in _small_and_gap_graphs(gap_records):
        adj = build_confusion(g)
        sets = confusion._maximum_independent_sets(adj)
        chi = chromatic_number(adj)
        for k in (chi - 1, chi):
            plain = confusion._search_coloring(adj, (1 << len(adj)) - 1, k) is not None
            assert confusion._k_colorable(adj, k, sets) == plain == (k == chi)


def test_refutations_pack_only_sets_that_avoid_vertex_zero(gap_records, monkeypatch):
    # at k = 7, alpha = 5 leaves slack 3: four disjoint maximum sets and a
    # twelve-vertex remainder for three colours; of the 1600 packings only
    # the 600 that avoid vertex 0 are tried; a failed remainder's translates
    # by its own vertices are not searched again, so their remainders fall
    # into 80 translation classes and 80 searches refute k = 7
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
    assert remainder_searches == {"0x355ad": 80, "0x356ac": 80}


def test_gap_chromatic_numbers_match_the_pinned_report():
    # the report's chromatic column is 0 wherever the bounds meet, so it is
    # read for the 28 gap classes, the only ones whose confusion graph is colored
    report = gzip.decompress(PINNED_REPORT.read_bytes())
    assert hashlib.sha256(report).hexdigest() == "12956fe15c1a253e37f92269024f3823d129a261875a2d88afc62a00652e1782"
    header, *lines = report.decode().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    gaps = [row for row in rows if row["gap"] == "1"]
    assert len(gaps) == 28
    for row in gaps:
        g = digraph_from_code(int(row["n"]), int(row["canonical_key"], 16))
        assert chromatic_number(build_confusion(g)) == int(row["chromatic"])


def test_the_coloring_searches_leave_no_state_behind(gap_records):
    # a fresh interpreter with the cycle collector off: a search that held
    # itself in a reference cycle would keep its state until a collection,
    # so chi over the 28 gap classes must free what it builds on return
    probe = (
        "import gc, tracemalloc\n"
        "from indexcoding.confusion import build_confusion, chromatic_number\n"
        "from indexcoding.graph import digraph_from_code\n"
        f"expected = {[(r.key.key, r.chromatic) for r in gap_records]}\n"
        "graphs = [build_confusion(digraph_from_code(5, key)) for key, _ in expected]\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "tracemalloc.start()\n"
        "chis = [chromatic_number(adj) for adj in graphs]\n"
        "held = tracemalloc.get_traced_memory()[0]\n"
        "assert chis == [chi for _, chi in expected], chis\n"
        "assert held < 16 * 1024, held\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(confusion.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_chromatic_number_matches_a_plain_backtracking_oracle():
    # every class up to four vertices, decided by the packing of maximum sets
    for g in (g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)):
        adj = build_confusion(g)
        assert chromatic_number(adj) == oracles.chromatic_backtrack(list(adj))


def test_k_colorability_brackets_chromatic_number():
    for g in (g for n in (1, 2, 3, 4) for g in enumerate_nonisomorphic(n)):
        adj = build_confusion(g)
        chi = chromatic_number(adj)
        assert not is_k_colorable(adj, chi - 1)
        coloring = find_coloring(adj, chi)
        assert coloring is not None
        assert len(set(coloring)) <= chi
        assert oracles.proper_coloring(list(adj), coloring)
        assert oracles.decodes(g.n, g.rows, code_from_coloring(g.n, coloring).table.__getitem__)


def test_k_colorable_edge_cases():
    adj = build_confusion(parse_digraph("n 2"))
    assert not is_k_colorable(adj, 0)
    assert is_k_colorable(adj, len(adj))
    assert find_coloring(adj, len(adj)) == tuple(range(len(adj)))


def test_proper_coloring_rejects_conflicts():
    g = parse_digraph("n 2")
    # tuples 00 and 01 confound receiver 1, so equal colors must be rejected
    assert not oracles.decodes(2, g.rows, code_from_coloring(2, (0, 0, 1, 2)).table.__getitem__)
    with pytest.raises(ValueError):
        code_from_coloring(2, (0, 1))


def test_pentagon_chromatic_number():
    adj = build_confusion(PENTAGON)
    chi = chromatic_number(adj)
    # independent lower bound: 32 tuples / independence number
    alpha = oracles.independence_number(list(adj))
    lower = -(-len(adj) // alpha)
    assert lower <= chi <= 8
    assert chi == 8
    assert not is_k_colorable(adj, 7)


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
            chi = oracles.chromatic_dp(list(build_confusion(g)))
            assert ell_star(g) == (chi - 1).bit_length()


def test_ell_star_stays_inside_sandwich_sampled():
    rng = random.Random(53)
    for _ in range(60):
        g = digraph_from_code(4, rng.getrandbits(12))
        ell = ell_star(g)
        assert mais(g) <= ell <= minrank_witness(g, mais(g))[0]


def test_ell_star_agrees_with_analyze(full_records):
    # the sweep's records are analyze's output on each class representative:
    # its sandwich, or χ where the bounds differ, against χ's definition
    records = [r for r in full_records if r.n <= 4 or r.gap]
    assert len(records) == 238 + 28
    for r in records:
        assert ell_star(digraph_from_key(r.key)) == r.ell_star
    assert ell_star(PENTAGON) == analyze(PENTAGON).ell_star
