"""Acceptance suite: the ten headline guarantees, one test per criterion.

Each test states its claim in the name and checks it exactly; derived
values are confirmed against the independent oracles, never against the
modules under test alone.
"""

from itertools import combinations, product

import oracles
from indexcoding.bounds import mais
from indexcoding.codec import LinearCode, receiver_decodes
from indexcoding.graph import (
    Digraph,
    canonical_key,
    digraph_from_key,
    enumerate_nonisomorphic,
    parse_digraph,
    undirected_girth,
)
from indexcoding.verify import (
    analyze,
    check_lemma_mais2,
    check_monotonicity,
    check_structural_conditions,
    maximal_gap_classes,
    report_text,
    run_sweep,
    summarize,
    write_report,
)

EXPECTED_CLASS_COUNTS = {1: 1, 2: 3, 3: 16, 4: 218, 5: 9608}
PENTAGON_TEXT = "n 5 ; 1-3 3-5 5-2 2-4 4-1"
FIG_TEXT = "n 4 ; 1-2 1-3 2-3 2->4 4->1"


def complete_bidirectional(n):
    full = (1 << n) - 1
    return Digraph(n, tuple(full ^ (1 << i) for i in range(n)))


def test_criterion_01_enumeration_counts_match_oracle_partition():
    for n, expected in EXPECTED_CLASS_COUNTS.items():
        assert sum(1 for _ in enumerate_nonisomorphic(n)) == expected
    assert 1 << (5 * 4) == 1048576  # the labeled five-vertex universe
    for n in (1, 2, 3, 4):
        classes = oracles.iso_classes(n)
        assert len(classes) == EXPECTED_CLASS_COUNTS[n]
        assert sum(len(c) for c in classes) == 1 << (n * (n - 1))
        keys = set()
        for cls in classes:
            class_keys = {canonical_key(Digraph(n, rows)) for rows in cls}
            assert len(class_keys) == 1  # one key per oracle class
            keys |= class_keys
        assert len(keys) == EXPECTED_CLASS_COUNTS[n]  # distinct across classes


def test_criterion_02_optimal_length_equals_minrank_on_all_9846_classes(full_records):
    assert len(full_records) == sum(EXPECTED_CLASS_COUNTS.values()) == 9846
    assert all(r.ell_star == r.minrank for r in full_records)
    assert summarize(full_records).violations == ()


def test_criterion_02_every_report_lower_bound_holds_by_the_oracles(full_records):
    # the pinned report's lower bounds read back by their definitions alone:
    # where ell_star = mais, an acyclic vertex set of that size bounds the
    # length from below; on each gap line 32 tuples over an independence
    # number of 5 force more than 4 colors, so no code has 2 bits
    header, *lines = report_text(full_records).splitlines()
    counts = {"0": 0, "1": 0}
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        n, ell_star = int(row["n"]), int(row["ell_star"])
        rows = oracles.rows_from_key(n, int(row["canonical_key"], 16))
        counts[row["gap"]] += 1
        if row["gap"] == "0":
            assert ell_star == int(row["mais"])
            assert any(oracles.acyclic(*oracles.induced(n, rows, s)) for s in combinations(range(n), ell_star))
        else:
            assert (n, int(row["mais"]), ell_star) == (5, 2, 3)
            alpha = oracles.independence_number(oracles.confusion_adjacency(n, rows))
            assert alpha == 5 and -(-32 // alpha) > 4
    assert counts == {"0": 9818, "1": 28}


def independent_sets(adj, size):
    """Every independent vertex set of the given size, as sorted tuples,
    grown by vertices above the last one taken."""
    found = []

    def grow(chosen, candidates):
        if len(chosen) == size:
            found.append(chosen)
            return
        for v in candidates:
            grow(chosen + (v,), [w for w in candidates if w > v and not adj[v] >> w & 1])

    grow((), list(range(len(adj))))
    return found


def packings(sets, count):
    """Every choice of count pairwise disjoint sets, as the union mask."""
    masks = [sum(1 << v for v in s) for s in sets]

    def pack(start, used, left):
        if left == 0:
            yield used
            return
        for index in range(start, len(masks)):
            if not masks[index] & used:
                yield from pack(index + 1, used | masks[index], left - 1)

    return pack(0, 0, count)


def test_criterion_02_every_gap_chromatic_number_holds_by_the_oracles(full_records):
    # the gap lines' chromatic column read back by its definition alone.
    # With alpha = 5, a 7-coloring of the 32 tuples has at least 4 classes
    # of exactly 5 (three would cover at most 15 + 4 * 4 = 31), so chi = 7
    # iff 4 disjoint independent 5-sets leave 12 tuples that take 3 colors;
    # the witness code's 8 codewords color the graph, so chi <= 8
    header, *lines = report_text(full_records).splitlines()
    chis = []
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        if row["gap"] == "0":
            continue
        rows = oracles.rows_from_key(5, int(row["canonical_key"], 16))
        adj = oracles.confusion_adjacency(5, rows)
        assert oracles.independence_number(adj) == 5
        chi = int(row["chromatic"])
        chis.append(chi)
        assert chi in (7, 8)

        def three_colorable(used):
            rest = [v for v in range(32) if not used >> v & 1]
            rest_adj = [sum(1 << j for j, w in enumerate(rest) if adj[v] >> w & 1) for v in rest]
            return oracles.chromatic_backtrack(rest_adj) <= 3

        seven = any(map(three_colorable, packings(independent_sets(adj, 5), 4)))
        assert seven == (chi == 7)
        if chi == 8:
            _, code = oracles.parse_linear(row["code"])
            assert oracles.proper_coloring(adj, list(map(oracles.linear_encoder(code), range(32))))
    assert sorted(chis) == [7] * 26 + [8] * 2


def test_criterion_03_mais_at_least_n_minus_2_forces_equality(full_records):
    squeezed = [r for r in full_records if r.mais >= r.n - 2]
    assert squeezed
    assert all(r.ell_star == r.mais for r in squeezed)
    assert check_lemma_mais2(full_records)


def test_criterion_04_gap_structure_and_the_two_core_classes(full_records, gap_records):
    assert all(r.n == 5 for r in gap_records)
    assert gap_records
    assert all((r.mais, r.ell_star, r.minrank) == (2, 3, 3) for r in gap_records)
    cores = maximal_gap_classes(gap_records)
    assert len(cores) == 2
    core_graphs = {r.key: digraph_from_key(r.key) for r in cores}
    # oracle re-check of coredness: no other gap class embeds into a core
    others = {r.key: digraph_from_key(r.key) for r in gap_records}
    for r in cores:
        assert not any(
            s != r.key and oracles.embeds(5, others[s].rows, core_graphs[r.key].rows)
            for s in others
        )
    by_category = {r.category: r for r in cores}
    assert set(by_category) == {1, 4}
    girthless = core_graphs[by_category[1].key]
    assert undirected_girth(girthless) is None
    assert by_category[1].edges == 4
    pentagon = parse_digraph(PENTAGON_TEXT)
    assert oracles.isomorphic(5, core_graphs[by_category[4].key].rows, pentagon.rows)
    # every gap class carries one of the cores as an arc-deleted subgraph
    for r in gap_records:
        assert any(
            oracles.embeds(5, core_graphs[c.key].rows, others[r.key].rows)
            for c in cores
        )


def test_criterion_05_girth_3_or_4_mais_2_classes_reach_two_bits(n5_records):
    relevant = [r for r in n5_records if r.mais == 2 and r.category in (2, 3)]
    assert any(r.category == 2 for r in relevant)
    assert any(r.category == 3 for r in relevant)
    assert all(r.ell_star == 2 for r in relevant)


def test_criterion_06_mais_2_forces_edges_in_4_subsets_and_cycles_in_3_subsets(n5_records):
    assert check_structural_conditions(n5_records)
    for r in n5_records:
        if r.mais != 2:
            continue
        g = digraph_from_key(r.key)
        for quad in combinations(range(5), 4):
            assert any(
                g.rows[i] >> j & 1 and g.rows[j] >> i & 1
                for i, j in combinations(quad, 2)
            )
        for triple in combinations(range(5), 3):
            assert not oracles.acyclic(*oracles.induced(5, g.rows, triple))


def test_criterion_07_added_side_information_never_hurts(full_records):
    # exhaustive at every order: each class representative with each of
    # its absent arcs, which covers every labeled graph and absent arc
    for n in (2, 3, 4, 5):
        assert check_monotonicity(n, full_records)


def test_criterion_08_codec_soundness(full_records):
    # every four-or-fewer-vertex witness is a working linear code of
    # exactly the optimal length
    small = [r for r in full_records if r.n <= 4]
    assert len(small) == 238
    for r in small:
        g = digraph_from_key(r.key)
        code = LinearCode(r.n, r.code)
        assert code.length == r.minrank == r.ell_star
        assert all(receiver_decodes(g, code))
        assert oracles.decodes(g.n, g.rows, oracles.linear_encoder(code.rows))
    # validity coincides with proper confusion-graph coloring, both
    # directions, exhaustively over all linear codes up to three messages
    populations = {True: 0, False: 0}
    for n in (1, 2, 3):
        for g in enumerate_nonisomorphic(n):
            adj = oracles.confusion_adjacency(n, g.rows)
            for length in range(1, n + 1):
                for rows in product(range(1 << n), repeat=length):
                    code = LinearCode(n, rows)
                    valid = all(receiver_decodes(g, code))
                    proper = oracles.proper_coloring(adj, tuple(map(oracles.linear_encoder(rows), range(1 << n))))
                    assert valid == proper
                    populations[valid] += 1
    assert populations[True] and populations[False]


def test_criterion_08_every_report_code_decodes_by_the_oracles(full_records):
    # the pinned report read back by its definitions alone: each code parses
    # without the codec, decodes for the graph its key names, and is as long
    # as minrank and ell_star
    header, *lines = report_text(full_records).splitlines()
    assert len(lines) == 9846
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        n = int(row["n"])
        rows = oracles.rows_from_key(n, int(row["canonical_key"], 16))
        assert sum(r.bit_count() for r in rows) == int(row["arcs"])
        width, code_rows = oracles.parse_linear(row["code"])
        assert width == n
        assert len(code_rows) == int(row["minrank"]) == int(row["ell_star"])
        table = list(map(oracles.linear_encoder(code_rows), range(1 << n)))
        assert oracles.decodes(n, rows, table.__getitem__)


def test_criterion_09_spot_values():
    fig = parse_digraph(FIG_TEXT)
    assert oracles.mais_order(4, fig.rows) == 2
    assert oracles.minrank_value(4, fig.rows) == 2
    r = analyze(fig)
    assert (r.mais, r.minrank, r.ell_star) == (2, 2, 2)

    for n in (4, 5):
        g = complete_bidirectional(n)
        assert oracles.mais_order(n, g.rows) == 1
        all_ones = ((1 << n) - 1,) * n
        assert oracles.rank_gf2(list(all_ones)) == 1
        assert all(all_ones[i] >> i & 1 and (all_ones[i] ^ (1 << i)) & ~g.rows[i] == 0 for i in range(n))
        r = analyze(g)
        assert (r.mais, r.minrank, r.ell_star) == (1, 1, 1)
        assert oracles.decodes(n, g.rows, oracles.linear_encoder(r.code))

    pentagon = parse_digraph(PENTAGON_TEXT)
    assert oracles.mais_order(5, pentagon.rows) == 2
    assert oracles.minrank_value(5, pentagon.rows) == 3
    r = analyze(pentagon)
    assert (r.mais, r.minrank, r.ell_star) == (2, 3, 3)
    # the exact length is pinned without trusting the coloring search:
    # 32 tuples over independence number force more than 4 colors, and the
    # produced three-bit code decodes, so ceil(log2 chi) is exactly 3
    adj = oracles.confusion_adjacency(5, pentagon.rows)
    alpha = oracles.independence_number(adj)
    assert -(-32 // alpha) > 4
    assert len(r.code) == 3
    assert oracles.decodes(5, pentagon.rows, oracles.linear_encoder(r.code))


def test_criterion_10_reports_are_worker_count_invariant(full_records, tmp_path):
    serial = run_sweep(range(1, 6), jobs=1)
    wide = run_sweep(range(1, 6), jobs=3)
    path_serial = tmp_path / "serial.csv"
    path_wide = tmp_path / "wide.csv"
    write_report(serial, path_serial)
    write_report(wide, path_wide)
    assert path_serial.read_bytes() == path_wide.read_bytes()
    assert report_text(full_records) == path_serial.read_text()
