"""Sweep harness: records, caching, summaries, claim checks."""

from dataclasses import replace

import pytest

import oracles
from indexcoding.codec import parse_code
from indexcoding.confusion import ell_star
from indexcoding.graph import (
    CanonicalKey,
    Digraph,
    canonical_key,
    digraph_from_code,
    digraph_from_key,
    parse_digraph,
)
from indexcoding.verify import (
    REPORT_HEADER,
    SweepSummary,
    VerificationError,
    VerificationRecord,
    analyze,
    check_lemma_mais2,
    check_monotonicity,
    check_structural_conditions,
    find_gap_graphs,
    load_cache,
    maximal_gap_classes,
    read_report,
    report_text,
    run_sweep,
    summarize,
    summary_text,
    verify_theorem,
    write_report,
)

FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")
PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")


def test_analyze_fig_graph():
    r = analyze(FIG)
    assert (r.mais, r.minrank, r.ell_star) == (2, 2, 2)
    assert (r.n, r.arcs, r.edges) == (4, 8, 3)
    assert not r.gap
    assert r.category == 0  # reserved for five-vertex mais-2 classes
    assert r.chromatic == 0  # bounds met, no coloring needed
    assert r.code == "1110;0111"
    assert r.key == canonical_key(FIG)


def test_analyze_single_vertex():
    r = analyze(parse_digraph("n 1"))
    assert (r.mais, r.minrank, r.ell_star) == (1, 1, 1)
    assert r.code == "1"


def test_analyze_pentagon():
    r = analyze(PENTAGON)
    assert (r.mais, r.minrank, r.ell_star) == (2, 3, 3)
    assert r.gap
    assert r.category == 4
    assert r.chromatic == 8
    code = parse_code(r.code, sep=";")
    assert code.length == 3
    assert oracles.decodes(5, PENTAGON.rows, code.encode)


def test_analyze_beyond_exact_range_is_bounds_only():
    g = parse_digraph("n 6 ; 1-3 3-5 5-2 2-4 4-1")
    r = analyze(g)
    assert r.ell_star == 0 and not r.gap and r.chromatic == 0
    assert r.mais == 3 and r.minrank == 4
    code = parse_code(r.code, sep=";")
    assert code.length == r.minrank
    assert oracles.decodes(6, g.rows, code.encode)


def test_record_line_roundtrip():
    r = analyze(PENTAGON)
    assert VerificationRecord.from_line(r.to_line()) == r
    general = VerificationRecord(
        key=CanonicalKey(2, 3),
        arcs=2,
        edges=1,
        mais=1,
        minrank=1,
        ell_star=1,
        gap=False,
        category=0,
        chromatic=2,
        code="00 0;01 1;10 1;11 0",
    )
    assert VerificationRecord.from_line(general.to_line()) == general
    with pytest.raises(ValueError):
        VerificationRecord.from_line("0x0,1,0")


def test_run_sweep_orders_and_counts():
    records = run_sweep([1, 2, 3])
    assert [r.key for r in records] == sorted(r.key for r in records)
    counts = {}
    for r in records:
        counts[r.n] = counts.get(r.n, 0) + 1
    assert counts == {1: 1, 2: 3, 3: 16}
    # representatives decode from their keys
    for r in records[:5]:
        assert canonical_key(digraph_from_key(r.key)) == r.key


def test_run_sweep_cache_reuse_and_force(tmp_path):
    cache = tmp_path / "cache.txt"
    first = run_sweep([3], cache_path=cache)
    size_after_first = cache.stat().st_size
    second = run_sweep([3], cache_path=cache)
    assert second == first
    assert cache.stat().st_size == size_after_first  # nothing re-appended
    third = run_sweep([3], cache_path=cache, force=True)
    assert third == first
    assert cache.stat().st_size == 2 * size_after_first  # appended afresh
    assert load_cache(cache) == {r.key: r for r in first}


def test_cache_tolerates_torn_lines(tmp_path):
    cache = tmp_path / "cache.txt"
    run_sweep([2], cache_path=cache)
    cache.write_text(cache.read_text() + "0x3,2,garbage\n\n")
    assert run_sweep([2], cache_path=cache) == run_sweep([2])


def test_cached_and_fresh_reports_are_identical(tmp_path):
    cache = tmp_path / "cache.txt"
    fresh = report_text(run_sweep([1, 2, 3], cache_path=cache))
    cached = report_text(run_sweep([1, 2, 3], cache_path=cache))
    assert fresh == cached


def test_parallel_sweep_matches_serial():
    assert run_sweep([4], jobs=3) == run_sweep([4])


def test_verify_theorem_small_orders():
    summary = verify_theorem(3)
    assert summary.class_counts == ((1, 1), (2, 3), (3, 16))
    assert summary.total_classes == 20
    assert summary.gap_count == 0
    assert summary.violations == ()
    with pytest.raises(ValueError):
        verify_theorem(0)
    with pytest.raises(ValueError):
        verify_theorem(6)


def test_verify_theorem_aborts_on_poisoned_cache(tmp_path):
    cache = tmp_path / "cache.txt"
    records = run_sweep([2])
    bad = [
        r if r.arcs != 2 or r.edges != 1 else
        VerificationRecord(**{**r.__dict__, "ell_star": 2, "gap": True})
        for r in records
    ]
    cache.write_text("".join(r.to_line() + "\n" for r in bad))
    with pytest.raises(VerificationError) as err:
        verify_theorem(2, cache_path=cache)
    assert "0x3" in str(err.value)
    assert err.value.summary.violations == (CanonicalKey(2, 3),)


def test_summarize_and_maximal_classes_on_crafted_family():
    # chain under arc deletion: empty < single arc < edge (all marked gap)
    def rec(key_code, arcs, edges):
        return VerificationRecord(
            key=CanonicalKey(2, key_code), arcs=arcs, edges=edges,
            mais=2, minrank=2, ell_star=2, gap=True, category=0, chromatic=0, code="10;01",
        )

    empty, arc, edge = rec(0, 0, 0), rec(2, 1, 0), rec(3, 2, 1)
    cores = maximal_gap_classes([empty, arc, edge])
    assert cores == [empty]
    summary = summarize([empty, arc, edge])
    assert summary.gap_count == 3
    assert summary.maximal_gap_keys == (empty.key,)


def test_find_gap_graphs(full_records):
    assert find_gap_graphs(4) == []
    gaps = find_gap_graphs(5, records=full_records)
    assert gaps and all(r.gap and r.n == 5 for r in gaps)
    with pytest.raises(ValueError):
        find_gap_graphs(6)


def test_check_lemma_small_orders():
    assert check_lemma_mais2(3)
    assert check_lemma_mais2(4)
    with pytest.raises(ValueError):
        check_lemma_mais2(0)


def labeled_monotonicity(n):
    """Reference check over every labeled graph and every absent arc, with
    ell_star recomputed through the confusion graph (memoized per class).
    Returns the verdict and the per-class ell_star values it used."""
    memo = {}

    def ell(g):
        key = canonical_key(g)
        if key not in memo:
            memo[key] = ell_star(g)
        return memo[key]

    holds = True
    for code in range(1 << (n * (n - 1))):
        g = digraph_from_code(n, code)
        base = ell(g)
        for i in range(n):
            for j in range(n):
                if i != j and not g.has_arc(i, j):
                    rows = list(g.rows)
                    rows[i] |= 1 << j
                    holds = holds and ell(Digraph(n, tuple(rows))) <= base
    return holds, memo


def test_check_monotonicity_exhaustive_from_records(full_records):
    for n in (2, 3, 4, 5):
        assert check_monotonicity(n, full_records)
    with pytest.raises(ValueError):
        check_monotonicity(1, full_records)
    with pytest.raises(ValueError):
        check_monotonicity(6, full_records)


def test_check_monotonicity_agrees_with_labeled_reference(full_records):
    for n in (2, 3, 4):
        holds, memo = labeled_monotonicity(n)
        assert holds and check_monotonicity(n, full_records)
        assert memo == {r.key: r.ell_star for r in full_records if r.n == n}


def test_check_monotonicity_catches_a_lowered_record(full_records):
    empty = CanonicalKey(5, 0)
    assert next(r for r in full_records if r.key == empty).ell_star == 5
    lowered = [replace(r, ell_star=1) if r.key == empty else r for r in full_records]
    assert not check_monotonicity(5, lowered)


def test_check_monotonicity_needs_every_class(full_records):
    pentagon = canonical_key(PENTAGON)
    with pytest.raises(ValueError):
        check_monotonicity(5, [r for r in full_records if r.key != pentagon])
    with pytest.raises(ValueError):
        check_monotonicity(5, [r for r in full_records if r.n < 5])


def test_structural_conditions_preconditions(full_records):
    with pytest.raises(ValueError):
        check_structural_conditions([])
    with pytest.raises(ValueError):
        check_structural_conditions([r for r in full_records if r.n == 4])


def test_report_roundtrip(tmp_path):
    records = run_sweep([2, 3])
    path = tmp_path / "report.csv"
    write_report(records, path)
    text = path.read_text()
    assert text.startswith(REPORT_HEADER + "\n")
    assert read_report(path) == records
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError):
        read_report(bad)


def test_summary_text_layout():
    summary = summarize(run_sweep([1, 2, 3]))
    text = summary_text(summary)
    assert "classes: 1,3,16" in text
    assert "classes(n=3): 16" in text
    assert "violations: 0" in text
    flagged = SweepSummary(
        class_counts=((2, 3),),
        gap_count=0,
        maximal_gap_keys=(),
        violations=(CanonicalKey(2, 3),),
    )
    assert "violation: n=2 key=0x3" in summary_text(flagged)
