"""Sweep harness: records, caching, summaries, claim checks."""

import copy
import errno
import hashlib
import importlib.util
import io
import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import indexcoding.graph as graph
import indexcoding.verify as verify
import oracles
from indexcoding.codec import bits_from_mask
from indexcoding.confusion import ell_star
from indexcoding.graph import (
    CanonicalKey,
    Digraph,
    adjacency_code,
    canonical_key,
    digraph_from_code,
    digraph_from_key,
    parse_digraph,
)
from indexcoding.verify import (
    REPORT_HEADER,
    SweepSummary,
    VerificationRecord,
    analyze,
    check_lemma_mais2,
    check_monotonicity,
    check_structural_conditions,
    load_cache,
    maximal_gap_classes,
    report_text,
    run_sweep,
    summarize,
    summary_text,
    verify_theorem,
    write_report,
)

FIG = parse_digraph("n 4 ; 1-2 1-3 2-3 2->4 4->1")
PENTAGON = parse_digraph("n 5 ; 1-3 3-5 5-2 2-4 4-1")


def rebuilt(record, **changes):
    """The record with some stored fields changed."""
    return record._replace(**changes)


def assert_one_sweep_ignores(cache, orders, cold, bad_lines):
    """One sweep over a cache holding bad_lines gives the cold records, and
    leaves each cold line in the cache exactly once beside every bad line."""
    assert run_sweep(orders, cache_path=cache) == cold
    lines = Counter(cache.read_bytes().splitlines())
    assert all(lines[r.line.encode()] == 1 for r in cold)
    assert all(lines[line.encode()] for line in bad_lines)


def edit_line(line, **fields):
    """A record line with the named REPORT_HEADER columns set to new text."""
    columns = REPORT_HEADER.split(",")
    values = line.split(",")
    for name, text in fields.items():
        values[columns.index(name)] = text
    return ",".join(values)


def test_analyze_fig_graph():
    r = analyze(FIG)
    assert (r.mais, r.minrank, r.ell_star) == (2, 2, 2)
    assert (r.n, r.arcs, r.edges) == (4, 8, 3)
    assert not r.gap
    assert r.category == 0  # reserved for five-vertex mais-2 classes
    assert r.chromatic == 0  # bounds met, no coloring needed
    assert r.code == (0b0111, 0b1110)
    assert r.line.endswith(",1110;0111")
    assert r.key == canonical_key(FIG)


def test_analyze_single_vertex():
    r = analyze(parse_digraph("n 1"))
    assert (r.mais, r.minrank, r.ell_star) == (1, 1, 1)
    assert r.code == (1,)


def test_analyze_pentagon():
    r = analyze(PENTAGON)
    assert (r.mais, r.minrank, r.ell_star) == (2, 3, 3)
    assert r.gap
    assert r.category == 4
    assert r.chromatic == 8
    assert len(r.code) == 3
    assert oracles.decodes(5, PENTAGON.rows, oracles.linear_encoder(r.code))


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


def test_cold_sweep_builds_each_representative_once(monkeypatch):
    # the keys come from the orbit tables, so only the analysis of each
    # class builds its representative: 1 + 3 + 16 + 218 classes
    built = []
    from_code = graph.digraph_from_code

    def counted(n, code):
        built.append((n, code))
        return from_code(n, code)

    monkeypatch.setattr(graph, "digraph_from_code", counted)
    records = run_sweep([1, 2, 3, 4])
    assert len(records) == len(built) == 238
    assert sorted(built) == [(r.n, r.key.key) for r in records]


def test_run_sweep_cache_reuse(tmp_path):
    cache = tmp_path / "cache.txt"
    first = run_sweep([3], cache_path=cache)
    size_after_first = cache.stat().st_size
    second = run_sweep([3], cache_path=cache)
    assert second == first
    assert cache.stat().st_size == size_after_first  # nothing re-appended
    assert load_cache(cache) == {r.line.encode() for r in first}


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
    # a pickled record travels as its six fields and renders its line on reading
    wide, serial = run_sweep([4], jobs=3), run_sweep([4])
    assert wide == serial
    assert [r.line for r in wide] == [r.line for r in serial]


def test_a_record_is_a_named_tuple_that_renders_its_line_from_its_fields():
    r = analyze(FIG)
    # arcs, minrank, ell_star, gap and line are read off the fields, not stored
    assert VerificationRecord._fields == ("key", "edges", "mais", "category", "chromatic", "code")
    assert not hasattr(r, "__dict__")
    for name in VerificationRecord._fields:
        with pytest.raises(AttributeError):
            setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert r.line == "0x2fb,4,8,3,2,2,2,0,0,0,1110;0111"
    bumped = rebuilt(r, chromatic=5)
    assert bumped.ell_star == 3
    assert bumped.line == edit_line(r.line, ell_star="3", gap="1", chromatic="5")
    assert bumped != r
    assert rebuilt(bumped, chromatic=0) == r and hash(rebuilt(bumped, chromatic=0)) == hash(r)
    assert r == tuple(r)
    for twin in (copy.copy(r), pickle.loads(pickle.dumps(r))):
        assert twin == r and twin.line == r.line


def test_verify_theorem_small_orders():
    records, summary, checks = verify_theorem(3)
    assert records == run_sweep([1, 2, 3])
    assert list(checks) == [
        "mais >= n-2 squeeze",
        "monotonicity (n=2, exhaustive)",
        "monotonicity (n=3, exhaustive)",
    ]
    assert all(checks.values())
    assert summary.class_counts == ((1, 1), (2, 3), (3, 16))
    assert summary.total_classes == 20
    assert summary.gap_count == 0
    assert summary.violations == ()
    with pytest.raises(ValueError):
        verify_theorem(0)
    with pytest.raises(ValueError):
        verify_theorem(6)


def test_verify_theorem_reports_poisoned_cache(tmp_path, edge_class_violation):
    cache = tmp_path / "cache.txt"
    _, summary, _ = verify_theorem(2, cache_path=cache)
    assert summary.violations == (CanonicalKey(2, 3),)
    assert summary.violations[0].hex == "0x3"


def test_load_cache_skips_uncertified_lines(tmp_path, full_records):
    cache = tmp_path / "cache.txt"
    good = next(r for r in full_records if r.key == canonical_key(PENTAGON))
    assert (good.mais, good.minrank, good.ell_star) == (2, 3, 3)
    first_two_rows = ";".join(bits_from_mask(row, 5) for row in good.code[:2])
    encode = oracles.linear_encoder(good.code)
    old_general_form = ";".join(f"{bits_from_mask(x, 5)} {''.join(map(str, encode(x)))}" for x in range(1 << 5))
    moved = Digraph(5, oracles.relabel(5, digraph_from_key(good.key).rows, (1, 0, 2, 3, 4)))
    assert adjacency_code(moved) != good.key.key
    uncertified = [
        edit_line(good.line, minrank="2", ell_star="2", gap="0"),  # code longer than minrank
        edit_line(good.line, minrank="2", ell_star="2", gap="0", code=first_two_rows),  # does not decode
        edit_line(good.line, mais="1"),  # mais disagrees with a fresh computation
        edit_line(good.line, ell_star="2", gap="0"),  # ell_star disagrees with the chromatic number
        edit_line(good.line, code="10x01"),  # code does not parse
        edit_line(good.line, code="1000;0100;0010"),  # code for four messages
        edit_line(good.line, code=old_general_form),  # "tuple codeword" text, no longer read
        edit_line(good.line, code="11001;01001;00110"),  # another minimal code that decodes
        # right for the relabeled graph, but its key is not a canonical key
        analyze(moved, key=CanonicalKey(5, adjacency_code(moved))).line,
        # order outside 1..5: a six-cycle
        "0x6533298,6,12,6,3,3,3,0,0,0,100001;010100;001010",
        "0x0,1,0",  # torn after three fields
    ]
    # with every other cold line already there, only the pentagon's is appended
    cache.write_text("".join(line + "\n" for line in uncertified + [r.line for r in full_records if r != good]))
    assert_one_sweep_ignores(cache, range(1, 6), full_records, uncertified)


def test_load_cache_drops_tampered_lines(tmp_path):
    cache = tmp_path / "cache.txt"
    clean = run_sweep([1, 2, 3], cache_path=cache)
    clean_lines = cache.read_text()
    target = next(r for r in clean if r.key == CanonicalKey(3, 5))
    assert target.mais == target.minrank and target.chromatic == 0
    code_text = target.line.rsplit(",", 1)[1]
    tampered = [
        edit_line(target.line, arcs=str(target.arcs + 1)),
        edit_line(target.line, edges=str(target.edges + 1)),
        edit_line(target.line, category="1"),
        edit_line(target.line, gap="0" if target.gap else "1"),
        edit_line(target.line, ell_star=str(target.ell_star + 1)),
        edit_line(target.line, chromatic="9"),
        edit_line(target.line, code=" " + code_text.replace(";", " ; ") + " ;"),
        # a longer code that decodes, with the lengths raised to match
        edit_line(target.line, code="100;010;001", minrank="3", ell_star="3", gap="1"),
        # the same longer code with the line rebuilt from it: only minimality fails
        edit_line(target.line, code="100;010;001", minrank="3", chromatic="4"),
    ]
    cache.write_text(clean_lines.replace(target.line, "\n".join(tampered)))
    assert_one_sweep_ignores(cache, [1, 2, 3], clean, tampered)


def test_respelled_cache_lines_are_recomputed(tmp_path):
    # each line reads back as the cold record's values, but only the cold
    # line's own bytes count as logged, so the sweep appends that line once
    cache = tmp_path / "cache.txt"
    canonical = "0x7,3,3,1,2,2,2,0,0,0,100;011"
    cold = run_sweep([3])
    assert canonical in [r.line for r in cold]
    respelled = [
        edit_line(canonical, gap="x"),
        edit_line(canonical, n="+3"),
        edit_line(canonical, arcs=" 3"),
        edit_line(canonical, canonical_key="0X0007"),
        edit_line(canonical, category="-0"),
    ]
    cache.write_text("".join(bad + "\n" for bad in respelled))
    assert_one_sweep_ignores(cache, [3], cold, respelled)


def test_load_cache_replays_the_chromatic_number(tmp_path, full_records):
    # no cache value is read: every sweep colors the confusion graph again
    # where the bounds differ
    cache = tmp_path / "cache.txt"
    good = next(r for r in full_records if r.key == canonical_key(PENTAGON))
    assert (good.key.hex, good.chromatic, good.ell_star) == ("0x356ac", 8, 3)
    forged = edit_line(good.line, chromatic="4", ell_star="2", gap="0")
    # chi 5 keeps the bit width, so ell_star and gap still match the line
    edited = edit_line(good.line, chromatic="5")
    cache.write_text("".join((edited if r == good else r.line) + "\n" for r in full_records) + forged + "\n")
    assert_one_sweep_ignores(cache, range(1, 6), full_records, [forged, edited])


def test_warm_sweep_replays_only_the_asked_keys(tmp_path, monkeypatch, full_records):
    cache = tmp_path / "cache.txt"
    cache.write_text("".join(r.line + "\n" for r in full_records))
    replayed = []
    analyze_key = verify._analyze_key

    def counted(key):
        replayed.append(key)
        return analyze_key(key)

    monkeypatch.setattr(verify, "_analyze_key", counted)
    assert run_sweep([3], cache_path=cache) == [r for r in full_records if r.n == 3]
    assert len(replayed) == 16


def test_duplicate_cache_lines_replay_once(tmp_path, monkeypatch, full_records):
    # two runs sharing one cache at once each append a copy of every line
    order3 = [r for r in full_records if r.n == 3]
    cache = tmp_path / "cache.txt"
    cache.write_text("".join(r.line + "\n" for r in full_records) * 2)
    replayed = []
    analyze_key = verify._analyze_key

    def counted(key):
        replayed.append(key)
        return analyze_key(key)

    monkeypatch.setattr(verify, "_analyze_key", counted)
    assert run_sweep([3], cache_path=cache) == order3
    assert len(replayed) == 16
    # each key is analyzed once per sweep, whatever lines the cache holds
    replayed.clear()
    edited = [edit_line(r.line, arcs=str(r.arcs + 1)) for r in order3]
    cache.write_text("".join(line + "\n" for line in [r.line for r in order3] + edited))
    assert run_sweep([3], cache_path=cache) == order3
    assert len(replayed) == 16


def test_rejected_cache_lines_cost_one_replay_per_load(tmp_path, monkeypatch, full_records):
    # a respelled line stays in the append-only cache beside the canonical
    # line the first run appends; every run analyzes each key once
    order3 = [r for r in full_records if r.n == 3]
    cache = tmp_path / "cache.txt"
    lines = [r.line.replace("0x7,3,", "0x7,+3,") for r in order3]
    assert sum(line.startswith("0x7,+3,") for line in lines) == 1
    cache.write_text("".join(line + "\n" for line in lines))
    replayed = []
    analyze_key = verify._analyze_key

    def counted(key):
        replayed.append(key)
        return analyze_key(key)

    monkeypatch.setattr(verify, "_analyze_key", counted)
    counts = []
    for _ in range(3):
        replayed.clear()
        assert run_sweep([3], cache_path=cache) == order3
        counts.append(len(replayed))
    assert counts == [16, 16, 16]


def test_a_sweep_appends_exactly_the_cold_lines_its_cache_lacks(tmp_path):
    # seeded caches of kept, dropped, duplicated and mutated cold lines,
    # with stray bytes and any line end: after one sweep the cache is its
    # old bytes, with a torn tail ended, then the missing cold lines in key
    # order
    cache = tmp_path / "cache.txt"
    cold = run_sweep([1, 2, 3])
    cold_lines = [r.line.encode() for r in cold]
    rng = random.Random(26)
    for _ in range(40):
        lines = []
        for line in cold_lines:
            kind = rng.randrange(6)
            if kind == 1:
                lines.append(line[: rng.randrange(len(line))])
            elif kind == 2:
                lines.append(line.replace(b",", b", ", 1))
            elif kind == 4:
                lines.append(b"\xff" + line)
            # dropped, doubled, or kept or dropped at random
            lines.extend([line] * {0: 0, 3: 2}.get(kind, rng.randrange(2)))
        rng.shuffle(lines)
        old = rng.choice([b"\n", b"\r\n", b"\r"]).join(lines) + rng.choice([b"", b"\n", b"\r"])
        cache.write_bytes(old)
        assert run_sweep([1, 2, 3], cache_path=cache) == cold
        ended = old + b"\n" if old and not old.endswith(b"\n") else old
        kept = set(old.splitlines())
        assert cache.read_bytes() == ended + b"".join(line + b"\n" for line in cold_lines if line not in kept)


def gap_record(n, key_code, edges):
    """A record with mais 2 and a chromatic number of 7, so ell_star 3."""
    return VerificationRecord(
        key=CanonicalKey(n, key_code), edges=edges, mais=2, category=0, chromatic=7, code=(0b01, 0b10),
    )


def test_summarize_and_maximal_classes_on_crafted_family():
    # chain under arc deletion at n = 2: empty < single arc < edge (all marked gap)
    empty, arc, edge = gap_record(2, 0x0, 0), gap_record(2, 0x1, 0), gap_record(2, 0x3, 1)
    texts = ("n 2", "n 2 ; 1->2", "n 2 ; 1-2")
    assert [r.key for r in (empty, arc, edge)] == [canonical_key(parse_digraph(t)) for t in texts]
    assert [(r.arcs, r.ell_star, r.gap) for r in (empty, arc, edge)] == [(0, 3, True), (1, 3, True), (2, 3, True)]
    cores = maximal_gap_classes([empty, arc, edge])
    assert cores == [empty]
    summary = summarize([empty, arc, edge])
    assert summary.gap_count == 3
    assert summary.maximal_gap_keys == (empty.key,)


def test_maximal_classes_are_minimal_over_the_down_closure():
    # not convex: the single arc between the empty graph and the edge is no
    # gap, so the edge has no gap one arc below it, yet the empty graph lies
    # two arcs below and the edge is no core
    empty, edge = gap_record(2, 0x0, 0), gap_record(2, 0x3, 1)
    assert maximal_gap_classes([edge, empty]) == [empty]
    # orders are kept apart, and the cores come back in input order
    empty3 = gap_record(3, 0x0, 0)
    assert maximal_gap_classes([edge, empty3, empty]) == [empty3, empty]
    assert maximal_gap_classes([]) == []


def test_check_lemma_small_orders():
    assert check_lemma_mais2(run_sweep(range(1, 4)))
    records = run_sweep(range(1, 5))
    assert check_lemma_mais2(records)
    # a squeezed class (n = 4, mais 2) recorded as colored with 5 colors
    # claims 3 bits, above its mais
    squeezed = next(r for r in records if r.n == 4 and r.mais == 2)
    assert not check_lemma_mais2([rebuilt(squeezed, chromatic=5)])


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
                if i != j and not g.rows[i] >> j & 1:
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
    # a record colored with 2 colors claims 1 bit
    lowered = [rebuilt(r, chromatic=2) if r.key == empty else r for r in full_records]
    assert not check_monotonicity(5, lowered)


def test_check_monotonicity_needs_every_class(full_records):
    pentagon = canonical_key(PENTAGON)
    with pytest.raises(ValueError):
        check_monotonicity(5, [r for r in full_records if r.key != pentagon])
    with pytest.raises(ValueError):
        check_monotonicity(5, [r for r in full_records if r.n < 5])


def test_the_inclusion_checks_store_nothing():
    # a fresh interpreter, so no earlier call has filled a cache: with the
    # records and the orbit tables built, every monotonicity check and the
    # gap cores leave under 64 KiB behind
    probe = (
        "import gc, tracemalloc\n"
        "from indexcoding.verify import check_monotonicity, maximal_gap_classes, run_sweep\n"
        "records = run_sweep(range(1, 6))\n"
        "gaps = [r for r in records if r.gap]\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "assert all(check_monotonicity(n, records) for n in range(2, 6))\n"
        "assert len(maximal_gap_classes(gaps)) == 2\n"
        "gc.collect()\n"
        "retained = tracemalloc.get_traced_memory()[0]\n"
        "assert retained < 64 * 1024, retained\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    assert path.read_bytes() == report_text(records).encode()
    assert text.splitlines()[1:] == [r.line for r in records]


def test_full_report_bytes_are_pinned(full_records):
    # the digest of the five-vertex report the benchmark also checks
    digest = hashlib.sha256(report_text(full_records).encode()).hexdigest()
    assert digest == "12956fe15c1a253e37f92269024f3823d129a261875a2d88afc62a00652e1782"


def test_interrupted_sweep_keeps_its_fresh_records(tmp_path, monkeypatch):
    cache = tmp_path / "cache.txt"
    done = []
    analyze_one = verify.analyze

    def interrupted(g, *, key):
        if len(done) == 10:
            raise KeyboardInterrupt
        done.append(key)
        return analyze_one(g, key=key)

    monkeypatch.setattr(verify, "analyze", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep([4], cache_path=cache)
    monkeypatch.undo()
    cold = run_sweep([4])
    assert done == [r.key for r in cold[:10]]
    assert cache.read_bytes().splitlines() == [r.line.encode() for r in cold[:10]]


def test_write_report_failure_keeps_the_old_report(tmp_path, monkeypatch):
    records = run_sweep([2, 3])
    path = tmp_path / "report.csv"
    path.write_text("old report\n")

    class FullDisk(io.FileIO):
        """A file whose disk fills after 64 bytes."""

        room = 64

        def write(self, data):
            if len(data) > self.room:
                super().write(bytes(data[: self.room]))
                raise OSError(errno.ENOSPC, "No space left on device")
            self.room -= len(data)
            return super().write(data)

    def open_on_full_disk(file, mode="r", **kwargs):
        assert mode == "w"
        return io.TextIOWrapper(io.BufferedWriter(FullDisk(file, "w"), buffer_size=256), **kwargs)

    monkeypatch.setattr(verify, "open", open_on_full_disk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        write_report(records, path)
    assert path.read_text() == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_a_sweep_holds_its_records_and_writes_its_report_in_little_memory(tmp_path):
    # the layer probe of tools/bench_pairs.py, in a fresh interpreter: the
    # 9846 records with their lines are held in slots, and the report is
    # streamed to its file, not joined into one text and encoded
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_pairs", root / "tools" / "bench_pairs.py")
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).resolve().parents[1])}
    report = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-c", driver.PROBE, str(report)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)
    assert set(layers) == set(driver.LAYERS)
    assert layers["import_cli_ms"] > 0
    assert layers["records_held_mib"] < 4.1
    assert layers["write_report_peak_mib"] < 0.5
    assert hashlib.sha256(report.read_bytes()).hexdigest() == "12956fe15c1a253e37f92269024f3823d129a261875a2d88afc62a00652e1782"


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
