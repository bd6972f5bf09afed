"""Command-line behavior: outputs, exit codes, determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import indexcoding.cli as cli
import indexcoding.verify as verify
from indexcoding.cli import main
from indexcoding.codec import parse_code
from indexcoding.graph import canonical_key, parse_digraph
from indexcoding.verify import REPORT_HEADER, analyze, load_cache, report_text
from test_verify import edit_line

FIG_TEXT = "n 4 ; 1-2 1-3 2-3 2->4 4->1"
PENTAGON_TEXT = "n 5 ; 1-3 3-5 5-2 2-4 4-1"
K4_TEXT = "n 4 ; 1-2 1-3 1-4 2-3 2-4 3-4"
# the gap core 0x355ad under the relabeling 1->3, 2->5, 3->1, 4->4, 5->2
GAP_CORE_TEXT = "n 5 ; 3-4 2-3 1-5 2-5 1->2 4->1 2->4"


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_leaves_the_pool_module_unloaded():
    # only a sweep with jobs > 1 imports multiprocessing
    probe = "import sys, indexcoding.cli; assert 'multiprocessing' not in sys.modules, 'loaded'"
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # dataclasses pulls in inspect, ast, dis and tokenize: most of a cold
    # start's import time, which every CLI process pays
    probe = (
        "import sys, indexcoding.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_builds_no_parser():
    # the parser is built by the first main call, not at import
    probe = "import indexcoding.cli as cli; assert cli.build_parser.cache_info().currsize == 0, 'built'"
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_one_find_code_call_builds_few_relabeling_rows():
    # chunk images are built on first read, so a single query does not pay
    # for the thousand or so a sweep reads
    probe = (
        "import contextlib, io, indexcoding.cli as cli, indexcoding.graph as graph\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['find-code', '--graph', {PENTAGON_TEXT!r}]) == 0\n"
        "built = graph._code_images.cache_info().currsize\n"
        "assert built < 64, built\n"
    )
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_the_five_vertex_orbit_table_reads_at_most_two_chunks_of_images():
    # every caller splits a code into its two 10-bit chunks, so the image
    # cache holds at most 2 * 2^10 entries however many codes are relabeled
    probe = (
        "import indexcoding.graph as graph\n"
        "graph.orbit_table(5)\n"
        "built = graph._code_images.cache_info().currsize\n"
        "assert built <= 2048, built\n"
    )
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    assert main(["classify", "--graph", "n 1"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["find-code", "--graph", PENTAGON_TEXT]) == 0
    assert built == []
    capsys.readouterr()


def test_a_usage_error_leaves_the_next_call_unchanged(capsys):
    argv = ["find-code", "--graph", PENTAGON_TEXT]
    assert main(argv) == 0
    first = capsys.readouterr().out
    for bad in (["find-code"], ["verify", "--jobs", "0"]):
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == first


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(FIG_TEXT + "\n")
    assert main(["find-code", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "10000;01010;00101\n"
    # neither the csv format nor the inline graph carries over
    assert main(["find-code", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ell_star: 2\ncode (linear, length 2):\n") and out.count(": ok") == 4


def test_shared_parser_answers_like_a_fresh_interpreter(capsys):
    assert canonical_key(parse_digraph(GAP_CORE_TEXT)).hex == "0x355ad"
    assert main(["classify", "--graph", FIG_TEXT, "--format", "csv"]) == 0
    with pytest.raises(SystemExit):
        main(["find-code"])
    capsys.readouterr()
    for text in (PENTAGON_TEXT, GAP_CORE_TEXT):
        for fmt in ("human", "csv"):
            argv = ["find-code", "--graph", text, "--format", fmt]
            cold = _fresh_python("-m", "indexcoding.cli", *argv)
            rc = main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (cold.returncode, cold.stdout, cold.stderr)


# per graph command: a valid call, no graph source, both sources, an
# unrecognized extra argument, help
_GRAPH_CALLS = ([], ["--graph", FIG_TEXT, "--input", "g.txt"], ["--graph", FIG_TEXT, "extra"], ["-h"])
ROUTING_CASES = [
    *([command, *call] for command in ("analyze", "find-code", "classify") for call in (["--graph", FIG_TEXT], *_GRAPH_CALLS)),
    ["verify", "--max-n", "2"],
    ["verify", "--max-n", "9"],
    ["verify", "--max-n", "2", "extra"],
    ["verify", "-h"],
    ["-h"],
    ["bogus"],
    [],
]


@pytest.mark.parametrize("argv", ROUTING_CASES, ids=lambda argv: " ".join(argv).replace(FIG_TEXT, "G") or "<empty>")
def test_routed_parse_answers_like_a_fresh_interpreter(argv, monkeypatch, capsys):
    # main hands a known command's arguments to that command's parser; the
    # status and both streams must be what the full parse in a fresh
    # interpreter gives (help is wrapped at COLUMNS, so both get the same)
    monkeypatch.setenv("COLUMNS", "80")
    cold = _fresh_python("-m", "indexcoding.cli", *argv)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (cold.returncode, cold.stdout, cold.stderr)


def test_analyze_human(capsys):
    assert main(["analyze", "--graph", FIG_TEXT]) == 0
    out = capsys.readouterr().out
    assert "mais: 2" in out
    assert "minrank: 2" in out
    assert "ell_star: 2" in out
    assert "gap: no" in out
    assert "  1110" in out and "  0111" in out


def test_analyze_csv_matches_record(capsys):
    assert main(["analyze", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1] == analyze(parse_digraph(PENTAGON_TEXT)).line


def test_analyze_single_vertex(capsys):
    assert main(["analyze", "--graph", "n 1"]) == 0
    out = capsys.readouterr().out
    assert "mais: 1" in out and "minrank: 1" in out and "ell_star: 1" in out


def test_analyze_reads_input_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(FIG_TEXT + "\n")
    assert main(["analyze", "--input", str(path)]) == 0
    assert "ell_star: 2" in capsys.readouterr().out


def test_analyze_parse_error_exits_2(capsys):
    assert main(["analyze", "--graph", "n 4 ; 1->9"]) == 2
    assert "token" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "absent.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_directory_as_input_exits_2(tmp_path, capsys):
    assert main(["find-code", "--input", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_directory_as_cache_exits_2(tmp_path, capsys):
    assert main(["verify", "--max-n", "2", "--cache", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cache_in_missing_directory_exits_2_before_any_analysis(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "analyze", lambda *args, **kwargs: calls.append(args))
    report = tmp_path / "report.csv"
    cache = tmp_path / "missing" / "cache.txt"
    assert main(["verify", "--max-n", "4", "--cache", str(cache), "--out", str(report)]) == 2
    assert calls == [] and not report.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_out_in_missing_directory_exits_2_before_any_analysis(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "analyze", lambda *args, **kwargs: calls.append(args))
    report = tmp_path / "missing" / "r.csv"
    assert main(["verify", "--max-n", "3", "--out", str(report)]) == 2
    assert calls == [] and not report.exists()
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "r.csv" in captured.err and ".tmp" not in captured.err


def test_out_naming_a_directory_exits_2_before_any_analysis(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "analyze", lambda *args, **kwargs: calls.append(args))
    target = tmp_path / "adir"
    target.mkdir()
    assert main(["verify", "--max-n", "2", "--out", str(target)]) == 2
    assert calls == [] and target.is_dir() and list(target.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert str(target) in captured.err and ".tmp" not in captured.err


def test_empty_out_exits_2_before_any_analysis(tmp_path, capsys, monkeypatch):
    # Path("") is ".", a directory, so an empty report path is refused, not dropped
    calls = []
    monkeypatch.setattr(verify, "analyze", lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--max-n", "2", "--out", ""]) == 2
    assert calls == [] and list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.err == "error: cannot write the report '': it is a directory\n"
    assert captured.out == ""


def test_verify_force_is_a_usage_error(capsys):
    # no cache value is ever read, so no run recomputes by flag
    with pytest.raises(SystemExit) as err:
        main(["verify", "--max-n", "2", "--force"])
    assert err.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_non_utf8_cache_line_is_recomputed(tmp_path, capsys):
    cache, cold, warm = tmp_path / "cache.txt", tmp_path / "cold.csv", tmp_path / "warm.csv"
    assert main(["verify", "--max-n", "3", "--cache", str(cache), "--out", str(cold)]) == 0
    cold_out = capsys.readouterr().out
    with cache.open("ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    assert main(["verify", "--max-n", "3", "--cache", str(cache), "--out", str(warm)]) == 0
    assert capsys.readouterr().out == cold_out
    assert warm.read_bytes() == cold.read_bytes()


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"n 3 ; 1-2 \xff\xfe\n")
    assert main(["classify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_graph_source_is_required_and_exclusive(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--graph", "n 1", "--input", "x"])
    assert err.value.code == 2
    capsys.readouterr()


def test_classify_pentagon(capsys):
    assert main(["classify", "--graph", PENTAGON_TEXT]) == 0
    out = capsys.readouterr().out
    assert "girth: 5" in out
    assert "category: 4" in out
    assert "applies: yes" in out


def test_classify_fig_graph(capsys):
    assert main(["classify", "--graph", FIG_TEXT]) == 0
    out = capsys.readouterr().out
    assert "girth: 3" in out
    assert "category: 2" in out
    assert "applies: no" in out


def test_classify_no_edges(capsys):
    assert main(["classify", "--graph", "n 5"]) == 0
    out = capsys.readouterr().out
    assert "girth: none" in out
    assert "category: 1" in out


def test_classify_csv(capsys):
    assert main(["classify", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    assert capsys.readouterr().out.strip() == "5,4"


def test_find_code_complete_graph(capsys):
    assert main(["find-code", "--graph", K4_TEXT]) == 0
    out = capsys.readouterr().out
    assert "ell_star: 1" in out
    assert "1111 = x1+x2+x3+x4" in out
    assert out.count(": ok") == 4


def test_find_code_human_decodes_once(monkeypatch, capsys):
    receiver_decodes = cli.receiver_decodes
    calls = []

    def counted(g, code):
        calls.append(g)
        return receiver_decodes(g, code)

    monkeypatch.setattr(cli, "receiver_decodes", counted)
    assert main(["find-code", "--graph", PENTAGON_TEXT]) == 0
    assert capsys.readouterr().out.count(": ok") == 5
    assert len(calls) == 1


def test_find_code_pentagon_csv(capsys):
    assert main(["find-code", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    code = parse_code(capsys.readouterr().out.strip())
    assert code.length == 3


def test_find_code_renders_no_report_line(monkeypatch, capsys):
    # find-code prints the code through cli's own serialize_code; the record
    # renders its report line only when line is read, which find-code never does
    serialize_code = verify.serialize_code
    calls = []

    def counted(n, rows):
        calls.append(rows)
        return serialize_code(n, rows)

    monkeypatch.setattr(verify, "serialize_code", counted)
    assert main(["find-code", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    assert parse_code(capsys.readouterr().out.strip()).length == 3
    assert calls == []


def test_verify_small(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "classes: 1,3,16" in out
    assert "violations: 0" in out
    assert "check mais >= n-2 squeeze: ok" in out
    for k in (2, 3):
        assert f"check monotonicity (n={k}, exhaustive): ok" in out


def test_verify_max_n_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--max-n", "6"])
    assert err.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("source", ["--graph", "--input"])
@pytest.mark.parametrize("command", ["analyze", "find-code", "classify"])
def test_orders_above_five_exit_2(command, source, tmp_path, capsys):
    text = "n 6 ; 1-2"
    if source == "--input":
        path = tmp_path / "g.txt"
        path.write_text(text)
        text = str(path)
    assert main([command, source, text]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: token 2: vertex count 6 outside supported range 1..5\n"
    assert captured.out == "" and "Traceback" not in captured.err


# every line break str.splitlines reads besides "\n", "\r\n" and "\r"
FOREIGN_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize(
    "text, error",
    [
        # these four parsed, as "1-2 2-3" and "n 3 ; 1->2", before lines ended
        # only at ASCII line ends and tokens split only at spaces and tabs
        ("n 3 ; 1-2 # note\x1c2-3", "token 5: malformed arc/edge token '\\x1c2-3'"),
        ("n 3 ; 1-2 # note\u20282-3", "token 5: malformed arc/edge token '\\u20282-3'"),
        ("n 3 ; 1-2 # x\x0b2-3", "token 5: malformed arc/edge token '\\x0b2-3'"),
        ("n\xa03 ;\u30001->2", "token 1: expected 'n', got 'n\\xa03'"),
        *((f"n 3 ; 1-2 # c{c}2-3", f"token 5: malformed arc/edge token {c + '2-3'!r}") for c in FOREIGN_BREAKS),
        *((f"n 3 ; 1-2{c}2-3", f"token 4: malformed arc/edge token {'1-2' + c + '2-3'!r}") for c in FOREIGN_BREAKS),
        *((f"n 3 ;{c}1-2", f"token 3: malformed arc/edge token {';' + c + '1-2'!r}") for c in "\xa0\u2003\u3000"),
    ],
)
def test_graph_text_breaks_only_at_ascii_line_ends_spaces_and_tabs(text, error, capsys):
    assert main(["find-code", "--graph", text, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n" and captured.out == ""


def test_graph_text_ascii_line_ends_end_comments(capsys):
    assert main(["find-code", "--graph", "n 3 # c\r1-2 # c\r\n2->3\t# c\n\t3->1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == analyze(parse_digraph("n 3 ; 1-2 2->3 3->1")).line.rsplit(",", 1)[1] + "\n"


def test_non_ascii_and_non_decimal_numbers_exit_2_without_a_traceback(capsys):
    # superscript two, full-width five and Arabic-Indic two are not numbers
    for text, token in (("n \u00b2", "\u00b2"), ("n \uff15 ; 1->2", "\uff15"), ("n 2 ; 1->\u0662", "1->\u0662")):
        assert main(["analyze", "--graph", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: token ") and repr(token) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
    for option, value in (("--jobs", "1_0"), ("--max-n", "\uff15"), ("--jobs", " 2")):
        with pytest.raises(SystemExit) as err:
            main(["verify", option, value])
        assert err.value.code == 2
        assert f"argument {option}: not an integer: {value!r}" in capsys.readouterr().err


def test_verify_jobs_below_one_usage_error(capsys):
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--max-n", "2", "--jobs", jobs])
        assert err.value.code == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_verify_pool_is_no_larger_than_the_cpus_or_the_task_chunks(monkeypatch, tmp_path, capsys):
    # a pool starts every worker before any work, so --jobs 100000 must not
    # ask for 100000; the fake pool records its size and maps in process
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    serial = tmp_path / "serial.csv"
    assert main(["verify", "--max-n", "4", "--out", str(serial)]) == 0
    # 238 classes up to four vertices make 4 chunks of 64, the 20 up to
    # three make one, and an unknown CPU count counts as one
    for cpus, max_n, size in ((3, 4, [3]), (8, 4, [4]), (None, 4, []), (8, 3, [])):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        sizes.clear()
        out = tmp_path / "report.csv"
        assert main(["verify", "--max-n", str(max_n), "--jobs", "100000", "--out", str(out)]) == 0
        assert sizes == size
        if max_n == 4:
            assert out.read_bytes() == serial.read_bytes()
    capsys.readouterr()


def test_verify_report_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["verify", "--max-n", "3", "--out", str(out1)]) == 0
    assert main(["verify", "--max-n", "3", "--out", str(out2), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == REPORT_HEADER


def test_verify_violation_exits_1(tmp_path, capsys, edge_class_violation):
    cache = tmp_path / "cache.txt"
    assert main(["verify", "--max-n", "2", "--cache", str(cache)]) == 1
    out = capsys.readouterr().out
    assert "violations: 1" in out
    assert "violation: n=2 key=0x3" in out


def test_verify_cache_speedup_same_output(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    assert main(["verify", "--max-n", "3", "--cache", str(cache)]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--max-n", "3", "--cache", str(cache)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_recomputes_a_lowered_cached_class(tmp_path, capsys, full_records):
    cache = tmp_path / "cache.txt"
    cache.write_text("".join(r.line + "\n" for r in full_records))
    assert main(["verify", "--max-n", "5", "--cache", str(cache)]) == 0
    clean_out = capsys.readouterr().out
    pentagon = canonical_key(parse_digraph(PENTAGON_TEXT))
    cache.write_text("".join(
        edit_line(r.line, minrank="2", ell_star="2", gap="0") + "\n" if r.key == pentagon
        else r.line + "\n"
        for r in full_records
    ))
    report = tmp_path / "report.csv"
    assert main(["verify", "--max-n", "5", "--cache", str(cache), "--out", str(report)]) == 0
    assert capsys.readouterr().out == clean_out
    assert report.read_text() == report_text(full_records)


def test_verify_resumes_from_a_torn_cache(tmp_path, capsys):
    cache, cold, resumed = tmp_path / "cache.txt", tmp_path / "cold.csv", tmp_path / "resumed.csv"
    assert main(["verify", "--max-n", "4", "--cache", str(cache), "--out", str(cold)]) == 0
    cold_out = capsys.readouterr().out
    text = cache.read_text()
    # a killed run leaves its last line cut short
    torn = text[: text.index("\n", len(text) // 2) - 5]
    cache.write_text(torn)
    assert main(["verify", "--max-n", "4", "--cache", str(cache), "--out", str(resumed)]) == 0
    assert capsys.readouterr().out == cold_out
    assert resumed.read_bytes() == cold.read_bytes()
    # the torn tail was ended first, so it stays one line of its own and
    # every cold line is in the cache once
    lines = cache.read_bytes().splitlines()
    assert len(lines) == 1 + 1 + 3 + 16 + 218
    assert load_cache(cache) == {line.encode() for line in text.splitlines()} | {torn.rsplit("\n", 1)[1].encode()}
