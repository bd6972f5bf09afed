"""Command-line behavior: outputs, exit codes, determinism."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import indexcoding.cli as cli
import indexcoding.verify as verify
from indexcoding.cli import main
from indexcoding.codec import parse_code
from indexcoding.graph import CanonicalKey, canonical_key, orbit_table, parse_digraph
from indexcoding.verify import REPORT_HEADER, analyze, load_cache, report_text

FIG_TEXT = "n 4 ; 1-2 1-3 2-3 2->4 4->1"
PENTAGON_TEXT = "n 5 ; 1-3 3-5 5-2 2-4 4-1"
K4_TEXT = "n 4 ; 1-2 1-3 1-4 2-3 2-4 3-4"


def test_cli_import_leaves_the_pool_module_unloaded():
    # only a sweep with jobs > 1 imports multiprocessing
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = "import sys, indexcoding.cli; assert 'multiprocessing' not in sys.modules, 'loaded'"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    assert lines[1] == analyze(parse_digraph(PENTAGON_TEXT)).to_line()


def test_analyze_single_vertex(capsys):
    assert main(["analyze", "--graph", "n 1"]) == 0
    out = capsys.readouterr().out
    assert "mais: 1" in out and "minrank: 1" in out and "ell_star: 1" in out


def test_analyze_reads_input_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(FIG_TEXT + "\n")
    assert main(["analyze", "--input", str(path)]) == 0
    assert "ell_star: 2" in capsys.readouterr().out


def test_analyze_bounds_only_warns_beyond_five(capsys):
    assert main(["analyze", "--graph", "n 6 ; 1-3 3-5 5-2 2-4 4-1"]) == 0
    captured = capsys.readouterr()
    assert "bounds-only" in captured.err
    assert "ell_star: n/a" in captured.out


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


def test_classify_girth_six(capsys):
    assert main(["classify", "--graph", "n 6 ; 1-2 2-3 3-4 4-5 5-6 1-6"]) == 0
    out = capsys.readouterr().out
    assert "girth: 6" in out
    assert "category: n/a" in out


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


def test_find_code_rejects_large_orders(capsys):
    assert main(["find-code", "--graph", "n 6"]) == 2
    assert "n <= 5" in capsys.readouterr().err


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
    cache.write_text("".join(r.to_line() + "\n" for r in full_records))
    assert main(["verify", "--max-n", "5", "--cache", str(cache)]) == 0
    clean_out = capsys.readouterr().out
    pentagon = canonical_key(parse_digraph(PENTAGON_TEXT))
    cache.write_text("".join(
        replace(r, minrank=2, ell_star=2, gap=False).to_line() + "\n" if r.key == pentagon
        else r.to_line() + "\n"
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
    cache.write_text(text[: text.index("\n", len(text) // 2) - 5])
    assert main(["verify", "--max-n", "4", "--cache", str(cache), "--out", str(resumed)]) == 0
    assert capsys.readouterr().out == cold_out
    assert resumed.read_bytes() == cold.read_bytes()
    # the torn tail was ended first, so every appended record loads
    keys = [CanonicalKey(n, code) for n in range(1, 5) for code in orbit_table(n).reps]
    assert len(load_cache(cache, keys)) == 1 + 3 + 16 + 218
