"""Command-line behavior: outputs, exit codes, determinism."""

import pytest

from indexcoding.cli import main
from indexcoding.codec import parse_code
from indexcoding.graph import parse_digraph
from indexcoding.verify import REPORT_HEADER, analyze, run_sweep

FIG_TEXT = "n 4 ; 1-2 1-3 2-3 2->4 4->1"
PENTAGON_TEXT = "n 5 ; 1-3 3-5 5-2 2-4 4-1"
K4_TEXT = "n 4 ; 1-2 1-3 1-4 2-3 2-4 3-4"


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


def test_find_code_pentagon_csv(capsys):
    assert main(["find-code", "--graph", PENTAGON_TEXT, "--format", "csv"]) == 0
    code = parse_code(capsys.readouterr().out.strip(), sep=";")
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


def test_verify_violation_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache.txt"
    records = run_sweep([2])
    lines = []
    for r in records:
        if r.arcs == 2 and r.edges == 1:
            fields = r.to_line().split(",")
            fields[6] = "2"  # claim a wrong optimal length for the edge class
            fields[7] = "1"
            lines.append(",".join(fields))
        else:
            lines.append(r.to_line())
    cache.write_text("".join(line + "\n" for line in lines))
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
