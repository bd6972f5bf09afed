"""The pair driver's BENCH_*.json, built from a stub measurement.

tools/bench_pairs.py clones and runs the benchmark, which the tier-1 suite
does not; here its document is assembled from made-up runs and checked
against the keys of the committed BENCH_24.json and against the verdict
rules.
"""

import argparse
import importlib.util
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_driver():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stub_measurement(pairs):
    """pairs rows per workload: op_best_ms lower by less than the parent's
    spread, setup_s spread widely at the parent, peak_rss_mib lower in
    every pair."""
    def row(seed, op, setup, rss):
        return {"seed": seed, "correct": True, "attempted": 7, "failed": 0,
                "op_best_ms": op, "setup_s": setup, "peak_rss_mib": rss}

    seeds = range(100, 100 + pairs)
    runs = {
        workload: {
            "parent": [row(s, 450 + i, 0.1 * (1 + i % 2), 24.9 + i / 100) for i, s in enumerate(seeds)],
            "change": [row(s, 450 + i - (0.5 if i else 0), 0.1, 23.0 + i / 100) for i, s in enumerate(seeds)],
        }
        for workload in ("cold_verify", "find_code_queries")
    }
    env = {"src_sha256": "0" * 64, "nproc": 2, "python": "3.11.7"}
    metrics = {"correct": True, "failed": 0, "metrics": {"verify.analyze.calls": 9846}}
    probe = {"import_cli_ms": 5.0, "records_held_mib": 3.7, "write_report_peak_mib": 0.16,
             "orbit_table_1_to_5_ms": 150.0, "chi_28_gap_classes_ms": 40.0, "analyze_us": 18.0}
    return {
        "commits": {"parent": "a" * 40, "change": "b" * 40},
        "envs": {"parent": env, "change": env},
        "runs": runs,
        "traced": {"parent": metrics, "change": metrics},
        "rounds": {"parent": [dict(probe, records_held_mib=4.7)] * pairs, "change": [probe] * pairs},
        "tier1": {"tests": 1, "failed": 0, "wall_s": 1.0, "command": "pytest"},
    }


def keys(tree, depth):
    """Every key path of a JSON tree down to depth, lists read by their first item."""
    if depth == 0:
        return set()
    if isinstance(tree, list):
        return keys(tree[0], depth) if tree else set()
    if not isinstance(tree, dict):
        return set()
    return {(k,) for k in tree} | {(k, *rest) for k, v in tree.items() for rest in keys(v, depth - 1)}


def test_the_driver_writes_every_key_of_the_bench_24_schema():
    driver = load_driver()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(parent="p", seed_base=100, pairs=5, out=None)
    doc = json.loads(json.dumps(driver.document(args, spec, stub_measurement(5))))
    bench_24 = json.loads((ROOT / "BENCH_24.json").read_text())
    # the traced metrics are run.py's: below the top three levels only the
    # workloads and the layers are compared
    assert keys(bench_24, 3) <= keys(doc, 3)
    assert keys(bench_24["workloads"], 6) <= keys(doc["workloads"], 6)
    # the two layer series of BENCH_24 are probes under the same names
    assert set(bench_24["layers"]) <= set(driver.LAYERS)
    assert keys(bench_24["layers"], 3) <= keys(doc["layers"], 3)
    layer = next(iter(bench_24["layers"].values()))
    for name in driver.LAYERS:
        assert set(layer) <= set(doc["layers"][name])
        assert set(layer["runs"]) <= set(doc["layers"][name]["runs"])
    assert doc["protocol"]["seeds"] == [100, 101, 102, 103, 104]
    assert doc["protocol"]["seconds"] == spec["run_seconds"]
    assert doc["protocol"]["driver"] == "python3 tools/bench_pairs.py --parent p --seed-base 100 --pairs 5"


def test_the_driver_marks_each_metric_by_the_rules_of_its_bound():
    driver = load_driver()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(parent="p", seed_base=100, pairs=10, out=None)
    doc = driver.document(args, spec, stub_measurement(10))
    summary = doc["workloads"]["cold_verify"]["summary"]
    assert summary["peak_rss_mib"]["change_better_pairs"] == 10
    assert summary["peak_rss_mib"]["verdict"] == "better"
    # ties count for neither side: the first pair of op_best_ms is one
    assert summary["op_best_ms"]["change_better_pairs"] == 9
    assert summary["op_best_ms"]["verdict"] == "level"
    # a parent spread of half its median is wider than the 25 % bound
    assert summary["setup_s"]["verdict"] == "unresolved"
    assert any(note.startswith("cold_verify setup_s is unresolved") for note in doc["notes"])
    assert doc["layers"]["records_held_mib"]["change_better_pairs"] == 10
    assert doc["layers"]["chi_28_gap_classes_ms"]["runs"]["change"] == [40.0] * 10


def test_a_change_worse_by_more_than_the_bound_is_worse_even_when_the_spread_is_wide():
    driver = load_driver()
    wide = driver.compare([1.0, 2.0, 1.0, 2.0], [3.0, 3.0, 3.0, 3.0], lower_is_better=True, bound=0.25)
    assert wide["verdict"] == "worse"
    # every change run better than every parent run resolves a wide spread
    clear = driver.compare([1.0, 2.0, 1.0, 2.0], [0.2, 0.2, 0.2, 0.2], lower_is_better=True, bound=0.25)
    assert clear["verdict"] == "better"
    higher = driver.compare([1.0, 1.0], [2.0, 2.0], lower_is_better=False, bound=0.25)
    assert (higher["change_better_pairs"], higher["verdict"]) == (2, "better")


def test_a_change_whose_runs_fail_is_never_better():
    driver = load_driver()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(parent="p", seed_base=100, pairs=10, out=None)
    measured = stub_measurement(10)
    # one incorrect change run on cold_verify, and one failed operation more
    # than the parent on find_code_queries, each with its metrics unchanged
    measured["runs"]["cold_verify"]["change"][3]["correct"] = False
    measured["runs"]["find_code_queries"]["change"][5]["failed"] = 1
    doc = driver.document(args, spec, measured)
    for workload in ("cold_verify", "find_code_queries"):
        summary = doc["workloads"][workload]["summary"]
        assert summary["peak_rss_mib"]["change_better_pairs"] == 10
        assert {s["verdict"] for s in summary.values()} == {"failed"}
        assert any(note.startswith(f"{workload} failed") for note in doc["notes"])
    # a change that fails no larger share than its parent is judged as usual
    measured["runs"]["cold_verify"]["change"][3]["correct"] = True
    measured["runs"]["find_code_queries"]["parent"][2]["failed"] = 1
    doc = driver.document(args, spec, measured)
    for workload in ("cold_verify", "find_code_queries"):
        assert doc["workloads"][workload]["summary"]["peak_rss_mib"]["verdict"] == "better"


def test_the_tier1_run_records_the_command_it_ran(monkeypatch, tmp_path):
    driver = load_driver()
    ran = []

    def fake_run(argv, cwd, env, **kwargs):
        ran.append((argv, env["PYTHONPATH"]))
        return argparse.Namespace(stdout="3 passed, 1 failed in 0.1s\n", returncode=1)

    monkeypatch.setattr(driver.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPATH", "extra")
    result = driver.tier1(tmp_path)
    (argv, pythonpath), = ran
    assert argv[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert pythonpath == "src" + os.pathsep + "extra"
    assert result["command"] == f"PYTHONPATH=src{os.pathsep}extra python -m pytest -q --continue-on-collection-errors"
    assert (result["tests"], result["failed"]) == (3, 1)
