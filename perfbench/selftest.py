#!/usr/bin/env python3
"""Fast self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

Runs every workload at `--max-n 4` for one second, and the traced run of
every workload, and asserts that each prints exactly the metric names
BENCHMARK.json declares, with `correct` true.  Reruns the query workload on a second seed.
Feeds the correctness gates a tampered report, a failed check line and a
wrong code, and asserts each is rejected.  Finally runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/, where it must exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload: str, seed: int, trace: int) -> None:
    rc, lines = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                      "--trace", str(trace), "--max-n", "4")
    assert rc == 0, (workload, trace, lines[-20:])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}, (workload, sorted(result["metrics"]))
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)
    print(f"ok: {workload} seed {seed} trace {trace}")


def check_gates() -> None:
    expected = checks.expected_verify(4)
    report = checks.expected_report(4)
    stdout = "\n".join([
        f"total classes: {expected.total_classes}",
        f"gap graphs: {expected.gap_graphs}",
        f"maximal gap classes: {expected.maximal_gap_classes}",
        "violations: 0",
        "check mais >= n-2 squeeze: ok",
        "check monotonicity (n=4, exhaustive): ok",
    ]) + "\n"
    assert checks.check_verify(0, stdout, report, expected) == []
    tampered = report.replace(b",1,1,1,", b",1,1,2,", 1)
    assert tampered != report
    assert checks.check_verify(0, stdout, tampered, expected), "tampered report accepted"
    assert checks.check_verify(0, stdout, None, expected), "missing report accepted"
    assert checks.check_verify(1, stdout, report, expected), "exit status 1 accepted"
    failing = stdout.replace("(n=4, exhaustive): ok", "(n=4, exhaustive): FAIL")
    assert checks.check_verify(0, failing, report, expected), "failed check accepted"
    assert checks.check_verify(0, stdout.replace("violations: 0", "violations: 1"), report, expected)
    assert checks.check_verify(0, stdout.replace("check ", "chk "), report, expected), "no check lines accepted"

    pentagon = checks.Query("n 5 ; 1-3 3-5 5-2 2-4 4-1", 5, (0b01100, 0b11000, 0b10001, 0b00011, 0b00110), 3, True)
    good = "10000;01010;00101"
    assert checks.check_query(pentagon, 0, good) == []
    assert checks.check_query(pentagon, 0, "10000;01010"), "short code accepted"
    assert checks.check_query(pentagon, 0, "10000;01100;00011"), "non-decoding code accepted"
    assert checks.check_query(pentagon, 1, good), "exit status 1 accepted"
    assert checks.check_query(pentagon, 0, "1000;0101;0010"), "wrong width accepted"
    print("ok: gates reject tampered output")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench(bare, "--workload", "cold_verify", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    print("ok: no result without the package source")


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    check_gates()
    for w in SPEC["workloads"]:
        check_run(w["name"], 7, 0)
    check_run("find_code_queries", 8, 0)
    for w in SPEC["workloads"]:
        check_run(w["name"], 7, 1)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
