#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write a
BENCH_*.json, run from the repository root.

    python3 tools/bench_pairs.py --parent REF --seed-base N --pairs K --out BENCH_X.json

The parent and HEAD, the change, are cloned from this repository into
fresh directories under the temporary directory, and both clones are
byte-compiled with compileall before any run, so neither side pays for
compiling in its first run.  Each clone's own perfbench/run.py runs
unchanged:

  pairs    for every workload in BENCHMARK.json and i in 0..K-1, one
           `run.py --workload W --seed N+i --seconds S --trace 0` per side,
           the parent first when i is even, the change first when it is odd
  traced   one `--trace 1` cold_verify run per side, seed N+K, parent first
  layers   PROBE in a fresh interpreter per side, K alternating rounds
  tier1    the change's tier-1 suite, once, by ROADMAP.md's tier-1 command

S is BENCHMARK.json's run_seconds.  For every end-to-end metric the JSON
holds each side's quartiles, the pairs the change wins (ties count for
neither side) and a verdict, in this order of tests:

  failed      a run of the change on this workload is incorrect or exits
              non-zero, or a larger share of its operations fails than of
              the parent's
  worse       the change's median is worse than the parent's by more than
              the metric's bound, a fraction of the parent's median
  unresolved  the parent's quartile spread exceeds that bound, and not every
              change run reads better than every parent run
  better      the change wins at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile spread
  level       none of these
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUARTILE_METHOD = "inclusive"

# PROBE runs in a fresh interpreter and prints one JSON object whose keys
# are the names in LAYERS.  Its memory part times `import indexcoding.cli`,
# before any other module but sys and time is imported, so the CLI's imports
# are all counted, and the building of orbit_table(1..5); then it traces with
# tracemalloc the memory a full sweep holds and the peak of writing its
# report to the path in argv[1].  Its timing part, with tracing stopped,
# takes the best of 5 passes of analyze over the 9608 five-vertex classes and
# the best of 5 passes of chromatic_number over the confusion graphs of the
# sweep's 28 gap classes, so the timings do not move the memory figures, and
# prints the object.
PROBE_MEMORY = """\
import sys, time
start = time.perf_counter()
import indexcoding.cli
import_ms = (time.perf_counter() - start) * 1e3
import gc, json, tracemalloc
from indexcoding.confusion import build_confusion, chromatic_number
from indexcoding.graph import digraph_from_key, orbit_table
from indexcoding.verify import analyze, run_sweep, write_report
start = time.perf_counter()
for n in range(1, 6):
    orbit_table(n)
orbit_ms = (time.perf_counter() - start) * 1e3
tracemalloc.start()
records = run_sweep(range(1, 6))
assert len(records) == 9846 and all(r.line for r in records)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
tracemalloc.reset_peak()
write_report(records, sys.argv[1])
peak = tracemalloc.get_traced_memory()[1] - held
tracemalloc.stop()
"""
PROBE_TIMING = """\
keys = [r.key for r in records if r.n == 5]
assert len(keys) == 9608
analyze_us = []
for _ in range(5):
    start = time.perf_counter()
    for key in keys:
        analyze(digraph_from_key(key))
    analyze_us.append((time.perf_counter() - start) * 1e6 / len(keys))
gaps = [build_confusion(digraph_from_key(r.key)) for r in records if r.gap]
assert len(gaps) == 28
chi_ms = []
for _ in range(5):
    start = time.perf_counter()
    for adj in gaps:
        chromatic_number(adj)
    chi_ms.append((time.perf_counter() - start) * 1e3)
print(json.dumps({
    "import_cli_ms": import_ms,
    "records_held_mib": held / 2**20,
    "write_report_peak_mib": peak / 2**20,
    "orbit_table_1_to_5_ms": orbit_ms,
    "chi_28_gap_classes_ms": min(chi_ms),
    "analyze_us": min(analyze_us),
}))
"""
PROBE = PROBE_MEMORY + PROBE_TIMING
LAYERS = {
    "import_cli_ms": "import indexcoding.cli in a fresh interpreter, with only sys and time imported before it, in ms",
    "records_held_mib": (
        "tracemalloc bytes held after orbit_table(1..5), run_sweep(range(1, 6)) and every record's line read,"
        " in MiB, in a fresh interpreter"
    ),
    "write_report_peak_mib": "tracemalloc peak of write_report on those records, above what they hold, in MiB",
    "orbit_table_1_to_5_ms": "orbit_table(1..5) in a fresh interpreter, before any other work, in ms",
    "chi_28_gap_classes_ms": (
        "chromatic_number over the confusion graphs of the 28 gap classes, built beforehand, best of 5 passes"
        " after the sweep with tracemalloc stopped, in ms"
    ),
    "analyze_us": (
        "mean analyze(digraph_from_key(k)) call over the 9608 five-vertex keys, best of 5 passes after the sweep"
        " with tracemalloc stopped, in microseconds"
    ),
}


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def clone(commit: str, dest: Path) -> None:
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(dest))
    git("checkout", "--quiet", "--detach", commit, cwd=dest)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=dest, check=True, stdout=subprocess.DEVNULL
    )


def run_bench(side: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One perfbench/run.py of a clone: its result (the last stdout line),
    not correct if the run exits non-zero, and its env line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = [json.loads(line[len("env: "):]) for line in lines if line.startswith("env: ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or not env:
        raise RuntimeError(f"{' '.join(argv)} in {side} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    result["correct"] = result["correct"] and proc.returncode == 0
    return result, env[0]


def result_row(seed: int, result: dict) -> dict:
    row = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
    row.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return row


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method=QUARTILE_METHOD)
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], lower_is_better: bool, bound: float | None) -> dict:
    """Quartiles, wins and verdict of paired samples (pair i is parent[i],
    change[i]); bound is a fraction of the parent's median, None if the
    series has none."""
    sign = 1 if lower_is_better else -1
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    summary = {
        "parent": p,
        "change": c,
        "change_better_pairs": wins,
        "pairs": len(parent),
        "change_over_parent_median": c["median"] / p["median"] if p["median"] else None,
        "parent_spread_over_median": spread / p["median"] if p["median"] else None,
    }
    if bound is None:
        return summary
    scale = abs(p["median"])
    if -gain > bound * scale:
        verdict = "worse"
    elif spread > bound * scale and not all(sign * (b - a) < 0 for a in parent for b in change):
        verdict = "unresolved"
    elif wins >= 0.9 * len(parent) and gain > spread:
        verdict = "better"
    else:
        verdict = "level"
    summary.update(bound=bound, verdict=verdict)
    return summary


def failed_share(rows: list[dict]) -> float:
    return sum(row["failed"] for row in rows) / max(1, sum(row["attempted"] for row in rows))


def summarize(runs: dict[str, dict[str, list[dict]]], spec: dict) -> tuple[dict, list[str]]:
    """The workloads section, {W: {"summary", "runs"}}, from the per-run rows
    of each side, and a note for every workload whose change runs fail and
    for every metric that is not resolved."""
    out, notes = {}, []
    for workload, sides in runs.items():
        incorrect = sum(not row["correct"] for row in sides["change"])
        parent_share, change_share = failed_share(sides["parent"]), failed_share(sides["change"])
        failing = incorrect or change_share > parent_share
        if failing:
            notes.append(
                f"{workload} failed: {incorrect} of {len(sides['change'])} change runs are incorrect, and"
                f" {change_share:.4g} of the change's operations fail against {parent_share:.4g} of the parent's."
            )
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = {side: [row[name] for row in rows] for side, rows in sides.items()}
            s = summary[name] = compare(series["parent"], series["change"], metric["better"] == "lower", metric["bound"])
            if failing:
                s["verdict"] = "failed"
            elif s["verdict"] == "unresolved":
                notes.append(
                    f"{workload} {name} is unresolved: the parent's quartile spread "
                    f"({s['parent']['q3'] - s['parent']['q1']:.4g} {metric['unit']}) is "
                    f"{s['parent_spread_over_median']:.0%} of its median, wider than the {metric['bound']:.0%} bound."
                )
        out[workload] = {"summary": summary, "runs": sides}
    return out, notes


def layer_section(rounds: dict[str, list[dict]]) -> dict:
    """The layers section from each side's PROBE outputs, round by round."""
    layers = {}
    for name, what in LAYERS.items():
        series = {side: [r[name] for r in rows] for side, rows in rounds.items()}
        layers[name] = {
            "what": what,
            **compare(series["parent"], series["change"], lower_is_better=True, bound=None),
            "runs": series,
        }
    return layers


def tier1(side: Path) -> dict:
    """The tier-1 suite of a clone, run as ROADMAP.md gives it, with src put
    before any PYTHONPATH inherited; the command recorded is the one run,
    with the driver's own interpreter written as python."""
    pythonpath = os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH"))))
    args = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=side, env=dict(os.environ, PYTHONPATH=pythonpath), capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    return {
        "tests": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0),
        "wall_s": round(wall, 1),
        "command": shlex.join([f"PYTHONPATH={pythonpath}", "python", *args]),
    }


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def document(args: argparse.Namespace, spec: dict, measured: dict) -> dict:
    """The BENCH_*.json content from what a run of the driver measured:
    commits and envs per side, the pair rows per workload, the traced
    results, the probe rounds and the tier-1 result."""
    commits, envs = measured["commits"], measured["envs"]
    seconds = spec["run_seconds"]
    sections, notes = summarize(measured["runs"], spec)
    seeds = [args.seed_base + i for i in range(args.pairs)]
    return {
        "what": f"End-to-end benchmark of a change against its parent: {args.pairs} alternating parent/change pairs"
        " per workload, one traced cold_verify run per side, and the layer probe",
        "protocol": {
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
            "driver": f"python3 tools/bench_pairs.py --parent {args.parent} --seed-base {args.seed_base}"
            f" --pairs {args.pairs}",
            "seeds": seeds,
            "order": "even pairs run the parent first, odd pairs the change first; workloads in BENCHMARK.json order",
            "runs_per_side_per_workload": args.pairs,
            "seconds": seconds,
            "trace": 0,
            "bytecode": "both sides are fresh clones byte-compiled with compileall (src, perfbench) before any run",
            "traced": f"python3 perfbench/run.py --workload cold_verify --seed {args.seed_base + args.pairs}"
            f" --seconds {seconds:g} --trace 1, parent then change, after the pairs",
            "layers": f"tools/bench_pairs.py PROBE in a fresh interpreter, {args.pairs} alternating rounds",
            "quartiles": f"statistics.quantiles(n=4, method={QUARTILE_METHOD!r})",
        },
        **{side: {"commit": commits[side], "src_sha256": envs[side]["src_sha256"]} for side in commits},
        "workloads": sections,
        "traced_cold_verify": measured["traced"],
        "layers": layer_section(measured["rounds"]),
        "notes": notes,
        "host": {"nproc": envs["change"]["nproc"], "python": envs["change"]["python"]},
        "tier1": measured["tier1"],
    }


def measure(args: argparse.Namespace, spec: dict) -> dict:
    """Clone both sides and run the pairs, the traced runs, the probe rounds
    and the change's tier-1 suite."""
    commits = {"parent": git("rev-parse", args.parent + "^{commit}"), "change": git("rev-parse", "HEAD^{commit}")}
    seconds = spec["run_seconds"]
    seeds = [args.seed_base + i for i in range(args.pairs)]
    envs: dict[str, dict] = {}
    runs = {w["name"]: {"parent": [], "change": []} for w in spec["workloads"]}
    traced = {}
    rounds = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            clone(commit, sides[side])
        for workload, rows in runs.items():
            for i, seed in enumerate(seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result, envs[side] = run_bench(sides[side], workload, seed, seconds, trace=0)
                    rows[side].append(result_row(seed, result))
                    log(f"{workload} seed {seed} {side}: {json.dumps(rows[side][-1])}")
        for side in ("parent", "change"):
            result, _ = run_bench(sides[side], "cold_verify", args.seed_base + args.pairs, seconds, trace=1)
            traced[side] = {
                "correct": result["correct"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            log(f"traced cold_verify {side}: correct {result['correct']}")
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                env = dict(os.environ, PYTHONPATH=str(sides[side] / "src"))
                report = Path(tmp) / f"probe-{side}.csv"
                out = subprocess.run(
                    [sys.executable, "-c", PROBE, str(report)], env=env, check=True, capture_output=True, text=True
                )
                rounds[side].append(json.loads(out.stdout))
        log(f"layers: {json.dumps(rounds)}")
        tests = tier1(sides["change"])
        log(f"tier1: {json.dumps(tests)}")
    return {"commits": commits, "envs": envs, "runs": runs, "traced": traced, "rounds": rounds, "tier1": tests}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the parent ref")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = document(args, spec, measure(args, spec))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
