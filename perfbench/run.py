#!/usr/bin/env python3
"""Benchmark of the indexcoding certifier, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
  cold_verify        `indexcoding verify --max-n 5 --jobs 1` on a fresh empty cache
  find_code_queries  one closed-loop client calling `cli.main(["find-code", ...])`
  all                both workloads, one after the other

Each verify call is a fresh interpreter (`python3 -m indexcoding.cli`), timed
from spawn to exit; peak RSS of its process tree comes from `os.wait4`.
Calls repeat until S seconds have passed (at least three calls).  The query
client makes passes over a pool of 1373 texts until S seconds have passed.
`op_best_ms` takes each distinct input's fastest time over its repeats,
which filters out the host's slow CPU phases, and averages those over the
inputs, so every class in the mix counts by its cost.  The four gap-class
texts are left out of that mean: each costs 12-470 ms, against about 1 ms
for the rest, so which four a seed draws would set the figure.  Exact chi,
which they pay, is bounded through `cold_verify`; their mean is printed.
Set-up time
is the median of several fresh interpreters timed from spawn until
`indexcoding.cli` is imported (and, for queries, one warm-up query answered).

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
traced run (traced.py) of the same workload gives the per-layer metrics
instead.  The traced run does a fixed amount of work, so it ignores
`--seconds`.  Every output is
checked against the pinned seed report (checks.py).  The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`; the full result, with the
commit, nproc, Python version and seed, goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cold_verify", "find_code_queries")
MIN_VERIFY_CALLS = 3
SETUP_PROBES = 11
WARM_PROBES = 2
RUN_LIMIT_S = 170.0
CHILD_GRACE_S = 60.0

class ChildFailed(Exception):
    """A child process timed out or never signalled readiness."""


class Runner:
    """Starts child interpreters, times them, reaps them with os.wait4, and
    kills whatever is still running when the benchmark stops."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.live: list[subprocess.Popen] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def start(self, argv: list[str], stdout, stderr, cwd: Path) -> subprocess.Popen:
        """Each child leads its own process group, so a kill also reaches
        the pool workers it started."""
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=stdout, stderr=stderr, cwd=cwd, env=self.env, start_new_session=True
        )
        self.live.append(proc)
        return proc

    def kill(self, proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        self.live.remove(proc)

    def reap(self, proc: subprocess.Popen, limit: float) -> float:
        """Wait for proc; return its peak RSS in MiB (largest process in its
        tree, since its own children were reaped before it exited)."""
        until = min(limit, self.deadline)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > until:
                self.kill(proc)
                raise ChildFailed(f"timed out: {proc.args}")
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return usage.ru_maxrss / 1024

    def run(self, argv: list[str], cwd: Path) -> tuple[int, str, float, float]:
        """(exit status, stdout, wall seconds from spawn to exit, peak RSS MiB)."""
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = self.start(argv, out, err, cwd)
            rss = self.reap(proc, start + RUN_LIMIT_S)
            wall = time.perf_counter() - start
        return proc.returncode, (cwd / "stdout.txt").read_text(), wall, rss

    def until_ready(self, argv: list[str], cwd: Path) -> tuple[subprocess.Popen, float]:
        """Start a child and return it with the seconds until it printed `ready`."""
        start = time.perf_counter()
        proc = self.start(argv, subprocess.PIPE, subprocess.DEVNULL, cwd)
        remaining = min(CHILD_GRACE_S, self.deadline - start)
        readable, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        line = proc.stdout.readline() if readable else b""
        ready = time.perf_counter() - start
        if line.strip() != b"ready":
            self.kill(proc)
            raise ChildFailed(f"no ready line from {argv}")
        return proc, ready

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.kill(proc)


def setup_times(runner: Runner, argv: list[str], cwd: Path) -> list[float]:
    """Spawn-to-ready seconds of SETUP_PROBES fresh interpreters, after one
    untimed start that leaves bytecode caches written."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc, ready = runner.until_ready(argv, cwd)
        proc.stdout.close()
        runner.reap(proc, time.perf_counter() + CHILD_GRACE_S)
        if i:
            times.append(ready)
    return times


IMPORT_PROBE = ["-c", "import indexcoding.cli; print('ready', flush=True)"]


def verify_workload(runner: Runner, work: Path, args) -> dict:
    expected = checks.expected_verify(args.max_n)
    setup = setup_times(runner, IMPORT_PROBE, work)
    cache = work / "cache.csv"
    report = work / "report.csv"
    argv = [
        "-m", "indexcoding.cli", "verify", "--max-n", str(args.max_n), "--jobs", "1",
        "--out", str(report), "--cache", str(cache),
    ]
    problems: list[str] = []
    failed = 0
    walls, rss = [], []
    start = time.perf_counter()
    while len(walls) < MIN_VERIFY_CALLS or time.perf_counter() - start < args.seconds:
        cache.write_text("")
        report.unlink(missing_ok=True)
        rc, out, wall, peak = runner.run(argv, work)
        walls.append(wall)
        rss.append(peak)
        found = checks.check_verify(rc, out, report.read_bytes() if report.exists() else None, expected)
        failed += bool(found)
        problems.extend(found)
    window = time.perf_counter() - start
    return {
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "samples": {"op_s": walls, "setup_s": setup, "peak_rss_mib": rss},
        "metrics": {
            "op_best_ms": min(walls) * 1000,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": max(rss),
        },
        "notes": [
            f"verify p50: {statistics.median(walls) * 1000:.6g} ms over {len(walls)} calls",
            f"verify calls per second: {len(walls) / window:.6g}",
        ],
    }


def query_workload(runner: Runner, work: Path, args) -> dict:
    queries = checks.make_queries(args.seed, checks.QUERY_POOL)
    (work / "queries.json").write_text(json.dumps([q.text for q in queries]))
    client = str(HERE / "query_client.py")
    setup = setup_times(runner, [client, "queries.json", "-", "0"], work)

    results_path = work / "results.json"
    proc, _ = runner.until_ready([client, "queries.json", str(results_path), str(args.seconds)], work)
    proc.stdout.close()
    rss = runner.reap(proc, time.perf_counter() + args.seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise ChildFailed(f"query client exited with {proc.returncode}")
    *results, data = [json.loads(line) for line in results_path.read_text().splitlines()]

    problems = [f"warm-up: {p}" for p in checks.check_query(queries[0], *data["warmup"])]
    failed = bool(problems)
    latencies = []
    best: dict[int, float] = {}
    for index, seconds, rc, out in results:
        ms = seconds * 1000
        latencies.append(ms)
        best[index] = min(ms, best.get(index, ms))
        found = checks.check_query(queries[index], rc, out)
        failed += bool(found)
        problems.extend(f"query {queries[index].text!r}: {p}" for p in found)
    count = len(latencies)
    return {
        "attempted": count + 1,
        "failed": failed,
        "problems": problems,
        "samples": {"op_ms": latencies, "setup_s": setup},
        "metrics": {
            "op_best_ms": statistics.fmean(ms for i, ms in best.items() if not queries[i].gap),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": rss,
        },
        "notes": [
            f"queries: {count} (1 client, closed loop, {count / len(queries):.3g} passes over {len(queries)} texts,"
            f" {sum(q.gap for q in queries)} of them gap classes)",
            f"query p50: {statistics.median(latencies):.4f} ms, p99: {checks.percentile(latencies, 99):.4f} ms,"
            f" over {count} samples",
            f"queries per second: {count / data['window_s']:.6g}",
            f"gap-class texts, mean of fastest: "
            f"{statistics.fmean([ms for i, ms in best.items() if queries[i].gap] or [0]):.6g} ms",
        ],
    }


def traced_workload(runner: Runner, work: Path, args) -> dict:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    argv = [str(HERE / "traced.py"), args.workload, str(work), str(args.seed), str(args.max_n), str(spans)]
    rc, out, _, _ = runner.run(argv, work)
    if rc != 0:
        raise ChildFailed(f"traced run exited with {rc}: {(work / 'stderr.txt').read_text()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    result["metrics"]["verify.warm_s"] = 0.0
    if args.workload == "cold_verify":
        # What a user of a warm cache waits for: a fresh interpreter against
        # the cache the traced run filled, fastest of WARM_PROBES calls.
        expected = checks.expected_verify(args.max_n)
        report = work / "report-fresh.csv"
        argv = [
            "-m", "indexcoding.cli", "verify", "--max-n", str(args.max_n), "--jobs", "1",
            "--out", str(report), "--cache", str(work / "cache.csv"),
        ]
        walls = []
        for _ in range(WARM_PROBES):
            report.unlink(missing_ok=True)
            rc, out, wall, _ = runner.run(argv, work)
            walls.append(wall)
            found = checks.check_verify(rc, out, report.read_bytes() if report.exists() else None, expected)
            result["attempted"] += 1
            result["failed"] += bool(found)
            result["problems"].extend(f"fresh warm: {p}" for p in found)
        result["metrics"]["verify.warm_s"] = min(walls)
    result["notes"] = [f"spans: {spans.relative_to(ROOT)}"]
    return result


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_n": args.max_n,
    }


def run_one(args) -> dict:
    runner = Runner(time.perf_counter() + RUN_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            part = traced_workload(runner, work, args)
        elif args.workload == "find_code_queries":
            part = query_workload(runner, work, args)
        else:
            part = verify_workload(runner, work, args)
    finally:
        runner.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    failed = part["failed"]
    units = declared_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": not part["problems"] and not failed,
        "attempted": part["attempted"],
        "failed": failed,
        "metrics": {name: {"value": part["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args)
    print(f"env: {json.dumps(env)}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_ratio: {failed / part['attempted']:.6g} ({failed}/{part['attempted']})")
    for note in part.get("notes", []):
        print(f"{args.workload} {note}")
    for problem in part["problems"][:20]:
        print(f"{args.workload} FAILED: {problem}")
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "problems": part["problems"], "samples": part.get("samples", {})}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))
    return result


def parse_args(argv: list[str] | None = None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-n", type=int, choices=range(2, 6), default=5, help="reduced sizes are for selftest.py")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "indexcoding" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        results[name] = run_one(args)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
