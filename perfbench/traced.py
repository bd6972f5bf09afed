"""Traced run of one workload: per-layer time and work counts, taken in one
process, serially.

    python3 traced.py WORKLOAD WORKDIR SEED MAX_N SPANS_PATH

Spans are recorded by wrapping public functions of the package modules
`graph`, `bounds`, `confusion`, `codec`, `verify` and `cli` wherever they
are bound in a module namespace, so a call from `verify.analyze` to
`bounds.mais` and the second call of `mais` from inside
`bounds.minrank_witness` are both seen.  The package itself is not changed.

Phases of `cold_verify`, in order:
  cold      `verify --jobs 1` with a fresh empty cache, traced
  warm      the same call against the cache `cold` filled, traced; then
            untraced, traced and untraced again.  Tracing overhead is the
            fastest traced warm call minus the fastest untraced one.
  pool      untraced `run_sweep` at jobs 1 and at jobs 2, no cache

Phase of `find_code_queries`:
  queries   one pass over the workload's query pool (drawn from SEED).  Each
            query runs untraced and traced back to back, the order
            alternating.  Tracing overhead is the median of the per-query
            differences, times the number of queries.

Each per-layer metric comes from the spans of the workload's own phases; a
layer the workload does not run reads 0.  Every span is kept in memory and
written to SPANS_PATH (gzip JSON) at the end.  The last stdout line is a JSON
object with the per-layer metrics and the operation counts.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import hashlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

import indexcoding.bounds as bounds
import indexcoding.cli as cli
import indexcoding.codec as codec
import indexcoding.confusion as confusion
import indexcoding.graph as graph
import indexcoding.verify as verify

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (graph, bounds, confusion, codec, verify, cli)}
LAYERS = {
    "graph": ("enumerate_nonisomorphic", "canonical_key", "parse_digraph"),
    "bounds": ("mais", "minrank_witness"),
    "confusion": ("build_confusion", "chromatic_number", "find_coloring", "is_k_colorable", "ell_star"),
    "codec": ("linear_code_from_matrix", "code_from_coloring", "serialize_code", "parse_code"),
    "verify": (
        "run_sweep",
        "load_cache",
        "analyze",
        "summarize",
        "check_structural_conditions",
        "check_monotonicity",
        "write_report",
    ),
    "cli": ("main",),
}
GENERATORS = {"enumerate_nonisomorphic"}


class Tracer:
    """Spans as (name, start, end, parent index) plus named counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self
        if fn.__name__ in GENERATORS:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index, parent = tracer._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, index, parent, start)
                    tracer.counts[name + ".yields"] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if fn.__name__ == "check_monotonicity":
                label = f"{name}.n{args[0] if args else kwargs['n']}"
            index, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(label, index, parent, start)
            if fn.__name__ == "analyze" and result.mais == result.minrank:
                tracer.counts["verify.analyze.settled"] += 1
            if fn.__name__ == "run_sweep":
                tracer.counts["verify.run_sweep.records"] += len(result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (total minus the
        time covered by direct children), and time spent under each parent."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[index]
            if parent >= 0:
                row["under." + self.spans[parent][0]] += 1
        return out


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Swap every traced function for its wrapper in every module that binds
    it; restore the originals on exit."""
    saved = []
    for home, names in LAYERS.items():
        for fname in names:
            original = getattr(MODULES[home], fname)
            wrapper = tracer.wrap(f"{home}.{fname}", original)
            for module in MODULES.values():
                if getattr(module, fname, None) is original:
                    saved.append((module, fname, original))
                    setattr(module, fname, wrapper)
    try:
        yield tracer
    finally:
        for module, fname, original in reversed(saved):
            setattr(module, fname, original)


def call_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, float]:
    """Run the CLI in process, traced if a tracer is given; the wrappers are
    swapped in and out outside the timed region."""
    out = io.StringIO()
    with tracing(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    return rc, out.getvalue(), wall


class Checked:
    """Attempted and failed operation counts with the problems found."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, found: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(found)
        self.problems.extend(f"{label}: {p}" for p in found)


def verify_phases(work: Path, max_n: int, checked: Checked) -> tuple[dict, dict[str, Tracer]]:
    expected = checks.expected_verify(max_n)
    cache = work / "cache.csv"
    cache.write_text("")

    def run_verify(phase: str, tracer: Tracer | None) -> float:
        report = work / f"report-{phase}.csv"
        argv = ["verify", "--max-n", str(max_n), "--jobs", "1", "--out", str(report), "--cache", str(cache)]
        rc, out, wall = call_cli(argv, tracer)
        checked.add(phase, checks.check_verify(rc, out, report.read_bytes() if report.exists() else None, expected))
        return wall

    phases = {"cold": Tracer(), "warm": Tracer()}
    run_verify("cold", phases["cold"])
    traced_s = [run_verify("warm", phases["warm"])]
    bare_s = [run_verify("warm_bare", None)]
    traced_s.append(run_verify("warm_traced", Tracer()))
    bare_s.append(run_verify("warm_bare", None))

    sweep_s = {}
    for jobs in (1, 2):
        start = time.perf_counter()
        records = verify.run_sweep(range(1, max_n + 1), jobs=jobs)
        sweep_s[jobs] = time.perf_counter() - start
        found = []
        if hashlib.sha256(verify.report_text(records).encode()).hexdigest() != expected.report_sha256:
            found.append(f"run_sweep at jobs {jobs} differs from the pinned report")
        checked.add("pool", found)

    cold = phases["cold"].summary()
    warm = phases["warm"].summary()
    misses = sum(s["verify.analyze"]["under.verify.run_sweep"] for s in (cold, warm))
    records = sum(phases[p].counts["verify.run_sweep.records"] for p in phases)
    metrics = layer_metrics(phases["cold"])
    metrics.update({
        "verify.load_cache.s": warm["verify.load_cache"]["s"],
        "verify.cache.hits": int(records - misses),
        "verify.cache.misses": int(misses),
        "verify.pool_speedup": sweep_s[1] / sweep_s[2],
        "cli.find_code.self_s": 0.0,
        "trace.overhead_s": min(traced_s) - min(bare_s),
    })
    return metrics, phases


def query_phases(seed: int, checked: Checked) -> tuple[dict, dict[str, Tracer]]:
    queries = checks.make_queries(seed, checks.QUERY_POOL)
    # Untraced warm-up, as in the end-to-end run: lazily built tables are
    # not charged to the first traced query.
    rc, out, _ = call_cli(["find-code", "--graph", queries[0].text, "--format", "csv"])
    checked.add("warm-up", checks.check_query(queries[0], rc, out))
    tracer = Tracer()
    extra_s = []
    for index, q in enumerate(queries):
        argv = ["find-code", "--graph", q.text, "--format", "csv"]
        wall = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            rc, out, wall[traced] = call_cli(argv, tracer if traced else None)
            checked.add(f"query {q.text!r}", checks.check_query(q, rc, out))
        extra_s.append(wall[True] - wall[False])
    qry = tracer.summary()
    metrics = layer_metrics(tracer)
    metrics.update({
        "verify.load_cache.s": 0.0,
        "verify.cache.hits": 0,
        "verify.cache.misses": 0,
        "verify.pool_speedup": 0.0,
        "cli.find_code.self_s": qry["cli.main"]["s"] - qry["verify.analyze"]["s"] - qry["codec.parse_code"]["s"],
        # The median pair, not the sum: a gap-class query lasts long enough
        # for the host's speed to change between its two runs.
        "trace.overhead_s": statistics.median(extra_s) * len(extra_s),
    })
    return metrics, {"queries": tracer}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The metrics every workload takes from its main traced phase."""
    summary = tracer.summary()

    def total(*names: str, field: str = "s") -> float:
        value = sum(summary[name][field] for name in names)
        return int(value) if field == "calls" else value

    analyzed = total("verify.analyze", field="calls")
    return {
        "graph.enumerate.s": total("graph.enumerate_nonisomorphic"),
        "graph.enumerate.classes": tracer.counts["graph.enumerate_nonisomorphic.yields"],
        "graph.canonical_key.s": total("graph.canonical_key"),
        "graph.canonical_key.calls": total("graph.canonical_key", field="calls"),
        "bounds.mais.s": total("bounds.mais"),
        "bounds.mais.calls": total("bounds.mais", field="calls"),
        "bounds.minrank_witness.s": total("bounds.minrank_witness"),
        "bounds.minrank_witness.calls": total("bounds.minrank_witness", field="calls"),
        "confusion.chromatic_number.s": total("confusion.chromatic_number"),
        "confusion.chromatic_number.calls": total("confusion.chromatic_number", field="calls"),
        "confusion.is_k_colorable.s": total("confusion.is_k_colorable"),
        "confusion.is_k_colorable.calls": total("confusion.is_k_colorable", field="calls"),
        "confusion.build_confusion.s": total("confusion.build_confusion"),
        "confusion.ell_star.s": total("confusion.ell_star"),
        "confusion.ell_star.calls": total("confusion.ell_star", field="calls"),
        "confusion.sandwich_settled_ratio": tracer.counts["verify.analyze.settled"] / analyzed,
        "codec.encode.s": total("codec.linear_code_from_matrix", "codec.code_from_coloring", "codec.serialize_code"),
        "codec.parse_code.s": total("codec.parse_code"),
        "verify.analyze.s": total("verify.analyze"),
        "verify.analyze.calls": analyzed,
        "verify.analyze.self_s": total("verify.analyze", field="self_s"),
        "verify.run_sweep.self_s": total("verify.run_sweep", field="self_s"),
        "verify.monotonicity.n4.s": total("verify.check_monotonicity.n4"),
        "verify.monotonicity.n5.s": total("verify.check_monotonicity.n5"),
        "verify.structural.s": total("verify.check_structural_conditions"),
        "verify.summarize.s": total("verify.summarize"),
        "verify.write_report.s": total("verify.write_report"),
    }


def main() -> int:
    workload, work, seed, max_n, spans_path = sys.argv[1:6]
    checked = Checked()
    if workload == "cold_verify":
        metrics, phases = verify_phases(Path(work), int(max_n), checked)
    else:
        metrics, phases = query_phases(int(seed), checked)
    dump = {name: {"spans": tracer.spans, "counts": dict(tracer.counts)} for name, tracer in phases.items()}
    with gzip.open(spans_path, "wt") as fh:
        json.dump(dump, fh)
    print(json.dumps({
        "attempted": checked.attempted, "failed": checked.failed, "problems": checked.problems, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
