"""Theorem harness: sweep instances, check the claims, persist records.

The headline check sweeps every non-isomorphic side-information graph up
to five vertices and confirms that the exact optimal codelength equals
minrank, i.e. linear codes are optimal there.  Companion checks cover the
supporting claims: the mais >= n-2 squeeze, the structural conditions
forced by mais = 2 on five vertices, and two reads of one arc-inclusion
relation between classes: monotonicity under added side information and
the two arc-minimal gap cores.
"""

from __future__ import annotations

import contextlib
import os
from itertools import combinations
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from indexcoding.bounds import gf2_row_basis, mais, minrank_witness
from indexcoding.codec import serialize_code
from indexcoding.confusion import build_confusion, chromatic_number
from indexcoding.graph import (
    MAX_ENUM_VERTICES,
    CanonicalKey,
    Category,
    Digraph,
    canonical_key,
    categorize,
    classes_above,
    digraph_from_key,
    orbit_table,
    subset_is_acyclic,
)

REPORT_HEADER = "canonical_key,n,arcs,edges,mais,minrank,ell_star,gap,category,chromatic,code"
_POOL_CHUNK = 64  # tasks a pool worker takes at a time


class VerificationRecord(NamedTuple):
    """Everything measured about one isomorphism class.

    The canonical key pins the class and decodes back to its representative,
    so records are self-contained.  code holds the row masks of the witness
    code, x_{j+1} at bit j.  category is set only for n = 5, mais = 2;
    chromatic is 0 unless the confusion graph was actually colored.  arcs,
    minrank, ell_star and gap are read off the fields they follow from, so
    a record cannot disagree with itself: ell_star is the bit width of
    chromatic when the graph was colored, and mais when the bounds met.

    The record is a named tuple of its six stored fields, so it is
    immutable, holds no dict, compares equal to a plain tuple of those
    fields and pickles as them.  line, the record's report line, which a
    sweep also appends to its cache log, is rendered from the fields on
    every read and never stored.
    """

    key: CanonicalKey
    edges: int
    mais: int
    category: int
    chromatic: int
    code: tuple[int, ...]

    @property
    def line(self) -> str:
        (n, bits), edges, mais, category, chromatic, code = self
        ell_star = (chromatic - 1).bit_length() if chromatic else mais
        return (
            f"0x{bits:x},{n},{bits.bit_count()},{edges},{mais},{len(code)},{ell_star},"
            f"{'1' if ell_star > mais else '0'},{category},{chromatic},{serialize_code(n, code)}"
        )

    @property
    def n(self) -> int:
        return self.key.n

    @property
    def arcs(self) -> int:
        return self.key.key.bit_count()

    @property
    def minrank(self) -> int:
        return len(self.code)

    @property
    def ell_star(self) -> int:
        return (self.chromatic - 1).bit_length() if self.chromatic else self.mais

    @property
    def gap(self) -> bool:
        return self.ell_star > self.mais


class SweepSummary(NamedTuple):
    """Per-order class counts plus the gap and violation accounting."""

    class_counts: tuple[tuple[int, int], ...]
    gap_count: int
    maximal_gap_keys: tuple[CanonicalKey, ...]
    violations: tuple[CanonicalKey, ...]

    @property
    def total_classes(self) -> int:
        return sum(count for _, count in self.class_counts)


def analyze(g: Digraph, *, key: CanonicalKey | None = None) -> VerificationRecord:
    """Measure one graph: bounds, exact length, category, witness code.

    This is the one derivation of a record, and the one place where the
    sandwich mais <= ell_star <= minrank is decided; every sweep calls it
    once per class and never reads a record back.  The record keeps the row
    basis of the minrank witness matrix, the rows of its code, so minrank
    is their count.  Equal bounds settle the length by the sandwich alone,
    and chromatic stays 0.  Otherwise the confusion graph is colored
    exactly and its chromatic number is recorded; the record reads the
    length off it as the bit width.  The theorem makes the witness code
    optimal, and a class where it is not shows up as a violation in
    `summarize`.  For a g that is not its class representative, the code
    is the witness in g's own labeling, so the record (the `analyze
    --format csv` line) differs from the report line of its class.
    """
    if key is None:
        key = canonical_key(g)
    lo = mais(g)
    code = tuple(gf2_row_basis(minrank_witness(g, lo)[1]))
    return VerificationRecord(
        key,
        g.edge_count(),
        lo,
        int(categorize(g)) if g.n == 5 and lo == 2 else 0,
        0 if lo == len(code) else chromatic_number(build_confusion(g)),
        code,
    )


def _analyze_key(key: CanonicalKey) -> VerificationRecord:
    return analyze(digraph_from_key(key), key=key)


def load_cache(path: str | Path) -> set[bytes]:
    """The lines the cache already holds, as raw bytes.  No line is parsed
    or trusted: a sweep derives every record afresh and only uses this set
    to leave out lines the cache has."""
    return set(Path(path).read_bytes().splitlines())


def _end_torn_tail(fh: BinaryIO) -> None:
    """End a cache tail torn by a killed run with a newline, so the next
    record appended starts a line of its own."""
    if fh.seek(0, os.SEEK_END):
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.write(b"\n")


def _analyze_keys(tasks: Sequence[CanonicalKey], jobs: int) -> Iterator[VerificationRecord]:
    """Records for the keys in task order.  A pool starts every worker
    before any work, so it gets jobs workers but no more than the CPUs or
    the chunks of _POOL_CHUNK tasks; at one worker the tasks run in
    process, and the pool module is imported only otherwise, so a serial
    run and the CLI's start-up do not pay for it."""
    workers = min(jobs, os.cpu_count() or 1, -(-len(tasks) // _POOL_CHUNK))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            yield from pool.imap(_analyze_key, tasks, chunksize=_POOL_CHUNK)
    else:
        yield from map(_analyze_key, tasks)


def run_sweep(
    orders: Iterable[int], jobs: int = 1, cache_path: str | Path | None = None
) -> list[VerificationRecord]:
    """Analyze every isomorphism class of the given orders, in canonical key
    order.  The keys are read from the orbit tables in that order, so each
    class representative is built once, by its analysis, and nothing is
    read back from the cache: records and report bytes are a cold run's for
    any cache content.  The cache is an append-only log; it is opened
    before any analysis, so a bad path fails at once, and each record's
    line is appended as it arrives unless the log already holds it, so an
    interrupted run keeps its work and a repeated run adds nothing.
    Analysis of distinct graphs is independent, so jobs > 1 may fan out
    over a process pool whose results keep task order, making reports
    identical for any worker count."""
    with open(cache_path, "a+b") if cache_path is not None else contextlib.nullcontext() as sink:
        keys = [CanonicalKey(n, code) for n in sorted(set(orders)) for code in orbit_table(n).reps]
        logged: set[bytes] = set()
        if sink is not None:
            _end_torn_tail(sink)
            logged = load_cache(cache_path)
        records = []
        for record in _analyze_keys(keys, jobs):
            if sink is not None and (line := record.line.encode()) not in logged:
                sink.write(line + b"\n")
            records.append(record)
    return records


def maximal_gap_classes(gap_records: Sequence[VerificationRecord]) -> list[VerificationRecord]:
    """Core gap classes, in input order: those with no other gap class
    among their arc-deleted subgraphs.

    Deleting arcs removes side information, so these are the arc-minimal
    gap classes, and every gap class degrades onto one of them.  Classes
    are visited by ascending arc count, and one is marked when a class one
    arc below it (see classes_above) is a gap or marked; the cores are the
    unmarked gaps.  That is exact over the down-closure for any record set."""
    marked: dict[int, bytearray] = {}
    for n in {r.n for r in gap_records}:
        classes, reps = orbit_table(n)
        gaps = {classes[r.key.key] for r in gap_records if r.n == n}
        above = marked[n] = bytearray(len(reps))
        for c in sorted(range(len(reps)), key=lambda c: reps[c].bit_count()):
            if above[c] or c in gaps:
                for up in classes_above(n, c):
                    above[up] = 1
    return [r for r in gap_records if not marked[r.n][orbit_table(r.n).classes[r.key.key]]]


def summarize(records: Sequence[VerificationRecord]) -> SweepSummary:
    counts: dict[int, int] = {}
    for r in records:
        counts[r.n] = counts.get(r.n, 0) + 1
    gaps = [r for r in records if r.gap]
    violations = tuple(r.key for r in records if r.ell_star != r.minrank)
    maximal = maximal_gap_classes(gaps)
    return SweepSummary(
        class_counts=tuple(sorted(counts.items())),
        gap_count=len(gaps),
        maximal_gap_keys=tuple(r.key for r in maximal),
        violations=violations,
    )


def check_lemma_mais2(records: Sequence[VerificationRecord]) -> bool:
    """True iff every class with mais >= n-2 has ell_star = mais."""
    return all(r.ell_star == r.mais for r in records if r.mais >= r.n - 2)


def check_monotonicity(n: int, records: Sequence[VerificationRecord]) -> bool:
    """True iff adding one side-information arc never increases ell_star.

    Exhaustive: every one-arc step of classes_above(n, c) for every class
    c, with both ell_star values read from the sweep records.  Since
    ell_star is a class invariant, this covers every labeled graph and
    every absent arc.
    """
    if not 2 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"monotonicity check supports 2..{MAX_ENUM_VERTICES} vertices, got {n}")
    reps = orbit_table(n).reps
    ell = {r.key.key: r.ell_star for r in records if r.n == n}
    missing = [code for code in reps if code not in ell]
    if missing:
        raise ValueError(f"no record for {len(missing)} order-{n} classes, first 0x{missing[0]:x}")
    by_class = [ell[code] for code in reps]
    return all(by_class[up] <= base for c, base in enumerate(by_class) for up in classes_above(n, c))


def check_structural_conditions(records: Sequence[VerificationRecord]) -> bool:
    """Conditions forced on five-vertex classes with mais = 2: every
    4-subset induces an edge, every 3-subset induces a directed cycle, and
    girth-3 or girth-4 classes reach the two-bit optimum."""
    if not records:
        raise ValueError("no records supplied")
    if any(r.n != 5 for r in records):
        raise ValueError("structural conditions apply to five-vertex records only")
    for r in records:
        if r.mais != 2:
            continue
        g = digraph_from_key(r.key)
        edges = g.edge_rows()
        for quad in combinations(range(5), 4):
            if not any(edges[i] >> j & 1 for i, j in combinations(quad, 2)):
                return False
        for triple in combinations(range(5), 3):
            mask = sum(1 << v for v in triple)
            if subset_is_acyclic(g, mask):
                return False
        if r.category in (int(Category.GIRTH_3), int(Category.GIRTH_4)) and r.ell_star != 2:
            return False
    return True


def verify_theorem(
    max_n: int, jobs: int = 1, cache_path: str | Path | None = None
) -> tuple[list[VerificationRecord], SweepSummary, dict[str, bool]]:
    """Sweep all orders up to max_n and run every named check on the records.

    Returns the records, their summary and the checks by name.  A class with
    ell_star != minrank does not raise: it is listed in summary.violations
    (it would signal a bug here, the claim itself is proved).
    """
    if not 1 <= max_n <= MAX_ENUM_VERTICES:
        raise ValueError(f"max_n must be in 1..{MAX_ENUM_VERTICES}, got {max_n}")
    records = run_sweep(range(1, max_n + 1), jobs=jobs, cache_path=cache_path)
    checks = {"mais >= n-2 squeeze": check_lemma_mais2(records)}
    if max_n == 5:
        checks["structural conditions (n=5, mais=2)"] = check_structural_conditions(
            [r for r in records if r.n == 5]
        )
    for k in range(2, max_n + 1):
        checks[f"monotonicity (n={k}, exhaustive)"] = check_monotonicity(k, records)
    return records, summarize(records), checks


def _report_lines(records: Sequence[VerificationRecord]) -> Iterator[str]:
    """The header and then each record's line, in key order, each ended by
    a newline."""
    yield REPORT_HEADER + "\n"
    for r in sorted(records, key=attrgetter("key")):
        yield r.line + "\n"


def report_text(records: Sequence[VerificationRecord]) -> str:
    return "".join(_report_lines(records))


def write_report(records: Sequence[VerificationRecord], path: str | Path) -> None:
    """Write report_text(records) to a temporary file beside the target and
    rename it over the target, so a failed write leaves any existing report
    intact.  The lines are streamed into the file one at a time: no copy of
    the whole report is built."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines(_report_lines(records))
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def summary_text(summary: SweepSummary) -> str:
    """Stable, grep-friendly rendering of a sweep summary."""
    lines = ["classes: " + ",".join(str(c) for _, c in summary.class_counts)]
    for n, count in summary.class_counts:
        lines.append(f"classes(n={n}): {count}")
    lines.append(f"total classes: {summary.total_classes}")
    lines.append(f"gap graphs: {summary.gap_count}")
    lines.append(f"maximal gap classes: {len(summary.maximal_gap_keys)}")
    for key in summary.maximal_gap_keys:
        lines.append(f"maximal gap class: n={key.n} key={key.hex}")
    lines.append(f"violations: {len(summary.violations)}")
    for key in summary.violations:
        lines.append(f"violation: n={key.n} key={key.hex}")
    return "\n".join(lines) + "\n"
