"""Theorem harness: sweep instances, check the claims, persist records.

The headline check sweeps every non-isomorphic side-information graph up
to five vertices and confirms that the exact optimal codelength equals
minrank, i.e. linear codes are optimal there.  Companion checks cover the
supporting claims: the mais >= n-2 squeeze, monotonicity under added
side information, the structural conditions forced by mais = 2 on five
vertices, and the two maximal bound-gap classes.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

from indexcoding.bounds import mais, minrank_witness
from indexcoding.codec import code_from_coloring, linear_code_from_matrix, serialize_code
from indexcoding.confusion import build_confusion, chromatic_number, find_coloring
from indexcoding.graph import (
    MAX_ENUM_VERTICES,
    CanonicalKey,
    Category,
    Digraph,
    adjacency_code,
    canonical_key,
    categorize,
    digraph_from_key,
    embeds_arc_deleted,
    enumerate_nonisomorphic,
    orbit_table,
    subset_is_acyclic,
)

REPORT_HEADER = "canonical_key,n,arcs,edges,mais,minrank,ell_star,gap,category,chromatic,code"


class VerificationError(Exception):
    """A sweep found ell_star != minrank; carries the offending summary."""

    def __init__(self, message: str, summary: "SweepSummary"):
        super().__init__(message)
        self.summary = summary


@dataclass(frozen=True)
class VerificationRecord:
    """Everything measured about one isomorphism class.

    The canonical key pins the class and decodes back to its representative,
    so records are self-contained.  ell_star and gap are 0 for bounds-only
    records (n > 5); category is set only for n = 5, mais = 2; chromatic is
    0 unless the confusion graph was actually colored.
    """

    key: CanonicalKey
    arcs: int
    edges: int
    mais: int
    minrank: int
    ell_star: int
    gap: bool
    category: int
    chromatic: int
    code: str

    @property
    def n(self) -> int:
        return self.key.n

    def to_line(self) -> str:
        return ",".join(
            (
                self.key.hex,
                str(self.key.n),
                str(self.arcs),
                str(self.edges),
                str(self.mais),
                str(self.minrank),
                str(self.ell_star),
                "1" if self.gap else "0",
                str(self.category),
                str(self.chromatic),
                self.code,
            )
        )

    @classmethod
    def from_line(cls, line: str) -> "VerificationRecord":
        fields = line.rstrip("\n").split(",")
        if len(fields) != 11:
            raise ValueError(f"expected 11 record fields, got {len(fields)}")
        key_hex, n, arcs, edges, lo, hi, ell, gap, category, chromatic, code = fields
        return cls(
            key=CanonicalKey(int(n), int(key_hex, 16)),
            arcs=int(arcs),
            edges=int(edges),
            mais=int(lo),
            minrank=int(hi),
            ell_star=int(ell),
            gap=gap == "1",
            category=int(category),
            chromatic=int(chromatic),
            code=code,
        )


@dataclass(frozen=True)
class SweepSummary:
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

    Equal bounds settle the length by the sandwich alone.  Otherwise the
    confusion graph is colored exactly and the length is the bit width of
    its chromatic number, recorded alongside.  Beyond five vertices the
    record is bounds-only: ell_star and gap are left at 0 and the code is
    the minrank witness, valid but not certified optimal.
    """
    if key is None:
        key = canonical_key(g)
    lo = mais(g)
    hi, witness = minrank_witness(g, lo)
    chromatic = 0
    if lo == hi:
        ell = lo
    elif g.n <= MAX_ENUM_VERTICES:
        cg = build_confusion(g)
        chromatic = chromatic_number(cg)
        ell = (chromatic - 1).bit_length()
    else:
        ell = 0
    if ell == 0 or ell == hi:
        code = linear_code_from_matrix(g.n, witness)
    else:
        coloring = find_coloring(cg, 1 << ell)
        assert coloring is not None, "chromatic number certifies 2^ell colors suffice"
        code = code_from_coloring(g.n, coloring)
    category = 0
    if g.n == 5 and lo == 2:
        category = int(categorize(g))
    return VerificationRecord(
        key=key,
        arcs=g.arc_count(),
        edges=g.edge_count(),
        mais=lo,
        minrank=hi,
        ell_star=ell,
        gap=bool(ell) and ell > lo,
        category=category,
        chromatic=chromatic,
        code=serialize_code(code, sep=";"),
    )


def _analyze_key(key: CanonicalKey) -> VerificationRecord:
    return analyze(digraph_from_key(key), key=key)


def load_cache(path: str | Path) -> dict[CanonicalKey, VerificationRecord]:
    """Record lines keyed by canonical key; later lines win, torn or
    malformed lines are skipped so a crashed run's cache still loads."""
    cache: dict[CanonicalKey, VerificationRecord] = {}
    p = Path(path)
    if not p.exists():
        return cache
    for line in p.read_text().splitlines():
        if not line.strip():
            continue
        try:
            record = VerificationRecord.from_line(line)
        except ValueError:
            continue
        cache[record.key] = record
    return cache


def run_sweep(
    orders: Iterable[int],
    jobs: int = 1,
    cache_path: str | Path | None = None,
    force: bool = False,
) -> list[VerificationRecord]:
    """Analyze every isomorphism class of the given orders, sorted by
    canonical key.  Cached keys are reused unless force; fresh records are
    appended to the cache.  Analysis of distinct graphs is independent, so
    jobs > 1 fans out over a process pool; the merge order is fixed by the
    final sort, making reports identical for any worker count."""
    cached: dict[CanonicalKey, VerificationRecord] = {}
    if cache_path is not None and not force:
        cached = load_cache(cache_path)
    records: list[VerificationRecord] = []
    tasks: list[CanonicalKey] = []
    for n in sorted(set(orders)):
        for g in enumerate_nonisomorphic(n):
            key = CanonicalKey(n, adjacency_code(g))
            hit = cached.get(key)
            if hit is not None:
                records.append(hit)
            else:
                tasks.append(key)
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(jobs) as pool:
            fresh = list(pool.imap(_analyze_key, tasks, chunksize=64))
    else:
        fresh = [_analyze_key(key) for key in tasks]
    if cache_path is not None and fresh:
        with open(cache_path, "a") as fh:
            for record in fresh:
                fh.write(record.to_line() + "\n")
    records.extend(fresh)
    records.sort(key=lambda r: r.key)
    return records


def maximal_gap_classes(gap_records: Sequence[VerificationRecord]) -> list[VerificationRecord]:
    """Core gap classes: those not containing another gap class as a proper
    arc-deleted subgraph.

    Deleting arcs removes side information, so these cores sit at maximal
    deleted side information: every gap class degrades onto one of them by
    arc deletion, which the sweep checks as an invariant.  Distinct classes
    of equal order can only embed with strictly fewer arcs, so distinctness
    alone makes an embedding proper."""
    graphs = {r.key: digraph_from_key(r.key) for r in gap_records}
    out = []
    for r in gap_records:
        reducible = any(
            s.key != r.key and embeds_arc_deleted(graphs[s.key], graphs[r.key])
            for s in gap_records
        )
        if not reducible:
            out.append(r)
    return out


def summarize(records: Sequence[VerificationRecord]) -> SweepSummary:
    counts: dict[int, int] = {}
    for r in records:
        counts[r.n] = counts.get(r.n, 0) + 1
    gaps = [r for r in records if r.gap]
    violations = tuple(
        r.key for r in records if r.n <= MAX_ENUM_VERTICES and r.ell_star != r.minrank
    )
    maximal = maximal_gap_classes(gaps)
    return SweepSummary(
        class_counts=tuple(sorted(counts.items())),
        gap_count=len(gaps),
        maximal_gap_keys=tuple(r.key for r in maximal),
        violations=violations,
    )


def verify_theorem(
    max_n: int,
    jobs: int = 1,
    cache_path: str | Path | None = None,
    force: bool = False,
) -> SweepSummary:
    """Sweep all orders up to max_n and assert ell_star = minrank per class.

    Returns the summary on success; a violation aborts with the offending
    canonical keys (it would signal a bug here, the claim itself is proved).
    """
    if not 1 <= max_n <= MAX_ENUM_VERTICES:
        raise ValueError(f"max_n must be in 1..{MAX_ENUM_VERTICES}, got {max_n}")
    records = run_sweep(range(1, max_n + 1), jobs=jobs, cache_path=cache_path, force=force)
    summary = summarize(records)
    if summary.violations:
        keys = ", ".join(k.hex for k in summary.violations)
        raise VerificationError(f"ell_star != minrank at canonical keys: {keys}", summary)
    return summary


def find_gap_graphs(
    n: int,
    records: Sequence[VerificationRecord] | None = None,
    jobs: int = 1,
    cache_path: str | Path | None = None,
) -> list[VerificationRecord]:
    """All order-n classes whose exact length exceeds the acyclic bound."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"gap search supports 1..{MAX_ENUM_VERTICES} vertices, got {n}")
    if records is None:
        records = run_sweep([n], jobs=jobs, cache_path=cache_path)
    return [r for r in records if r.n == n and r.gap]


def check_lemma_mais2(max_n: int, records: Sequence[VerificationRecord] | None = None) -> bool:
    """True iff every class with mais >= n-2 has ell_star = mais."""
    if not 1 <= max_n <= MAX_ENUM_VERTICES:
        raise ValueError(f"max_n must be in 1..{MAX_ENUM_VERTICES}, got {max_n}")
    if records is None:
        records = run_sweep(range(1, max_n + 1))
    return all(
        r.ell_star == r.mais
        for r in records
        if r.n <= max_n and r.mais >= r.n - 2
    )


def check_monotonicity(n: int, records: Sequence[VerificationRecord]) -> bool:
    """True iff adding one side-information arc never increases ell_star.

    Exhaustive: for every order-n class representative and every absent
    arc, the class of the enlarged graph is looked up in the orbit table
    and the two ell_star values are read from the sweep records.  Since a
    relabeling carries (g, i->j) to (rep, pi(i)->pi(j)) and ell_star is a
    class invariant, this covers every labeled graph and every absent arc.
    """
    if not 2 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"monotonicity check supports 2..{MAX_ENUM_VERTICES} vertices, got {n}")
    table = orbit_table(n)
    ell = {r.key.key: r.ell_star for r in records if r.n == n}
    missing = [code for code in table.reps if code not in ell]
    if missing:
        raise ValueError(f"no record for {len(missing)} order-{n} classes, first 0x{missing[0]:x}")
    by_class = [ell[code] for code in table.reps]
    classes = table.classes
    full = (1 << (n * (n - 1))) - 1
    for rep, base in zip(table.reps, by_class):
        absent = full & ~rep
        while absent:
            bit = absent & -absent
            absent ^= bit
            if by_class[classes[rep | bit]] > base:
                return False
    return True


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
        for quad in combinations(range(5), 4):
            if not any(g.edge_row(i) >> j & 1 for i, j in combinations(quad, 2)):
                return False
        for triple in combinations(range(5), 3):
            mask = sum(1 << v for v in triple)
            if subset_is_acyclic(g, mask):
                return False
        if r.category in (int(Category.GIRTH_3), int(Category.GIRTH_4)) and r.ell_star != 2:
            return False
    return True


def report_text(records: Sequence[VerificationRecord]) -> str:
    lines = [REPORT_HEADER]
    lines.extend(r.to_line() for r in sorted(records, key=lambda r: r.key))
    return "\n".join(lines) + "\n"


def write_report(records: Sequence[VerificationRecord], path: str | Path) -> None:
    Path(path).write_text(report_text(records))


def read_report(path: str | Path) -> list[VerificationRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("missing report header")
    return [VerificationRecord.from_line(line) for line in lines[1:] if line.strip()]


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
