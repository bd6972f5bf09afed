"""Expected outputs and correctness gates for the benchmark.

Nothing here imports the package under test.  The expected values come from
`expected_report.csv.gz`, the `verify --max-n 5 --out` report of the seed
commit, whose sha256 is pinned below; every other expectation (class counts,
the report of a smaller `--max-n`, the `ell_star` of a query) is derived
from its rows.  Codes printed by `find-code` are parsed and decoded here
with an independent decoder.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_REPORT = HERE / "expected_report.csv.gz"
REPORT_SHA256 = "12956fe15c1a253e37f92269024f3823d129a261875a2d88afc62a00652e1782"
REPORT_HEADER = "canonical_key,n,arcs,edges,mais,minrank,ell_star,gap,category,chromatic,code"
# The two arc-minimal gap cores exist only on five vertices.
MAXIMAL_GAP_CLASSES = {5: 2}
# Texts in the query workload's pool: a seventh of the 9608 five-vertex
# classes, so 4 of the 28 gap classes are drawn, and a 50-s run makes about
# 18 passes, enough for each text to be timed in the host's fast phases.
QUERY_POOL = 1373


@dataclass(frozen=True)
class Expected:
    """What `verify --max-n N` must print and write."""

    total_classes: int
    gap_graphs: int
    maximal_gap_classes: int
    report_sha256: str


@dataclass(frozen=True)
class Query:
    """One `find-code` input: a relabeled class representative."""

    text: str
    n: int
    rows: tuple[int, ...]
    ell_star: int
    gap: bool


@lru_cache(maxsize=1)
def _report_lines() -> tuple[str, ...]:
    data = gzip.decompress(EXPECTED_REPORT.read_bytes())
    digest = hashlib.sha256(data).hexdigest()
    if digest != REPORT_SHA256:
        raise RuntimeError(f"{EXPECTED_REPORT.name} has sha256 {digest}, expected {REPORT_SHA256}")
    lines = data.decode().splitlines()
    if lines[0] != REPORT_HEADER:
        raise RuntimeError(f"{EXPECTED_REPORT.name} lacks the report header")
    return tuple(lines[1:])


def _rows_up_to(max_n: int) -> list[str]:
    return [line for line in _report_lines() if int(line.split(",")[1]) <= max_n]


def expected_report(max_n: int) -> bytes:
    """Report rows sort by (n, key), so the report of a smaller max-n is a
    prefix of the pinned one."""
    return ("\n".join([REPORT_HEADER, *_rows_up_to(max_n)]) + "\n").encode()


def expected_verify(max_n: int) -> Expected:
    rows = _rows_up_to(max_n)
    return Expected(
        total_classes=len(rows),
        gap_graphs=sum(line.split(",")[7] == "1" for line in rows),
        maximal_gap_classes=MAXIMAL_GAP_CLASSES.get(max_n, 0),
        report_sha256=hashlib.sha256(expected_report(max_n)).hexdigest(),
    )


def check_verify(rc: int, stdout: str, report: bytes | None, expected: Expected) -> list[str]:
    """Problems with one `verify` call; an empty list means it passed.

    `check` lines are matched on their `ok` suffix only, so a renamed check
    still passes as long as it succeeds."""
    problems = []
    if rc != 0:
        problems.append(f"exit status {rc}")
    lines = stdout.splitlines()
    for want in (
        f"total classes: {expected.total_classes}",
        f"gap graphs: {expected.gap_graphs}",
        f"maximal gap classes: {expected.maximal_gap_classes}",
        "violations: 0",
    ):
        if want not in lines:
            problems.append(f"missing line {want!r}")
    checks = [line for line in lines if line.startswith("check ")]
    if not checks:
        problems.append("no check lines")
    problems.extend(f"failed {line!r}" for line in checks if not line.endswith(": ok"))
    if report is None:
        problems.append("no report written")
    elif hashlib.sha256(report).hexdigest() != expected.report_sha256:
        problems.append("report sha256 differs from the pinned report")
    return problems


def _rows_from_key(n: int, key: int) -> list[tuple[int, int]]:
    """Arcs of the class representative: the key is the row-major adjacency
    bit string, diagonal skipped, most significant bit first."""
    arcs = []
    p = n * (n - 1) - 1
    for i in range(n):
        for j in range(n):
            if i != j:
                if key >> p & 1:
                    arcs.append((i, j))
                p -= 1
    return arcs


def make_queries(seed: int, count: int, n: int = 5) -> list[Query]:
    """`count` queries, each an order-n class under a uniformly drawn
    relabeling, written with `a-b` for mutual pairs, tokens shuffled.

    Classes are drawn uniformly within two strata, gap and non-gap, with the
    gap share fixed at its share of all classes (rounded).  So every class
    is equally likely, but the number of slow gap draws does not vary with
    the seed."""
    classes = [line.split(",") for line in _report_lines() if line.split(",")[1] == str(n)]
    gap = [fields for fields in classes if fields[7] == "1"]
    plain = [fields for fields in classes if fields[7] != "1"]
    n_gap = round(count * len(gap) / len(classes))
    rng = random.Random(seed)
    picks = [rng.choice(gap) for _ in range(n_gap)] + [rng.choice(plain) for _ in range(count - n_gap)]
    rng.shuffle(picks)
    queries = []
    for fields in picks:
        perm = rng.sample(range(n), n)
        arcs = {(perm[i], perm[j]) for i, j in _rows_from_key(n, int(fields[0], 16))}
        tokens = []
        for i, j in arcs:
            if (j, i) not in arcs:
                tokens.append(f"{i + 1}->{j + 1}")
            elif i < j:
                tokens.append(f"{i + 1}-{j + 1}")
        rng.shuffle(tokens)
        rows = [0] * n
        for i, j in arcs:
            rows[i] |= 1 << j
        queries.append(
            Query(
                text=f"n {n} ; " + " ".join(tokens) if tokens else f"n {n}",
                n=n,
                rows=tuple(rows),
                ell_star=int(fields[6]),
                gap=fields[7] == "1",
            )
        )
    return queries


def _bits(s: str) -> int:
    if set(s) - {"0", "1"}:
        raise ValueError(f"not a bit string: {s!r}")
    return sum(1 << j for j, ch in enumerate(s) if ch == "1")


def parse_code(text: str, n: int) -> tuple[int, dict[int, int]]:
    """(length, codeword per message tuple) of a `find-code --format csv`
    line: `;`-separated row masks (linear) or `tuple codeword` pairs."""
    lines = [ln.strip() for ln in text.strip().split(";") if ln.strip()]
    if not lines:
        raise ValueError("empty code")
    if " " in lines[0]:
        table = {}
        length = len(lines[0].split()[1])
        for ln in lines:
            tup, cw = ln.split()
            if len(tup) != n or len(cw) != length:
                raise ValueError(f"bad table line {ln!r}")
            table[_bits(tup)] = _bits(cw)
        if len(table) != 1 << n:
            raise ValueError("table does not cover every message tuple")
        return length, table
    if any(len(ln) != n for ln in lines):
        raise ValueError("row width differs from n")
    masks = [_bits(ln) for ln in lines]
    table = {
        x: sum(((m & x).bit_count() & 1) << r for r, m in enumerate(masks))
        for x in range(1 << n)
    }
    return len(masks), table


def decodes(n: int, rows: tuple[int, ...], table: dict[int, int]) -> bool:
    """Every receiver i recovers x_i from the codeword and its priors rows[i]."""
    for i in range(n):
        seen: dict[tuple[int, int], int] = {}
        for x in range(1 << n):
            bit = x >> i & 1
            if seen.setdefault((table[x], x & rows[i]), bit) != bit:
                return False
    return True


def check_query(query: Query, rc: int, out: str) -> list[str]:
    """Problems with one `find-code --format csv` answer."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        length, table = parse_code(out, query.n)
    except ValueError as exc:
        return [f"unparsable code: {exc}"]
    if length != query.ell_star:
        return [f"code length {length}, expected ell_star {query.ell_star}"]
    if not decodes(query.n, query.rows, table):
        return ["some receiver cannot decode"]
    return []


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
