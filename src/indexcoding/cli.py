"""Command-line front end: analyze, verify, find-code, classify.

Exit codes: 0 success, 1 verification violation (or an invalid produced
code), 2 usage, parse or file errors.  Structured (csv) output is stable
across runs and worker counts so it can be golden-file tested.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from indexcoding.bounds import mais
from indexcoding.codec import LinearCode, bits_from_mask, receiver_decodes, serialize_code
from indexcoding.graph import (
    MAX_ENUM_VERTICES,
    Digraph,
    GraphFormatError,
    categorize,
    parse_digraph,
    serialize_digraph,
    undirected_girth,
)
from indexcoding.verify import REPORT_HEADER, analyze, summary_text, verify_theorem, write_report


def _add_graph_options(sub: argparse.ArgumentParser) -> None:
    """The options of every one-graph command: its source and --format."""
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH", help="file containing the graph text")
    src.add_argument("--graph", metavar="TEXT", help="inline graph text")
    sub.add_argument("--format", choices=("human", "csv"), default="human")


def _load_graph(args: argparse.Namespace) -> Digraph:
    if args.graph is not None:
        return parse_digraph(args.graph)
    return parse_digraph(Path(args.input).read_text())


def _decimal(value: str) -> int:
    """An optionally signed ASCII decimal; int alone would also read
    "1_0", " 3" and non-ASCII digits."""
    digits = value[1:] if value[:1] in ("+", "-") else value
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    return int(value)


def _max_n_arg(value: str) -> int:
    n = _decimal(value)
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise argparse.ArgumentTypeError(f"max-n must be in 1..{MAX_ENUM_VERTICES}")
    return n


def _jobs_arg(value: str) -> int:
    jobs = _decimal(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return jobs


def _linear_row_terms(row: int, n: int) -> str:
    return "+".join(f"x{j + 1}" for j in range(n) if row >> j & 1)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    record = analyze(g)
    if args.format == "csv":
        print(REPORT_HEADER)
        print(record.line)
        return 0
    print(f"graph: {serialize_digraph(g)}")
    print(f"canonical key: {record.key.hex}")
    print(f"n: {record.n}  arcs: {record.arcs}  edges: {record.edges}")
    print(f"mais: {record.mais}")
    print(f"minrank: {record.minrank}")
    print(f"ell_star: {record.ell_star}")
    print(f"gap: {'yes' if record.gap else 'no'}")
    print(f"category: {record.category if record.category else 'n/a'}")
    print(f"chromatic: {record.chromatic if record.chromatic else 'n/a'}")
    print("code:")
    for row in record.code:
        print(f"  {bits_from_mask(row, record.n)}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.out is not None and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        reason = "it is a directory" if Path(args.out).is_dir() else "its directory does not exist"
        print(f"error: cannot write the report {args.out!r}: {reason}", file=sys.stderr)
        return 2
    records, summary, checks = verify_theorem(args.max_n, jobs=args.jobs, cache_path=args.cache)
    if args.out is not None:
        write_report(records, args.out)
    print(summary_text(summary), end="")
    for name, passed in checks.items():
        print(f"check {name}: {'ok' if passed else 'FAIL'}")
    return 0 if not summary.violations and all(checks.values()) else 1


def cmd_find_code(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    record = analyze(g)
    code = LinearCode(g.n, record.code)
    decodes = receiver_decodes(g, code)
    valid = code.length == record.ell_star and all(decodes)
    if args.format == "csv":
        print(serialize_code(g.n, record.code))
        return 0 if valid else 1
    print(f"ell_star: {record.ell_star}")
    print(f"code (linear, length {code.length}):")
    for r, row in enumerate(code.rows):
        print(f"  bit {r + 1}: {bits_from_mask(row, g.n)} = {_linear_row_terms(row, g.n)}")
    for i, ok in enumerate(decodes):
        print(f"receiver {i + 1}: decodes x{i + 1}: {'ok' if ok else 'FAIL'}")
    return 0 if valid else 1


def cmd_classify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    girth = undirected_girth(g)
    category = categorize(g)
    lo = mais(g)
    applies = g.n == 5 and lo == 2
    if args.format == "csv":
        print(f"{girth or 0},{int(category)}")
        return 0
    print(f"girth: {girth if girth is not None else 'none'}")
    print(f"category: {int(category)} ({category.name})")
    print(f"mais: {lo}")
    print(f"five-vertex mais-2 classification applies: {'yes' if applies else 'no'}")
    return 0


# command name -> its parser, filled in once, when build_parser builds the tree
_COMMAND_PARSERS: dict[str, argparse.ArgumentParser] = {}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process, so repeated `main` calls pay for parsing and
    analysis alone.  `parse_args` leaves it unchanged; callers must not
    mutate it (add arguments, set defaults) either."""
    parser = argparse.ArgumentParser(
        prog="indexcoding",
        description="Exact optimal zero-error index codelengths on side-information graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bounds, exact length, and witness code for one graph")
    _add_graph_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="sweep all classes up to --max-n and check every claim")
    p.add_argument("--max-n", type=_max_n_arg, default=MAX_ENUM_VERTICES)
    p.add_argument(
        "--jobs", type=_jobs_arg, default=1, help="worker processes (at least 1; at most one per CPU and per 64 classes)"
    )
    p.add_argument("--out", metavar="PATH", help="write the record report here")
    p.add_argument("--cache", metavar="PATH", help="append-only log of report lines, never read for values")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find-code", help="print an optimal code with decode confirmation")
    _add_graph_options(p)
    p.set_defaults(func=cmd_find_code)

    p = sub.add_parser("classify", help="undirected girth and category of one graph")
    _add_graph_options(p)
    p.set_defaults(func=cmd_classify)

    _COMMAND_PARSERS.update(sub.choices)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns, or the same usage
    error.  The top-level parser would only hand argv[1:] to the command's
    parser, so a known command goes there directly; anything else, and a
    command line the command's parser leaves arguments of, goes through
    the top-level parser, which reports them with its own usage."""
    parser = build_parser()
    command = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (GraphFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
