"""Exact optimal zero-error index codelengths for unicast side-information graphs."""

from indexcoding.bounds import mais, minrank_witness
from indexcoding.codec import (
    CodeFormatError,
    LinearCode,
    linear_code_from_matrix,
    parse_code,
    serialize_code,
)
from indexcoding.confusion import build_confusion, chromatic_number
from indexcoding.graph import (
    CanonicalKey,
    Category,
    Digraph,
    GraphFormatError,
    canonical_key,
    categorize,
    digraph_from_key,
    enumerate_nonisomorphic,
    parse_digraph,
    serialize_digraph,
    undirected_girth,
)
from indexcoding.verify import (
    SweepSummary,
    VerificationRecord,
    analyze,
    check_lemma_mais2,
    check_monotonicity,
    check_structural_conditions,
    load_cache,
    maximal_gap_classes,
    run_sweep,
    summarize,
    verify_theorem,
    write_report,
)

__all__ = [
    "CanonicalKey",
    "Category",
    "CodeFormatError",
    "Digraph",
    "GraphFormatError",
    "LinearCode",
    "SweepSummary",
    "VerificationRecord",
    "analyze",
    "build_confusion",
    "canonical_key",
    "categorize",
    "check_lemma_mais2",
    "check_monotonicity",
    "check_structural_conditions",
    "chromatic_number",
    "digraph_from_key",
    "enumerate_nonisomorphic",
    "linear_code_from_matrix",
    "load_cache",
    "mais",
    "maximal_gap_classes",
    "minrank_witness",
    "parse_code",
    "parse_digraph",
    "run_sweep",
    "serialize_code",
    "serialize_digraph",
    "summarize",
    "undirected_girth",
    "verify_theorem",
    "write_report",
]

__version__ = "0.1.0"
