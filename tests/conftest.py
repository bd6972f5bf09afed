from dataclasses import replace

import pytest

import indexcoding.verify as verify
from indexcoding.graph import CanonicalKey
from indexcoding.verify import run_sweep


@pytest.fixture(scope="session")
def full_records():
    """One complete sweep of every class up to five vertices, shared by all
    tests; two workers to exercise the parallel path."""
    return run_sweep(range(1, 6), jobs=2)


@pytest.fixture(scope="session")
def n5_records(full_records):
    return [r for r in full_records if r.n == 5]


@pytest.fixture(scope="session")
def gap_records(full_records):
    return [r for r in full_records if r.gap]


@pytest.fixture
def edge_class_violation(monkeypatch):
    """analyze claims a wrong optimal length, 2 bits, for the two-vertex
    edge class 0x3, by recording a chromatic number of 4 for its confusion
    graph, so the sweep's own record is a violation."""
    analyze_one = verify.analyze

    def wrong_for_the_edge_class(g, *, key):
        r = analyze_one(g, key=key)
        return replace(r, chromatic=4) if key == CanonicalKey(2, 3) else r

    monkeypatch.setattr(verify, "analyze", wrong_for_the_edge_class)
