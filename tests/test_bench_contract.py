"""The names the benchmark's traced run wraps still exist in the package.

`perfbench/traced.py` swaps each function in its LAYERS table for a timing
wrapper; a name missing from the package makes that run fail.  The table is
read from the source, so the benchmark is never imported here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import indexcoding.cli as cli
from indexcoding.graph import parse_digraph
from indexcoding.verify import analyze, check_monotonicity, report_text, run_sweep

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def traced_layers():
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED.name} defines no LAYERS")


def test_traced_layers_name_package_functions():
    layers = traced_layers()
    assert layers
    for module, names in layers.items():
        home = importlib.import_module(f"indexcoding.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"indexcoding.{module}.{name}"


def test_check_monotonicity_takes_n_first():
    # the traced run labels its spans by order from the first argument
    assert next(iter(inspect.signature(check_monotonicity).parameters)) == "n"


def test_run_sweep_and_report_text_signatures():
    # the traced run calls run_sweep(orders, jobs=jobs), takes len() of the
    # records, and renders them with report_text(records) alone
    records = run_sweep(range(1, 3), jobs=1)
    assert len(records) == 4
    inspect.signature(report_text).bind(records)
    assert report_text(records).count("\n") == 5


def test_analyze_result_has_both_bounds():
    # the traced run counts the classes the sandwich settles as mais == minrank
    r = analyze(parse_digraph("n 3 ; 1-2 2-3"))
    assert (r.mais, r.minrank) == (2, 2)


def test_find_code_makes_exactly_one_analyze_call(monkeypatch, capsys):
    # the traced query pass divides its per-layer figures by the number of
    # analyze calls, and it wraps every name analyze is bound to
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return analyze(*args, **kwargs)

    for layer in traced_layers():
        home = importlib.import_module(f"indexcoding.{layer}")
        for name, value in list(vars(home).items()):
            if value is analyze:
                monkeypatch.setattr(home, name, counted)
    assert cli.main(["find-code", "--graph", "n 5 ; 1-3 3-5 5-2 2-4 4-1", "--format", "csv"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.count("\n") == 1
