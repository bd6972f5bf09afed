"""The README read back: its tables of what `verify` proves, and its
Library example."""

import ast
import re
from collections import Counter
from pathlib import Path

import indexcoding.cli as cli
import indexcoding.graph as graph
import indexcoding.verify as verify

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
TEST_NAMES = frozenset(
    name for path in ROOT.glob("tests/test_*.py") for name in re.findall(r"^def (test_\w+)\(", path.read_text(), re.M)
)


def section(text, heading):
    """The text under a '## ' heading, up to the next one."""
    _, found, rest = text.partition(f"\n## {heading}\n")
    assert found, heading
    return rest.split("\n## ", 1)[0]


def tables(text):
    """The Markdown tables in text, each as its body rows of stripped cells."""
    found, rows = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
        elif rows:
            found.append(rows[2:])
            rows = []
    return found


def quoted(cell):
    return re.findall(r"`([^`]+)`", cell)


def proof_table_problems(text, stdout_lines, test_names):
    """What the first table of the section on `verify` gets wrong: a stdout
    line that no row or two rows match, a row line that matches no stdout
    line, a decider that no module of the sweep defines, and a test name
    that is not a test."""
    rows = tables(section(text, "What `verify` proves"))[0]
    problems = []
    patterns = [
        [re.compile(re.escape(line).replace("…", ".+")) for line in quoted(row[0])] for row in rows
    ]
    for line in stdout_lines:
        matches = [i for i, row in enumerate(patterns) if any(p.fullmatch(line) for p in row)]
        if len(matches) != 1:
            problems.append(f"stdout line {line!r} matches rows {matches}")
    for row in patterns:
        problems.extend(
            f"row line {p.pattern!r} matches no stdout line"
            for p in row
            if not any(p.fullmatch(line) for line in stdout_lines)
        )
    for row in rows:
        problems.extend(
            f"{name} is not defined in indexcoding.graph or indexcoding.verify"
            for name in quoted(row[2])
            if not callable(getattr(verify, name, None) or getattr(graph, name, None))
        )
        named = [name for name in quoted(row[4]) if name.startswith("test_")]
        if not named:
            problems.append(f"row {row[0]!r} names no test")
        problems.extend(f"{name} is not a test in tests/" for name in named if name not in test_names)
    return problems


def test_every_verify_line_has_one_row_and_every_named_test_exists(capsys):
    # the command prints a `check <name>: ok` line for each check that
    # verify_theorem(5) returns, so each check needs its row
    assert cli.main(["verify", "--max-n", "5"]) == 0
    stdout_lines = capsys.readouterr().out.splitlines()
    assert proof_table_problems(README, stdout_lines, TEST_NAMES) == []
    # each mutant breaks it: a row removed; a test it names renamed
    squeeze = next(line for line in README.splitlines() if line.startswith("| `check mais >= n-2 squeeze: ok`"))
    assert proof_table_problems(README.replace(squeeze + "\n", ""), stdout_lines, TEST_NAMES)
    renamed = TEST_NAMES - {"test_criterion_07_added_side_information_never_hurts"}
    assert proof_table_problems(README, stdout_lines, renamed)


def test_the_girth_table_counts_the_five_vertex_mais_2_classes(n5_records):
    rows = tables(section(README, "What `verify` proves"))[1]
    stated = {row[1]: (int(row[2]), int(row[3])) for row in rows}
    classes = Counter(r.category for r in n5_records if r.mais == 2)
    gaps = Counter(r.category for r in n5_records if r.gap)
    counted = {str(c.value): (classes[c], gaps[c]) for c in graph.Category}
    counted["all"] = (classes.total(), gaps.total())
    assert stated == counted
    assert counted["all"] == (511, 28)
    named = [name for name in quoted(section(README, "What `verify` proves")) if name.startswith("test_")]
    assert set(named) <= TEST_NAMES


def test_the_library_example_runs_and_gives_the_values_its_comment_states():
    block = section(README, "Library").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    expression, comment = block.rstrip().splitlines()[-1].split("#")
    assert ast.literal_eval(comment.strip()) == eval(expression, namespace)
    r = namespace["r"]
    assert (r.mais, r.minrank, r.ell_star) == (2, 3, 3)
