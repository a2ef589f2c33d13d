"""The benchmark keeps its own copy of the method classes, as plain tuples and
strings in perfbench/checks.py and perfbench/workloads.py. Both are derived
here from the method table, so a table change that the benchmark's checks do
not follow fails in the unit tests instead of in a benchmark run."""

import ast
from pathlib import Path

from rec.lifelong import METHODS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def constant(module: str, name: str):
    """The literal value perfbench/<module>.py assigns to `name`, read without
    importing the module."""
    tree = ast.parse((PERFBENCH / f"{module}.py").read_text())
    values = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == [name]]
    assert len(values) == 1, f"{module}.py assigns {name} {len(values)} times"
    return values[0]


def test_benchmark_method_classes_match_the_table():
    # A method ends at its first task's size unless it expands and never compresses.
    fixed = tuple(m for m, (_, expansion, compression) in METHODS.items()
                  if compression or not expansion)
    widening = tuple(m for m, (_, expansion, compression) in METHODS.items()
                     if expansion and not compression)
    assert constant("checks", "FIXED_SIZE_METHODS") == fixed
    assert constant("checks", "WIDENING_METHODS") == widening
    assert constant("workloads", "ALL_METHODS") == ",".join(METHODS)
