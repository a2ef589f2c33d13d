"""The benchmark keeps its own copy of the method classes, as plain tuples and
strings in perfbench/checks.py and perfbench/workloads.py. Both are derived
here from the method table, so a table change that the benchmark's checks do
not follow fails in the unit tests instead of in a benchmark run. The same
holds for the rec function names perfbench/layers.py reads its spans by and
the parameters its hooks read."""

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


SRC_REC = Path(__file__).resolve().parents[1] / "src" / "rec"


def _is_table(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == [name])


def layer_span_names() -> set[str]:
    """The '<module>.<function>' span names of rec functions that
    perfbench/layers.py reads: its SELF_S, INCL_S and CALLS entries, its HOOKS
    keys and the names pass_metrics passes to `total` or `by_name.get`."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    names = {n for table in ("SELF_S", "INCL_S", "CALLS") for n in constant("layers", table)}
    names.update(k.value for node in tree.body if _is_table(node, "HOOKS")
                 for k in node.value.keys)
    pass_metrics = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "pass_metrics")
    for call in ast.walk(pass_metrics):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if ((isinstance(f, ast.Name) and f.id == "total")
                or (isinstance(f, ast.Attribute) and f.attr == "get"
                    and getattr(f.value, "id", None) == "by_name")):
            names.update(a.value for a in call.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str)
                         and "." in a.value)
    # bench.pass is the benchmark's own root span, not a rec function.
    return {n for n in names if not n.startswith("bench.")}


def test_benchmark_span_names_are_rec_functions():
    # A renamed or moved function would otherwise read 0 in a traced run.
    names = layer_span_names()
    assert len(names) >= 20, sorted(names)
    missing = []
    for name in sorted(names):
        module, function = name.split(".")
        path = SRC_REC / f"{module}.py"
        defined = path.is_file() and any(
            isinstance(node, ast.FunctionDef) and node.name == function
            for node in ast.parse(path.read_text()).body)
        if not defined:
            missing.append(name)
    assert not missing, f"perfbench/layers.py reads spans of no rec function: {missing}"


def hook_reads() -> dict[str, list[tuple[int, str]]]:
    """HOOKS key -> the (position, name) pairs its hook passes to
    `_arg(args, kwargs, i, name)`, read from perfbench/layers.py."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    hooks = next(node.value for node in tree.body if _is_table(node, "HOOKS"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reads = {}
    for key, fn in zip(hooks.keys, hooks.values):
        calls = [call for call in ast.walk(defs[fn.id]) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "_arg"]
        reads[key.value] = [(call.args[2].value, call.args[3].value) for call in calls]
    return reads


def test_benchmark_hooks_read_the_hooked_parameters():
    # A hook reads its function's arguments by position or by keyword; a
    # reordered or renamed parameter would otherwise count the wrong argument.
    reads = hook_reads()
    assert reads and all(reads.values()), reads
    wrong = []
    for name, pairs in sorted(reads.items()):
        module, function = name.split(".")
        fn = next(node for node in ast.parse((SRC_REC / f"{module}.py").read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == function)
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        wrong.extend(f"{name}: argument {i} is {params[i] if i < len(params) else None!r}, "
                     f"the hook reads {arg!r}" for i, arg in pairs
                     if i >= len(params) or params[i] != arg)
    assert not wrong, wrong
