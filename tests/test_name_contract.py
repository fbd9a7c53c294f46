"""The specgraph names that bench/tracing.py rebinds and that the demos
import must exist in the package.

Both are read as source with ast, so a renamed or moved library name fails
here, without running the benchmark or a demo.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _tracer_targets():
    """(functions, methods): (module, name) pairs from _FUNCTIONS and
    _REPLICATES, and (module, class, attribute) triples from patch_method."""
    functions, methods = [], []
    for node in ast.walk(_tree(ROOT / "bench" / "tracing.py")):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name == "_FUNCTIONS":
                functions += [(layer, fn) for layer, fns
                              in ast.literal_eval(node.value).items()
                              for fn in fns]
            elif name == "_REPLICATES":
                functions += [("experiments", fn)
                              for fn in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "patch_method"):
            owner, attr = node.args[0], node.args[1]
            methods.append((owner.value.id, owner.attr, attr.value))
    return functions, methods


def test_tracer_targets_exist():
    functions, methods = _tracer_targets()
    assert len(functions) >= 20 and len(methods) >= 5  # the parse found them
    for module, name in functions:
        mod = importlib.import_module(f"specgraph.{module}")
        assert callable(getattr(mod, name, None)), f"specgraph.{module}.{name}"
    for module, cls, attr in methods:
        owner = getattr(importlib.import_module(f"specgraph.{module}"), cls)
        # patch_method reads the class's own __dict__, not an inherited one
        assert attr in vars(owner), f"specgraph.{module}.{cls}.{attr}"


def test_demo_imports_exist():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    checked = 0
    for path in demos:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "specgraph"):
                continue
            mod = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(mod, alias.name), (path.name, node.module,
                                                  alias.name)
                checked += 1
    assert checked > 0
