"""The specgraph names that bench/tracing.py rebinds, that the demos and the
bench scripts import and that bench/run.py::matvec_split reads off an
operator's terms must exist in the package.

All of them are read as source with ast, so a renamed or moved library name fails
here, without running the benchmark or a demo.
"""

import ast
import importlib
import pathlib

import numpy as np

from specgraph.models import ER, expected_matrix, sample
from specgraph.regularize import (
    choose_tau,
    expected_regularized_laplacian,
    regularized_laplacian,
)

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


def _library_imports(paths):
    """(file name, module, name) of each `from specgraph... import name`."""
    for path in paths:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "specgraph"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _resolves(module, name):
    """Whether `from module import name` finds a name or a submodule, as the
    import statement does."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demo_imports_exist():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    found = list(_library_imports(demos))
    assert found
    for where in found:
        assert _resolves(*where[1:]), where


def test_bench_imports_exist():
    found = list(_library_imports(sorted((ROOT / "bench").glob("*.py"))))
    # the workloads reach the library through these modules
    assert {("run.py", "specgraph.models"), ("run.py", "specgraph.regularize"),
            ("run.py", "specgraph.spectral"), ("workloads.py", "specgraph.experiments"),
            ("workloads.py", "specgraph.cli"),
            ("workloads.py", "specgraph.models")} <= {w[:2] for w in found}
    for where in found:
        assert _resolves(*where[1:]), where


def _term_reads():
    """The attribute chains, such as ("expected", "matvec"), that
    matvec_split reads off the loop variable of its `for t in op.terms`."""
    fn = next(node for node in ast.walk(_tree(ROOT / "bench" / "run.py"))
              if isinstance(node, ast.FunctionDef) and node.name == "matvec_split")
    loop = next(node for node in ast.walk(fn) if isinstance(node, ast.For)
                and ast.unparse(node.iter) == "op.terms")
    chains = set()
    for node in ast.walk(loop):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == loop.target.id:
            chains.add(tuple(reversed(chain)))
    return chains


def test_matvec_split_term_attributes_exist():
    chains = _term_reads()
    assert {("scale",), ("sparse",), ("expected", "matvec")} <= chains
    spec = ER(0.2)
    g, labels = sample(spec, 40, 0)
    tau = choose_tau(g)
    op = (regularized_laplacian(g, tau)
          - expected_regularized_laplacian(expected_matrix(spec, labels), tau))
    op.matvec(np.ones(op.n))  # the terms stay readable once folded
    for chain in chains:
        # matvec_split reads past a None only behind an `is not None` check
        found = False
        for t in op.terms:
            obj = t
            for attr in chain:
                assert hasattr(obj, attr), chain
                obj = getattr(obj, attr)
                if obj is None:
                    break
            else:
                found = True
        assert found, f"no term of the folded operator has {'.'.join(chain)}"
