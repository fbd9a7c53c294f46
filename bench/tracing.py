"""In-memory spans around specgraph's layer boundaries.

Nothing under ``src/`` knows about tracing: ``instrument`` rebinds the
library's functions and methods to timing wrappers for the length of a traced
run and ``undo`` puts the originals back.  A span records its name, start,
end, parent, the per-op trace id and the thread it ran on; spans stay in a
list until the run ends and are written out as JSONL.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trace", "thread",
                 "attrs")

    def __init__(self, id, name, start, parent, trace, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.trace = trace
        self.thread = thread
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return json.dumps({"id": self.id, "name": self.name, "start": self.start,
                           "end": self.end, "parent": self.parent,
                           "trace": self.trace, "thread": self.thread,
                           **self.attrs})


class Tracer:
    """Span recorder shared by the benchmark's main thread and pool workers.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    whose stack is empty (a pool worker running a replicate) takes as parent
    the innermost open span of the thread that created the tracer, which is
    the sweep call that submitted the work.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.enabled = True  # the benchmark's own checks run with it off
        self._stacks = defaultdict(list)
        self._ids = itertools.count(1)
        self._main = threading.get_ident()

    def open(self, name, new_trace=False):
        thread = threading.get_ident()
        stack = self._stacks[thread]
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks[self._main]
            parent = main[-1] if main and thread != self._main else None
        sid = next(self._ids)
        trace = sid if new_trace or parent is None else parent.trace
        span = Span(sid, name, self.clock(), parent.id if parent else None,
                    trace, thread)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stacks[span.thread].pop()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> duration minus the time covered by its direct children.

    Children on other threads (pool workers under a sweep call) count where
    they overlap the parent, and overlapping children count once, so a self
    time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _wrap(tracer, name, fn, new_trace=False, before=None, on_result=None,
          cpu=False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name, new_trace)
        if before is not None:
            before(span, args, kwargs)
        cpu0 = time.thread_time() if cpu else None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            if cpu:
                span.attrs["cpu_s"] = time.thread_time() - cpu0
            tracer.close(span)
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result
    return wrapper


# layer -> public functions wrapped by name; the replicate functions are the
# experiments layer's unit of work, so they are wrapped although private
_FUNCTIONS = {
    "models": ("sample", "expected_matrix"),
    "spectral": ("top_eigs", "spectral_norm"),
    "regularize": ("degree_regularize", "remove_high_degree", "laplacian",
                   "regularized_laplacian", "expected_regularized_laplacian",
                   "choose_tau", "tau_regularize"),
    "detect": ("sign_partition", "spectral_cluster", "kmeans",
               "misclassification_rate"),
    "experiments": ("measure_concentration", "phase_sweep", "eigenvector_study",
                    "bound_scorecard"),
    "cli": ("main",),
}
_REPLICATES = ("_concentration_replicate", "_phase_replicate",
               "_scorecard_replicate")


def _bound_functions(bounds):
    return [name for name, val in vars(bounds).items()
            if callable(val) and not name.startswith("_")
            and getattr(val, "__module__", None) == bounds.__name__
            and not isinstance(val, type)]


def instrument_replicates(tracer):
    """Span only the experiment replicates: the op boundary of the sweeps."""
    from specgraph import experiments
    undo = []
    for name in _REPLICATES:
        fn = getattr(experiments, name)
        setattr(experiments, name, _wrap(tracer, "experiments.replicate", fn,
                                         new_trace=True, cpu=True))
        undo.append((experiments, name, fn))
    return functools.partial(_restore, undo)


def _restore(undo):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def instrument(tracer, solves):
    """Rebind specgraph's layer entry points to span-recording wrappers.

    ``solves`` collects (op, tol, pairs) per successful top_eigs call so the
    residuals can be recomputed after the run, outside every span.  Returns a
    function that restores every original binding.
    """
    from specgraph import (bounds, cli, detect, experiments, models,
                           regularize, spectral)
    modules = {"models": models, "spectral": spectral, "regularize": regularize,
               "detect": detect, "bounds": bounds, "experiments": experiments,
               "cli": cli}

    def count_edges(span, args, kwargs, result):
        span.attrs["edges"] = result[0].m

    def count_touched(span, args, kwargs, result):
        span.attrs["touched"] = len(result[1].touched)

    def count_text(span, args, kwargs, result):
        text = result if span.name == "models.tsv.format" else args[-1]
        span.attrs["bytes"] = len(text)

    def solve_args(span, args, kwargs):
        bound = inspect.signature(spectral.top_eigs).bind(*args, **kwargs)
        bound.apply_defaults()
        span.attrs.update(n=bound.arguments["op"].n,
                          which=bound.arguments["which"],
                          tol=bound.arguments["tol"])

    def record_solve(span, args, kwargs, result):
        solves.append((args[0], span.attrs["tol"], result))

    hooks = {"sample": count_edges, "degree_regularize": count_touched,
             "top_eigs": record_solve}

    wrappers = {}
    for layer, names in _FUNCTIONS.items():
        for name in names:
            fn = getattr(modules[layer], name)
            wrappers[fn] = _wrap(tracer, f"{layer}.{name}", fn,
                                 before=solve_args if name == "top_eigs" else None,
                                 on_result=hooks.get(name))
    for name in _bound_functions(bounds):
        fn = getattr(bounds, name)
        wrappers[fn] = _wrap(tracer, f"bounds.{name}", fn)
    for name in _REPLICATES:
        fn = getattr(experiments, name)
        wrappers[fn] = _wrap(tracer, "experiments.replicate", fn,
                             new_trace=True, cpu=True)

    undo = []
    # a function imported with `from .x import f` has one binding per
    # importing module; rebind each of them
    for module in modules.values():
        for name, val in list(vars(module).items()):
            try:
                wrapper = wrappers.get(val)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, name, wrapper)
                undo.append((module, name, val))

    def patch_method(cls, attr, name, on_result=None, classmethod_=False):
        original = cls.__dict__[attr]
        fn = original.__func__ if classmethod_ else original
        wrapped = _wrap(tracer, name, fn, on_result=on_result)
        setattr(cls, attr, classmethod(wrapped) if classmethod_ else wrapped)
        undo.append((cls, attr, original))

    patch_method(models.Graph, "__init__", "models.Graph.build")
    patch_method(models.Graph, "format_tsv", "models.tsv.format", count_text)
    patch_method(models.Graph, "parse_tsv", "models.tsv.parse", count_text,
                 classmethod_=True)
    patch_method(models.ExpectedMatrix, "matvec", "models.ExpectedMatrix.matvec")
    patch_method(spectral.SymmetricOperator, "matvec", "spectral.matvec")

    return functools.partial(_restore, undo)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "spectral.top_eigs.calls": "count",
    "spectral.top_eigs.self_s": "s",
    "spectral.matvec.calls": "count",
    "spectral.matvecs_per_solve.p50": "count",
    "spectral.matvecs_per_solve.max": "count",
    "spectral.basis_mb.computed": "MB",
    "spectral.reorth_gflop.computed": "GFLOP",
    "spectral.matvec.s": "s",
    "spectral.matvec.us": "us",
    "spectral.matvec.sparse_us": "us",
    "spectral.matvec.expected_us": "us",
    "spectral.nonconvergence": "count",
    "spectral.residual_ratio.max": "ratio",
    "models.sample.s": "s",
    "models.sample.calls": "count",
    "models.sample.edges": "count",
    "models.Graph.build.s": "s",
    "models.Graph.build.calls": "count",
    "models.ExpectedMatrix.matvec.s": "s",
    "models.expected_matrix.s": "s",
    "models.tsv.format_s": "s",
    "models.tsv.parse_s": "s",
    "models.tsv.bytes": "B",
    "regularize.degree_regularize.s": "s",
    "regularize.degree_regularize.calls": "count",
    "regularize.degree_regularize.touched": "count",
    "regularize.regularized_laplacian.s": "s",
    "regularize.expected_regularized_laplacian.s": "s",
    "regularize.choose_tau.s": "s",
    "regularize.laplacian.s": "s",
    "detect.kmeans.s": "s",
    "detect.kmeans.calls": "count",
    "detect.spectral_cluster.self_s": "s",
    "detect.sign_partition.s": "s",
    "detect.misclassification_rate.s": "s",
    "experiments.replicate.wait_s": "s",
    "experiments.aggregate.s": "s",
    "experiments.threads1.ops_per_s": "1/s",
    "bounds.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
}

# matvecs top_eigs spends on its shift estimate before a smallest-algebraic
# Lanczos run, so basis size = matvecs - this
SHIFT_ESTIMATE_MATVECS = 60


def solve_stats(spans):
    """Per top_eigs span: (span, matvec count, Krylov basis size)."""
    matvecs = defaultdict(int)
    for s in spans:
        if s.name == "spectral.matvec":
            matvecs[s.parent] += 1
    out = []
    for s in spans:
        if s.name == "spectral.top_eigs":
            mv = matvecs[s.id]
            shift = (SHIFT_ESTIMATE_MATVECS
                     if s.attrs.get("which") == "smallest-algebraic" else 0)
            out.append((s, mv, mv - shift))
    return out


def layer_metrics(spans):
    """The span-derived per-layer metrics (the rest are measured directly)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.duration for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def self_total(*names):
        return sum(selfs[s.id] for name in names for s in by_name[name])

    solves = solve_stats(spans)
    per_solve = sorted(mv for _, mv, _ in solves)
    basis_bytes = max((s.attrs["n"] * m * 8 for s, _, m in solves), default=0)
    reorth = sum(4.0 * s.attrs["n"] * m * m for s, _, m in solves)
    name_of = {s.id: s.name for s in spans}
    bounds_s = sum(s.duration for s in spans if s.name.startswith("bounds.")
                   and not name_of.get(s.parent, "").startswith("bounds."))
    replicates = by_name["experiments.replicate"]
    mv_calls = calls("spectral.matvec")
    return {
        "spectral.top_eigs.calls": calls("spectral.top_eigs"),
        "spectral.top_eigs.self_s": self_total("spectral.top_eigs"),
        "spectral.matvec.calls": mv_calls,
        "spectral.matvecs_per_solve.p50": (statistics.median(per_solve)
                                           if per_solve else 0),
        "spectral.matvecs_per_solve.max": max(per_solve, default=0),
        "spectral.basis_mb.computed": basis_bytes / 1e6,
        "spectral.reorth_gflop.computed": reorth / 1e9,
        "spectral.matvec.s": total("spectral.matvec"),
        "spectral.matvec.us": (total("spectral.matvec") / mv_calls * 1e6
                               if mv_calls else 0.0),
        "spectral.nonconvergence": sum(
            1 for s in by_name["spectral.top_eigs"]
            if s.attrs.get("error") == "NonConvergenceError"),
        "models.sample.s": total("models.sample"),
        "models.sample.calls": calls("models.sample"),
        "models.sample.edges": sum(s.attrs.get("edges", 0)
                                   for s in by_name["models.sample"]),
        "models.Graph.build.s": total("models.Graph.build"),
        "models.Graph.build.calls": calls("models.Graph.build"),
        "models.ExpectedMatrix.matvec.s": total("models.ExpectedMatrix.matvec"),
        "models.expected_matrix.s": total("models.expected_matrix"),
        "models.tsv.format_s": total("models.tsv.format"),
        "models.tsv.parse_s": total("models.tsv.parse"),
        "models.tsv.bytes": sum(s.attrs.get("bytes", 0) for s in spans
                                if s.name.startswith("models.tsv.")),
        "regularize.degree_regularize.s": total("regularize.degree_regularize"),
        "regularize.degree_regularize.calls": calls("regularize.degree_regularize"),
        "regularize.degree_regularize.touched": sum(
            s.attrs.get("touched", 0) for s in by_name["regularize.degree_regularize"]),
        "regularize.regularized_laplacian.s": total("regularize.regularized_laplacian"),
        "regularize.expected_regularized_laplacian.s": total(
            "regularize.expected_regularized_laplacian"),
        "regularize.choose_tau.s": total("regularize.choose_tau"),
        "regularize.laplacian.s": total("regularize.laplacian"),
        "detect.kmeans.s": total("detect.kmeans"),
        "detect.kmeans.calls": calls("detect.kmeans"),
        "detect.spectral_cluster.self_s": self_total("detect.spectral_cluster"),
        "detect.sign_partition.s": total("detect.sign_partition"),
        "detect.misclassification_rate.s": total("detect.misclassification_rate"),
        "experiments.replicate.wait_s": sum(s.duration - s.attrs["cpu_s"]
                                            for s in replicates),
        "experiments.aggregate.s": self_total("experiments.measure_concentration",
                                              "experiments.phase_sweep"),
        "bounds.s": bounds_s,
        "cli.main.self_s": self_total("cli.main"),
    }
