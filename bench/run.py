"""specgraph benchmark: one workload per invocation.

    python3 bench/run.py --workload {sparse-deviation,phase,cli-pipeline} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; specgraph is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with the library
untouched apart from a timer at each replicate (the sweeps' op boundary).
With ``--trace 1`` every layer entry point is wrapped in a span and the run
reports the per-layer metrics.  Human-readable lines go first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Reports and span JSONL land in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
# A traced run makes a fixed number of calls, so that every count it reports
# repeats exactly for a seed: seconds / NOMINAL_CALL_S of them, about
# --seconds of work on the 2-core reference machine.
NOMINAL_CALL_S = {"sparse-deviation": 0.46, "phase": 0.4, "cli-pipeline": 4.2}
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
RESIDUAL_SLACK = 1e-3


def percentiles(values):
    """p50 always; p90 only with enough samples to put ten beyond it."""
    out = {"p50": statistics.median(values)}
    if len(values) >= P90_MIN_SAMPLES:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _openblas_threads():
    """Thread count each loaded OpenBLAS copy reports, by library file."""
    import scipy
    found = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[os.path.basename(path)] = fn()
                    break
    return found


def environment():
    import scipy
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k, "unset") for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        # the library's default: threads=None -> os.cpu_count() pool workers
        "library_threads": f"default ({os.cpu_count()} pool workers)",
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(workload):
    """Median over fresh interpreters of import + first-call warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


class Run:
    """Accumulates the calls of one run and their checks."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.outcomes = []
        self.problems = []
        self.reference = _load_reference(workload, seed)

    def record(self, call, outcome):
        mismatches = _compare_reference(self.reference, call, outcome)
        if mismatches:
            outcome.failed = outcome.attempted
        self.outcomes.append(outcome)
        self.problems += [f"call {call.index}: {p}" for p in outcome.problems]
        self.problems += mismatches

    @property
    def attempted(self):
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self):
        return sum(o.failed for o in self.outcomes)

    @property
    def wall_s(self):
        return sum(o.wall_s for o in self.outcomes)


def _load_reference(workload, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if seed != doc["seed"]:
        return None
    return {"tolerance": doc["tolerance"][workload], "values": doc[workload]}


def _compare_reference(reference, call, outcome):
    """Values recorded for the reference seed; a recorded failure (None) or a
    failure now (None) is a failed op, not a wrong output."""
    if reference is None or call.index >= len(reference["values"]):
        return []
    expect, tol = reference["values"][call.index], reference["tolerance"]
    problems = []
    for got, want in zip(outcome.values, expect):
        if got is None or want is None:
            continue
        err = abs(got - want) / (abs(want) if tol["relative"] else 1.0)
        if err > tol["value"]:
            problems.append(f"call {call.index}: {got!r} != reference {want!r} "
                            f"(tolerance {tol})")
    if len(outcome.values) != len(expect):
        problems.append(f"call {call.index}: {len(outcome.values)} values, "
                        f"reference has {len(expect)}")
    return problems


def thread_invariance(seed):
    """phase_sweep CSV at the default threads vs threads=1 (untimed).

    Returns (problems, replicates per second at threads=1)."""
    size = dict(workloads.SIZES["phase"], R=workloads.INVARIANCE_R)
    call = next(workloads.plan("phase", seed, {"phase": size}))
    pooled = workloads.run_call("phase", call, OUT)
    serial = workloads.run_call("phase", call, OUT, threads=1)
    problems = pooled.problems + serial.problems
    if pooled.csv != serial.csv:
        problems.append("phase CSV differs between default threads and threads=1")
    return problems, serial.attempted / serial.wall_s


def run_untraced(run, seconds):
    """Calls until their wall time reaches ``seconds``.  The sparse-deviation
    tau call at n = 1e5 always runs first and counts on top of the budget."""
    tracer = tracing.Tracer()
    restore = tracing.instrument_replicates(tracer)
    try:
        budget = 0.0
        for call in workloads.plan(run.workload, run.seed):
            outcome = workloads.run_call(run.workload, call, OUT)
            run.record(call, outcome)
            if not (run.workload == "sparse-deviation" and call.index == 0):
                budget += outcome.wall_s
            if budget >= seconds:
                break
    finally:
        restore()
    if run.workload == "cli-pipeline":
        return [o.wall_s for o in run.outcomes]
    return [s.duration for s in tracer.spans if s.name == "experiments.replicate"]


def traced_calls(workload, seconds):
    extra = 1 if workload == "sparse-deviation" else 0
    return extra + max(1, round(seconds / NOMINAL_CALL_S[workload]))


def _run_traced_calls(workload, calls, tracer, record=None):
    @contextlib.contextmanager
    def untraced():
        tracer.enabled = False
        try:
            yield
        finally:
            tracer.enabled = True

    for call in calls:
        span = tracer.open("bench.call", new_trace=True)
        try:
            outcome = workloads.run_call(workload, call, OUT, untraced=untraced)
        finally:
            tracer.close(span)
        if record is not None:
            record(call, outcome)


def run_traced(run, seconds):
    tracer = tracing.Tracer()
    solves = []
    calls = list(itertools.islice(workloads.plan(run.workload, run.seed),
                                  traced_calls(run.workload, seconds)))
    restore = tracing.instrument(tracer, solves)
    try:
        _run_traced_calls(run.workload, calls, tracer, run.record)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer.spans)
    worst = max((residual_ratio(op, tol, pair) for op, tol, pairs in solves
                 for pair in pairs), default=0.0)
    metrics["spectral.residual_ratio.max"] = worst
    # the solver stops on its own residual estimate, so the recomputed ratio
    # may exceed 1 by rounding only
    if worst > 1.0 + RESIDUAL_SLACK:
        run.problems.append(f"eigenpair residual {worst:.6g} x tol exceeds tol")
    return tracer, metrics


def residual_ratio(op, tol, pair):
    v = pair.vector
    r = np.linalg.norm(op.matvec(v) - pair.value * v)
    return float(r / (tol * max(1.0, abs(pair.value))))


def trace_overhead(workload, seed):
    """Traced / untraced wall time of the same first call, minus 1.

    Untraced and traced runs alternate in ABBA order, so that a drift or a
    first-run cost falls on both sides equally."""
    call = next(c for c in workloads.plan(workload, seed)
                if not (workload == "sparse-deviation" and c.index == 0))
    rounds = 1 if workload == "cli-pipeline" else 3
    walls = {False: [], True: []}
    for traced in [False, True, True, False] * rounds:
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, []) if traced else (lambda: None)
        try:
            t0 = time.perf_counter()
            _run_traced_calls(workload, [call], tracer)
            walls[traced].append(time.perf_counter() - t0)
        finally:
            restore()
    return sum(walls[True]) / sum(walls[False]) - 1.0


def matvec_split(workload, seed, reps=40):
    """Median time of one matvec of a representative operator, total and per
    term kind: (total_us, sparse_us, expected_us, n)."""
    op = representative_operator(workload, seed)
    x = np.random.default_rng(0).standard_normal(op.n)

    def med(fn):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e6

    sparse = expected = 0.0
    for t in op.terms:
        z = t.scale * x if t.scale is not None else x
        if t.sparse is not None:
            sparse += med(lambda: t.sparse @ z)
        if t.expected is not None:
            expected += med(lambda: t.expected.matvec(z))
    return med(lambda: op.matvec(x)), sparse, expected, op.n


def representative_operator(workload, seed):
    """sparse-deviation: A - E A for ER d=2 at n=1e5 (the ROADMAP row);
    phase: a degree-capped adjacency at snr 4; cli-pipeline: the
    tau-regularized Laplacian that detect builds."""
    from specgraph.models import ER, PlantedPartition, expected_matrix, sample
    from specgraph.regularize import choose_tau, degree_regularize, regularized_laplacian
    from specgraph.spectral import SymmetricOperator
    size = workloads.SIZES[workload]
    s = workloads.call_seed(seed, 0)
    if workload == "sparse-deviation":
        n = size["n_tau"]
        spec = ER(size["d"] / n)
        g, labels = sample(spec, n, s)
        return SymmetricOperator.centered(g, expected_matrix(spec, labels))
    if workload == "phase":
        d = size["d"]
        delta = (2.0 * d * 4.0) ** 0.5 / 2.0
        g, _ = sample(PlantedPartition(d + delta, d - delta), size["n"], s)
        return SymmetricOperator.from_graph(degree_regularize(g, d + delta)[0])
    g, _ = sample(PlantedPartition(size["a"], size["b"]), size["n"], s)
    capped, _ = degree_regularize(g, float(g.degrees().mean()))
    return regularized_laplacian(capped, choose_tau(capped, 0.25))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def roadmap_rows(workload, spans, split):
    """Traced shares next to the ROADMAP baseline rows they replace."""
    lines = []
    total_us, sparse_us, expected_us, n = split
    lines.append(f"op.matvec at n={n}: {total_us / 1e3:.3f} ms = sparse "
                 f"{sparse_us / 1e3:.3f} ms + ExpectedMatrix {expected_us / 1e3:.3f} ms"
                 f" + other {(total_us - sparse_us - expected_us) / 1e3:.3f} ms"
                 "   [ROADMAP, A - EA at n=1e5: 6.9 = CSR 1.3 + ExpectedMatrix 4.2 ms]")
    reps = [s for s in spans if s.name == "experiments.replicate"]
    base = sum(s.duration for s in reps) or sum(
        s.duration for s in spans if s.name == "bench.call")
    if base:
        m = tracing.layer_metrics(spans)
        build = m["models.sample.s"] + m["regularize.degree_regularize.s"]
        lines.append(
            f"time shares of {'replicates' if reps else 'calls'}: solver bookkeeping"
            f" (top_eigs self) {100 * m['spectral.top_eigs.self_s'] / base:.1f} %,"
            f" matvec {100 * m['spectral.matvec.s'] / base:.1f} %, sampling +"
            f" Graph + capping {100 * build / base:.1f} %"
            "   [ROADMAP phase profile: reorth 42 % + eigh_tridiagonal 25 %,"
            " matvec 13 %]")
    sizes = [m for _, _, m in tracing.solve_stats(spans)]
    if sizes:
        lines.append(f"Krylov basis per solve: p50 {statistics.median(sizes)},"
                     f" max {max(sizes)} over {len(sizes)} solves"
                     "   [ROADMAP, largest-magnitude at n=1e5: 50-162]")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "specgraph", "__init__.py")):
        print(f"error: no specgraph sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a specgraph checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import specgraph  # noqa: F401
    import setup_probe

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
             f"  trace {args.trace}"]
    lines += [f"env {k}: {v}" for k, v in env.items()]
    run = Run(args.workload, args.seed)
    setup_probe.warm_up(args.workload)
    inv_problems, threads1 = thread_invariance(args.seed)
    run.problems += inv_problems

    if args.trace:
        tracer, metrics = run_traced(run, args.seconds)
        split = matvec_split(args.workload, args.seed)
        metrics["spectral.matvec.sparse_us"] = split[1]
        metrics["spectral.matvec.expected_us"] = split[2]
        metrics["experiments.threads1.ops_per_s"] = threads1
        metrics["trace.overhead"] = trace_overhead(args.workload, args.seed)
        tracer.write_jsonl(os.path.join(OUT, f"trace-{tag}.jsonl"))
        units = tracing.LAYER_UNITS
        lines += roadmap_rows(args.workload, tracer.spans, split)
        lines.append(f"{len(tracer.spans)} spans over {len(run.outcomes)} calls")
    else:
        lines.append(f"experiments.threads1.ops_per_s {threads1:.6g} 1/s")
        setup, setup_samples = setup_seconds(args.workload)
        latencies = run_untraced(run, args.seconds)
        pct = percentiles(latencies)
        metrics = {
            "ops_per_s": run.attempted / run.wall_s,
            "op_s.p50": pct["p50"],
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s",
                 "peak_rss_mb": "MB"}
        lines.append(f"ops {run.attempted} in {len(run.outcomes)} calls,"
                     f" {run.wall_s:.3f} s of calls; latency samples {len(latencies)}")
        lines.append("op_s.p90 " + (f"{pct['p90']:.6g} s" if "p90" in pct else
                     f"omitted: {len(latencies)} < {P90_MIN_SAMPLES} samples"))
        lines.append(f"setup_s samples {setup_samples}")
    lines.append(f"fail_rate {run.failed / run.attempted:.6g}"
                 f" ({run.failed} of {run.attempted} ops)")
    correct = not run.problems
    lines += [f"CHECK FAILED: {p}" for p in run.problems]
    lines += [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    with open(os.path.join(OUT, f"report-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "lines": lines, "result": result}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
