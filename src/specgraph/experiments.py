"""Seeded Monte-Carlo harness.

Concentration measurement over (n, d) grids, the small-graph Laplacian
eigenvector study, phase sweeps over the SNR axis, and a bound scorecard.

The three grids share one harness.  A grid point is a dict of its CSV
identity columns, its model spec and the knobs its replicate reads; _row
turns a point and one statistic into a CSV record.

Reproducibility scheme: _run_grid derives each replicate's streams from
(master seed, grid index, replicate index) through SeedSequence, one for
sampling and one for the eigensolver.  Replicates land in
preallocated slots keyed by those indices, and aggregation walks the slots in
a fixed order, so results are byte-identical for any thread count.

BLAS rule: a grid runs with every loaded OpenBLAS held at one thread, for any
pool size, and the previous counts come back when it ends.  Parallelism comes
from the replicate pool alone, so the cores are not oversubscribed.  The BLAS
thread count sets the reduction order, which moves the last digits at
n = 1e5, so pinning it also makes the CSV bytes independent of
OPENBLAS_NUM_THREADS and the host's core count.  One-off solves outside a
grid (the CLI's detect and fig-eigvec) keep OpenBLAS's own setting.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import numbers
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .detect import misclassification_rate, sign_partition
from .models import ER, PlantedPartition, expected_matrix, sample
from .regularize import (
    _check,
    choose_tau,
    degree_regularize,
    expected_regularized_laplacian,
    laplacian,
    regularized_laplacian,
    remove_high_degree,
)
from .spectral import NonConvergenceError, SymmetricOperator, spectral_norm, top_eigs

CSV_COLUMNS = ("model", "n", "d", "a", "b", "snr", "regularization", "method",
               "statistic", "mean", "stderr", "R", "seed")

REGULARIZATIONS = ("none", "degree-cap", "vertex-removal", "tau-laplacian")

_SOLVER_TOL = 1e-6
# Lanczos basis for the tau-Laplacian deviation norm.  Its largest magnitude
# sits in a tight cluster (near 0.81 at d = 2), where ARPACK's default
# 20-vector basis restarts often: at n = 1e5, ER d = 2, ten draws took
# 640-1840 matvecs with 20 vectors and 390-750 with 48.  On A - E[A] the
# default basis converges as fast and costs less per step.
_TAU_BASIS = 48


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _rows_to_csv(rows):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _row(point, seed, statistic, mean, stderr, R):
    """One CSV record: the point's identity columns and one statistic."""
    return {k: point[k] for k in CSV_COLUMNS[:8]} | dict(
        statistic=statistic, mean=mean, stderr=stderr, R=R, seed=seed)


def _positive(x):
    return isinstance(x, float) and math.isfinite(x) and x > 0


def _number(name, x, integral=False):
    """x as an int (integral) or a finite float; a bool is neither."""
    kind = numbers.Integral if integral else numbers.Real
    # false for nan, inf and an int too large for a float (math.isfinite overflows)
    if (isinstance(x, bool) or not isinstance(x, kind)
            or not (integral or abs(x) <= sys.float_info.max)):
        what = "an integer" if integral else "a finite number"
        raise ValueError(f"{name} must be {what}, got {x!r}")
    return int(x) if integral else float(x)


def _ab(pair):
    """An ab_grid entry as a pair of finite floats (a, b)."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"ab_grid entries must be [a, b] pairs, got {pair!r}")
    return _number("a", pair[0]), _number("b", pair[1])


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description for measure_concentration.

    model: "er" (grid over d, edge probability d/n) or "pp" (grid over (a, b)).
    regularization: one of REGULARIZATIONS, applied before the deviation norm;
    centering always uses the expectation of the *original* model.  Grids may
    be lists (as JSON gives them) and are stored as tuples.
    """

    model: str = "er"
    n_grid: tuple = (1000,)
    d_grid: tuple = ()
    ab_grid: tuple = ()
    R: int = 20
    regularization: str = "none"
    tau_rho: float = 0.25
    cap_multiplier: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("er", "pp"):
            raise ValueError("model must be 'er' or 'pp'")
        if self.regularization not in REGULARIZATIONS:
            raise ValueError(f"regularization must be one of {REGULARIZATIONS}")
        for name, value in {
            "R": _number("R", self.R, True),
            "seed": _number("seed", self.seed, True),
            "n_grid": tuple(_number("n", n, True) for n in self.n_grid),
            "d_grid": tuple(_number("d", d) for d in self.d_grid),
            "ab_grid": tuple(map(_ab, self.ab_grid)),
            "tau_rho": _number("tau_rho", self.tau_rho),
            "cap_multiplier": _number("cap_multiplier", self.cap_multiplier),
        }.items():
            object.__setattr__(self, name, value)
        _check("tau_rho", self.tau_rho, at_most=1.0)
        _check("cap_multiplier", self.cap_multiplier)
        if self.R < 1:
            raise ValueError("R must be at least 1")
        if not self.n_grid or min(self.n_grid) < 1:
            raise ValueError("n grid must be nonempty, with every n at least 1")
        if self.model == "er" and len(self.d_grid) == 0:
            raise ValueError("er sweeps need a d grid")
        if self.model == "pp" and len(self.ab_grid) == 0:
            raise ValueError("pp sweeps need an (a, b) grid")
        # what every replicate would reject, but only after sampling its graph
        capped = self.regularization in ("degree-cap", "vertex-removal")
        if capped and self.model == "er" and 0 in self.d_grid:
            raise ValueError(f"d_grid must be positive under {self.regularization}, "
                             f"got 0.0")
        for a, b in self.ab_grid if self.model == "pp" else ():
            if capped and a + b == 0:
                raise ValueError(f"ab_grid needs a + b > 0 under "
                                 f"{self.regularization}, got {[a, b]}")
            if max(a, b) > min(self.n_grid):
                raise ValueError(f"ab_grid entry {[a, b]} exceeds n = "
                                 f"{min(self.n_grid)} of n_grid")
        degrees = (self.d_grid if self.model == "er"
                   else [(a + b) / 2.0 for a, b in self.ab_grid])
        for d in degrees if capped else ():
            _check("cap_multiplier * d", self.cap_multiplier * d)


@dataclass
class ExperimentResult:
    records: list

    def to_csv(self):
        return _rows_to_csv(self.records)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


def _grid_points(config):
    """The config's grid points, each carrying its knobs for the replicate."""
    knobs = {"regularization": config.regularization, "method": "",
             "tau_rho": config.tau_rho, "cap_multiplier": config.cap_multiplier}
    pts = []
    for n in config.n_grid:
        for d in config.d_grid if config.model == "er" else ():
            pts.append({"model": "er", "n": n, "d": d, "a": "", "b": "",
                        "snr": "", "spec": ER(d / n)} | knobs)
        for a, b in config.ab_grid if config.model == "pp" else ():
            snr = 0.0 if a + b == 0 else (a - b) ** 2 / (a + b)
            pts.append({"model": "pp", "n": n, "d": (a + b) / 2.0, "a": a,
                        "b": b, "snr": snr,
                        "spec": PlantedPartition(a, b)} | knobs)
    return pts


def _concentration_replicate(point, sample_seed, solver_seed):
    """One sampled graph -> (deviation norm, tau used) or (nan, nan) on failure."""
    g, labels = sample(point["spec"], point["n"], sample_seed)
    E = expected_matrix(point["spec"], labels)
    tau = math.nan
    mode = point["regularization"]
    if mode == "tau-laplacian":
        tau = choose_tau(g, point["tau_rho"])
        if tau <= 0:
            return math.nan, tau
        op = regularized_laplacian(g, tau) - expected_regularized_laplacian(E, tau)
        basis = _TAU_BASIS
    else:
        if mode == "degree-cap":
            g, _ = degree_regularize(g, point["d"], point["cap_multiplier"])
        elif mode == "vertex-removal":
            g = remove_high_degree(g, point["cap_multiplier"] * point["d"])
        op = SymmetricOperator.centered(g, E)
        basis = None
    try:
        pair = top_eigs(op, 1, which="largest-magnitude", tol=_SOLVER_TOL,
                        seed=solver_seed, max_basis=basis)[0]
    except NonConvergenceError:
        return math.nan, tau
    return abs(pair.value), tau


_OPENBLAS_SYMBOLS = tuple((f"{prefix}_get_num_threads{suffix}",
                           f"{prefix}_set_num_threads{suffix}")
                          for prefix in ("scipy_openblas", "openblas")
                          for suffix in ("64_", ""))


@functools.cache
def _openblas_controls():
    """(get, set) thread-count functions of each OpenBLAS that the numpy and
    scipy wheels bundle under <package>.libs; empty where none is found."""
    import scipy

    controls = []
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _OPENBLAS_SYMBOLS:
                if hasattr(lib, get_name) and hasattr(lib, set_name):
                    get, put = getattr(lib, get_name), getattr(lib, set_name)
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    controls.append((get, put))
                    break
    return tuple(controls)


class _SingleThreadedBlas:
    """Holds every OpenBLAS of _openblas_controls at one thread while entered.

    Grids may overlap in different user threads: the first one in saves the
    counts and pins them, the last one out restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._restore = [(put, get()) for get, put in _openblas_controls()]
                for put, _ in self._restore:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._restore:
                    put(count)


_single_threaded_blas = _SingleThreadedBlas()


def _run_grid(points, R, seed, replicate_fn, threads=None):
    """Two (points x R) arrays of replicate_fn(point, sample_seed,
    solver_seed) pairs, filled in parallel; slot [gi, r] uses the seeds
    [seed, gi, r, 0] and [seed, gi, r, 1], so output order is fixed.

    threads is None (one worker per core) or an integer >= 1.  BLAS stays at
    one thread for the whole grid, whatever the pool size (module docstring).
    """
    if threads is not None and _number("threads", threads, integral=True) < 1:
        raise ValueError(f"threads must be at least 1, got {threads!r}")
    out = np.full((2, len(points), R), np.nan)

    def job(task):
        gi, r = task
        out[:, gi, r] = replicate_fn(points[gi], [seed, gi, r, 0],
                                     [seed, gi, r, 1])

    tasks = [(gi, r) for gi in range(len(points)) for r in range(R)]
    workers = threads or os.cpu_count() or 1
    # map cancels the queued tasks once a result raises
    with _single_threaded_blas, ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(job, tasks))
    return out[0], out[1]


def _mean_stderr(values):
    ok = values[np.isfinite(values)]
    if len(ok) == 0:
        return "", "", 0
    mean = float(ok.mean())
    stderr = float(ok.std(ddof=1) / math.sqrt(len(ok))) if len(ok) > 1 else 0.0
    return mean, stderr, len(ok)


def _bound_values(point, tau=math.nan):
    """name -> value, in row order, of the bounds.BOUND_REGISTRY bounds that
    apply under the point's regularization, at its n and d with sigma =
    sqrt(d), K = 1 and r = C = 1: what `specgraph bounds` prints for them."""
    reg, d = point["regularization"], point["d"]
    if reg == "tau-laplacian":
        names = ("thm54",) if _positive(tau) else ()
    else:
        names = ("bai-yin", "bernstein", "bvh", "benaych",
                 *(("thm51",) if reg == "degree-cap" else ()))
    params = {"n": point["n"], "d": d, "sigma": math.sqrt(d), "bigk": 1.0,
              "r": 1.0, "c": 1.0, "tau": tau}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # benaych outside its stated window
        return {name: bounds_mod.BOUND_REGISTRY[name][0](params)
                for name in names}


def measure_concentration(config, threads=None):
    """Deviation norms ||A' - E A|| over the configured grid.

    A' is the regularized adjacency (or the regularized Laplacian pair, where
    the statistic becomes ||L(A_tau) - L(E A_tau)||).  Per grid point the
    result carries the mean/stderr of the norm, its ratio to sqrt(d), and the
    ratio to every applicable closed-form bound at C = 1.  Solver failures are
    dropped from the averages and counted in a solver_failures row.
    """
    points = _grid_points(config)
    seed = config.seed
    norms, taus = _run_grid(points, config.R, seed, _concentration_replicate,
                            threads)
    records = []
    for gi, point in enumerate(points):
        mean, stderr, used = _mean_stderr(norms[gi])
        records.append(_row(point, seed, "deviation_norm", mean, stderr, used))
        tau_mean = _mean_stderr(taus[gi])[0]
        if config.regularization == "tau-laplacian":
            records.append(_row(point, seed, "tau", tau_mean, "", used))
        if mean != "":
            bounds = {"sqrt_d": math.sqrt(point["d"])}
            for name, bound in (bounds | _bound_values(point, tau_mean)).items():
                if _positive(bound):
                    records.append(_row(point, seed, f"ratio_{name}",
                                        mean / bound, stderr / bound, used))
        if used < config.R:
            records.append(_row(point, seed, "solver_failures",
                                config.R - used, "", config.R))
    return ExperimentResult(records)


# ---------------------------------------------------------------------------
# Small-graph Laplacian eigenvector study
# ---------------------------------------------------------------------------

def participation_ratio(v):
    """(sum v^2)^2 / (n sum v^4): 1 for flat vectors, ~k/n for k-sparse ones."""
    v = np.asarray(v, dtype=np.float64)
    s2 = float((v ** 2).sum())
    s4 = float((v ** 4).sum())
    if s4 == 0:
        return 0.0
    return s2 * s2 / (len(v) * s4)


def _canonical_sign(v):
    peak = int(np.argmax(np.abs(v)))
    return v if v[peak] >= 0 else -v


@dataclass
class EigenvectorStudy:
    """Top-3 eigenvectors of L(A) and L(A_tau) on one planted-partition draw."""

    table: np.ndarray          # n x 6: unregularized v1..v3, regularized v1..v3
    mis_unregularized: float
    mis_regularized: float
    tau: float
    labels: np.ndarray

    def to_csv(self):
        header = "lap_v1,lap_v2,lap_v3,reglap_v1,reglap_v2,reglap_v3"
        lines = [header]
        for row in self.table:
            lines.append(",".join(map(_fmt, row)))
        return "\n".join(lines) + "\n"


def eigenvector_study(n=50, a=5.0, b=0.1, rho=0.1, seed=0):
    """Contrast plain and tau-regularized Laplacian eigenvectors on one draw.

    Nodes are ordered with the planted communities contiguous.  The
    misclassification pair scores the sign rule on the second eigenvector of
    each operator against the planted labels.
    """
    g, labels = sample(PlantedPartition(a, b), n, [seed, 0])
    tau = choose_tau(g, rho)
    pairs_plain = top_eigs(laplacian(g), 3, which="largest-algebraic",
                           tol=1e-10, seed=[seed, 1], max_basis=n)
    op_reg = regularized_laplacian(g, tau) if tau > 0 else laplacian(g)
    pairs_reg = top_eigs(op_reg, 3, which="largest-algebraic",
                         tol=1e-10, seed=[seed, 2], max_basis=n)
    cols = [_canonical_sign(p.vector) for p in pairs_plain]
    cols += [_canonical_sign(p.vector) for p in pairs_reg]
    table = np.column_stack(cols)
    mis_plain = misclassification_rate(sign_partition(table[:, 1]), labels)
    mis_reg = misclassification_rate(sign_partition(table[:, 4]), labels)
    return EigenvectorStudy(table=table, mis_unregularized=mis_plain,
                            mis_regularized=mis_reg, tau=tau, labels=labels)


# ---------------------------------------------------------------------------
# Phase sweep
# ---------------------------------------------------------------------------

PHASE_METHODS = ("reg-adjacency", "reg-laplacian")


def _phase_replicate(point, sample_seed, solver_seed):
    g, labels = sample(point["spec"], point["n"], sample_seed)
    try:
        if point["method"] == "reg-adjacency":
            capped, _ = degree_regularize(g, point["a"], point["cap_multiplier"])
            op = SymmetricOperator.from_graph(capped)
        else:
            tau = choose_tau(g, point["tau_rho"])
            if tau <= 0:
                return math.nan, math.nan
            op = regularized_laplacian(g, tau)
        pairs = top_eigs(op, 2, which="largest-algebraic",
                         tol=_SOLVER_TOL, seed=solver_seed)
    except NonConvergenceError:
        return math.nan, math.nan
    pred = sign_partition(pairs[1].vector)
    return 1.0 - misclassification_rate(pred, labels), math.nan


def phase_sweep(d, snr_grid, n=4000, R=50, method="both", tau_rho=0.25,
                cap_multiplier=2.0, seed=0, threads=None):
    """Mean detection accuracy along an SNR grid at fixed average degree d.

    Each SNR value s maps to a = d + sqrt(2 d s)/2, b = d - sqrt(2 d s)/2
    (so (a-b)^2/(a+b) = s with (a+b)/2 = d); infeasible points (b < 0) are
    recorded and skipped.  Methods: sign rule on the second-largest
    eigenvector of the degree-capped adjacency (cap 2a), and of the
    tau-regularized Laplacian with tau = tau_rho * mean degree.
    """
    if method not in ("both", *PHASE_METHODS):
        raise ValueError(f"method must be 'both' or one of {PHASE_METHODS}")
    methods = PHASE_METHODS if method == "both" else (method,)
    n, R, seed = (_number(name, x, integral=True)
                  for name, x in (("n", n), ("R", R), ("seed", seed)))
    _check("d", d)
    for s in snr_grid:
        _check("snr", s, zero_ok=True)
    _check("tau_rho", tau_rho, at_most=1.0)
    _check("cap_multiplier", cap_multiplier)
    if R < 1:
        raise ValueError("R must be at least 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    points, infeasible = [], []
    for s in snr_grid:
        delta = math.sqrt(2.0 * d * s) / 2.0
        a, b = d + delta, d - delta
        for meth in methods:
            pt = {"model": "pp", "n": n, "d": float(d), "a": a, "b": b,
                  "snr": float(s), "method": meth,
                  "regularization": "degree-cap" if meth == "reg-adjacency"
                                    else "tau-laplacian",
                  "tau_rho": tau_rho, "cap_multiplier": cap_multiplier}
            if b < 0 or a > n:
                infeasible.append(pt)
                continue
            if meth == "reg-adjacency":  # the cap is cap_multiplier * a
                _check("cap_multiplier * a", cap_multiplier * a)
            points.append(pt | {"spec": PlantedPartition(a, b)})
    acc, _ = _run_grid(points, R, seed, _phase_replicate, threads)
    records = [_row(pt, seed, "accuracy", *_mean_stderr(acc[gi]))
               for gi, pt in enumerate(points)]
    records += [_row(pt, seed, "infeasible", "", "", 0) for pt in infeasible]
    records.sort(key=lambda rec: (rec["snr"], rec["method"]))
    return ExperimentResult(records)


# ---------------------------------------------------------------------------
# Bound scorecard
# ---------------------------------------------------------------------------

def _scorecard_replicate(point, sample_seed, solver_seed):
    g, labels = sample(point["spec"], point["n"], sample_seed)
    E = expected_matrix(point["spec"], labels)
    op = SymmetricOperator.centered(g, E)
    try:
        norm = spectral_norm(op, _SOLVER_TOL, solver_seed)
    except NonConvergenceError:
        return math.nan, math.nan
    return norm, bounds_mod.seginer_stat(g, E)


def bound_scorecard(n_grid, d_grid, R=20, seed=0, threads=None):
    """Empirical ER deviation norms against every closed-form bound (C = 1).

    Per grid point: the measured norm, the Seginer max-column statistic, each
    bound's value, and the empirical/bound ratio.
    """
    config = ExperimentConfig(model="er", n_grid=n_grid, d_grid=d_grid, R=R,
                              seed=seed)
    points = _grid_points(config)
    norms, segs = _run_grid(points, R, seed, _scorecard_replicate, threads)
    records = []
    for gi, point in enumerate(points):
        mean, stderr, used = _mean_stderr(norms[gi])
        seg_mean, seg_stderr, _ = _mean_stderr(segs[gi])
        records.append(_row(point, seed, "deviation_norm", mean, stderr, used))
        records.append(_row(point, seed, "seginer_stat", seg_mean, seg_stderr,
                            used))
        if mean == "":
            continue
        for name, bound in _bound_values(point).items():
            records.append(_row(point, seed, f"bound_{name}", bound, "", ""))
            if _positive(bound):
                records.append(_row(point, seed, f"ratio_{name}", mean / bound,
                                    stderr / bound, used))
        if _positive(seg_mean):
            records.append(_row(point, seed, "ratio_seginer",
                                mean / seg_mean, "", used))
    return ExperimentResult(records)
