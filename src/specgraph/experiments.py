"""Seeded Monte-Carlo harness.

Concentration measurement over (n, d) grids, the small-graph Laplacian
eigenvector study, phase sweeps over the SNR axis, and a bound scorecard.

The three grids share one harness.  A grid point is a dict of its CSV
identity columns, its model spec and the knobs its replicate reads; _row
turns a point and one statistic into a CSV record.

Results are byte-identical for any thread count: _run_grid derives each
replicate's streams from (master seed, grid index, replicate index), and a
grid runs with every loaded OpenBLAS held at one thread.  The BLAS thread
count sets the reduction order, which moves the last digits at n = 1e5, so
the pin also frees the bytes from OPENBLAS_NUM_THREADS and the host's core
count, and keeps BLAS threads off the cores of the grid's worker processes.
One-off solves outside a grid (the CLI's detect and fig-eigvec) keep
OpenBLAS's own setting.

A pooled grid runs each replicate's whole body in a forked worker process:
ARPACK's Lanczos steps (dsaupd) and the Python around them hold the GIL, so
two threads of one process ran slower than one (README, Solver processes).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import pickle
import threading
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

from . import _validate
from . import bounds as bounds_mod
from .detect import misclassification_rate, sign_partition
from .models import ER, PlantedPartition, _open_text, expected_matrix, sample
from .regularize import (
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

# Value solves (the deviation norms of measure_concentration and of
# bound_scorecard's spectral_norm call) stay at 1e-6.  A looser
# largest-magnitude solve can land on the wrong member of a tight top cluster
# and still pass the residual recheck, since what it returns is a genuine
# eigenpair: at 1e-4, ER d = 2, n = 1e4, seeds [161328693, 0, 1, 0 or 1],
# returned 3.609243 where the top |lambda| is 3.617645.
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


def _knobs(R, seed, tau_rho, cap_multiplier):
    """The knobs every grid takes, checked and keyed by their config names."""
    return {"R": _validate.integer("R", R, 1),
            "seed": _validate.integer("seed", seed, 0),
            "tau_rho": _validate.real("tau_rho", tau_rho, at_most=1.0),
            "cap_multiplier": _validate.real("cap_multiplier", cap_multiplier)}


def _ab(pair):
    """An ab_grid entry as a pair of finite nonnegative floats (a, b)."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"ab_grid entries must be [a, b] pairs, got {pair!r}")
    return tuple(_validate.real(k, x, zero_ok=True) for k, x in zip("ab", pair))


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
        knobs = _knobs(self.R, self.seed, self.tau_rho, self.cap_multiplier)
        for name, value in (knobs | {
            # the bound rows need n >= 2 (bounds.bernstein_expectation)
            "n_grid": tuple(_validate.integer("n", n, 2) for n in self.n_grid),
            "d_grid": tuple(_validate.real("d", d, zero_ok=True) for d in self.d_grid),
            "ab_grid": tuple(map(_ab, self.ab_grid)),
        }).items():
            object.__setattr__(self, name, value)
        for grid in ("n_grid", "d_grid" if self.model == "er" else "ab_grid"):
            if not getattr(self, grid):
                raise ValueError(f"{self.model} sweeps need a nonempty {grid}")
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
            _validate.real("cap_multiplier * d", self.cap_multiplier * d)


@dataclass
class ExperimentResult:
    records: list

    def to_csv(self):
        return _rows_to_csv(self.records)

    def write_csv(self, path):
        with _open_text(path) as fh:
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
    """One sampled graph -> (deviation norm, tau used); tau is nan outside
    tau-laplacian."""
    return _offload(_concentration_body, point, sample_seed, solver_seed)


def _concentration_body(point, sample_seed, solver_seed):
    g, labels = sample(point["spec"], point["n"], sample_seed)
    E = expected_matrix(point["spec"], labels)
    tau = math.nan
    mode = point["regularization"]
    if mode == "tau-laplacian":
        tau = choose_tau(g, point["tau_rho"])
        op = regularized_laplacian(g, tau) - expected_regularized_laplacian(E, tau)
        basis = _TAU_BASIS
    else:
        if mode == "degree-cap":
            g, _ = degree_regularize(g, point["d"], point["cap_multiplier"])
        elif mode == "vertex-removal":
            g = remove_high_degree(g, point["cap_multiplier"] * point["d"])
        op = SymmetricOperator.centered(g, E)
        basis = None
    pair = top_eigs(op, 1, which="largest-magnitude", tol=_SOLVER_TOL,
                    seed=solver_seed, max_basis=basis)[0]
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


def _usable_cores():
    """The cores this process may run on (its affinity set, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a solver worker."""


def _with_trace(exc):
    """(exc, its traceback text): what a solver worker sends for a failure."""
    trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return exc, f'\n"""\n{trace}"""'


def _serve(end):
    """The loop of a solver worker process.  It reads (body, point,
    sample_seed, solver_seed) from its pipe end, runs the body and sends
    back (True, value) or (False, (exception, traceback text)), a pickling
    failure of either included, until the parent closes its end.  A watchdog
    exits soon after the parent is gone, also in the middle of a body, whose
    reply would find no reader."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()
    # until the parent closes its end, or is gone
    with contextlib.suppress(EOFError, OSError):
        while True:
            body, *args = end.recv()
            try:
                reply = True, body(*args)
            except BaseException as exc:  # the parent raises it again
                reply = False, _with_trace(exc)
            try:
                data = pickle.dumps(reply)
            except Exception as exc:  # the value or the exception does not pickle
                data = pickle.dumps((False, _with_trace(exc)))
            end.send_bytes(data)


class _RunningGrids:
    """What grids share: one lock, held by a grid from start to end, the
    OpenBLAS pin and the solver workers.

    The workers persist between grids.  They fork under the pin, so that
    they inherit OpenBLAS at one thread, and before the grid starts its job
    threads.  A forked child, each worker included, starts with none of its
    parent's workers (_forget_parent_workers).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._workers = []  # (process, pipe end) of each solver worker

    @contextlib.contextmanager
    def __call__(self, size):
        """Hold the lock and the pin for one grid, and yield the pipe ends of
        size workers if size >= 2, else [].  Workers that are not serving
        are replaced on entry and ended on exit."""
        with self._lock:
            restore = [(put, get()) for get, put in _openblas_controls()]
            for put, _ in restore:
                put(1)
            try:
                if size > 1 and not self._serving(size):
                    self._close()
                    self._fork(size)
                yield [end for _, end in self._workers[:size]] if size > 1 else []
            finally:
                if not self._serving(size):
                    self._close()
                for put, count in restore:
                    put(count)

    def _serving(self, size):
        """At least size workers, each alive and with an open pipe end
        (_offload closes the end of a worker that is gone)."""
        return len(self._workers) >= size and all(
            proc.is_alive() and not end.closed for proc, end in self._workers)

    def _fork(self, size):
        """Fork size solver workers from this thread."""
        # imported on first use (README, Start-up); scipy.sparse.linalg
        # before the fork, so that the workers inherit it
        import multiprocessing

        import scipy.sparse.linalg  # noqa: F401

        context = multiprocessing.get_context("fork")
        for _ in range(size):
            end, theirs = context.Pipe()
            proc = context.Process(target=_serve, args=(theirs,), daemon=True)
            self._workers.append((proc, end))  # before the fork: the child closes end
            proc.start()
            theirs.close()

    def _close(self):
        """End the workers: each reads an end of file and returns.  No other
        process holds a copy of a worker's parent end (_forget_parent_workers),
        so closing it here is enough."""
        for proc, end in self._workers:
            end.close()
            if proc.pid is not None:  # else its start failed (_fork)
                proc.join()
        self._workers = []


def _forget_parent_workers():
    """In a forked child: close the copies of the parent's pipe ends, so that
    the parent's close alone ends each pipe, take the parent's workers off
    multiprocessing's list of this process's children, whose exit handler
    would end them, and start with no workers and a free lock."""
    if _running_grids._workers:  # multiprocessing is imported (_fork)
        from multiprocessing import process

        for proc, end in _running_grids._workers:
            end.close()
            process._children.discard(proc)
    _running_grids.__init__()


_running_grids = _RunningGrids()
if hasattr(os, "register_at_fork"):  # no fork on Windows
    os.register_at_fork(after_in_child=_forget_parent_workers)
# _grid_thread.end: the pipe end of the worker that runs a job thread's
# replicates, or None where they run in this process (_run_grid)
_grid_thread = threading.local()


def _offload(body, point, sample_seed, solver_seed):
    """body(point, sample_seed, solver_seed), in the calling job thread's
    solver worker if it has one.  The thread sends the call down the
    worker's pipe and waits for the reply without holding the GIL.  body is
    a module-level function, so that it pickles by reference; an exception
    from it keeps its type and carries the worker's traceback text as its
    __cause__."""
    end = getattr(_grid_thread, "end", None)
    if end is None:
        return body(point, sample_seed, solver_seed)
    try:
        end.send((body, point, sample_seed, solver_seed))
        ok, value = end.recv()
    except (EOFError, OSError) as exc:
        # the worker is gone: its closed end tells _RunningGrids to end
        # the workers when the grid does
        end.close()
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool(
            "an eigensolver worker process ended abruptly; the grid is "
            "stopped, and the next grid starts new workers") from exc
    if ok:
        return value
    try:
        raise value[0] from _RemoteTraceback(value[1])
    finally:
        del value  # this frame is in the traceback: no cycle (_run_grid)


def _run_grid(points, R, seed, replicate_fn, threads=None):
    """Two (points x R) arrays of replicate_fn(point, sample_seed,
    solver_seed) pairs; slot [gi, r] uses the seeds [seed, gi, r, 0] and
    [seed, gi, r, 1], so output order is fixed.

    threads is None (one per usable core) or an integer >= 1: the worker
    processes of a grid of two replicates or more, capped at the usable
    cores; it pools where that leaves two or more (module docstring).  A
    pooled grid runs one job thread per worker, any other grid runs on the
    calling thread; each takes the next slot until none is left.

    The failure rule lives here only.  A replicate that raises
    NonConvergenceError has failed: its slot keeps the nan it was filled
    with, in both arrays, and the grid goes on.  Any other exception stops
    the grid: once a replicate raises one, no replicate starts, and the grid
    raises the failure of the lowest slot.
    """
    if threads is not None:
        _validate.integer("threads", threads, 1)
    out = np.full((2, len(points), R), np.nan)
    tasks = [(gi, r) for gi in range(len(points)) for r in range(R)]
    slots, failures = iter(tasks), {}

    def run(end):
        _grid_thread.end = end
        for gi, r in slots:
            if failures:
                return
            try:
                out[:, gi, r] = replicate_fn(points[gi], [seed, gi, r, 0],
                                             [seed, gi, r, 1])
            except NonConvergenceError:
                pass  # a failed replicate: its slot stays nan
            except BaseException as exc:
                failures[gi, r] = exc
                return

    cores = _usable_cores()
    size = min(threads or cores, cores) if len(tasks) > 1 else 1
    with _running_grids(size) as ends:
        jobs = [threading.Thread(target=run, args=(end,)) for end in ends]
        try:
            for job in jobs:
                job.start()
            if not jobs:
                run(None)
            for job in jobs:
                job.join()
        except BaseException as exc:  # a Ctrl-C in the calling thread
            failures[-1, -1] = exc  # stops the job threads, and ranks first
            for job in jobs:
                if job.is_alive():
                    job.join()
    if failures:
        # the frames in a failure's traceback reach failures: emptied, it
        # leaves no reference cycle to keep the job threads for the garbage
        # collector, whose weakref callbacks in the main thread would
        # swallow a pending KeyboardInterrupt
        try:
            raise failures[min(failures)]
        finally:
            failures.clear()
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
    ratio to every applicable closed-form bound at C = 1.  A failed replicate
    (_run_grid) is nan in both arrays: it is left out of every average, the
    tau row's included, and counted in a solver_failures row.
    threads: worker processes for grids of two replicates or more (_run_grid).
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
    """Top-3 eigenvectors of L(A) and L(A_tau) on one planted-partition draw;
    eigenvector_study states which vectors of L(A)'s eigenvalue 1 it holds."""

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

    The plain columns start with L(A)'s eigenvalue-1 vectors, one per
    component with an edge, which top_eigs takes in closed form from
    laplacian (regularize._unit_pairs).
    """
    n = _validate.integer("n", n, 3)  # each operator solves for k = 3 pairs
    seed = _validate.integer("seed", seed, 0)
    g, labels = sample(PlantedPartition(a, b), n, [seed, 0])
    tau = choose_tau(g, rho)
    cols = [_canonical_sign(p.vector) for p in top_eigs(
        laplacian(g), 3, tol=1e-10, seed=[seed, 1])]
    cols += [_canonical_sign(p.vector) for p in top_eigs(
        regularized_laplacian(g, tau), 3, tol=1e-10, seed=[seed, 2])]
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
    """One sampled graph -> (sign-rule accuracy, nan)."""
    return _offload(_phase_body, point, sample_seed, solver_seed)


def _phase_body(point, sample_seed, solver_seed):
    # Budget: only the signs of the second eigenvector count.  A unit Ritz
    # vector with residual ||r|| lies within ||r|| / gap of the eigenvector
    # (Davis-Kahan sin theta; Parlett, The Symmetric Eigenvalue Problem), and
    # an accuracy counts whole nodes, 2.5e-4 each at n = 4000.  Against
    # tol-1e-10 solves (n = 4000, snr 0, 2, 4, 10, both methods, 80 draws
    # each) no 1e-4 solve returned another eigenvalue (|d lambda_2| <= 1.7e-7
    # relative); mean accuracies moved by at most 1e-4, single draws near the
    # threshold (snr <= 2) by up to 8 nodes.
    tol = 1e-4
    g, labels = sample(point["spec"], point["n"], sample_seed)
    if point["method"] == "reg-adjacency":
        capped, _ = degree_regularize(g, point["a"], point["cap_multiplier"])
        op = SymmetricOperator.from_graph(capped)
    else:
        op = regularized_laplacian(g, choose_tau(g, point["tau_rho"]))
    pairs = top_eigs(op, 2, which="largest-algebraic", tol=tol, seed=solver_seed)
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
    threads: worker processes for grids of two replicates or more (_run_grid).
    """
    if method not in ("both", *PHASE_METHODS):
        raise ValueError(f"method must be 'both' or one of {PHASE_METHODS}")
    methods = PHASE_METHODS if method == "both" else (method,)
    R, seed, tau_rho, cap_multiplier = _knobs(R, seed, tau_rho, cap_multiplier).values()
    n = _validate.integer("n", n, 2)  # each replicate solves for k = 2 pairs
    d = _validate.real("d", d)
    snr_grid = [_validate.real("snr", s, zero_ok=True) for s in snr_grid]
    if not snr_grid:
        raise ValueError("phase sweeps need a nonempty snr_grid")
    points, infeasible = [], []
    for s in snr_grid:
        delta = math.sqrt(2.0 * d * s) / 2.0
        a, b = d + delta, d - delta
        for meth in methods:
            pt = {"model": "pp", "n": n, "d": d, "a": a, "b": b,
                  "snr": s, "method": meth,
                  "regularization": "degree-cap" if meth == "reg-adjacency"
                                    else "tau-laplacian",
                  "tau_rho": tau_rho, "cap_multiplier": cap_multiplier}
            if b < 0 or a > n:
                infeasible.append(pt)
                continue
            if meth == "reg-adjacency":  # the cap is cap_multiplier * a
                _validate.real("cap_multiplier * a", cap_multiplier * a)
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
    """One sampled graph -> (deviation norm, Seginer statistic)."""
    return _offload(_scorecard_body, point, sample_seed, solver_seed)


def _scorecard_body(point, sample_seed, solver_seed):
    g, labels = sample(point["spec"], point["n"], sample_seed)
    E = expected_matrix(point["spec"], labels)
    op = SymmetricOperator.centered(g, E)
    norm = spectral_norm(op, _SOLVER_TOL, solver_seed)
    return norm, bounds_mod.seginer_stat(g, E)


def bound_scorecard(n_grid, d_grid, R=20, seed=0, threads=None):
    """Empirical ER deviation norms against every closed-form bound (C = 1).

    Per grid point: the measured norm, the Seginer max-column statistic, each
    bound's value, and the empirical/bound ratio.
    threads: worker processes for grids of two replicates or more (_run_grid).
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
