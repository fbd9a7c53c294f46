"""Grid eigensolves on forked worker processes (experiments._SolverPool).

A grid with two workers or more, two tasks or more and a point of
n >= spectral._POOL_MIN_N sends each ARPACK call to a worker process; the
replicates themselves, the probe and the residual recheck stay in the parent.
"""

import concurrent.futures
import concurrent.futures.process
import functools
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
import scipy.sparse.linalg as spla

import specgraph
from specgraph import experiments, spectral
from specgraph.experiments import (
    ExperimentConfig,
    bound_scorecard,
    measure_concentration,
    phase_sweep,
)
from specgraph.models import ER, expected_matrix, sample
from specgraph.spectral import NonConvergenceError, SymmetricOperator, top_eigs

PYTEST_PID = os.getpid()
N = 1200  # above spectral._POOL_MIN_N


@pytest.fixture
def fresh_pool(monkeypatch):
    """A solver pool of this test's own, forked after its monkeypatches;
    closed at the end."""
    pool = experiments._SolverPool()
    monkeypatch.setattr(experiments, "_solver_pool", pool)
    yield pool
    pool._close()


@pytest.fixture
def submitted(monkeypatch):
    """Names of the functions grids submit to their worker processes."""
    names = []
    real = concurrent.futures.process.ProcessPoolExecutor.submit

    def submit(self, fn, *args, **kwargs):
        names.append(getattr(fn, "__name__", repr(fn)))
        return real(self, fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process.ProcessPoolExecutor,
                        "submit", submit)
    return names


def sha(result):
    return hashlib.sha256(result.to_csv().encode()).hexdigest()


# sha256 of each CSV at threads=1, from the code before solves were pooled
PINNED = {
    "none": "a31013eaf272bb102ad303a6af549e53d71660f4d310501cd1e310b6bc0b3210",
    "degree-cap": "da4b8095ffba53bbde486216e12ae4076f7a18cde128091091fd02151ee7911c",
    "vertex-removal": "baa31d7018df5daee813e5bb835445644acc4d62461090c7041d6ada99960715",
    "tau-laplacian": "31b53f3b8a3fa84db9d42bfd2385183936c55a1a820a03b89635899edf6ac6d9",
    "scorecard": "2963390f016fa6f84332621650bb8e3c449c44b76d2234a244c8723f63cdbda6",
    "phase": "3e4e401eb39270a3c7d8d2955f8a099146db0a6af2f5571418c9dbd1f76f9a72",
}


def grid(name, threads):
    if name == "scorecard":
        return bound_scorecard((N,), (3.0,), R=4, seed=5, threads=threads)
    if name == "phase":
        return phase_sweep(6.0, (0.0, 5.0), n=N, R=2, seed=5, threads=threads)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0, 4.0), R=3,
                           seed=5, regularization=name)
    return measure_concentration(cfg, threads=threads)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pooled_grid_bytes_match_in_thread_and_pinned(name, submitted):
    solves = {"scorecard": 4, "phase": 8}.get(name, 6)
    for threads in (1, 2, 3):
        submitted.clear()
        assert sha(grid(name, threads)) == PINNED[name], threads
        pooled = submitted.count("_arpack")
        assert pooled == (0 if threads == 1 else solves), (threads, submitted)


def test_pooled_replicates_run_in_the_calling_process(monkeypatch, submitted):
    # what bench/tracing.instrument_replicates relies on: it rebinds these
    # two names in this process and reads the replicate spans it records
    seen = []
    for name in ("_concentration_replicate", "_phase_replicate"):
        real = getattr(experiments, name)

        def wrapper(*args, real=real):
            seen.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(experiments, name, wrapper)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0, 3.0), R=4,
                           seed=1)
    measure_concentration(cfg, threads=2)
    phase_sweep(6.0, (0.0, 5.0), n=N, R=3, seed=1, threads=2)
    assert seen == [os.getpid()] * (2 * 4 + 4 * 3)
    assert submitted.count("_arpack") == len(seen)


def test_overlapping_pooled_grids_share_the_pool(fresh_pool, submitted):
    # two callers' grids at once: the second one does not replace the pool
    # the first one is using, and both keep their bytes
    configs = [ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=6,
                                seed=seed) for seed in (1, 2)]
    results = [None, None]

    def run(i):
        results[i] = measure_concentration(configs[i], threads=2).to_csv()

    callers = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(120)
    assert results == [measure_concentration(cfg, threads=1).to_csv()
                       for cfg in configs]
    assert submitted.count("int") == 1 and submitted.count("_arpack") == 12


def test_small_solves_stay_in_the_thread(submitted):
    cfg = ExperimentConfig(model="er", n_grid=(spectral._POOL_MIN_N - 1,),
                           d_grid=(2.0,), R=4, seed=1)
    measure_concentration(cfg, threads=2)
    # a one-task grid stays in the thread at any n
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=1, seed=1)
    measure_concentration(cfg, threads=2)
    assert submitted == []
    # in a pooled grid, only the points at n >= _POOL_MIN_N send their solves
    cfg = ExperimentConfig(model="er", n_grid=(spectral._POOL_MIN_N - 1, N),
                           d_grid=(2.0,), R=3, seed=1)
    measure_concentration(cfg, threads=2)
    assert submitted.count("_arpack") == 3


def test_worker_nonconvergence_is_a_failed_replicate(monkeypatch, fresh_pool,
                                                     submitted):
    # one restart is too few for most replicates; the workers fork after
    # this patch and inherit it
    monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=1))
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0, 4.0), R=3,
                           seed=2)
    serial = measure_concentration(cfg, threads=1).to_csv()
    assert "solver_failures" in serial
    assert measure_concentration(cfg, threads=2).to_csv() == serial
    assert submitted.count("_arpack") == 6

    # the same error as in the thread, from a job thread's pool
    g, labels = sample(ER(4.0 / N), N, 0)
    op = SymmetricOperator.centered(g, expected_matrix(ER(4.0 / N), labels))
    errors = []
    for pool in (None, fresh_pool._pool):
        spectral._grid_thread.pool = pool
        try:
            with pytest.raises(NonConvergenceError) as err:
                top_eigs(op, 3, which="largest-magnitude", tol=1e-10, seed=0)
        finally:
            spectral._grid_thread.pool = None
        errors.append((str(err.value), err.value.best_estimate))
    assert errors[0] == errors[1]
    assert submitted.count("_arpack") == 7


class WorkerFailure(Exception):
    pass


def _raise_in_worker(*args):
    raise WorkerFailure(os.getpid())


def _exit_in_worker(*args):
    if os.getpid() == PYTEST_PID:
        raise AssertionError("expected to run in a worker process")
    os._exit(3)


def test_worker_exception_reaches_the_grid_with_its_type(monkeypatch,
                                                         fresh_pool):
    monkeypatch.setattr(spectral, "_arpack", _raise_in_worker)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=2, seed=1)
    with pytest.raises(WorkerFailure) as err:
        measure_concentration(cfg, threads=2)
    assert err.value.args[0] != os.getpid()


def run_with_deadline(fn, seconds=60):
    """fn()'s exception or None; fails if fn is still running at the deadline."""
    outcome = []

    def target():
        try:
            fn()
            outcome.append(None)
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the grid hangs"
    return outcome[0]


def test_dead_worker_stops_the_grid_and_the_next_grid_replaces_it(
        monkeypatch, fresh_pool):
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=4, seed=1)
    with monkeypatch.context() as m:
        m.setattr(spectral, "_arpack", _exit_in_worker)
        exc = run_with_deadline(lambda: measure_concentration(cfg, threads=2))
    assert isinstance(exc, concurrent.futures.process.BrokenProcessPool)
    assert "worker process ended abruptly" in str(exc)
    assert fresh_pool._pool is None
    pooled = measure_concentration(cfg, threads=2).to_csv()
    assert fresh_pool._pool is not None
    assert pooled == measure_concentration(cfg, threads=1).to_csv()


def test_pool_size_follows_the_usable_cores(monkeypatch, fresh_pool):
    sizes = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=2, seed=1)
    measure_concentration(cfg, threads=64)
    cores = len(os.sched_getaffinity(0))
    assert sizes == [min(64, cores)]
    fresh_pool._close()
    # the default thread count is the affinity set, not os.cpu_count(): on
    # one usable core a grid runs one worker and no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    measure_concentration(cfg)
    assert sizes == [min(64, cores)] and fresh_pool._pool is None


def _cli_env():
    root = os.path.dirname(os.path.dirname(os.path.abspath(specgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_pooled_sweep_process_exits_with_its_workers():
    # a worker left alive would hold the captured pipes open past the timeout
    args = [sys.executable, "-m", "specgraph.cli", "sweep", "--n-grid", "2000",
            "--d-grid", "2", "--R", "4", "--seed", "0", "--threads"]
    outs = [subprocess.run(args + [threads], capture_output=True, env=_cli_env(),
                           timeout=120) for threads in ("2", "1")]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr.decode()
    assert outs[0].stdout == outs[1].stdout


_KILLED_PARENT = """
import multiprocessing, sys, threading, time
from specgraph.experiments import ExperimentConfig, measure_concentration

cfg = ExperimentConfig(model="er", n_grid=(20000,), d_grid=(2.0,), R=500, seed=0)
threading.Thread(target=measure_concentration, args=(cfg, 2), daemon=True).start()
while len(multiprocessing.active_children()) < 2:
    time.sleep(0.01)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
time.sleep(120)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")  # a zombie has exited


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_the_parent_is_killed():
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=_cli_env())
    pids = []
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert len(pids) == 2
        time.sleep(0.2)  # mid-grid
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 30
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids))
    finally:
        proc.kill()
        proc.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
