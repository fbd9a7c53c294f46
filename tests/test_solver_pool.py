"""Grid replicates on forked worker processes (experiments._RunningGrids).

A grid pools when min(threads, usable cores) >= 2, it has two tasks or more
and a point of n >= experiments._POOL_MIN_N; then each of its replicates
sends its whole body to a worker process.  The replicate function itself is
still called in the parent, which gets back two floats.
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

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import specgraph
from specgraph import experiments
from specgraph.experiments import (
    ExperimentConfig,
    bound_scorecard,
    measure_concentration,
    phase_sweep,
)
from specgraph.models import sample

PYTEST_PID = os.getpid()
N = 1200  # above experiments._POOL_MIN_N


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
    body, replicates = {"scorecard": ("_scorecard_body", 4),
                        "phase": ("_phase_body", 8)}.get(
                            name, ("_concentration_body", 6))
    for threads in (1, 2, 3):
        submitted.clear()
        assert sha(grid(name, threads)) == PINNED[name], threads
        pooled = submitted.count(body)
        assert pooled == (0 if threads == 1 else replicates), (threads, submitted)


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
    assert (submitted.count("_concentration_body"),
            submitted.count("_phase_body")) == (2 * 4, 4 * 3)


def test_pooled_replicate_bodies_leave_the_parent(monkeypatch, fresh_grids):
    # the workers fork after this patch and inherit the spy, but what it
    # records there stays in the worker
    calls = []

    def spy(*args):
        calls.append(os.getpid())
        return sample(*args)

    monkeypatch.setattr(experiments, "sample", spy)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0, 4.0), R=3,
                           seed=4)
    runs = [(measure_concentration(cfg, threads=threads).to_csv(),
             phase_sweep(6.0, (0.0, 5.0), n=N, R=2, seed=4,
                         threads=threads).to_csv())
            for threads in (2, 1)]
    assert calls == [os.getpid()] * (2 * 3 + 4 * 2)  # all from threads=1
    assert runs[0] == runs[1]


def test_overlapping_pooled_grids_share_the_pool(fresh_grids, submitted):
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
    assert (submitted.count("int"),
            submitted.count("_concentration_body")) == (1, 12)


def test_pooled_grids_send_every_replicate(submitted):
    cfg = ExperimentConfig(model="er", n_grid=(experiments._POOL_MIN_N - 1,),
                           d_grid=(2.0,), R=4, seed=1)
    measure_concentration(cfg, threads=2)
    # a one-task grid stays in the thread at any n
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=1, seed=1)
    measure_concentration(cfg, threads=2)
    assert submitted == []
    # one point at n >= _POOL_MIN_N pools the grid, and then every replicate
    # sends its body, the smaller point's too
    cfg = ExperimentConfig(model="er", n_grid=(experiments._POOL_MIN_N - 1, N),
                           d_grid=(2.0,), R=3, seed=1)
    pooled = measure_concentration(cfg, threads=2).to_csv()
    assert submitted.count("_concentration_body") == 6
    assert pooled == measure_concentration(cfg, threads=1).to_csv()


def test_worker_nonconvergence_is_a_failed_replicate(monkeypatch, fresh_grids,
                                                     submitted):
    # one restart is too few for most replicates; the workers fork after
    # this patch and inherit it
    monkeypatch.setattr(spla, "eigsh", functools.partial(spla.eigsh, maxiter=1))
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0, 4.0), R=3,
                           seed=2)
    serial = measure_concentration(cfg, threads=1).to_csv()
    assert "solver_failures" in serial
    assert measure_concentration(cfg, threads=2).to_csv() == serial
    assert submitted.count("_concentration_body") == 6

    # one replicate at a time, in this thread and through a job thread's pool
    point = experiments._grid_points(cfg)[1]
    values = []
    for pool in (None, fresh_grids._pool):
        experiments._grid_thread.pool = pool
        try:
            values.append([experiments._concentration_replicate(
                point, [2, 1, r, 0], [2, 1, r, 1]) for r in range(3)])
        finally:
            experiments._grid_thread.pool = None
    assert np.isnan(values[0]).any()
    assert np.array_equal(values[0], values[1], equal_nan=True)
    assert submitted.count("_concentration_body") == 9


class WorkerFailure(Exception):
    pass


def _raise_in_worker(*args, **kwargs):
    raise WorkerFailure(os.getpid())


def _exit_in_worker(*args, **kwargs):
    if os.getpid() == PYTEST_PID:
        raise AssertionError("expected to run in a worker process")
    os._exit(3)


def test_worker_exception_reaches_the_grid_with_its_type(monkeypatch,
                                                         fresh_grids):
    # the workers fork after this patch and inherit it
    monkeypatch.setattr(spla, "eigsh", _raise_in_worker)
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
        monkeypatch, fresh_grids):
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=4, seed=1)
    with monkeypatch.context() as m:
        m.setattr(spla, "eigsh", _exit_in_worker)
        exc = run_with_deadline(lambda: measure_concentration(cfg, threads=2))
    assert isinstance(exc, concurrent.futures.process.BrokenProcessPool)
    assert "worker process ended abruptly" in str(exc)
    assert fresh_grids._pool is None
    pooled = measure_concentration(cfg, threads=2).to_csv()
    assert fresh_grids._pool is not None
    assert pooled == measure_concentration(cfg, threads=1).to_csv()


def test_pool_size_follows_the_usable_cores(monkeypatch, fresh_grids):
    sizes = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=2, seed=1)
    pooled = measure_concentration(cfg, threads=64).to_csv()
    cores = len(os.sched_getaffinity(0))
    assert sizes == [min(64, cores)]
    fresh_grids._close()
    # the default thread count is the affinity set, not os.cpu_count(), and
    # on one usable core a grid forks no pool, whatever its threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    for threads in (None, 2):
        assert measure_concentration(cfg, threads).to_csv() == pooled
    assert sizes == [min(64, cores)] and fresh_grids._pool is None


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
