"""Grid replicates on forked worker processes (experiments._RunningGrids).

A grid pools when min(threads, usable cores) >= 2 and it has two replicates
or more; then each of its replicates sends its whole body to a worker
process.  The replicate function itself is still called in the parent,
which gets back two floats.
"""

import _thread
import concurrent.futures.process
import functools
import hashlib
import multiprocessing
import multiprocessing.connection
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
from specgraph.spectral import NonConvergenceError

PYTEST_PID = os.getpid()
N = 1200  # the n the PINNED bytes were recorded at


@pytest.fixture
def submitted(monkeypatch):
    """Names of the bodies grids send down their workers' pipes, and
    "_fork" for each time a grid forks its workers."""
    names = []
    send = multiprocessing.connection.Connection.send
    fork = experiments._RunningGrids._fork

    def spy_send(self, task):
        names.append(getattr(task[0], "__name__", repr(task[0])))
        return send(self, task)

    def spy_fork(self, size):
        names.append("_fork")
        return fork(self, size)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", spy_send)
    monkeypatch.setattr(experiments._RunningGrids, "_fork", spy_fork)
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


def grid(name, threads, n=N):
    if name == "scorecard":
        return bound_scorecard((n,), (3.0,), R=4, seed=5, threads=threads)
    if name == "phase":
        return phase_sweep(6.0, (0.0, 5.0), n=n, R=2, seed=5, threads=threads)
    cfg = ExperimentConfig(model="er", n_grid=(n,), d_grid=(2.0, 4.0), R=3,
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


# sha256 of the same CSVs at n = 300, at threads=1, from the code that ran
# grids below n = 1000 in the calling thread at any threads
SMALL_PINNED = {
    "degree-cap": "82ed361ac6f23a48418b73db13ff9fe16a0599b3f03ff5b7d95806960ab7e65b",
    "phase": "31113430003dc07022aaa9fe56de9f60600927e8e860f8e8c67a465d7306a65f",
}


@pytest.mark.parametrize("name", sorted(SMALL_PINNED))
def test_small_grids_run_in_the_workers_with_their_serial_bytes(name,
                                                                monkeypatch):
    # the spy goes in before the workers fork, and tells the parent which
    # process sampled each replicate's graph
    pids = multiprocessing.get_context("fork").SimpleQueue()

    def spy(*args):
        pids.put(os.getpid())
        return sample(*args)

    monkeypatch.setattr(experiments, "sample", spy)
    for threads in (1, 2, 3):
        assert sha(grid(name, threads, n=300)) == SMALL_PINNED[name], threads
        seen = []
        while not pids.empty():
            seen.append(pids.get())
        assert len(seen) == (8 if name == "phase" else 6), threads
        if threads == 1:
            assert set(seen) == {os.getpid()}
        else:
            assert os.getpid() not in seen, (threads, seen)


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


def test_pooled_replicate_bodies_leave_the_parent(monkeypatch):
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


def test_overlapping_pooled_grids_run_one_after_the_other(monkeypatch,
                                                          submitted):
    # two callers' grids at once: a process runs one grid at a time, so the
    # second one waits for the first, and both keep their bytes
    configs = [ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=6,
                                seed=seed) for seed in (1, 2)]
    spans = {1: [], 2: []}  # seed -> (start, end) of each of its replicates
    real = experiments._concentration_replicate

    def replicate(point, sample_seed, solver_seed):
        start = time.monotonic()
        value = real(point, sample_seed, solver_seed)
        spans[sample_seed[0]].append((start, time.monotonic()))
        return value

    monkeypatch.setattr(experiments, "_concentration_replicate", replicate)
    results = [None, None]

    def run(i):
        results[i] = measure_concentration(configs[i], threads=2).to_csv()

    callers = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(120)
        assert not caller.is_alive()
    first, second = sorted(spans.values(), key=min)
    assert len(first) == len(second) == 6
    assert max(end for _, end in first) <= min(start for start, _ in second)
    assert results == [measure_concentration(cfg, threads=1).to_csv()
                       for cfg in configs]
    # the workers forked once, for the first grid in
    assert (submitted.count("_fork"),
            submitted.count("_concentration_body")) == (1, 12)


def test_pooled_grids_send_every_replicate(submitted):
    # a one-replicate grid stays in the thread at any n and threads, and so
    # does every grid at threads=1
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=1, seed=1)
    measure_concentration(cfg, threads=2)
    cfg = ExperimentConfig(model="er", n_grid=(50, N), d_grid=(2.0,), R=3,
                           seed=1)
    serial = measure_concentration(cfg, threads=1).to_csv()
    assert submitted == []
    # at threads=2 a grid of two replicates or more pools, and then every
    # replicate sends its body, at every n
    assert measure_concentration(cfg, threads=2).to_csv() == serial
    assert submitted.count("_concentration_body") == 6


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

    # one replicate at a time, in this thread and through a worker's pipe: a
    # replicate that does not converge raises NonConvergenceError, of the
    # same type on both sides, and _run_grid turns it into a nan slot
    point = experiments._grid_points(cfg)[1]
    outcomes = []
    for end in (None, fresh_grids._workers[0][1]):
        experiments._grid_thread.end = end
        try:
            for r in range(3):
                try:
                    outcomes.append(repr(experiments._concentration_replicate(
                        point, [2, 1, r, 0], [2, 1, r, 1])))
                except NonConvergenceError as exc:
                    outcomes.append(type(exc))
        finally:
            experiments._grid_thread.end = None
    assert NonConvergenceError in outcomes[:3]
    assert outcomes[:3] == outcomes[3:]
    assert submitted.count("_concentration_body") == 9


def _fail_chosen_slots(point, sample_seed, solver_seed):
    """(process id, 10 gi + r) of slot [gi, r], unless the point names r
    among its nonconvergent or broken replicates."""
    gi, r = sample_seed[1:3]
    if r in point.get("nonconvergent", ()):
        raise NonConvergenceError(f"slot {gi}, {r} did not converge")
    if r in point.get("broken", ()):
        raise RuntimeError(f"slot {gi}, {r} is broken")
    return float(os.getpid()), float(10 * gi + r)


@pytest.mark.parametrize("threads", (1, 2))
def test_grid_turns_nonconvergence_into_nan_slots(monkeypatch, threads):
    # _run_grid alone decides a replicate's status: NonConvergenceError
    # leaves its slot nan in both arrays and the grid goes on, in this thread
    # and from a worker; any other exception still stops the grid
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    replicate = functools.partial(experiments._offload, _fail_chosen_slots)
    points = [{"nonconvergent": (1, 3)}, {}, {"nonconvergent": range(4)}]
    pids, slots = experiments._run_grid(points, 4, 0, replicate, threads)
    failed = np.zeros((3, 4), dtype=bool)
    failed[0, [1, 3]] = failed[2] = True
    assert np.isnan(pids[failed]).all() and np.isnan(slots[failed]).all()
    expected = 10 * np.arange(3)[:, None] + np.arange(4)
    assert np.array_equal(slots[~failed], expected[~failed])
    in_parent = pids[~failed] == os.getpid()
    assert in_parent.all() if threads == 1 else not in_parent.any()

    points[1] = {"broken": (2,)}
    with pytest.raises(RuntimeError, match="slot 1, 2 is broken"):
        experiments._run_grid(points, 4, 0, replicate, threads)


class WorkerFailure(Exception):
    pass


def _raise_in_worker(*args, **kwargs):
    raise WorkerFailure(os.getpid())


def _exit_in_worker(*args, **kwargs):
    if os.getpid() == PYTEST_PID:
        raise AssertionError("expected to run in a worker process")
    os._exit(3)


def test_worker_exception_reaches_the_grid_with_its_type(monkeypatch):
    # the workers fork after this patch and inherit it
    monkeypatch.setattr(spla, "eigsh", _raise_in_worker)
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=2, seed=1)
    with pytest.raises(WorkerFailure) as err:
        measure_concentration(cfg, threads=2)
    assert err.value.args[0] != os.getpid()
    # the worker's traceback text comes along as the cause
    assert "in _raise_in_worker" in str(err.value.__cause__)
    assert "WorkerFailure" in str(err.value.__cause__)


class TwoArgFailure(Exception):
    def __init__(self, first, second):  # unpickles with one argument only
        super().__init__(first)


def _return_a_lock(*args):
    return threading.Lock(), 0.0


def _raise_with_a_lock(*args):
    raise WorkerFailure(threading.Lock())


def _raise_two_arg_failure(*args):
    raise TwoArgFailure(1, 2)


def test_reply_that_does_not_pickle_reaches_the_grid(monkeypatch, fresh_grids):
    # a value or exception that cannot cross the pipe, either way, is an
    # error of its grid; the workers stay and serve the next grid
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    for body, text in ((_return_a_lock, "_thread.lock"),
                       (_raise_with_a_lock, "_thread.lock"),
                       (_raise_two_arg_failure, "second")):
        replicate = functools.partial(experiments._offload, body)
        exc = run_with_deadline(
            lambda: experiments._run_grid([{}], 2, 0, replicate, 2))
        assert isinstance(exc, TypeError) and text in str(exc), (body, exc)
    workers = fresh_grids._workers
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=2, seed=1)
    assert (measure_concentration(cfg, threads=2).to_csv()
            == measure_concentration(cfg, threads=1).to_csv())
    assert fresh_grids._workers == workers and len(workers) == 2


_MEET = None  # a barrier of two worker processes, set before they fork


def _meet_in_worker(*args):
    _MEET.wait()
    return os.getpid(), 0.0


def test_pooled_grid_runs_no_thread_but_its_job_threads(monkeypatch):
    # a job thread sends its replicate straight down its worker's pipe: while
    # two replicates are in flight, in two workers, the calling process runs
    # the grid's job threads and no other thread of its own; a job thread
    # that finds no slot left may end before its sibling does
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    monkeypatch.setattr(sys.modules[__name__], "_MEET",
                        multiprocessing.get_context("fork").Barrier(2, timeout=30))
    before = set(threading.enumerate())
    during = []

    def replicate(point, sample_seed, solver_seed):
        pid = experiments._offload(_meet_in_worker, point, sample_seed,
                                   solver_seed)
        during.append((threading.current_thread(),
                       set(threading.enumerate()) - before))
        return pid

    pids, _ = experiments._run_grid([{}], 2, 0, replicate, 2)
    jobs = {job for job, _ in during}
    assert len(jobs) == 2 and threading.current_thread() not in jobs
    assert all({job} <= alive <= jobs for job, alive in during), during
    assert len(set(pids[0])) == 2 and os.getpid() not in pids[0]


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
    assert not fresh_grids._workers
    pooled = measure_concentration(cfg, threads=2).to_csv()
    assert fresh_grids._workers
    assert pooled == measure_concentration(cfg, threads=1).to_csv()


def small_phase(threads):
    return phase_sweep(10.0, (4.0,), n=300, R=2, seed=1, threads=threads).to_csv()


def test_worker_killed_between_grids_is_replaced(fresh_grids, submitted):
    # the next grid finds a worker dead before any of its replicates ran:
    # it replaces the workers instead of stopping with BrokenProcessPool
    serial = small_phase(1)
    assert small_phase(2) == serial
    proc = fresh_grids._workers[0][0]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(30)
    assert proc.exitcode == -signal.SIGKILL
    assert small_phase(2) == serial
    assert submitted.count("_fork") == 2
    assert not any(p is proc for p, _ in fresh_grids._workers)


def _grid_in_forked_child(conn, serial):
    """What a forked child sees of the grid state, and its own pooled grid."""
    grids = experiments._running_grids
    seen = {"workers at start": len(grids._workers)}
    try:
        seen["bytes"] = small_phase(2) == serial
        replicate = functools.partial(experiments._offload, _whose_child)
        ppids, pids = experiments._run_grid([{}], 2, 0, replicate, 2)
        seen["worker parents"] = set(ppids[0]) == {os.getpid()}
        seen["workers are not the child"] = os.getpid() not in pids[0]
        grids._close()
    except BaseException as exc:
        seen["error"] = repr(exc)
    conn.send(list(seen.items()))  # what the submitted spy can index


def _whose_child(*args):
    return float(os.getppid()), float(os.getpid())


def test_forked_child_forks_workers_of_its_own(fresh_grids, submitted):
    # a child forked after a pooled grid starts with none of its parent's
    # workers, and its pooled grids run on workers it forks; the parent
    # keeps its two
    serial = small_phase(1)
    assert small_phase(2) == serial
    workers = list(fresh_grids._workers)
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    child = context.Process(target=_grid_in_forked_child, args=(theirs, serial))
    child.start()
    theirs.close()
    try:
        assert ours.poll(120), "the child sent nothing"
        seen = dict(ours.recv())
    finally:
        child.join(60)
    assert child.exitcode == 0
    assert seen == {"workers at start": 0, "bytes": True,
                    "worker parents": True, "workers are not the child": True}
    assert small_phase(2) == serial
    assert fresh_grids._workers == workers and len(workers) == 2
    assert submitted.count("_fork") == 1


def _grids_in_daemonic_child(conn, serial):
    outcomes = []
    for threads in (2, 2, 1):
        try:
            outcomes.append(small_phase(threads) == serial)
        except BaseException as exc:
            outcomes.append(repr(exc))
    outcomes.append(len(experiments._running_grids._workers))
    conn.send(outcomes)


def test_daemonic_child_forks_no_workers_and_runs_serial_grids(fresh_grids):
    # multiprocessing lets no daemonic process start children: each pooled
    # grid there raises that, and leaves no worker behind, and a grid at
    # threads=1 runs
    serial = small_phase(1)
    context = multiprocessing.get_context("fork")
    ours, theirs = context.Pipe()
    child = context.Process(target=_grids_in_daemonic_child,
                            args=(theirs, serial), daemon=True)
    child.start()
    theirs.close()
    try:
        assert ours.poll(120), "the child sent nothing"
        outcomes = ours.recv()
    finally:
        child.join(60)
    assert child.exitcode == 0
    refused = repr(AssertionError("daemonic processes are not allowed to have "
                                  "children"))
    assert outcomes == [refused, refused, True, 0]


def test_interrupt_joins_the_job_threads_and_keeps_the_workers(
        monkeypatch, fresh_grids, submitted):
    # a Ctrl-C in the calling thread mid-grid reaches the caller only after
    # every job thread has ended, so none of them still talks to a worker,
    # and the next grid runs on the same workers
    cfg = ExperimentConfig(model="er", n_grid=(N,), d_grid=(2.0,), R=4, seed=1)
    real = experiments._concentration_replicate

    def replicate(point, sample_seed, solver_seed):
        if sample_seed[2] == 1:  # the second replicate
            _thread.interrupt_main()
        return real(point, sample_seed, solver_seed)

    before = threading.active_count()
    with monkeypatch.context() as m:
        m.setattr(experiments, "_concentration_replicate", replicate)
        with pytest.raises(KeyboardInterrupt):
            try:
                measure_concentration(cfg, threads=2)
            finally:
                alive = threading.active_count()
    assert alive == before
    workers = list(fresh_grids._workers)
    assert (measure_concentration(cfg, threads=2).to_csv()
            == measure_concentration(cfg, threads=1).to_csv())
    assert fresh_grids._workers == workers and len(workers) == 2
    assert submitted.count("_fork") == 1


def test_pool_size_follows_the_usable_cores(monkeypatch, fresh_grids):
    sizes = []
    fork = experiments._RunningGrids._fork

    def spy(self, size):
        sizes.append(size)
        return fork(self, size)

    monkeypatch.setattr(experiments._RunningGrids, "_fork", spy)
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
    assert sizes == [min(64, cores)] and not fresh_grids._workers


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
