import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import specgraph
from specgraph import experiments
from specgraph.detect import misclassification_rate, sign_partition
from specgraph.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    bound_scorecard,
    eigenvector_study,
    measure_concentration,
    participation_ratio,
    phase_sweep,
)
from specgraph.models import ER, expected_matrix, sample
from specgraph.regularize import choose_tau, remove_high_degree
from specgraph.spectral import NonConvergenceError, SymmetricOperator, top_eigs


def records_by_stat(result):
    out = {}
    for rec in result.records:
        out.setdefault(rec["statistic"], []).append(rec)
    return out


# ---------------------------------------------------------------------------
# participation ratio
# ---------------------------------------------------------------------------

def test_participation_ratio_flat_and_spike():
    assert participation_ratio(np.ones(20) / math.sqrt(20)) == pytest.approx(1.0)
    one_hot = np.zeros(25)
    one_hot[7] = 3.0  # scale invariant
    assert participation_ratio(one_hot) == pytest.approx(1.0 / 25)
    assert participation_ratio(np.zeros(4)) == 0.0


def test_participation_ratio_k_sparse():
    v = np.zeros(40)
    v[:10] = 1.0
    assert participation_ratio(v) == pytest.approx(10 / 40)


# ---------------------------------------------------------------------------
# config validation and CSV shape
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="grid")
    with pytest.raises(ValueError):
        ExperimentConfig(model="er", d_grid=(2.0,), R=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model="er", n_grid=())
    with pytest.raises(ValueError, match="at least 2"):
        ExperimentConfig(model="er", n_grid=(1,), d_grid=(0.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(model="er", d_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(model="pp", ab_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(model="er", d_grid=(2.0,), regularization="trim")


def test_config_normalizes_json_values():
    # the lists json.load gives equal the tuples, and give the same CSV bytes
    for model, grid in (("er", {"d_grid": (3.0,)}),
                        ("pp", {"ab_grid": ((6.0, 1.0),)})):
        tuples = ExperimentConfig(model=model, n_grid=(80,), R=2, seed=4, **grid)
        lists = ExperimentConfig(model=model, n_grid=[80], R=2, seed=4,
                                 **{k: [list(v) if isinstance(v, tuple) else v
                                        for v in vals]
                                    for k, vals in grid.items()})
        assert lists == tuples and isinstance(lists.n_grid, tuple)
        assert (measure_concentration(lists, threads=1).to_csv()
                == measure_concentration(tuples, threads=1).to_csv())
    ints = ExperimentConfig(model="pp", n_grid=(80,), ab_grid=[[6, 1]])
    assert ints.ab_grid == ((6.0, 1.0),) and isinstance(ints.ab_grid[0][0], float)
    bad = [{"R": True}, {"seed": False}, {"n_grid": (80.5,)}, {"n_grid": (0,)},
           {"n_grid": (100, 0)}, {"d_grid": (True,)}, {"tau_rho": None},
           {"tau_rho": 7.0}, {"tau_rho": 0.0}, {"cap_multiplier": -5.0}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**{"model": "er", "d_grid": (3.0,), **kwargs})


def test_csv_formatting():
    rec = {"model": "er", "n": 100, "d": 1.0 / 3.0, "a": "", "b": "", "snr": "",
           "regularization": "none", "method": "", "statistic": "deviation_norm",
           "mean": 2.0, "stderr": 0.1, "R": 20, "seed": 7}
    csv = ExperimentResult([rec]).to_csv()
    lines = csv.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "er" and cells[1] == "100"
    assert cells[2] == "0.33333333333333331"  # 17 significant digits
    assert cells[3] == "" and cells[4] == "" and cells[5] == ""
    assert cells[-1] == "7" and cells[-2] == "20"
    assert csv.endswith("\n")


def test_write_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(model="er", n_grid=(60,), d_grid=(3.0,), R=2, seed=5)
    res = measure_concentration(cfg, threads=1)
    path = tmp_path / "out.csv"
    res.write_csv(path)
    assert path.read_text(encoding="utf-8") == res.to_csv()


# ---------------------------------------------------------------------------
# measure_concentration
# ---------------------------------------------------------------------------

def test_concentration_er_statistics_present():
    cfg = ExperimentConfig(model="er", n_grid=(200,), d_grid=(5.0,), R=3, seed=1)
    res = measure_concentration(cfg, threads=1)
    stats = records_by_stat(res)
    for name in ("deviation_norm", "ratio_sqrt_d", "ratio_bai-yin",
                 "ratio_bernstein", "ratio_bvh", "ratio_benaych"):
        assert name in stats, name
    dev = stats["deviation_norm"][0]
    assert dev["R"] == 3
    # sparse-ish point: the norm sits between sqrt(d) and a few multiples
    assert 1.0 <= stats["ratio_sqrt_d"][0]["mean"] <= 4.0
    assert dev["mean"] == pytest.approx(
        stats["ratio_bai-yin"][0]["mean"] * 2.0 * math.sqrt(5.0), rel=1e-12)


def test_concentration_centering_uses_original_expectation():
    # a capped graph measured against the *uncapped* expectation: with a huge
    # cap the graph is untouched, so the norm must equal the unregularized one
    base = ExperimentConfig(model="er", n_grid=(120,), d_grid=(4.0,), R=2, seed=9)
    capped = ExperimentConfig(model="er", n_grid=(120,), d_grid=(4.0,), R=2,
                              seed=9, regularization="degree-cap",
                              cap_multiplier=1000.0)
    a = records_by_stat(measure_concentration(base, threads=1))
    b = records_by_stat(measure_concentration(capped, threads=1))
    assert b["deviation_norm"][0]["mean"] == pytest.approx(
        a["deviation_norm"][0]["mean"], rel=1e-9)
    assert "ratio_thm51" in b and "ratio_thm51" not in a


def test_concentration_tau_mode_records():
    cfg = ExperimentConfig(model="pp", n_grid=(150,), ab_grid=((6.0, 2.0),),
                           R=3, seed=2, regularization="tau-laplacian")
    stats = records_by_stat(measure_concentration(cfg, threads=1))
    assert "tau" in stats and stats["tau"][0]["mean"] > 0
    assert "ratio_thm54" in stats
    rec = stats["deviation_norm"][0]
    assert rec["a"] == 6.0 and rec["b"] == 2.0
    assert rec["snr"] == pytest.approx(16.0 / 8.0)
    # Laplacian deviations live inside the unit spectral interval
    assert 0 < rec["mean"] < 2.0


def test_deviation_norm_is_the_top_magnitude_of_a_tight_cluster():
    # On this draw the top |lambda| (-3.6176) has a second eigenvalue 3.6092
    # (2.3e-3 relative below it).  A tol-1e-4 largest-magnitude solve returns 3.6092 and
    # passes the residual recheck, since that is a genuine eigenpair.
    n = 10_000
    point = {"spec": ER(2.0 / n), "n": n, "d": 2.0, "regularization": "none"}
    sample_seed, solver_seed = [161328693, 0, 1, 0], [161328693, 0, 1, 1]
    norm, _ = experiments._concentration_replicate(point, sample_seed,
                                                   solver_seed)
    g, labels = sample(point["spec"], n, sample_seed)
    op = SymmetricOperator.centered(g, expected_matrix(point["spec"], labels))
    tight = top_eigs(op, 6, which="largest-magnitude", tol=1e-12,
                     seed=solver_seed, max_basis=80)
    assert abs(tight[0].value) - abs(tight[1].value) < 1e-2
    assert norm == pytest.approx(abs(tight[0].value), rel=1e-6)


def failing_solver(monkeypatch, name, failing):
    """Rebind experiments.<name> to raise NonConvergenceError on the
    replicates whose (grid index, replicate index) is in failing, read from
    the solver seed [seed, gi, r, 1]; every other call runs the real solver."""
    real = getattr(experiments, name)

    def solver(*args, **kwargs):
        seed = kwargs["seed"] if "seed" in kwargs else args[2]
        if (seed[1], seed[2]) in failing:
            raise NonConvergenceError("injected", best_estimate=1.0)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, solver)


def replicate_values(monkeypatch, run):
    """The first (points x R) array that run's grid fills."""
    grids = []
    real = experiments._run_grid

    def spy(*args, **kwargs):
        grids.append(real(*args, **kwargs))
        return grids[-1]

    with monkeypatch.context() as m:
        m.setattr(experiments, "_run_grid", spy)
        run()
    return grids[0][0]


def mean_stderr_of(values):
    return values.mean(), values.std(ddof=1) / math.sqrt(len(values))


def test_concentration_counts_solver_failures(monkeypatch):
    cfg = ExperimentConfig(model="er", n_grid=(200,), d_grid=(3.0, 5.0), R=4,
                           seed=7)
    norms = replicate_values(monkeypatch,
                             lambda: measure_concentration(cfg, threads=1))
    failing = {(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)}
    failing_solver(monkeypatch, "top_eigs", failing)
    res = measure_concentration(cfg, threads=3)
    assert res.to_csv() == measure_concentration(cfg, threads=1).to_csv()
    at = {d: records_by_stat(ExperimentResult(
        [r for r in res.records if r["d"] == d])) for d in (3.0, 5.0)}
    # d = 3: two of four replicates fail, the average is over the other two
    dev = at[3.0]["deviation_norm"][0]
    assert (dev["mean"], dev["stderr"]) == mean_stderr_of(norms[0][[1, 3]])
    assert dev["R"] == 2 and at[3.0]["ratio_sqrt_d"][0]["R"] == 2
    fail = at[3.0]["solver_failures"][0]
    assert (fail["mean"], fail["R"]) == (2, 4)
    # d = 5: every replicate fails, so there is no mean and no ratio
    assert set(at[5.0]) == {"deviation_norm", "solver_failures"}
    dev = at[5.0]["deviation_norm"][0]
    assert (dev["mean"], dev["stderr"], dev["R"]) == ("", "", 0)
    fail = at[5.0]["solver_failures"][0]
    assert (fail["mean"], fail["R"]) == (4, 4)


def counting_solver(monkeypatch):
    """Rebind experiments.top_eigs to the real solver, counting its calls."""
    calls = []
    real = experiments.top_eigs

    def solver(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "top_eigs", solver)
    return calls


def test_concentration_tau_row_averages_the_replicates_that_did_not_fail(
        monkeypatch):
    cfg = ExperimentConfig(model="er", n_grid=(200,), d_grid=(3.0,), R=4,
                           seed=7, regularization="tau-laplacian")
    taus = [choose_tau(sample(ER(3.0 / 200), 200, [7, 0, r, 0])[0], 0.25)
            for r in range(4)]
    failing_solver(monkeypatch, "top_eigs", {(0, 1), (0, 2)})
    res = measure_concentration(cfg, threads=3)
    assert res.to_csv() == measure_concentration(cfg, threads=1).to_csv()
    stats = records_by_stat(res)
    dev, tau = stats["deviation_norm"][0], stats["tau"][0]
    assert tau["R"] == dev["R"] == 2
    assert tau["mean"] == np.mean([taus[0], taus[3]]) != np.mean(taus)
    # thm54 is evaluated at the tau of the draws whose norms it divides
    (thm54,) = experiments._bound_values(dev, tau["mean"]).values()
    assert stats["ratio_thm54"][0]["mean"] == dev["mean"] / thm54
    fail = stats["solver_failures"][0]
    assert (fail["mean"], fail["R"]) == (2, 4)


def test_edgeless_tau_replicates_are_solved_at_tau_zero(monkeypatch):
    # choose_tau gives 0 on an edgeless ER d = 0 draw, and L(A_0) - L(E A_0)
    # is the zero operator: a solve like any other, not a failure
    calls = counting_solver(monkeypatch)
    cfg = ExperimentConfig(model="er", n_grid=(100,), d_grid=(0.0,), R=3,
                           seed=1, regularization="tau-laplacian")
    stats = records_by_stat(measure_concentration(cfg, threads=1))
    assert len(calls) == 3
    assert set(stats) == {"deviation_norm", "tau"}
    dev, tau = stats["deviation_norm"][0], stats["tau"][0]
    assert (dev["mean"], dev["stderr"], dev["R"]) == (0.0, 0.0, 3)
    assert (tau["mean"], tau["stderr"], tau["R"]) == (0.0, "", 3)


def test_phase_accuracy_counts_only_successful_replicates(monkeypatch):
    def run():
        return phase_sweep(d=4.0, snr_grid=[0.0, 4.0], n=300, R=4,
                           method="reg-laplacian", seed=1, threads=1)

    acc = replicate_values(monkeypatch, run)
    failing_solver(monkeypatch, "top_eigs",
                   {(0, 1), (1, 0), (1, 1), (1, 2), (1, 3)})
    low, high = run().records
    assert (low["mean"], low["stderr"]) == mean_stderr_of(acc[0][[0, 2, 3]])
    assert low["R"] == 3
    assert (high["snr"], high["mean"], high["stderr"], high["R"]) == (4.0, "", "", 0)


def test_phase_edgeless_replicate_is_solved_at_tau_zero(monkeypatch):
    calls = counting_solver(monkeypatch)
    # p = 1e-7 per pair: every draw is edgeless, so choose_tau gives 0 and
    # the sign rule reads an eigenvector of the zero operator: chance
    res = phase_sweep(d=1e-6, snr_grid=[0.0], n=10, R=3, method="reg-laplacian",
                      threads=1)
    (rec,) = res.records
    assert len(calls) == 3
    assert (rec["statistic"], rec["mean"], rec["R"]) == ("accuracy", 0.5, 3)


def test_vertex_removal_replicate_is_removal_then_centered_solve():
    cfg = ExperimentConfig(model="er", n_grid=(400,), d_grid=(3.0,), R=3,
                           seed=4, regularization="vertex-removal",
                           cap_multiplier=1.5)
    (point,) = experiments._grid_points(cfg)
    sample_seed, solver_seed = [4, 0, 1, 0], [4, 0, 1, 1]
    norm, tau = experiments._concentration_replicate(point, sample_seed,
                                                     solver_seed)
    g, labels = sample(point["spec"], 400, sample_seed)
    kept = remove_high_degree(g, 1.5 * 3.0)
    assert 0 < kept.m < g.m  # the threshold removes some edges, not all
    op = SymmetricOperator.centered(kept, expected_matrix(point["spec"], labels))
    pair = top_eigs(op, 1, which="largest-magnitude", tol=experiments._SOLVER_TOL,
                    seed=solver_seed)[0]
    assert norm == abs(pair.value) and math.isnan(tau)
    serial = measure_concentration(cfg, threads=1).to_csv()
    assert serial == measure_concentration(cfg, threads=3).to_csv()


def test_thread_count_invariance():
    cfg = ExperimentConfig(model="er", n_grid=(100,), d_grid=(4.0,), R=4, seed=3)
    serial = measure_concentration(cfg, threads=1).to_csv()
    pooled = measure_concentration(cfg, threads=4).to_csv()
    assert serial == pooled


def test_sweep_bytes_independent_of_blas_threads():
    # At n = 1e5 the BLAS thread count used to change the last digits of the
    # CSV; grids now pin BLAS to one thread, so the environment cannot matter.
    root = os.path.dirname(os.path.dirname(os.path.abspath(specgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    env.pop("OPENBLAS_NUM_THREADS", None)
    args = [sys.executable, "-m", "specgraph.cli", "sweep", "--n-grid", "100000",
            "--d-grid", "2", "--R", "2", "--reg", "none", "--seed", "0",
            "--threads", "2"]
    procs = [subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env)
             for child_env in (env, env | {"OPENBLAS_NUM_THREADS": "1"})]
    outs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    assert outs[0][0] == outs[1][0]


def test_phase_bytes_independent_of_threads_from_cold_start():
    # The eigensolver and the assignment solver are imported on first use, so
    # in a fresh interpreter the first replicates import them on pool workers.
    root = os.path.dirname(os.path.dirname(os.path.abspath(specgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    args = [sys.executable, "-m", "specgraph.cli", "phase", "--d", "10",
            "--snr", "0,4", "--n", "400", "--R", "2", "--seed", "0", "--threads"]
    procs = [subprocess.Popen(args + [threads], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env)
             for threads in ("2", "1")]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    assert outs[0][0] == outs[1][0]


# ---------------------------------------------------------------------------
# BLAS thread pin of the grid harness
# ---------------------------------------------------------------------------

def blas_counts(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def controls():
    """The OpenBLAS thread controls, each set to 2 threads for the test."""
    found = experiments._openblas_controls()
    if not found:
        pytest.skip("no OpenBLAS thread controls in this build")
    before = blas_counts(found)
    for _, put in found:
        put(2)
    yield found
    for (_, put), count in zip(found, before):
        put(count)


def _blas_counts_here(*args):
    return blas_counts(experiments._openblas_controls())


def test_grid_pins_blas_to_one_thread(controls):
    # a pooled grid forks its workers after the pin, and they inherit it
    # unpooled: at threads=1, and a one-replicate grid at any threads
    for points, R, threads, reads in (([{}, {}], 3, 1, 6), ([{}], 1, 2, 1),
                                      ([{}, {}], 3, 2, 12)):
        seen = []

        def replicate(point, sample_seed, solver_seed):
            seen.append(blas_counts(controls))
            if experiments._grid_thread.end is not None:
                seen.append(experiments._offload(
                    _blas_counts_here, point, sample_seed, solver_seed))
            return 0.0, 0.0

        experiments._run_grid(points, R, 0, replicate, threads)
        # a pooled replicate reads the counts in the thread and the worker
        assert seen == [[1] * len(controls)] * reads, (R, threads)
        assert blas_counts(controls) == [2] * len(controls)


def test_grid_restores_blas_when_a_replicate_raises(controls):
    def replicate(point, sample_seed, solver_seed):
        raise RuntimeError("replicate failed")

    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="replicate failed"):
            experiments._run_grid([{}], 2, 0, replicate, threads)
        assert blas_counts(controls) == [2] * len(controls)


def test_overlapping_grids_restore_blas_when_both_end(controls, fresh_grids,
                                                      monkeypatch):
    # a grid that comes in while another runs waits for it, pooled or not,
    # and the counts come back only after both end
    from test_solver_pool import run_with_deadline

    inside, release = threading.Event(), threading.Event()

    def held(point, sample_seed, solver_seed):
        inside.set()
        release.wait(60)
        return 0.0, 0.0

    carried, idents, waited = [], set(), []

    def second(point, sample_seed, solver_seed):
        waited.append(release.is_set())
        carried.append(experiments._grid_thread.end)
        idents.add(threading.get_ident())
        time.sleep(0.02)  # keeps a job thread busy while the next one starts
        return 0.0, 0.0

    monkeypatch.setattr(experiments, "_usable_cores", lambda: 4)
    for threads in (3, 1):
        inside.clear()
        release.clear()
        carried.clear()
        idents.clear()
        waited.clear()
        first = threading.Thread(target=experiments._run_grid,
                                 args=([{}], 1, 0, held, 1))
        first.start()
        releaser = threading.Timer(0.2, release.set)
        try:
            assert inside.wait(60)
            assert blas_counts(controls) == [1] * len(controls)  # first runs
            releaser.start()
            assert run_with_deadline(
                lambda: experiments._run_grid([{}], 3, 0, second, threads)) is None
        finally:
            release.set()
            releaser.cancel()
            first.join(60)
        releaser.join(60)
        assert not first.is_alive() and not releaser.is_alive()
        assert waited == [True] * 3
        ends = [end for _, end in fresh_grids._workers]
        if threads == 3:
            # a pooled grid of three on four usable cores forks three workers
            # and starts one job thread for each, none of them the caller's
            assert len(ends) == 3 and set(carried) <= set(ends)
            assert 1 <= len(idents) <= 3
        else:
            # a grid at threads=1 runs on its calling thread
            assert carried == [None] * 3 and len(idents) == 1
        assert blas_counts(controls) == [2] * len(controls)


def test_grid_without_blas_controls_leaves_blas_alone(controls, monkeypatch):
    monkeypatch.setattr(experiments, "_openblas_controls", lambda: ())
    seen = []

    def replicate(point, sample_seed, solver_seed):
        seen.append(blas_counts(controls))
        return 0.0, 0.0

    experiments._run_grid([{}], 2, 0, replicate, 1)
    assert seen == [[2] * len(controls)] * 2


def test_grid_cancels_queued_replicates_after_one_raises(monkeypatch):
    # once a replicate raises, no replicate starts, and the grid raises the
    # failure of the lowest slot; a grid at threads=1 or of one replicate
    # runs on the calling thread, a pooled one on its job threads
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    for R, threads in ((200, 1), (1, 2), (200, 2)):
        started = []

        def replicate(point, sample_seed, solver_seed):
            started.append(threading.current_thread())
            if sample_seed[2] < 2:
                time.sleep(0.05 * (1 - sample_seed[2]))  # slot 1 raises first
                raise RuntimeError(f"replicate {sample_seed[2]} failed")
            time.sleep(0.05)  # hold the workers while the failure propagates
            return 0.0, 0.0

        with pytest.raises(RuntimeError, match="replicate 0 failed"):
            experiments._run_grid([{}], R, 0, replicate, threads)
        if R > 1 and threads > 1:
            assert 1 <= len(started) <= threads + 2, len(started)
            assert threading.current_thread() not in started
        else:
            assert started == [threading.current_thread()]


def test_grid_job_threads_follow_its_worker_processes(monkeypatch,
                                                      fresh_grids):
    # threads counts worker processes: a grid without them (threads=1, or
    # one replicate) runs one replicate at a time on the calling thread, and
    # a pooled grid starts one job thread per worker, not one per requested
    # thread
    idents = []

    def replicate(point, sample_seed, solver_seed):
        idents.append(threading.get_ident())
        time.sleep(0.01)  # keeps a job thread busy while the next one starts
        return 0.0, 0.0

    experiments._run_grid([{}, {}], 4, 0, replicate, 1)
    experiments._run_grid([{}], 1, 0, replicate, 3)
    assert idents == [threading.get_ident()] * 9 and not fresh_grids._workers
    idents.clear()
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 2)
    experiments._run_grid([{}, {}], 4, 0, replicate, 64)
    assert len(fresh_grids._workers) == 2
    assert 1 <= len(set(idents)) <= 2
    assert threading.get_ident() not in idents


def test_pooled_grid_runs_each_slot_once_under_contention(monkeypatch):
    # more job threads than cores take slots from one shared iterator, with
    # a short switch interval: no slot is lost or run twice
    monkeypatch.setattr(experiments, "_usable_cores", lambda: 4)
    runs = []

    def replicate(point, sample_seed, solver_seed):
        runs.append(tuple(sample_seed[1:3]))
        return float(sample_seed[2]), float(sample_seed[1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values, points = experiments._run_grid([{}, {}], 300, 0, replicate, 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == [(gi, r) for gi in range(2) for r in range(300)]
    assert (values == np.arange(300)).all()
    assert (points == np.arange(2)[:, None]).all()


def test_grid_threads_validation():
    for threads in (0, -3, 1.5, True, "2"):
        with pytest.raises(ValueError, match="threads"):
            experiments._run_grid([{}], 1, 0, lambda *a: (0.0, 0.0), threads)


def test_seed_changes_output():
    base = dict(model="er", n_grid=(100,), d_grid=(4.0,), R=3)
    one = measure_concentration(ExperimentConfig(seed=1, **base), threads=1)
    two = measure_concentration(ExperimentConfig(seed=2, **base), threads=1)
    assert one.to_csv() != two.to_csv()
    again = measure_concentration(ExperimentConfig(seed=1, **base), threads=1)
    assert one.to_csv() == again.to_csv()


# ---------------------------------------------------------------------------
# eigenvector study
# ---------------------------------------------------------------------------

def test_eigenvector_study_table_shape_and_csv():
    st = eigenvector_study(seed=4)
    assert st.table.shape == (50, 6)
    assert st.tau > 0
    assert len(st.labels) == 50
    # columns are unit eigenvectors with the peak entry made nonnegative
    for c in range(6):
        col = st.table[:, c]
        assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-8)
        assert col[np.argmax(np.abs(col))] >= 0
    lines = st.to_csv().splitlines()
    assert lines[0] == "lap_v1,lap_v2,lap_v3,reglap_v1,reglap_v2,reglap_v3"
    assert len(lines) == 51
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_eigenvector_study_needs_three_nodes(monkeypatch):
    # each operator solves for three eigenpairs; the rules on n and on the
    # seed hold before sampling
    def no_sample(*args):
        raise AssertionError("a graph was sampled")
    monkeypatch.setattr(experiments, "sample", no_sample)
    for n, needle in ((2, "n must be at least 3, got 2"), (0, "at least 3"),
                      (2.5, "n must be an integer"), (True, "n must be an integer")):
        with pytest.raises(ValueError, match=needle):
            eigenvector_study(n=n, a=1.0, b=0.1)
    for seed, needle in ((-1, "seed must be nonnegative, got -1"),
                         (1.5, "seed must be an integer"),
                         (True, "seed must be an integer")):
        with pytest.raises(ValueError, match=needle):
            eigenvector_study(a=1.0, b=0.1, seed=seed)
    # no solve keeps a basis of n vectors, so there is no upper limit
    monkeypatch.undo()
    assert eigenvector_study(n=4097, a=1.0, b=0.1).table.shape == (4097, 6)


def test_eigenvector_study_deterministic():
    a = eigenvector_study(seed=6)
    b = eigenvector_study(seed=6)
    assert np.array_equal(a.table, b.table)
    assert a.mis_regularized == b.mis_regularized


def test_eigenvector_study_majorities():
    # over a fixed seed scan: the regularized sign rule gets <= 3/50 wrong for
    # most draws, and some unregularized leading eigenvector localizes
    reg_ok = loc = 0
    for seed in range(11):
        st = eigenvector_study(seed=seed)
        reg_ok += st.mis_regularized <= 3.0 / 50 + 1e-12
        loc += min(participation_ratio(st.table[:, c]) for c in range(3)) < 0.2
    assert reg_ok >= 6
    assert loc >= 6


def test_eigenvector_study_no_signal_when_a_equals_b():
    mis = [eigenvector_study(a=3.0, b=3.0, seed=s).mis_regularized
           for s in range(8)]
    assert 0.25 <= float(np.mean(mis)) <= 0.5  # random guessing after best relabel


# ---------------------------------------------------------------------------
# phase sweep
# ---------------------------------------------------------------------------

def test_phase_sweep_no_signal_point():
    res = phase_sweep(4.0, (0.0,), n=400, R=8, method="reg-laplacian", seed=1,
                      threads=1)
    accs = records_by_stat(res)["accuracy"]
    assert len(accs) == 1
    # best-permutation accuracy is >= 1/2 by construction; no signal keeps it low
    assert 0.5 <= accs[0]["mean"] <= 0.62
    assert accs[0]["a"] == pytest.approx(accs[0]["b"])


def test_phase_sweep_infeasible_and_sorting():
    res = phase_sweep(2.0, (100.0, 0.0), n=200, R=2, seed=0, threads=1)
    stats = records_by_stat(res)
    # snr=100 needs b = 2 - 10 < 0: recorded, not sampled
    assert {r["snr"] for r in stats["infeasible"]} == {100.0}
    assert all(r["R"] == 0 and r["mean"] == "" for r in stats["infeasible"])
    snrs = [r["snr"] for r in res.records]
    assert snrs == sorted(snrs)
    meths = [r["method"] for r in res.records if r["snr"] == 0.0]
    assert meths == sorted(meths)


def test_phase_sweep_signal_beats_noise():
    lo = phase_sweep(5.0, (0.0,), n=300, R=6, method="reg-laplacian", seed=3,
                     threads=1)
    hi = phase_sweep(5.0, (9.0,), n=300, R=6, method="reg-laplacian", seed=3,
                     threads=1)
    acc_lo = records_by_stat(lo)["accuracy"][0]["mean"]
    acc_hi = records_by_stat(hi)["accuracy"][0]["mean"]
    assert acc_hi > acc_lo + 0.15
    assert acc_hi > 0.8


def test_phase_solve_stays_within_its_budget(monkeypatch):
    # The phase replicate solves loosely: only the signs of its second
    # eigenvector count.  Each pair it returns must still be the second
    # eigenpair of a tight solve (not the third), and the sign rule must
    # score within 1e-3 (2 nodes at n = 2000) of the tight vector's.
    solves, truths = [], []

    def spy_top_eigs(op, k, **kwargs):
        pairs = top_eigs(op, k, **kwargs)
        solves.append((op, kwargs, pairs))
        return pairs

    def spy_sample(*args):
        g, labels = sample(*args)
        truths.append(labels)
        return g, labels

    monkeypatch.setattr(experiments, "top_eigs", spy_top_eigs)
    monkeypatch.setattr(experiments, "sample", spy_sample)
    phase_sweep(10.0, (0.0, 4.0, 10.0), n=2000, R=2, seed=0, threads=1)
    assert len(solves) == len(truths) == 12  # 3 snr x 2 methods x 2 draws
    for (op, kwargs, pairs), truth in zip(solves, truths):
        tight = top_eigs(op, 3, which=kwargs["which"], tol=1e-10,
                         seed=kwargs["seed"], max_basis=40)
        lam2 = tight[1].value
        assert abs(pairs[1].value - lam2) <= kwargs["tol"] * max(1.0, abs(lam2))
        loose_acc, tight_acc = (
            1.0 - misclassification_rate(sign_partition(p[1].vector), truth)
            for p in (pairs, tight))
        assert abs(loose_acc - tight_acc) <= 1e-3 + 1e-12  # 1e-12: rounding


def test_phase_sweep_validation():
    with pytest.raises(ValueError):
        phase_sweep(4.0, (1.0,), method="oracle")
    with pytest.raises(ValueError):
        phase_sweep(0.0, (1.0,))
    with pytest.raises(ValueError, match="phase sweeps need a nonempty snr_grid"):
        phase_sweep(4.0, (), n=60, R=1)
    for knob, value in [("tau_rho", math.nan), ("tau_rho", 0.0), ("tau_rho", 1.5),
                        ("cap_multiplier", math.nan), ("cap_multiplier", math.inf),
                        ("cap_multiplier", 0.0), ("n", 60.7), ("n", 0),
                        ("seed", 1.5), ("seed", -1), ("R", True),
                        ("tau_rho", True), ("cap_multiplier", True)]:
        kwargs = {"n": 60, "R": 1, knob: value}
        with pytest.raises(ValueError, match=f"^{knob} must"):
            phase_sweep(4.0, (1.0,), **kwargs)


def test_phase_sweep_rejects_zero_replicates():
    with pytest.raises(ValueError, match="R must be at least 1"):
        phase_sweep(4.0, (1.0,), R=0)


# ---------------------------------------------------------------------------
# bound scorecard
# ---------------------------------------------------------------------------

def test_scorecard_records_and_seginer_factor():
    res = bound_scorecard(n_grid=(150,), d_grid=(6.0,), R=3, seed=2, threads=1)
    stats = records_by_stat(res)
    for name in ("deviation_norm", "seginer_stat", "bound_bai-yin",
                 "bound_bernstein", "bound_bvh", "bound_benaych",
                 "ratio_bai-yin", "ratio_bernstein", "ratio_bvh",
                 "ratio_seginer"):
        assert name in stats, name
    assert stats["bound_bai-yin"][0]["mean"] == pytest.approx(2 * math.sqrt(6))
    # Seginer's max column norm tracks the norm within a small factor
    assert 0.25 <= stats["ratio_seginer"][0]["mean"] <= 4.0


def test_scorecard_degenerate_grid_point():
    res = bound_scorecard(n_grid=(100,), d_grid=(0.0,), R=2, seed=3, threads=1)
    stats = records_by_stat(res)
    assert stats["deviation_norm"][0]["mean"] == 0.0
    assert stats["seginer_stat"][0]["mean"] == 0.0
    assert stats["bound_bai-yin"][0]["mean"] == 0.0
    assert "ratio_bai-yin" not in stats  # zero bound gives no ratio
    assert stats["ratio_bernstein"][0]["mean"] == 0.0


def test_scorecard_counts_only_successful_replicates(monkeypatch):
    failing_solver(monkeypatch, "spectral_norm", {(0, 1), (1, 0), (1, 1), (1, 2)})
    res = bound_scorecard(n_grid=(150,), d_grid=(3.0, 6.0), R=3, seed=2,
                          threads=1)
    at = {d: records_by_stat(ExperimentResult(
        [r for r in res.records if r["d"] == d])) for d in (3.0, 6.0)}
    for name in ("deviation_norm", "seginer_stat", "ratio_bai-yin", "ratio_seginer"):
        assert at[3.0][name][0]["R"] == 2, name
    assert "bound_bai-yin" in at[3.0]
    # every replicate fails: the norm and Seginer rows stay, with R = 0
    assert set(at[6.0]) == {"deviation_norm", "seginer_stat"}
    for name in ("deviation_norm", "seginer_stat"):
        rec = at[6.0][name][0]
        assert (rec["mean"], rec["R"]) == ("", 0), name


def test_scorecard_thread_invariance():
    a = bound_scorecard(n_grid=(80,), d_grid=(3.0,), R=3, seed=5, threads=1)
    b = bound_scorecard(n_grid=(80,), d_grid=(3.0,), R=3, seed=5, threads=3)
    assert a.to_csv() == b.to_csv()
