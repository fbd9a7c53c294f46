"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a PASS/FAIL line with the measured
numbers so a plain ``pytest -v`` run doubles as the scorecard.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

import specgraph
from specgraph.bounds import (
    bai_yin_limit,
    benaych_bound,
    bernstein_expectation,
    bernstein_tail,
    bvh_bound,
    bvh_er,
    recovery_thresholds,
    regularized_concentration_bound,
    regularized_laplacian_bound,
)
from specgraph.detect import misclassification_rate, sign_partition
from specgraph.experiments import (
    ExperimentConfig,
    eigenvector_study,
    measure_concentration,
    phase_sweep,
)
from specgraph.models import (
    ER,
    PlantedPartition,
    expected_matrix,
    planted_labels,
    sample,
)
from specgraph.regularize import choose_tau, regularized_laplacian
from specgraph.spectral import (
    SymmetricOperator,
    dense_eig_oracle,
    spectral_norm,
    top_eigs,
)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}",
          flush=True)


def stat_mean(result, statistic, **match):
    for rec in result.records:
        if rec["statistic"] != statistic:
            continue
        if all(rec[k] == v for k, v in match.items()):
            return rec["mean"], rec["stderr"]
    raise KeyError((statistic, match))


# ---------------------------------------------------------------------------
# 1-3: concentration of ||A - E A|| / sqrt(d)
# ---------------------------------------------------------------------------

SPARSE_GRID = dict(model="er", n_grid=(1000, 10000, 100000), d_grid=(2.0,),
                   R=10, seed=0)


@pytest.fixture(scope="module")
def sparse_ratios():
    plain = measure_concentration(ExperimentConfig(**SPARSE_GRID))
    capped = measure_concentration(
        ExperimentConfig(regularization="degree-cap", **SPARSE_GRID))
    out = {}
    for name, res in (("plain", plain), ("capped", capped)):
        out[name] = [stat_mean(res, "ratio_sqrt_d", n=n)
                     for n in SPARSE_GRID["n_grid"]]
    return out


def test_criterion_01_dense_concentration():
    cfg = ExperimentConfig(model="er", n_grid=(2000,), d_grid=(40.0,), R=20,
                           seed=0)
    mean, stderr = stat_mean(measure_concentration(cfg), "ratio_sqrt_d")
    ok = 1.8 <= mean <= 2.6
    report(1, ok, f"ER(n=2000, d=40) mean ratio {mean:.4f} ± {stderr:.4f}, "
                  f"want [1.8, 2.6]")
    assert ok


def test_criterion_02_sparse_nonconcentration(sparse_ratios):
    vals = sparse_ratios["plain"]
    steps = []
    for (m0, s0), (m1, s1) in zip(vals, vals[1:]):
        steps.append(m1 > m0 - (s0 + s1))
    ok = all(steps)
    report(2, ok, "d=2 ratios across n=1e3/1e4/1e5: "
                  + ", ".join(f"{m:.3f}±{s:.3f}" for m, s in vals))
    assert ok


def test_criterion_03_regularization_restores_concentration(sparse_ratios):
    # The paper's claim is about scaling in n: without regularization the
    # ratio keeps growing with the maximum degree, with capping it stays near
    # O(1). So from n=1e3 to n=1e5 the plain ratio must grow by more than the
    # capped one, by more than the four standard errors together.
    (plain_lo, plain_lo_se), _, (plain_top, plain_top_se) = \
        sparse_ratios["plain"]
    (capped_lo, capped_lo_se), _, (capped_top, capped_top_se) = \
        sparse_ratios["capped"]
    plain_growth = plain_top - plain_lo
    capped_growth = capped_top - capped_lo
    noise = plain_lo_se + plain_top_se + capped_lo_se + capped_top_se
    frac = capped_top / plain_top
    clauses = {
        f"growth n=1e3 -> 1e5: plain {plain_growth:+.3f} exceeds capped "
        f"{capped_growth:+.3f} by {plain_growth - capped_growth:.3f} "
        f"(want > {noise:.3f}, the sum of the four stderrs)":
            plain_growth - capped_growth > noise,
        f"capped ratio {capped_top:.3f} in [1.0, 3.5]":
            1.0 <= capped_top <= 3.5,
    }
    ok = all(clauses.values())
    report(3, ok, "; ".join(f"{'ok' if v else 'FAIL'}: {k}"
                            for k, v in clauses.items())
                  + f"; info: capped/unregularized at n=1e5 is {frac:.3f}")
    assert ok, [k for k, v in clauses.items() if not v]


# ---------------------------------------------------------------------------
# 4: small-graph eigenvector recovery
# ---------------------------------------------------------------------------

def test_criterion_04_figure_two_statistics():
    reg, unreg = [], []
    for seed in range(200):
        st = eigenvector_study(seed=seed)
        reg.append(st.mis_regularized)
        unreg.append(st.mis_unregularized)
    med_reg = float(np.median(reg))
    med_unreg = float(np.median(unreg))
    good_fraction = float(np.mean(np.asarray(reg) <= 3.0 / 50 + 1e-12))
    clauses = {
        f"median regularized misclassification {med_reg:.3f} (want <= 0.12)":
            med_reg <= 0.12,
        f"median unregularized misclassification {med_unreg:.3f} (want >= 0.30)":
            med_unreg >= 0.30,
        f"fraction of seeds with <= 3/50 errors {good_fraction:.2f} (want >= 0.40)":
            good_fraction >= 0.40,
    }
    ok = all(clauses.values())
    report(4, ok, "; ".join(f"{'ok' if v else 'FAIL'}: {k}"
                            for k, v in clauses.items()))
    assert ok, [k for k, v in clauses.items() if not v]


# ---------------------------------------------------------------------------
# 5: phase behavior along the SNR axis
# ---------------------------------------------------------------------------

def test_criterion_05_phase_behavior():
    snr_grid = (0.0, 2.0, 4.0, 7.0, 10.0)
    res = phase_sweep(10.0, snr_grid, n=4000, R=50, method="both", seed=0)
    clauses = {}
    for method in ("reg-adjacency", "reg-laplacian"):
        curve = [stat_mean(res, "accuracy", snr=s, method=method)
                 for s in snr_grid]
        a0, a10 = curve[0][0], curve[-1][0]
        clauses[f"{method} accuracy(SNR=0) {a0:.3f} in 0.5±0.05"] = \
            0.45 <= a0 <= 0.55
        clauses[f"{method} accuracy(SNR=10) {a10:.3f} >= 0.7"] = a10 >= 0.7
        iso = all(m1 >= m0 - 2.0 * math.hypot(s0, s1)
                  for (m0, s0), (m1, s1) in zip(curve, curve[1:]))
        clauses[f"{method} non-decreasing within 2 stderr "
                f"({', '.join(f'{m:.3f}' for m, _ in curve)})"] = iso
    ok = all(clauses.values())
    report(5, ok, "; ".join(f"{'ok' if v else 'FAIL'}: {k}"
                            for k, v in clauses.items()))
    assert ok, [k for k, v in clauses.items() if not v]


# ---------------------------------------------------------------------------
# 6: iterative solvers vs the dense Jacobi oracle
# ---------------------------------------------------------------------------

def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 65))
    g, _ = sample(ER(min(1.0, 3.0 / n)), n, [971, seed])
    parts = {"sparse": g.adjacency()}
    if rng.random() < 0.7:
        parts["rank_one"] = float(rng.uniform(-0.5, 0.5))
    if rng.random() < 0.7:
        parts["scale"] = rng.uniform(0.5, 1.5, size=n)
    if rng.random() < 0.5:
        # mu * I, scaled with the adjacency like any sparse entry
        parts["sparse"] = parts["sparse"] + float(rng.normal()) * sp.identity(n)
    return SymmetricOperator.compose(n, **parts)


def test_criterion_06_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        op = _random_instance(seed)
        w, _ = dense_eig_oracle(op.to_dense())
        scale = max(1.0, float(np.abs(w).max()))
        sn = spectral_norm(op, tol=1e-9, seed=[5, seed])
        worst = max(worst, abs(sn - np.abs(w).max()) / scale)
        top = top_eigs(op, 2, which="largest-algebraic", tol=1e-9,
                       seed=[6, seed])
        worst = max(worst, abs(top[0].value - w[-1]) / scale,
                    abs(top[1].value - w[-2]) / scale)
        bottom = top_eigs(op, 1, which="smallest-algebraic", tol=1e-9,
                          seed=[7, seed])
        worst = max(worst, abs(bottom[0].value - w[0]) / scale)
    ok = worst <= 1e-6
    report(6, ok, f"100 composed instances (n <= 64), worst relative "
                  f"disagreement {worst:.2e} (want <= 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 7: regularized-Laplacian spectrum invariants
# ---------------------------------------------------------------------------

def test_criterion_07_regularized_laplacian_spectrum():
    specs = (ER(0.08), ER(0.02), PlantedPartition(4.0, 1.0),
             PlantedPartition(5.0, 0.1))
    worst_eig = worst_top = worst_vec = 0.0
    checked = 0
    for seed in range(100):
        spec = specs[seed % len(specs)]
        n = 20 + (seed * 7) % 130
        g, _ = sample(spec, n, [31, seed])
        if g.m == 0:
            continue
        tau = choose_tau(g, 0.25)
        assert tau > 0
        op = regularized_laplacian(g, tau)
        top = top_eigs(op, 3, which="largest-algebraic", tol=1e-10,
                       seed=[8, seed])
        bottom = top_eigs(op, 3, which="smallest-algebraic", tol=1e-10,
                          seed=[9, seed])
        vals = [p.value for p in top + bottom]
        worst_eig = max(worst_eig, max(abs(v) for v in vals) - 1.0)
        worst_top = max(worst_top, abs(top[0].value - 1.0))
        u = np.sqrt(g.degrees() + tau)
        u /= np.linalg.norm(u)
        v = top[0].vector
        if float(v @ u) < 0:
            v = -v
        worst_vec = max(worst_vec, float(np.abs(v - u).max()))
        checked += 1
    ok = worst_eig <= 1e-8 and worst_top <= 1e-8 and worst_vec <= 1e-6
    report(7, ok, f"{checked} graphs: spectrum overshoot {max(worst_eig, 0):.2e}"
                  f" (<= 1e-8), top-eigenvalue error {worst_top:.2e} (<= 1e-8),"
                  f" top-eigenvector error {worst_vec:.2e} (<= 1e-6)")
    assert checked >= 100
    assert ok


# ---------------------------------------------------------------------------
# 8: closed-form spectrum of the planted-partition expectation
# ---------------------------------------------------------------------------

def test_criterion_08_expected_matrix_spectrum():
    worst = 0.0
    split_ok = True
    for n, a, b in ((50, 5.0, 0.1), (40, 7.0, 2.0), (64, 3.0, 0.5)):
        spec = PlantedPartition(a, b)
        labels = planted_labels(spec, n)
        op = SymmetricOperator.compose(n, expected=expected_matrix(spec, labels))
        pairs = top_eigs(op, 2, which="largest-algebraic", tol=1e-12, seed=1)
        lam1 = (a + b) / 2.0 - a / n
        lam2 = (a - b) / 2.0 - a / n
        worst = max(worst, abs(pairs[0].value - lam1), abs(pairs[1].value - lam2))
        pred = sign_partition(pairs[1].vector)
        split_ok &= misclassification_rate(pred, labels) == 0.0
    ok = worst <= 1e-8 and split_ok
    report(8, ok, f"three (n, a, b) instances: worst eigenvalue error "
                  f"{worst:.2e} (<= 1e-8), exact split recovery: {split_ok}")
    assert ok


# ---------------------------------------------------------------------------
# 9: bound formulas vs spreadsheet arithmetic
# ---------------------------------------------------------------------------

def test_criterion_09_bound_formula_pins():
    e = math.e
    cases = [
        (bai_yin_limit(4.0), 4.0),
        (bai_yin_limit(0.0), 0.0),
        (bai_yin_limit(25.0), 10.0),
        (bai_yin_limit(2.0), 2.0 * math.sqrt(2.0)),
        (bernstein_tail(1.0, 1.0, 5, 0.0), 1.0),
        (bernstein_tail(1.0, 1.0, 1, 3.0), 2.0 * math.exp(-2.25)),
        (bernstein_tail(2.0, 0.5, 2, 6.0), min(1.0, 4.0 * math.exp(-18.0 / 3.0))),
        (bernstein_expectation(1.0, 0.0, 2), math.sqrt(math.log(2.0))),
        (bernstein_expectation(0.0, 1.0, 2), math.log(2.0)),
        (bernstein_expectation(2.0, 3.0, 50),
         2.0 * math.sqrt(math.log(50.0)) + 3.0 * math.log(50.0)),
        (bvh_bound(np.array([[0.0, 4.0], [4.0, 0.0]]),
                   np.array([[0.0, 2.0], [2.0, 0.0]])),
         2.0 + 2.0 * math.sqrt(math.log(2.0))),
        (bvh_er(40, 0.3), math.sqrt(39 * 0.3 * 0.7) + math.sqrt(math.log(40.0))),
        (bvh_er(40, 0.0), 0.0),
        (bvh_er(40, 1.0), 0.0),
        (benaych_bound(4.0, math.exp(4.0 * e)),
         4.0 + math.sqrt(4.0 * e / 2.0)),
        (regularized_concentration_bound(1.0, 4.0), 2.0),
        (regularized_concentration_bound(4.0, 9.0), 8.0 * 3.0),
        (regularized_laplacian_bound(1.0, 4.0, 4.0), 2.0 ** 2.5 / 2.0),
        (regularized_laplacian_bound(2.0, 1.0, 3.0), 4.0 * 4.0 ** 2.5),
        (recovery_thresholds(5.0, 1.0, 100).snr, 16.0 / 6.0),
        (recovery_thresholds(9.0, 4.0, 100).snr, 25.0 / 13.0),
    ]
    worst = max(abs(got - want) for got, want in cases)
    dominance = True
    for log_n in (1.0, 1.5, 2.0, 4.0, 8.0, math.log(10 ** 6)):
        for mult in (1.0, 1.3, 2.0, 5.0, 25.0):
            d = mult * log_n
            lhs = math.sqrt(d) + math.sqrt(log_n)
            rhs = math.sqrt(d * log_n) + log_n
            dominance &= lhs <= rhs + 1e-12
    ok = worst <= 1e-12 and dominance
    report(9, ok, f"{len(cases)} pinned evaluations: worst deviation "
                  f"{worst:.1e} (<= 1e-12); sqrt-d dominance grid: {dominance}")
    assert ok


# ---------------------------------------------------------------------------
# 10: CLI determinism across repeats and thread counts
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism():
    # Run the CLI module with this interpreter, and put the directory that
    # holds the imported package first on the child's path, so the child runs
    # the same code as this test whether specgraph is installed or on
    # PYTHONPATH.
    root = os.path.dirname(os.path.dirname(os.path.abspath(specgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)

    def out(args):
        proc = subprocess.run([sys.executable, "-m", "specgraph.cli", *args],
                              capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    sweep = ["sweep", "--n-grid", "300", "--d-grid", "3", "--R", "4",
             "--seed", "5"]
    phase = ["phase", "--d", "4", "--snr", "0,4", "--n", "200", "--R", "3",
             "--seed", "2"]
    checks = {
        "sweep threads 1 vs 3": out(sweep + ["--threads", "1"])
                                 == out(sweep + ["--threads", "3"]),
        "sweep repeat": out(sweep + ["--threads", "2"])
                         == out(sweep + ["--threads", "2"]),
        "phase threads 1 vs 2": out(phase + ["--threads", "1"])
                                 == out(phase + ["--threads", "2"]),
        "fig-eigvec repeat": out(["fig-eigvec", "--seed", "7"])
                              == out(["fig-eigvec", "--seed", "7"]),
    }
    ok = all(checks.values())
    report(10, ok, "; ".join(f"{'ok' if v else 'FAIL'}: {k}"
                             for k, v in checks.items()))
    assert ok
