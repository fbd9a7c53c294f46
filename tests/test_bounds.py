import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph.bounds import (
    BOUND_REGISTRY,
    REGIMES,
    bai_yin_limit,
    benaych_bound,
    bernstein_expectation,
    bernstein_tail,
    bvh_bound,
    bvh_er,
    classify_regime,
    recovery_thresholds,
    regularized_concentration_bound,
    regularized_laplacian_bound,
    seginer_stat,
)
from specgraph.models import ER, Graph, expected_matrix, sample


# ---------------------------------------------------------------------------
# pinned arithmetic
# ---------------------------------------------------------------------------

def test_bai_yin_pins():
    assert bai_yin_limit(4.0) == pytest.approx(4.0, abs=1e-12)
    assert bai_yin_limit(0.0) == 0.0
    assert bai_yin_limit(25.0) == pytest.approx(10.0, abs=1e-12)


def test_bernstein_tail_pins():
    assert bernstein_tail(1.0, 1.0, 5, 0.0) == 1.0
    # t^2/2 = 4.5 over sigma^2 + Kt/3 = 2
    assert bernstein_tail(1.0, 1.0, 1, 3.0) == pytest.approx(
        2.0 * math.exp(-2.25), abs=1e-12)
    assert bernstein_tail(0.5, 2.0, 10, 0.1) == 1.0  # capped at 1


def test_bernstein_expectation_pins():
    assert bernstein_expectation(1.0, 0.0, 2) == pytest.approx(
        math.sqrt(math.log(2.0)), abs=1e-12)
    assert bernstein_expectation(0.0, 1.0, 2) == pytest.approx(
        math.log(2.0), abs=1e-12)
    assert bernstein_expectation(3.0, 2.0, 100, C=0.0) == 0.0
    assert bernstein_expectation(2.0, 3.0, 50, C=1.5) == pytest.approx(
        1.5 * (2.0 * math.sqrt(math.log(50.0)) + 3.0 * math.log(50.0)), abs=1e-12)


def test_bvh_bound_pins():
    zeros = np.zeros((3, 3))
    assert bvh_bound(zeros, zeros) == 0.0
    # single nonzero row: variances row 0 = (0, 4, 9), sup max = 2
    var = np.array([[0.0, 4.0, 9.0], [4.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
    sup = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert bvh_bound(var, sup) == pytest.approx(
        math.sqrt(13.0) + math.sqrt(math.log(3.0)) * 2.0, abs=1e-12)


def test_bvh_er_matches_general_form():
    # algebraic identity: constant-p ER inputs specialize the general bound
    n, p = 40, 0.3
    var = np.full((n, n), p * (1 - p))
    np.fill_diagonal(var, 0.0)
    sup = np.ones((n, n)) * max(p, 1 - p)
    np.fill_diagonal(sup, 0.0)
    general = bvh_bound(var, np.where(sup > 0, 1.0, 0.0))
    assert bvh_er(n, p) == pytest.approx(general, abs=1e-12)
    assert bvh_er(n, 0.0) == 0.0  # constant zero matrix concentrates exactly
    assert bvh_er(n, 1.0) == 0.0  # deterministic complete graph


def test_seginer_uncentered_is_sqrt_max_degree():
    ii, jj = np.triu_indices(4, 1)
    k4 = Graph(4, ii, jj, np.ones(6))
    assert seginer_stat(k4) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    g, _ = sample(ER(0.3), 30, 2)
    assert seginer_stat(g) == pytest.approx(math.sqrt(g.degrees().max()), abs=1e-12)


def test_seginer_centered_empty_p0():
    g = Graph(5, [], [], [])
    E = expected_matrix(ER(0.0), np.ones(5, dtype=np.int64))
    assert seginer_stat(g, E) == 0.0


def test_seginer_centered_matches_dense():
    g, labels = sample(ER(0.4), 25, 9)
    E = expected_matrix(ER(0.4), labels)
    M = g.adjacency().toarray() - E.to_dense()
    ref = np.sqrt((M ** 2).sum(axis=0)).max()
    assert seginer_stat(g, E) == pytest.approx(ref, abs=1e-12)


def test_benaych_pins():
    n = math.exp(4.0 * math.e)  # log n / d = e, inner log = 1
    assert benaych_bound(4.0, n) == pytest.approx(
        4.0 + math.sqrt(4.0 * math.e / 2.0), abs=1e-10)
    assert benaych_bound(4.0, n, C=0.0) == pytest.approx(4.0, abs=1e-12)


def test_benaych_warnings_and_domain():
    with pytest.warns(UserWarning):
        benaych_bound(3.0, 10 ** 6)  # below the stated d >= 4 window
    with pytest.warns(UserWarning):
        val = benaych_bound(10.0, 20)  # log n < d: undefined inner log
    assert math.isnan(val)


def test_regularized_concentration_pins():
    assert regularized_concentration_bound(1.0, 4.0) == pytest.approx(2.0, abs=1e-12)
    assert regularized_concentration_bound(4.0, 1.0) == pytest.approx(8.0, abs=1e-12)
    assert regularized_concentration_bound(2.0, 0.0) == 0.0
    assert regularized_concentration_bound(1.0, 9.0, C=2.0) == pytest.approx(6.0, abs=1e-12)


def test_regularized_laplacian_pins():
    assert regularized_laplacian_bound(1.0, 4.0, 4.0) == pytest.approx(
        2.0 ** 2.5 / 2.0, abs=1e-12)
    assert regularized_laplacian_bound(1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert regularized_laplacian_bound(3.0, 2.0, 5.0, C=0.0) == 0.0


def test_recovery_threshold_pins():
    r = recovery_thresholds(5.0, 1.0, 100)
    assert r.snr == pytest.approx(16.0 / 6.0, abs=1e-12)
    assert r.weak_recovery  # 16 > 12
    same = recovery_thresholds(3.0, 3.0, 100)
    assert same.snr == 0.0
    assert not same.weak_recovery and not same.strong_consistency
    zero = recovery_thresholds(0.0, 0.0, 10)
    assert zero.snr == 0.0

    ln = math.log(100.0)
    strong = recovery_thresholds(49.0 * ln, 9.0 * ln, 100)
    assert strong.strong_consistency  # |7 - 3| = 4 > sqrt(2)
    weakline = recovery_thresholds(36.0 * ln, 16.0 * ln, 100)
    assert weakline.strong_consistency is (abs(6.0 - 4.0) > math.sqrt(2.0))


def test_recovery_partial_constant_knob():
    # snr = 16/6 = 2.666...; the caller's constant decides partial recovery
    assert recovery_thresholds(5.0, 1.0, 100, C=3.0).partial_recovery is False
    assert recovery_thresholds(5.0, 1.0, 100, C=2.0).partial_recovery is True


def test_classify_regime_pins():
    assert classify_regime(10 ** 6, 5.0) == "sparse"
    assert classify_regime(10 ** 6, 100.0) == "semi-dense"  # 100 > 3 log(1e6)
    assert classify_regime(10 ** 6, 12.0) == "semi-sparse"
    assert classify_regime(50, 50.0) == "dense"
    assert classify_regime(200, 200.0) == "dense"


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1000), st.floats(0, 1000))
def test_bai_yin_monotone(d1, d2):
    lo, hi = sorted((d1, d2))
    assert bai_yin_limit(lo) <= bai_yin_limit(hi) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 10), st.floats(0.01, 10), st.integers(1, 10 ** 6),
       st.floats(0, 50), st.floats(0, 50))
def test_bernstein_tail_monotone_in_t(sigma2, K, n, t1, t2):
    lo, hi = sorted((t1, t2))
    assert bernstein_tail(sigma2, K, n, hi) <= bernstein_tail(sigma2, K, n, lo) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 50), st.floats(0, 50), st.integers(2, 10 ** 6))
def test_recovery_symmetric_in_a_b(a, b, n):
    ra = recovery_thresholds(a, b, n)
    rb = recovery_thresholds(b, a, n)
    assert ra.weak_recovery == rb.weak_recovery
    assert ra.snr == pytest.approx(rb.snr)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10 ** 9), st.floats(0, 10 ** 6))
def test_classify_regime_total_function(n, d):
    assert classify_regime(n, d) in REGIMES


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 12.0), st.floats(0.0, 3.0))
def test_bvh_dominates_bernstein_when_d_large(log_n, extra):
    # formula-level: sqrt(d) + sqrt(log n) <= sqrt(d log n) + log n for d >= log n >= 1
    d = log_n + extra
    lhs = math.sqrt(d) + math.sqrt(log_n)
    rhs = math.sqrt(d * log_n) + log_n
    assert lhs <= rhs + 1e-12


def test_regularized_laplacian_decreasing_in_tau():
    taus = [0.5, 1.0, 2.0, 5.0, 50.0]
    vals = [regularized_laplacian_bound(1.0, t, 10.0) for t in taus]
    assert all(x > y for x, y in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# registry + validation
# ---------------------------------------------------------------------------

def test_registry_names_and_dispatch():
    assert sorted(BOUND_REGISTRY) == ["bai-yin", "benaych", "bernstein", "bvh",
                                      "thm51", "thm54"]
    fn, needed = BOUND_REGISTRY["bai-yin"]
    assert needed == ("d",)
    assert fn({"d": 25.0}) == pytest.approx(10.0, abs=1e-12)
    fn, _ = BOUND_REGISTRY["thm54"]
    assert fn({"r": 1.0, "tau": 4.0, "d": 4.0, "c": 1.0}) == pytest.approx(
        2.0 ** 2.5 / 2.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        bai_yin_limit(-1.0)
    with pytest.raises(ValueError):
        bernstein_tail(-1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        bernstein_expectation(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        bvh_bound(np.zeros((3, 3)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bvh_er(10, 1.5)
    with pytest.raises(ValueError):
        regularized_concentration_bound(0.5, 4.0)
    with pytest.raises(ValueError):
        regularized_laplacian_bound(1.0, 0.0, 4.0)
    with pytest.raises(ValueError):
        recovery_thresholds(-1.0, 1.0, 10)
    with pytest.raises(ValueError):
        classify_regime(1, 5.0)
    # NaN and infinity fail every rule, wherever they appear
    nan, inf = math.nan, math.inf
    for bound, args in [
            (bai_yin_limit, (nan,)), (bai_yin_limit, (inf,)),
            (bernstein_tail, (1.0, nan, 2, 1.0)), (bernstein_tail, (1.0, 1.0, 2, inf)),
            (bernstein_expectation, (nan, 1.0, 10)),
            (bernstein_expectation, (1.0, 1.0, 10, inf)),
            (bvh_er, (nan, 0.5)), (bvh_er, (10, nan)), (bvh_er, (10, 0.5, inf)),
            (benaych_bound, (nan, 100)), (benaych_bound, (4.0, inf)),
            (regularized_concentration_bound, (nan, 4.0)),
            (regularized_concentration_bound, (inf, 4.0)),
            (regularized_concentration_bound, (1.0, inf)),
            (regularized_laplacian_bound, (1.0, nan, 4.0)),
            (regularized_laplacian_bound, (1.0, inf, 4.0)),
            (regularized_laplacian_bound, (1.0, 4.0, 4.0, nan)),
            (recovery_thresholds, (nan, 1.0, 10)), (recovery_thresholds, (1.0, 1.0, inf)),
            (classify_regime, (nan, 5.0)), (classify_regime, (10, inf)),
            (bernstein_tail, (1.0, 1.0, nan, 2)), (bernstein_tail, (1.0, 1.0, inf, 2)),
            *[(bvh_bound, pair) for x in (nan, inf, -inf) for pair in (
                ([[0, x], [x, 0]], [[0, 1], [1, 0]]),
                ([[0, 1], [1, 0]], [[0, x], [x, 0]]))]]:
        with pytest.raises(ValueError, match="must be finite"):
            bound(*args)
