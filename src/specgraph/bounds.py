"""Closed-form concentration bounds, recovery thresholds, and regime labels.

Every evaluator takes its hidden absolute constant as an explicit parameter
C defaulting to 1, since the source inequalities only pin the shape.  All
logarithms are natural.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _validate


def _log_n(n):
    """log n, for a node count n that must be finite and at least 2."""
    return math.log(_validate.at_least("n", _validate.real("n", n), 2))


def bai_yin_limit(d):
    """2 sqrt(d): the almost-sure norm limit scale for dense-enough graphs."""
    _validate.real("d", d, zero_ok=True)
    return 2.0 * math.sqrt(d)


def bernstein_tail(sigma2, K, n, t):
    """Matrix Bernstein tail: min(1, 2n exp(-(t^2/2) / (sigma^2 + K t / 3)))."""
    _validate.real("sigma2", sigma2, zero_ok=True)
    _validate.real("K", K)
    _validate.real("n", n)
    _validate.real("t", t, zero_ok=True)
    if t == 0:
        return 1.0
    return min(1.0, 2.0 * n * math.exp(-(t * t / 2.0) / (sigma2 + K * t / 3.0)))


def bernstein_expectation(sigma, K, n, C=1.0):
    """C (sigma sqrt(log n) + K log n)."""
    _validate.real("sigma", sigma, zero_ok=True)
    _validate.real("K", K, zero_ok=True)
    C = _validate.real("C", C, zero_ok=True)
    ln = _log_n(n)
    return C * (sigma * math.sqrt(ln) + K * ln)


def bvh_bound(variances, sup_bounds, C=1.0):
    """max_i sqrt(sum_j sigma_ij^2) + C sqrt(log n) max_ij K_ij."""
    var = np.asarray(variances, dtype=np.float64)
    sup = np.asarray(sup_bounds, dtype=np.float64)
    if var.shape != sup.shape or var.ndim != 2 or var.shape[0] != var.shape[1]:
        raise ValueError("variances and sup_bounds must be equal-shape square arrays")
    # each test is false for nan, so a nan entry is rejected too
    if not np.all((var >= 0) & (var < np.inf) & (sup >= 0) & (sup < np.inf)):
        raise ValueError("entries must be finite and nonnegative")
    C = _validate.real("C", C, zero_ok=True)
    ln = _log_n(var.shape[0])
    row = math.sqrt(float(var.sum(axis=1).max()))
    return row + C * math.sqrt(ln) * float(sup.max())


def bvh_er(n, p, C=1.0):
    """bvh_bound specialized to constant-p ER: sqrt((n-1)p(1-p)) + C sqrt(log n)."""
    _validate.real("p", p, zero_ok=True, at_most=1.0)
    C = _validate.real("C", C, zero_ok=True)
    ln = _log_n(n)
    return math.sqrt((n - 1) * p * (1 - p)) + C * math.sqrt(ln) * (1.0 if 0 < p < 1 else 0.0)


def seginer_stat(graph, expected=None):
    """max_i ||column i||_2 of A, or of A - E[A] when an expectation is given.

    The centered column norms are exact: ||col_i||^2 =
    sum_{j != i} P_ij^2 + sum_{j ~ i} (w_ij^2 - 2 w_ij P_ij).
    """
    w2 = graph.w ** 2
    if expected is None:
        col2 = (np.bincount(graph.i, weights=w2, minlength=graph.n)
                + np.bincount(graph.j, weights=w2, minlength=graph.n))
    else:
        pe = expected.entries(graph.i, graph.j)
        contrib = w2 - 2.0 * graph.w * pe
        col2 = expected.row_sq_sums()
        col2 = col2 + np.bincount(graph.i, weights=contrib, minlength=graph.n)
        col2 = col2 + np.bincount(graph.j, weights=contrib, minlength=graph.n)
    if len(col2) == 0:
        return 0.0
    return float(math.sqrt(max(float(col2.max()), 0.0)))


def benaych_bound(d, n, C=1.0):
    """2 sqrt(d) + C sqrt(log n / (1 + log(log n / d))).

    Stated for 4 <= d <= n^(2/13); outside that window the formula is still
    evaluated but a warning is issued.  Where the inner logarithm's argument
    makes 1 + log(log n / d) nonpositive the bound is undefined: warns and
    returns nan.
    """
    _validate.real("d", d, zero_ok=True)
    C = _validate.real("C", C, zero_ok=True)
    ln = _log_n(n)
    if not 4 <= d <= n ** (2.0 / 13.0):
        warnings.warn(f"benaych bound stated for 4 <= d <= n^(2/13); got d={d}, n={n}")
    if d <= 0 or ln / d <= 0 or 1.0 + math.log(ln / d) <= 0:
        warnings.warn("benaych bound undefined here (inner log nonpositive)")
        return math.nan
    return 2.0 * math.sqrt(d) + C * math.sqrt(ln / (1.0 + math.log(ln / d)))


def regularized_concentration_bound(r, d, C=1.0):
    """C r^(3/2) sqrt(d), holding with probability 1 - n^(-r) after capping."""
    r = _validate.at_least("r", _validate.real("r", r), 1)
    _validate.real("d", d, zero_ok=True)
    C = _validate.real("C", C, zero_ok=True)
    return C * r ** 1.5 * math.sqrt(d)


def regularized_laplacian_bound(r, tau, d, C=1.0):
    """(C r^2 / sqrt(tau)) (1 + d/tau)^(5/2) for the Laplacian deviation."""
    r = _validate.at_least("r", _validate.real("r", r), 1)
    _validate.real("tau", tau)
    _validate.real("d", d, zero_ok=True)
    C = _validate.real("C", C, zero_ok=True)
    return (C * r * r / math.sqrt(tau)) * (1.0 + d / tau) ** 2.5


@dataclass(frozen=True)
class RecoveryThresholds:
    """Sharp-threshold predicates for the balanced planted partition."""

    snr: float
    weak_recovery: bool
    strong_consistency: bool
    partial_recovery: bool


def recovery_thresholds(a, b, n, C=1.0):
    """Threshold predicates at (a, b): detection, exact recovery, partial recovery.

    snr = (a-b)^2 / (a+b) (0 when a = b = 0); weak recovery iff snr > 2;
    strong consistency iff |sqrt(a/log n) - sqrt(b/log n)| > sqrt(2); partial
    recovery reported as snr > C with the caller's constant.
    """
    _validate.real("a", a, zero_ok=True)
    _validate.real("b", b, zero_ok=True)
    C = _validate.real("C", C, zero_ok=True)
    ln = _log_n(n)
    snr = 0.0 if a + b == 0 else (a - b) ** 2 / (a + b)
    strong = abs(math.sqrt(a / ln) - math.sqrt(b / ln)) > math.sqrt(2.0)
    return RecoveryThresholds(
        snr=snr,
        weak_recovery=snr > 2.0,
        strong_consistency=strong,
        partial_recovery=snr > C,
    )


REGIMES = ("sparse", "semi-sparse", "semi-dense", "dense")


def classify_regime(n, d):
    """Finite-n proxy for the asymptotic density classes.

    dense: d >= n/10; sparse: d <= 10; semi-sparse: d <= 3 log n; else
    semi-dense.  Checked in that order so each (n, d) gets exactly one label.
    """
    ln = _log_n(n)
    _validate.real("d", d, zero_ok=True)
    if d >= n / 10.0:
        return "dense"
    if d <= 10.0:
        return "sparse"
    if d <= 3.0 * ln:
        return "semi-sparse"
    return "semi-dense"


# Registry for CLI dispatch: maps the public bound name to (callable, the
# parameter names it draws from the CLI flag pool).
BOUND_REGISTRY = {
    "bai-yin": (lambda p: bai_yin_limit(p["d"]), ("d",)),
    "bernstein": (lambda p: bernstein_expectation(p["sigma"], p["bigk"], p["n"], p["c"]),
                  ("sigma", "bigk", "n", "c")),
    "bvh": (lambda p: bvh_er(p["n"], p["d"] / p["n"], p["c"]), ("n", "d", "c")),
    "benaych": (lambda p: benaych_bound(p["d"], p["n"], p["c"]), ("d", "n", "c")),
    "thm51": (lambda p: regularized_concentration_bound(p["r"], p["d"], p["c"]),
              ("r", "d", "c")),
    "thm54": (lambda p: regularized_laplacian_bound(p["r"], p["tau"], p["d"], p["c"]),
              ("r", "tau", "d", "c")),
}
