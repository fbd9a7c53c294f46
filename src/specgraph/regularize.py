"""Regularization procedures for sparse graphs.

Two families: weight regularization of the adjacency matrix (cap the weighted
degree of offending vertices by proportionally down-scaling their incident
edges, or drop high-degree vertices outright), and the tau-regularized
Laplacian L(A_tau) built from A_tau = A + (tau/n) 11^T.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .models import Graph
from .spectral import SymmetricOperator


def _check(name, value, zero_ok=False, at_most=math.inf):
    """Raise unless value is finite, > 0 (or 0, where zero_ok) and <= at_most."""
    if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)
            and value <= at_most):
        kind = "nonnegative" if zero_ok else "positive"
        if at_most < math.inf:
            kind += f" and at most {at_most:g}"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")


@dataclass
class RegularizationReport:
    """What degree capping touched and how hard.

    factors[t] is the cumulative down-scaling applied to edges while
    processing touched[t]; budget is ceil(10 n / d_hat), the vertex budget
    under which the capped graph provably concentrates.
    """

    touched: np.ndarray
    factors: np.ndarray
    pre_max_degree: float
    post_max_degree: float
    budget: int
    over_budget: bool
    passes: int

    def to_json(self):
        return json.dumps({
            "touched": [int(v) for v in self.touched],
            "factors": [float(f) for f in self.factors],
            "pre_max_degree": self.pre_max_degree,
            "post_max_degree": self.post_max_degree,
            "budget": self.budget,
            "over_budget": self.over_budget,
            "passes": self.passes,
        })


def degree_regularize(graph, d_hat, cap_multiplier=2.0):
    """Cap all weighted degrees at cap_multiplier * d_hat by down-weighting.

    Vertices above the cap are processed in decreasing-degree order; each has
    its incident edge weights scaled by cap/degree.  Scaling never raises any
    degree, so one pass suffices in exact arithmetic; the loop repeats until
    clean to absorb floating-point drift.  Edges not incident to a touched
    vertex are returned unchanged.
    """
    _check("d_hat", d_hat)
    _check("cap_multiplier", cap_multiplier)
    cap = cap_multiplier * d_hat
    _check("cap_multiplier * d_hat", cap)
    n = graph.n
    w = graph.w.copy()
    deg = graph.degrees()
    pre_max = float(deg.max()) if n else 0.0
    factors = np.ones(n)
    bounds, _, by_vertex = graph.incidence()
    slack = 1.0 + 1e-12
    passes = 0
    while passes < n:
        viol = np.flatnonzero(deg > cap * slack)
        if len(viol) == 0:
            break
        passes += 1
        viol = viol[np.argsort(-deg[viol], kind="stable")]
        for v in viol:
            dv = deg[v]
            if dv <= cap * slack:
                continue
            f = cap / dv
            es = by_vertex[bounds[v]:bounds[v + 1]]
            delta = w[es] * (f - 1.0)
            w[es] *= f
            np.add.at(deg, graph.i[es], delta)
            np.add.at(deg, graph.j[es], delta)
            factors[v] *= f
    out = Graph(n, graph.i, graph.j, w)
    post = out.degrees()
    touched = np.flatnonzero(factors < 1.0)
    budget = math.ceil(10.0 * n / d_hat)
    report = RegularizationReport(
        touched=touched,
        factors=factors[touched],
        pre_max_degree=pre_max,
        post_max_degree=float(post.max()) if n else 0.0,
        budget=budget,
        over_budget=len(touched) > budget,
        passes=passes,
    )
    return out, report


def remove_high_degree(graph, threshold):
    """Zero out every edge incident to a vertex whose degree exceeds threshold.

    The vertex set is preserved; rows of offenders become all-zero.  Surviving
    vertices can keep degrees up to the threshold.
    """
    _check("threshold", threshold)
    deg = graph.degrees()
    bad = deg > threshold
    keep = ~(bad[graph.i] | bad[graph.j])
    return Graph(graph.n, graph.i[keep], graph.j[keep], graph.w[keep])


def laplacian(graph):
    """Normalized Laplacian D^{-1/2} A D^{-1/2}; isolated vertices get scale 0."""
    deg = graph.degrees()
    with np.errstate(divide="ignore"):
        s = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return SymmetricOperator.compose(graph.n, sparse=graph.adjacency(), scale=s)


def tau_regularize(graph, tau):
    """A_tau = A + (tau/n) 11^T as a matrix-free operator (never densified)."""
    _check("tau", tau, zero_ok=True)
    return SymmetricOperator.compose(graph.n, sparse=graph.adjacency(),
                                     rank_one=tau / graph.n)


def regularized_laplacian(graph, tau):
    """L(A_tau): diagonal scaling (d_i + tau)^{-1/2} around A + (tau/n) 11^T."""
    _check("tau", tau, zero_ok=True)
    deg = graph.degrees()
    if tau == 0 and np.any(deg == 0):
        raise ValueError("tau = 0 requires a graph without isolated vertices")
    s = 1.0 / np.sqrt(deg + tau)
    return SymmetricOperator.compose(graph.n, sparse=graph.adjacency(),
                                     rank_one=tau / graph.n, scale=s)


def expected_regularized_laplacian(expected, tau):
    """L(E[A] + (tau/n) 11^T), the population counterpart of L(A_tau)."""
    _check("tau", tau, zero_ok=True)
    rows = expected.row_sums()
    if tau == 0 and np.any(rows <= 0):
        raise ValueError("tau = 0 requires positive expected degrees")
    s = 1.0 / np.sqrt(rows + tau)
    return SymmetricOperator.compose(expected.n, expected=expected,
                                     rank_one=tau / expected.n, scale=s)


def choose_tau(graph, rho=0.25):
    """tau = rho * (average degree), or 0 on an empty graph; rho = 1 gives
    the plain degree-sum rule."""
    _check("rho", rho, at_most=1.0)
    return rho * float(graph.degrees().mean()) if graph.m else 0.0
