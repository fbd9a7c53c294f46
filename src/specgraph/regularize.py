"""Regularization procedures for sparse graphs.

Two families: weight regularization of the adjacency matrix (cap the weighted
degree of offending vertices by proportionally down-scaling their incident
edges, or drop high-degree vertices outright), and the tau-regularized
Laplacian L(A_tau) built from A_tau = A + (tau/n) 11^T.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _validate
from .models import Graph
from .spectral import EigenPair, SymmetricOperator


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

    Each pass ranks the vertices above the cap by decreasing degree, ties by
    index, and takes them in rank order: one still above the cap when its
    turn comes has its incident edge weights scaled by cap/degree.  Scaling
    never raises any degree, so one pass suffices in exact arithmetic; the
    loop repeats until clean to absorb floating-point drift.  Edges not
    incident to a touched vertex are returned unchanged; the output keeps
    the input's edges.

    A pass takes each edge with an end over the cap once, with the arithmetic
    of the per-vertex loop in its order (_turns), so every weight, factor and
    over-cap degree is that loop's bit for bit.
    """
    _validate.real("d_hat", d_hat)
    _validate.real("cap_multiplier", cap_multiplier)
    cap = cap_multiplier * d_hat
    _validate.real("cap_multiplier * d_hat", cap)
    n = graph.n
    w = graph.w.copy()
    deg = graph.degrees()
    pre_max = float(deg.max()) if n else 0.0
    factors = np.ones(n)
    slack = 1.0 + 1e-12
    passes = 0
    while passes < n:
        over = deg > cap * slack
        if not over.any():
            break
        passes += 1
        viol, f = _pass(graph, w, deg, over, cap, cap * slack)
        factors[viol] *= f
    out = graph._reweighted(w)
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


def _pass(graph, w, deg, over, cap, limit):
    """One pass over the vertices over the cap: updates the weights w and
    their degrees in deg in place, and returns them by rank with their
    factors.  Each edge changes at the turns of its ends, the lower rank lo
    first.  Every other degree is left as it was: it only falls, the weights
    being positive, so it stays within the cap."""
    viol = np.flatnonzero(over)
    viol = viol[np.argsort(-deg[viol], kind="stable")]
    rank = np.full(graph.n, len(viol))
    rank[viol] = np.arange(len(viol))
    # each edge with an end over the cap, once, and the ranks of its ends:
    # len(viol) for an end not over the cap, which has no turn
    es = np.flatnonzero(over[graph.i] | over[graph.j])
    ri, rj = rank[graph.i[es]], rank[graph.j[es]]
    lo, hi = np.minimum(ri, rj), np.maximum(ri, rj)
    both = hi < len(viol)
    x = w[es]
    f, turn = _turns(deg[viol], lo[both], hi[both], x[both], cap, limit)
    scale = np.append(f, 1.0)  # and 1.0, no change bit for bit, under the cap
    # the edge's change at lo's turn, its weight then, its change at hi's
    at_lo = x * (scale[lo] - 1.0)
    x = x * scale[lo]
    at_hi = x * (scale[hi] - 1.0)
    w[es] = x * scale[hi]
    # an over-cap degree from its turn on: its own changes as i (ascending
    # j), then as j (ascending i), then those of later neighbours in rank
    # order; the spare last slot takes the changes of the other ends
    turn = np.append(turn, 0.0)
    np.add.at(turn, ri, np.where(ri < rj, at_lo, at_hi))
    np.add.at(turn, rj, np.where(rj < ri, at_lo, at_hi))
    later = np.argsort(hi[both], kind="stable")
    np.add.at(turn, lo[both][later], at_hi[both][later])
    deg[viol] = turn[:-1]
    return viol, f


def _turns(now, lo, hi, weight, cap, limit):
    """The factor of each over-cap vertex of one pass, by rank, and its
    degree at its turn: cap/degree, or 1.0 where that degree is at most
    limit.

    now holds the degrees at the start of the pass, by rank; each edge
    between two of these vertices is (lo, hi, weight): the ranks of its two
    ends and its weight.  A vertex's degree at its turn is now plus, in rank
    order, weight * (f - 1) from each earlier neighbour; a factor of 1.0
    adds +0.0, which leaves a positive degree as it was.  So every vertex
    with no earlier over-cap neighbour, most of them on a sparse graph,
    takes its turn at once; the others take theirs in rank order over just
    those edges, in Python floats, whose arithmetic is numpy's float64
    arithmetic.
    """
    order = np.lexsort((lo, hi))
    lo, hi, weight = lo[order], hi[order], weight[order]
    waiting, first = np.unique(hi, return_index=True)
    ends = np.append(first[1:], len(hi)).tolist()
    f, turn = (cap / now).tolist(), now.tolist()
    lo, weight = lo.tolist(), weight.tolist()
    for v, a, b in zip(waiting.tolist(), first.tolist(), ends):
        d = turn[v]
        for u, x in zip(lo[a:b], weight[a:b]):
            d += x * (f[u] - 1.0)
        turn[v] = d
        f[v] = 1.0 if d <= limit else cap / d
    return np.array(f), np.array(turn)


def remove_high_degree(graph, threshold):
    """Zero out every edge incident to a vertex whose degree exceeds threshold.

    The vertex set is preserved; rows of offenders become all-zero.  Surviving
    vertices can keep degrees up to the threshold.
    """
    _validate.real("threshold", threshold)
    deg = graph.degrees()
    bad = deg > threshold
    keep = ~(bad[graph.i] | bad[graph.j])
    return Graph(graph.n, graph.i[keep], graph.j[keep], graph.w[keep])


def _normalized(n, rows, tau, **part):
    """D^{-1/2} (part + (tau/n) 11^T) D^{-1/2} with D = diag(rows + tau);
    a zero row of D gets scale 0, so its row and column of the result are 0."""
    d = rows + tau
    s = np.divide(1.0, np.sqrt(d), out=np.zeros(n), where=d > 0)
    return SymmetricOperator.compose(n, rank_one=tau / n, scale=s, **part)


def laplacian(graph):
    """Normalized Laplacian D^{-1/2} A D^{-1/2}: regularized_laplacian at
    tau = 0, where an isolated vertex gets scale 0."""
    return regularized_laplacian(graph, 0.0)


def tau_regularize(graph, tau):
    """A_tau = A + (tau/n) 11^T as a matrix-free operator (never densified)."""
    _validate.real("tau", tau, zero_ok=True)
    return SymmetricOperator.compose(graph.n, sparse=graph.adjacency(),
                                     rank_one=tau / graph.n)


def regularized_laplacian(graph, tau):
    """L(A_tau): diagonal scaling (d_i + tau)^{-1/2} around A + (tau/n) 11^T;
    at tau = 0 an isolated vertex's row and column are 0, and the operator
    knows its eigenvalue-1 pairs (_unit_pairs), which top_eigs takes."""
    _validate.real("tau", tau, zero_ok=True)
    rows, adjacency = graph.degrees(), graph.adjacency()
    op = _normalized(graph.n, rows, tau, sparse=adjacency)
    if tau == 0:
        op._top_pairs = functools.partial(_unit_pairs, op.terms, adjacency, rows)
    return op


def _unit_pairs(terms, adjacency, rows, k):
    """L(A)'s top pairs in closed form: eigenvalue 1, the top of the spectrum,
    has one eigenvector D^{1/2} 1_C per component C with an edge (Chung 1997,
    ch. 1).  Returns the first min(k, m) of the m vectors, normalized, by each
    C's smallest node, as pairs of value 1.0; and, when m < k, L(A) with all
    m moved to -2, below the spectrum, for the k - m pairs left (else None).
    It never builds more than k vectors, however many components there are.
    """
    comp, found = _edge_components(adjacency, rows)
    root = np.sqrt(rows)
    pairs = [EigenPair(1.0, np.where(comp == c, root, 0.0)
                       / np.linalg.norm(root[comp == c]))
             for c in found[:k]]
    if len(found) >= k:
        return pairs, None
    rest = SymmetricOperator(len(rows), terms)
    for p in pairs:
        rest -= SymmetricOperator.compose(rest.n, rank_one=3.0, scale=p.vector)
    return pairs, rest


def _edge_components(adjacency, rows):
    """Each node's component, and the components with an edge (a positive
    degree in rows), in order of their smallest node."""
    # imported on first use (README, Start-up)
    from scipy.sparse.csgraph import connected_components

    _, comp = connected_components(adjacency, directed=False)
    found, first = np.unique(comp[rows > 0], return_index=True)
    return comp, found[np.argsort(first)]


def edge_components(graph):
    """m, the number of connected components with an edge: the multiplicity
    of eigenvalue 1, the top of L(A)'s spectrum (_unit_pairs)."""
    return len(_edge_components(graph.adjacency(), graph.degrees())[1])


def expected_regularized_laplacian(expected, tau):
    """L(E[A] + (tau/n) 11^T), the population counterpart of L(A_tau); at
    tau = 0 a zero expected row gets scale 0, as in laplacian."""
    _validate.real("tau", tau, zero_ok=True)
    return _normalized(expected.n, expected.row_sums(), tau, expected=expected)


def choose_tau(graph, rho=0.25):
    """tau = rho * (average degree), or 0 on an empty graph; rho = 1 gives
    the plain degree-sum rule."""
    _validate.real("rho", rho, at_most=1.0)
    return rho * float(graph.degrees().mean()) if graph.m else 0.0
