"""Spectral community detection and scoring."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

from . import _validate
from .spectral import _DEFAULT_SEED, top_eigs

MODES = (
    "adjacency-second-smallest",
    "adjacency-second-largest",
    "laplacian-second-largest",
    "top-k-embedding",
)

_RESTARTS = 20
# cap on Lloyd steps per restart; a restart stops earlier at its fixed point
_LLOYD_STEPS = 30


def sign_partition(v):
    """Two communities by sign: label 1 where v_i >= 0, label 2 where v_i < 0."""
    v = np.asarray(v)
    return np.where(v < 0, 2, 1).astype(np.int64)


def misclassification_rate(estimate, truth):
    """Fraction of disagreements, minimized over community-label permutations.

    Labels lie in 1..K; a label below 1 raises ValueError.
    """
    estimate = _validate.integers("estimate", estimate)
    truth = _validate.integers("truth", truth)
    if estimate.shape != truth.shape:
        raise ValueError("label vectors must have the same length")
    n = len(truth)
    if n == 0:
        return 0.0
    if min(estimate.min(), truth.min()) < 1:
        raise ValueError("labels must lie in 1..K")
    # over the labels that occur: 1..max label can be terabytes for one label
    est_labels, est = np.unique(estimate, return_inverse=True)
    true_labels, tru = np.unique(truth, return_inverse=True)
    k1, k2 = len(est_labels), len(true_labels)
    conf = np.bincount(est * k2 + tru, minlength=k1 * k2).reshape(k1, k2)
    # imported on first use (README, Start-up)
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    # The confusion matrix as a dense CSR, every count stored plus one: each
    # pair is then an edge, and since every full matching has min(k1, k2)
    # edges the shift moves no optimum (Jonker-Volgenant shortest paths).
    W = sp.csr_matrix((conf.ravel() + 1, np.tile(np.arange(k2), k1),
                       np.arange(0, k1 * k2 + 1, k2)), shape=(k1, k2))
    rows, cols = min_weight_full_bipartite_matching(W, maximize=True)
    return float(n - int(conf[rows, cols].sum())) / n


def vq(X, C, **kw):
    """scipy's vq, imported on its first call; kmeans reaches it by this
    module name, so a test can substitute a spy."""
    from scipy.cluster.vq import vq

    return vq(X, C, **kw)


def kmeans(X, K, seed=None):
    """Lowest-inertia of _RESTARTS k-means++ runs on scipy's kmeans2; labels in {1..K}.

    k-means++ seeding: Arthur & Vassilvitskii, SODA 2007.  All restarts draw
    from one generator, so the labels are fixed by the seed; seed=None means
    the same fixed default that top_eigs uses.

    Each restart takes one kmeans2 step at a time, at most _LLOYD_STEPS.  A
    step's centres depend only on the centres before it, so once a step
    returns the centres it was given (by their bytes) every later step
    would too, and the restart stops there; so does one that reaches
    centres from which an earlier restart went on to such a fixed point, in
    no more steps than it has left.  Every restart still draws its k-means++
    seeding, so the random stream is unchanged, and the result is that of
    kmeans2(iter=_LLOYD_STEPS).
    """
    # imported on first use (README, Start-up)
    from scipy.cluster.vq import kmeans2

    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) < K:
        raise ValueError("need at least K rows to cluster")
    rng = np.random.default_rng(_DEFAULT_SEED if seed is None else seed)
    best_assign = None
    best_inertia = np.inf
    # centres' bytes -> (at most this many steps to a fixed point, that point)
    ends = {}
    with warnings.catch_warnings():
        # fewer than K distinct rows: the k-means++ draw divides 0 by 0 and a
        # cluster can stay empty, which keeps its last centre (missing="warn")
        warnings.simplefilter("ignore", RuntimeWarning)
        warnings.filterwarnings("ignore", "One of the clusters is empty")
        for _ in range(_RESTARTS):
            # the first call draws the seeding and checks X for NaN and inf
            C = kmeans2(X, K, iter=1, minit="++", missing="warn", rng=rng)[0]
            path = [C.tobytes()]  # the centres after each step
            togo = None  # steps from path[-1] to C, once C is a fixed point
            while len(path) < _LLOYD_STEPS:
                known = ends.get(path[-1])
                if known is not None and len(path) + known[0] <= _LLOYD_STEPS:
                    togo, C = known
                    break
                C = kmeans2(X, C, iter=1, minit="matrix", missing="warn",
                            check_finite=False)[0]
                key = C.tobytes()
                if key == path[-1]:
                    togo = 0
                    break
                path.append(key)
            if togo is not None:
                for back, key in enumerate(reversed(path)):
                    ends.setdefault(key, (togo + back, C))
            assign, dist = vq(X, C, check_finite=False)
            inertia = float(dist @ dist)
            if inertia < best_inertia - 1e-15:
                best_inertia = inertia
                best_assign = assign
    return best_assign.astype(np.int64) + 1


def spectral_cluster(op, K=2, mode="laplacian-second-largest", seed=None):
    """Cluster nodes from the spectrum of the supplied operator.

    The sign modes (K=2) read off one eigenvector: the second-smallest or
    second-largest of an adjacency-type operator, or the second-largest of a
    Laplacian-type operator.  top-k-embedding runs k-means on the rows of the
    n x K matrix of leading eigenvectors.
    """
    if mode not in MODES:
        raise ValueError(f"unknown method {mode!r}; choose from {MODES}")
    K = _validate.integer("K", K, 2)
    if mode == "top-k-embedding":
        pairs = top_eigs(op, K, which="largest-algebraic", seed=seed)
        U = np.column_stack([p.vector for p in pairs])
        return kmeans(U, K, seed=seed)
    if K != 2:
        raise ValueError(f"mode {mode!r} is a two-community sign rule")
    # pairs come in the order of `which`, so index 1 is the second one
    which = ("smallest-algebraic" if mode == "adjacency-second-smallest"
             else "largest-algebraic")
    return sign_partition(top_eigs(op, 2, which=which, seed=seed)[1].vector)
