"""Random-graph models and their expectation matrices.

Every model here draws each upper-triangle entry of the adjacency matrix as
an independent Bernoulli with a model-specific success probability P_ij, so
E[A] = P with a zero diagonal.  Sampling is vectorized: constant-probability
blocks are drawn with geometric skip sampling, degree-corrected blocks by
thinning, and dense-P models row by row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

# largest n with a dense n x n P (LSM, IERM): 4096^2 doubles are 128 MB
DENSE_LIMIT = 4096


class Graph:
    """Simple undirected weighted graph stored as its strict upper triangle.

    Args:
        n: number of nodes.
        i, j: edge endpoint arrays with i < j entrywise.
        w: edge weights in (0, 1]; freshly sampled graphs have weight 1.0.

    This class alone knows the edge layout.  Edges are kept sorted by the key
    i*n + j, which makes equality, serialization and regularization
    deterministic, and a duplicate pair is rejected.  incidence() is the one
    symmetric layout; adjacency() and degree capping both read it.
    """

    def __init__(self, n, i, j, w):
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if not (len(i) == len(j) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(i) and (i.min() < 0 or j.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(i >= j):
            raise ValueError("edges must satisfy i < j (no self-loops)")
        self.n = int(n)
        key = i * self.n + j
        order = np.argsort(key)  # keys are unique once duplicates are out
        dup = np.flatnonzero(np.diff(key[order]) == 0)
        if len(dup):
            e = order[dup[0]]
            raise ValueError(f"duplicate edge pair ({i[e]}, {j[e]})")
        self.i = i[order]
        self.j = j[order]
        self.w = w[order]
        self._csr = None

    @property
    def m(self):
        """Edge count."""
        return len(self.i)

    def degrees(self):
        """Weighted degree vector (row sums of the symmetric adjacency)."""
        d = np.bincount(self.i, weights=self.w, minlength=self.n)
        d += np.bincount(self.j, weights=self.w, minlength=self.n)
        return d

    def incidence(self):
        """(indptr, neighbors, ids) of the symmetric adjacency, not cached.

        Vertex v's neighbors, ascending, are neighbors[indptr[v]:indptr[v+1]],
        and ids holds the index into i, j, w of each of those edges.
        """
        tails = np.concatenate([self.i, self.j])
        heads = np.concatenate([self.j, self.i])
        order = np.argsort(tails * self.n + heads)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=self.n), out=indptr[1:])
        return indptr, heads[order], np.tile(np.arange(self.m), 2)[order]

    def adjacency(self):
        """Symmetric CSR adjacency matrix (cached)."""
        if self._csr is None:
            indptr, neighbors, ids = self.incidence()
            self._csr = sp.csr_matrix((self.w[ids], neighbors, indptr),
                                      shape=(self.n, self.n))
        return self._csr

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.i, other.i)
            and np.array_equal(self.j, other.j)
            and np.array_equal(self.w, other.w)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def to_tsv(self, path):
        """Write the edge list as `i<TAB>j<TAB>weight` with a `# n=<n>` header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.format_tsv())

    def format_tsv(self):
        return f"# n={self.n}\n" + "".join(
            "%d\t%d\t%.17g\n" % e
            for e in zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    @classmethod
    def from_tsv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse_tsv(fh.read())

    @classmethod
    def parse_tsv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# n="):
            raise ValueError("missing '# n=<n>' header line")
        n = int(lines[0][4:])
        ii, jj, ww = [], [], []
        for ln in lines[1:]:
            parts = ln.split("\t")
            if len(parts) != 3:
                raise ValueError(f"malformed edge line: {ln!r}")
            ii.append(int(parts[0]))
            jj.append(int(parts[1]))
            ww.append(float(parts[2]))
        ww = np.asarray(ww, dtype=np.float64)
        bad = np.flatnonzero(~((ww > 0) & (ww <= 1)))  # nan fails both tests
        if len(bad):
            raise ValueError(f"edge weight must lie in (0, 1]: {lines[1 + bad[0]]!r}")
        return cls(n, ii, jj, ww)


def write_labels(path, labels):
    """One integer label per line, in node-index order."""
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def read_labels(path):
    with open(path, "r", encoding="utf-8") as fh:
        return np.array([int(ln) for ln in fh.read().splitlines() if ln.strip()],
                        dtype=np.int64)


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ER:
    """Erdos-Renyi G(n, p): every pair connected independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class PlantedPartition:
    """G(n, a/n, b/n): balanced two-community model.

    Within-community pairs connect with probability a/n, across with b/n.
    The first ceil(n/2) nodes form community 1.
    """

    a: float
    b: float

    def __post_init__(self):
        for name, x in (("a", self.a), ("b", self.b)):
            if not 0 <= x < np.inf:  # false for nan
                raise ValueError(f"{name} must be finite and nonnegative, got {x!r}")


@dataclass(frozen=True)
class SBM:
    """Stochastic block model: labels i.i.d. from pi, P(A_ij=1) = B[c_i, c_j]."""

    pi: tuple
    B: tuple

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        B = np.asarray(self.B, dtype=np.float64)
        # each test is written so that nan fails it
        if pi.ndim != 1 or len(pi) == 0 or not np.all((pi >= 0) & np.isfinite(pi)):
            raise ValueError("pi must be a finite nonnegative vector")
        if not abs(pi.sum() - 1.0) <= 1e-9:
            raise ValueError("pi must sum to 1")
        if B.shape != (len(pi), len(pi)):
            raise ValueError("B must be K x K for K = len(pi)")
        if not np.all((B >= 0) & (B <= 1)):
            raise ValueError("entries of B must lie in [0, 1]")
        if not np.allclose(B, B.T, atol=1e-12):
            raise ValueError("B must be symmetric")
        object.__setattr__(self, "pi", tuple(float(x) for x in pi))
        object.__setattr__(self, "B", tuple(tuple(float(x) for x in row) for row in B))


@dataclass(frozen=True)
class DCSBM:
    """Degree-corrected SBM: P(A_ij=1) = theta_i * theta_j * B[c_i, c_j]."""

    pi: tuple
    B: tuple
    theta: tuple

    def __post_init__(self):
        base = SBM(self.pi, self.B)
        object.__setattr__(self, "pi", base.pi)
        object.__setattr__(self, "B", base.B)
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1 or not np.all((theta > 0) & np.isfinite(theta)):
            raise ValueError("theta must be a finite positive vector")
        # any label assignment is reachable under i.i.d. pi labels, so the
        # product constraint must hold for the two largest theta values
        # against the largest reachable block probability
        support = np.asarray(base.pi) > 0
        Bmax = np.asarray(base.B)[np.ix_(support, support)].max() if support.any() else 0.0
        top = np.sort(theta)[::-1]
        worst = top[0] * (top[1] if len(top) > 1 else top[0]) * Bmax
        if worst > 1.0 + 1e-12:
            raise ValueError(
                f"theta_i*theta_j*B must be <= 1 for all pairs (worst case {worst:.6g})")
        object.__setattr__(self, "theta", tuple(float(x) for x in theta))


@dataclass(frozen=True)
class LSM:
    """Latent space model: P_ij = exp(-||x_i - x_j||) for finite latent
    positions x, so closer points connect more often.

    "exp" is the only kernel; the field names it in the spec's JSON.
    """

    positions: tuple
    kernel: str = "exp"

    def __post_init__(self):
        X = np.asarray(self.positions, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("positions must be an n x dim array")
        if not np.isfinite(X).all():  # json.loads accepts NaN and Infinity
            raise ValueError("positions must be finite")
        if self.kernel != "exp":
            raise ValueError(f"unknown kernel {self.kernel!r}")
        object.__setattr__(self, "positions",
                           tuple(tuple(float(v) for v in row) for row in X))


@dataclass(frozen=True)
class IERM:
    """Inhomogeneous Erdos-Renyi: explicit symmetric P with zero diagonal."""

    P: tuple

    def __post_init__(self):
        P = np.asarray(self.P, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
            raise ValueError("P must be a nonempty square matrix")
        if not np.all((P >= 0) & (P <= 1)):  # false for nan
            raise ValueError("entries of P must lie in [0, 1]")
        if not np.allclose(P, P.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        if np.any(np.abs(np.diag(P)) > 0):
            raise ValueError("P must have a zero diagonal")
        object.__setattr__(self, "P", tuple(tuple(float(v) for v in row) for row in P))


# ---------------------------------------------------------------------------
# JSON round trip for model specs
# ---------------------------------------------------------------------------

_KINDS = {"er": ER, "pp": PlantedPartition, "sbm": SBM, "dcsbm": DCSBM,
          "lsm": LSM, "ierm": IERM}


def model_to_json(spec):
    """Serialize a model spec to a JSON string: its kind and its fields."""
    kind = next((k for k, cls in _KINDS.items() if type(spec) is cls), None)
    if kind is None:
        raise ValueError(f"not a model spec: {spec!r}")
    return json.dumps({"model": kind,
                       **{f.name: getattr(spec, f.name) for f in fields(spec)}})


def _holds_bool(x):
    """Whether a parsed JSON value is, or holds, true or false."""
    if isinstance(x, dict):
        x = list(x.values())
    return isinstance(x, bool) or (isinstance(x, list) and any(map(_holds_bool, x)))


def model_from_json(text):
    """Parse a spec written by model_to_json; a malformed one is a ValueError."""
    params = json.loads(text)
    if not isinstance(params, dict):
        raise ValueError("a model spec must be a JSON object")
    kind = params.pop("model", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if _holds_bool(params):  # bool is an int subclass, so no check catches it
        raise ValueError(f"bad {kind} spec: a boolean is not a number")
    try:
        return _KINDS[kind](**params)
    except TypeError as exc:  # missing, unknown or wrong-typed parameter
        raise ValueError(f"bad {kind} spec: {exc}") from None


# ---------------------------------------------------------------------------
# Expectation matrices
# ---------------------------------------------------------------------------

class ExpectedMatrix:
    """P = E[A] in block form: P_ij = theta_i theta_j B[c_i, c_j] for i != j.

    Block models carry K communities, which gives O(n*K) matvecs and makes
    deviation norms at n = 1e5 affordable.  A dense P (LSM, IERM) is the same
    form with n blocks of one node: c = 0..n-1, B = P, theta = 1.  The
    diagonal of P is zero.
    """

    def __init__(self, labels, B, theta=None):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n = len(self.labels)
        self.B = np.asarray(B, dtype=np.float64)
        self.theta = (np.ones(self.n) if theta is None
                      else np.asarray(theta, dtype=np.float64))
        if len(self.theta) != self.n:
            raise ValueError("theta length must equal the number of labels")
        K = self.B.shape[0]
        if self.labels.min() < 1 or self.labels.max() > K:
            raise ValueError("label out of range for B")
        # fixed per matrix: 0-based labels and the diagonal theta^2 B_cc
        # that P leaves out (see block_factors)
        self._c = self.labels - 1
        self._diag = self.theta ** 2 * self.B[self._c, self._c]

    @classmethod
    def from_dense(cls, P):
        """A symmetric P as n blocks of one node; P's diagonal is zeroed."""
        P = np.array(P, dtype=np.float64)
        np.fill_diagonal(P, 0.0)
        return cls(np.arange(1, len(P) + 1), P)

    def block_factors(self):
        """(theta, c, B, diag) of the block form, with c the 0-based labels:

            P = diag(theta) B[c][:, c] diag(theta) - diag(diag),

        where diag = theta^2 B_cc is the diagonal the low-rank part carries and
        P leaves out.
        """
        return self.theta, self._c, self.B, self._diag

    def matvec(self, x):
        """P @ x without materializing P."""
        theta, c, B, diag = self.block_factors()
        sums = np.bincount(c, weights=theta * x, minlength=len(B))
        y = (B @ sums)[c]
        y *= theta
        y -= diag * x
        return y

    def row_sums(self):
        return self.matvec(np.ones(self.n))

    def row_sq_sums(self):
        """Per-row sums of squared entries, sum_{j != i} P_ij^2."""
        c = self._c
        t2 = np.bincount(c, weights=self.theta ** 2, minlength=len(self.B))
        # product before gather: (B^2)[c] is a second n x n array at K = n
        y = self.theta ** 2 * ((self.B ** 2) @ t2)[c]
        y -= self.theta ** 4 * self.B[c, c] ** 2
        return y

    def entries(self, i, j):
        """P_ij for paired index arrays (i != j assumed)."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return self.theta[i] * self.theta[j] * self.B[self._c[i], self._c[j]]

    def max_entry(self):
        """Largest off-diagonal entry of P (0 if P has none)."""
        K = len(self.B)
        counts = np.bincount(self._c, minlength=K)
        first = np.cumsum(counts) - counts
        # theta by block, largest first, padded so an empty block indexes safely
        t = np.append(self.theta[np.lexsort((-self.theta, self._c))], [0.0, 0.0])
        top = np.where(counts > 0, t[first], 0.0)
        second = np.where(counts > 1, t[first + 1], 0.0)
        M = np.outer(top, top)
        M *= self.B
        np.fill_diagonal(M, top * second * np.diag(self.B))
        return float(max(0.0, M.max()))

    def to_dense(self):
        if self.n > DENSE_LIMIT:
            raise ValueError(f"refusing to densify n={self.n} > {DENSE_LIMIT}")
        c = self._c
        P = np.outer(self.theta, self.theta)
        P *= self.B[np.ix_(c, c)]
        np.fill_diagonal(P, 0.0)
        return P


def _block_form(spec, labels):
    """(labels, B, theta) of a block model's E[A], theta None when all ones;
    None for a dense-P model (LSM, IERM)."""
    n = len(labels)
    if isinstance(spec, ER):  # one block, whatever the labels
        return np.ones(n, dtype=np.int64), np.array([[float(spec.p)]]), None
    if isinstance(spec, PlantedPartition):
        a, b = spec.a / n, spec.b / n
        if max(a, b) > 1.0:
            raise ValueError("a/n and b/n must be at most 1")
        return labels, np.array([[a, b], [b, a]]), None
    if isinstance(spec, SBM):
        return labels, np.array(spec.B), None
    if isinstance(spec, DCSBM):
        if len(spec.theta) != n:
            raise ValueError("theta length must equal the number of labels")
        return labels, np.array(spec.B), np.array(spec.theta)
    return None


def expected_matrix(spec, labels):
    """E[A] for the given spec conditioned on the given labels.

    LSM and IERM give a dense P, stored as n blocks of one node and refused
    above DENSE_LIMIT nodes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    block = _block_form(spec, labels)
    if block is not None:
        return ExpectedMatrix(*block)
    if isinstance(spec, (LSM, IERM)) and n > DENSE_LIMIT:
        raise ValueError(f"refusing a dense P for n={n} > {DENSE_LIMIT}")
    if isinstance(spec, LSM):
        X = np.asarray(spec.positions)
        if len(X) != n:
            raise ValueError("LSM position count must equal len(labels)")
        # one coordinate at a time and in place: P and one n x n difference
        # are the only n x n arrays (the n x n x dim tensor would take dim
        # times the memory of P)
        P = np.zeros((n, n))
        diff = np.empty((n, n))
        for col in X.T:
            np.subtract.outer(col, col, out=diff)
            P += np.square(diff, out=diff)
        np.exp(np.negative(np.sqrt(P, out=P), out=P), out=P)
        np.fill_diagonal(P, 0.0)
        return ExpectedMatrix(np.arange(1, n + 1), P)
    if isinstance(spec, IERM):
        P = np.asarray(spec.P)
        if len(P) != n:
            raise ValueError("P size must equal len(labels)")
        return ExpectedMatrix.from_dense(P)
    raise ValueError(f"not a model spec: {spec!r}")


def planted_labels(spec, n, rng=None):
    """Labels drawn (or fixed) ahead of edge sampling.

    ER/LSM/IERM have a single community; the planted partition fixes the first
    ceil(n/2) nodes as community 1; SBM/DCSBM labels are i.i.d. from pi.
    """
    if isinstance(spec, (ER, LSM, IERM)):
        return np.ones(n, dtype=np.int64)
    if isinstance(spec, PlantedPartition):
        labels = np.full(n, 2, dtype=np.int64)
        labels[: (n + 1) // 2] = 1
        return labels
    if isinstance(spec, (SBM, DCSBM)):
        if rng is None:
            raise ValueError("SBM/DCSBM labels require an rng")
        cum = np.cumsum(spec.pi)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(n), side="right").astype(np.int64) + 1
    raise ValueError(f"not a model spec: {spec!r}")


def max_expected_degree(spec, n, labels=None):
    """Both expected-degree conventions as a pair (max row sum, n * max entry).

    With labels, or for a model whose labels are fixed (all but SBM and
    DCSBM), the result is exact for P; without labels, SBM and DCSBM use the
    population approximation (i.i.d. labels in expectation), which is what a
    caller knows before sampling.  An SBM is a DCSBM with theta = 1, so its
    row max is (n - 1) max(B pi) over the labels of positive pi.
    """
    if labels is None and not isinstance(spec, (SBM, DCSBM)):
        labels = planted_labels(spec, n)  # fixed, not drawn
    if labels is not None:
        E = expected_matrix(spec, labels)
        return float(E.row_sums().max()), float(E.n * E.max_entry())
    pi = np.asarray(spec.pi)
    B = np.asarray(spec.B)
    theta = np.ones(n) if isinstance(spec, SBM) else np.asarray(spec.theta)
    if len(theta) != n:
        raise ValueError("theta length must equal n")
    sup = pi > 0
    T = theta.sum()
    mean_block = B @ pi  # expected B_{k,c_j} over a random neighbor label
    rows = np.outer(theta, mean_block) * (T - theta)[:, None]
    rowmax = rows[:, sup].max() if sup.any() else 0.0
    top = np.sort(theta)[::-1]
    pair = top[0] * (top[1] if len(top) > 1 else top[0])
    entry = pair * (B[np.ix_(sup, sup)].max() if sup.any() else 0.0)
    return float(rowmax), float(n * entry)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _rng(seed):
    # counter-based bit generator so replicate streams can be split cheaply
    return np.random.Generator(np.random.Philox(seed))


def _skip_indices(N, p, rng):
    """Sorted flat indices of Bernoulli(p) successes among N slots.

    Geometric skip sampling: gaps between successes are Geometric(p), so only
    O(N*p) random draws are needed.
    """
    if N <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(N, dtype=np.int64)
    if p < 1e-12:
        # geometric gaps overflow int64 once 1/p nears 2^63; the equivalent
        # count-then-place draw stays exact for arbitrarily small p
        k = rng.binomial(N, p)
        return np.sort(rng.choice(N, size=k, replace=False)).astype(np.int64)
    chunks = []
    pos = -1
    while pos < N:
        remaining = N - pos - 1
        size = int(remaining * p * 1.1) + 16
        gaps = rng.geometric(p, size=size)
        idx = pos + np.cumsum(gaps)
        inside = idx[idx < N]
        chunks.append(inside)
        if len(inside) < len(idx):
            break
        pos = int(idx[-1])
    return np.concatenate(chunks)


def _triangle_pairs(flat, m):
    """Map flat indices over the strict upper triangle of an m x m block."""
    ends = np.cumsum(np.arange(m - 1, 0, -1))
    r = np.searchsorted(ends, flat, side="right")
    prev = np.concatenate(([0], ends[:-1]))[r]
    c = r + 1 + (flat - prev)
    return r, c


def _sample_block_model(n, labels, B, theta, rng):
    """Candidate edges per (community, community) block, thinned for theta."""
    K = B.shape[0]
    groups = [np.flatnonzero(labels == k + 1) for k in range(K)]
    out_i, out_j = [], []
    for k in range(K):
        gk = groups[k]
        for l in range(k, K):
            gl = groups[l]
            if len(gk) == 0 or len(gl) == 0 or B[k, l] <= 0.0:
                continue
            if theta is None:
                cap = B[k, l]
            else:
                tk = np.sort(theta[gk])[::-1]
                if k == l:
                    if len(gk) < 2:
                        continue
                    pair = tk[0] * tk[1]
                else:
                    pair = tk[0] * theta[gl].max()
                cap = min(1.0, B[k, l] * pair)
                if cap <= 0.0:
                    continue
            if k == l:
                m = len(gk)
                flat = _skip_indices(m * (m - 1) // 2, cap, rng)
                r, c = _triangle_pairs(flat, m)
                gi, gj = gk[r], gk[c]
            else:
                m1, m2 = len(gk), len(gl)
                flat = _skip_indices(m1 * m2, cap, rng)
                gi, gj = gk[flat // m2], gl[flat % m2]
                # two blocks' nodes interleave; within a block r < c already
                gi, gj = np.minimum(gi, gj), np.maximum(gi, gj)
            if theta is not None and len(gi):
                accept = theta[gi] * theta[gj] * B[k, l] / cap
                keep = rng.random(len(gi)) < accept
                gi, gj = gi[keep], gj[keep]
            if len(gi):
                out_i.append(gi)
                out_j.append(gj)
    if out_i:
        return np.concatenate(out_i), np.concatenate(out_j)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def _sample_dense(P, rng):
    """Row-major upper-triangle Bernoulli draws against a dense P."""
    n = len(P)
    out_i, out_j = [], []
    for r in range(n - 1):
        row = P[r, r + 1:]
        hits = np.flatnonzero(rng.random(n - 1 - r) < row)
        if len(hits):
            out_i.append(np.full(len(hits), r, dtype=np.int64))
            out_j.append(hits + r + 1)
    if out_i:
        return np.concatenate(out_i), np.concatenate(out_j)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def sample(spec, n, seed):
    """Draw (Graph, labels) from the model.

    Labels are drawn first (where random), then each upper-triangle entry is
    an independent Bernoulli(P_ij).  Deterministic given (spec, n, seed).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _rng(seed)
    labels = planted_labels(spec, n, rng)
    block = _block_form(spec, labels)  # validates probabilities vs n
    if block is None:  # a dense P is stored as B with one block per node
        gi, gj = _sample_dense(expected_matrix(spec, labels).B, rng)
    else:
        gi, gj = _sample_block_model(n, *block, rng)
    return Graph(n, gi, gj, np.ones(len(gi))), labels
