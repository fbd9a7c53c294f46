"""Matrix-free symmetric eigen-computation.

The central object is a SymmetricOperator: a sum of terms, each of the form

    sign * D_s (S + P + gamma * 11^T) D_s

with S sparse, P an ExpectedMatrix (block form; a dense P is n blocks of one
node), D_s an optional diagonal scaling and sign = +1 or -1.  That covers
every matrix this package cares about: A, A - E[A], A + (tau/n) 11^T,
normalized Laplacians, and differences of Laplacians.
On its first matvec the operator folds its terms into one prescaled CSR, a
few low-rank corrections and one diagonal, so an eigensolve does not rebuild
the terms on each of its hundreds of matvecs.

Solver: ARPACK's implicitly restarted Lanczos for top-k eigenpairs, which
spectral_norm reads as the largest-magnitude eigenvalue, with a dense
cyclic-Jacobi oracle for testing (independent of LAPACK).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import _validate
from .models import DENSE_LIMIT

_DEFAULT_SEED = 0x5EEDED


class NonConvergenceError(RuntimeError):
    """Solver ran out of iterations; carries the best estimate found so far."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class EigenPair(NamedTuple):
    value: float
    vector: np.ndarray


@dataclass(frozen=True)
class _Term:
    sign: float = 1.0
    scale: object = None        # diagonal vector applied on both sides, or None
    sparse: object = None       # scipy sparse matrix, or None
    expected: object = None     # ExpectedMatrix, or None
    rank_one: float = 0.0       # gamma in gamma * 11^T

    def negated(self):
        return _Term(-self.sign, self.scale, self.sparse, self.expected,
                     self.rank_one)


def _scaled_csr(S, sign, s):
    """sign * D_s S D_s as a CSR sharing S's index arrays (S itself if D_s = I
    and sign = 1)."""
    if s is None:
        return S if sign == 1.0 else sp.csr_matrix(
            (sign * S.data, S.indices, S.indptr), shape=S.shape)
    # s_row * s_col first keeps the result exactly symmetric
    data = np.repeat(s, np.diff(S.indptr))
    data *= s[S.indices]
    data *= S.data
    if sign != 1.0:
        data *= sign
    return sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)


class SymmetricOperator:
    """Symmetric n x n linear operator represented as a sum of structured terms.

    `terms` describe the operator and are what to_dense reads.  The first
    matvec folds them into a cached form (see _fold), so they must not change
    afterwards; a concurrent first call folds twice to the same result.
    """

    def __init__(self, n, terms):
        self.n = int(n)
        self.terms = list(terms)
        self._folded = None
        # k -> (closed-form top pairs, operator for the rest or None): set
        # on L(A) only (regularize), and no derived operator inherits it
        self._top_pairs = None

    @classmethod
    def compose(cls, n, sparse=None, expected=None, rank_one=0.0, scale=None):
        """Single-term operator sign-positive; see module docstring for the form."""
        if scale is not None:
            scale = np.asarray(scale, dtype=np.float64)
            if len(scale) != n:
                raise ValueError("scale vector length must equal n")
        if sparse is not None:
            sparse = sp.csr_matrix(sparse)
            if sparse.shape != (n, n):
                raise ValueError("sparse part must be n x n")
        return cls(n, [_Term(1.0, scale, sparse, expected, rank_one)])

    @classmethod
    def from_graph(cls, graph):
        return cls.compose(graph.n, sparse=graph.adjacency())

    @classmethod
    def from_matrix(cls, M):
        M = np.asarray(M, dtype=np.float64)
        return cls.compose(M.shape[0], sparse=sp.csr_matrix(M))

    @classmethod
    def centered(cls, graph, expected):
        """A - E[A] with the structured expectation kept matrix-free."""
        return cls.from_graph(graph) - cls.compose(graph.n, expected=expected)

    def __sub__(self, other):
        if not isinstance(other, SymmetricOperator):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("operator size mismatch")
        return SymmetricOperator(self.n, self.terms + [t.negated() for t in other.terms])

    def _fold(self):
        """(csr, diag, lowrank): the terms summed into one CSR, one diagonal
        vector and low-rank parts (u, c, B, sign).

        A low-rank part adds sign * u * (B @ bincount(c, u * x))[c] for an
        expectation (see ExpectedMatrix.block_factors; B is not copied) or
        sign * u * (B * sum(u * x)) for a scalar B when c is None; u is None
        for the all-ones vector.
        """
        n = self.n
        csr = None
        diag = np.zeros(n)
        lowrank = []
        for t in self.terms:
            s = t.scale
            if t.sparse is not None:
                part = _scaled_csr(t.sparse, t.sign, s)
                csr = part if csr is None else csr + part
            if t.expected is not None:
                theta, c, B, Ediag = t.expected.block_factors()
                diag -= t.sign * Ediag * (1.0 if s is None else s * s)
                # unit theta keeps u = None on the unscaled A - E[A] operators
                u = s if np.all(theta == 1.0) else (
                    theta if s is None else s * theta)
                if B.shape == (1, 1):
                    lowrank.append((u, None, float(B[0, 0]), t.sign))
                else:
                    lowrank.append((u, c, B, t.sign))
            if t.rank_one != 0.0:
                lowrank.append((s, None, t.rank_one, t.sign))
        if not np.any(diag):
            diag = None
        self._folded = (csr, diag, lowrank)
        return self._folded

    def matvec(self, x):
        x = np.asarray(x, dtype=np.float64)
        csr, diag, lowrank = self._folded or self._fold()
        y = csr @ x if csr is not None else np.zeros(self.n)
        # one scratch vector per call; no BLAS on n-vectors, whose threads
        # would compete with ARPACK's (einsum runs numpy's own loop)
        tmp = np.empty(self.n)
        if diag is not None:
            y += np.multiply(x, diag, out=tmp)
        for u, c, B, sign in lowrank:
            if c is None:
                if u is None:
                    y += sign * B * x.sum()
                else:
                    y += np.multiply(u, sign * B * np.einsum("i,i->", u, x), out=tmp)
            else:
                ux = x if u is None else np.multiply(u, x, out=tmp)
                sums = np.bincount(c, weights=ux, minlength=len(B))
                # sign is +-1: scaling the K-vector, not B, is exact
                np.take(sign * (B @ sums), c, out=tmp)
                if u is not None:
                    tmp *= u
                y += tmp
        return y

    def to_dense(self):
        """Materialize the operator densely (independent code path from matvec)."""
        if self.n > DENSE_LIMIT:
            raise ValueError(f"refusing to densify n={self.n} > {DENSE_LIMIT}")
        M = np.zeros((self.n, self.n))
        for t in self.terms:
            part = np.zeros((self.n, self.n))
            if t.sparse is not None:
                part += t.sparse.toarray()
            if t.expected is not None:
                part += t.expected.to_dense()
            if t.rank_one != 0.0:
                part += t.rank_one * np.ones((self.n, self.n))
            if t.scale is not None:
                part = t.scale[:, None] * part * t.scale[None, :]
            M += t.sign * part
        return M


# ---------------------------------------------------------------------------
# ARPACK top-k
# ---------------------------------------------------------------------------

_WHICH = {"largest-algebraic": "LA", "smallest-algebraic": "SA",
          "largest-magnitude": "LM"}


def _ordered(vals, which):
    """Indices of vals in the order top_eigs reports them for `which`."""
    if which == "largest-algebraic":
        return np.argsort(-vals, kind="stable")
    if which == "smallest-algebraic":
        return np.argsort(vals, kind="stable")
    return np.argsort(-np.abs(vals), kind="stable")


def top_eigs(op, k, which="largest-algebraic", tol=1e-8, seed=None, max_basis=None):
    """Top-k eigenpairs of a SymmetricOperator.

    Runs ARPACK's implicitly restarted Lanczos (scipy's eigsh) on op.matvec.
    The seed draws the start vector, and the same generator supplies every
    vector ARPACK draws on restart, so a seed fixes the result bit for bit.
    On L(A) (regularize.laplacian) a largest-algebraic solve takes the
    eigenvalue-1 pairs in closed form and solves only for the rest.  For
    n - 1 or more pairs to solve, which ARPACK refuses, it densifies instead.

    Args:
        op: SymmetricOperator.
        k: number of eigenpairs, an integer in [1, n].
        which: "largest-algebraic", "smallest-algebraic", or "largest-magnitude".
        tol: finite positive residual tolerance, ||M v - theta v|| <=
            tol * max(1, |theta|), recomputed for every returned pair.  It
            bounds each returned pair's residual, not which member of a
            tight cluster is found: a loose largest-magnitude solve can
            return a genuine eigenpair just below the top one.
        seed: start-vector seed.  Another seed or tol can change the
            returned pairs (within a cluster, not only within tol).
        max_basis: Lanczos basis size (ARPACK's ncv), clipped to k < ncv <= n;
            None leaves ARPACK's default, min(n, max(2k + 1, 20)).

    Returns a list of EigenPair sorted per `which` (descending for largest-*,
    ascending for smallest-algebraic).

    Raises NonConvergenceError, carrying the leading estimate when there is
    one, if ARPACK stops short or a pair misses the residual tolerance.
    """
    if which not in _WHICH:
        raise ValueError(f"which must be one of {tuple(_WHICH)}")
    _validate.real("tol", tol)  # tol = inf would pass every residual check below
    n = op.n
    k = _validate.integer("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    rng = np.random.default_rng(_DEFAULT_SEED if seed is None else seed)
    v0 = rng.standard_normal(n)
    known, rest = [], op
    if which == "largest-algebraic" and op._top_pairs is not None:
        known, rest = op._top_pairs(k)
    left = k - len(known)
    if left >= n - 1:
        vals, V = np.linalg.eigh(rest.to_dense())
    elif left == 0 or not np.any(rest.matvec(v0)):
        # nothing left, or the zero operator, whose zero residual vector
        # ARPACK rejects
        vals, V = np.zeros(left), np.eye(n, left)
    else:
        # imported on first use (README, Start-up)
        import scipy.sparse.linalg as spla

        ncv = None if max_basis is None else min(n, max(left + 1, int(max_basis)))
        A = spla.LinearOperator((n, n), matvec=rest.matvec, dtype=np.float64)
        try:
            vals, V = spla.eigsh(A, left, which=_WHICH[which], v0=v0, ncv=ncv,
                                 tol=tol, rng=rng)
        except spla.ArpackNoConvergence as exc:
            done = np.asarray(exc.eigenvalues, dtype=np.float64)
            best = float(done[_ordered(done, which)[0]]) if len(done) else None
            raise NonConvergenceError(
                f"ARPACK did not converge: {len(done)} of {left} pairs "
                f"reached tolerance {tol}",
                best_estimate=known[0].value if known else best) from exc
    pairs = known + [EigenPair(float(vals[i]), V[:, i])
                     for i in _ordered(vals, which)[:left]]
    for value, vector in pairs:
        resid = float(np.linalg.norm(op.matvec(vector) - value * vector))
        if not resid <= tol * max(1.0, abs(value)):
            raise NonConvergenceError(
                f"eigenpair {value:.12g} has residual {resid:.3g} above "
                f"tolerance {tol}", best_estimate=pairs[0].value)
    return pairs


def spectral_norm(op, tol=1e-8, seed=None):
    """max |lambda| of a SymmetricOperator: the largest-magnitude eigenvalue
    from top_eigs, with its tolerance, seed and NonConvergenceError."""
    return abs(top_eigs(op, 1, "largest-magnitude", tol, seed)[0].value)


# ---------------------------------------------------------------------------
# Dense Jacobi oracle
# ---------------------------------------------------------------------------

def _round_robin(m):
    """(P, Q), each of shape (m - 1, m // 2), for an even m: row r holds the
    r-th round of disjoint pairs p < q, and the m - 1 rounds cover every pair
    of 0..m-1 once (round-robin ordering, Brent & Luk 1985)."""
    ring = np.arange(1, m)
    rounds = np.array([np.concatenate(([0], np.roll(ring, r)))
                       for r in range(m - 1)])
    a, b = rounds[:, : m // 2], rounds[:, : m // 2 - 1 : -1]
    return np.minimum(a, b), np.maximum(a, b)


def dense_eig_oracle(M):
    """Full eigendecomposition of a dense symmetric matrix by cyclic Jacobi.

    Gated to n <= 256; this is the test oracle, deliberately independent of
    both the Lanczos path and LAPACK.  Returns (eigenvalues ascending, V) with
    M = V diag(w) V^T to reconstruction error <= 1e-8 * ||M||.

    A sweep visits every pair once in round-robin order: each of its steps
    applies n/2 rotations on disjoint index pairs as array operations.  They
    commute, and each one's angle reads only its own 2x2 block, so a step
    equals the same rotations applied one by one.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = M.shape[0]
    if n > 256:
        raise ValueError(f"oracle gated to n <= 256, got {n}")
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if float(np.abs(M - M.T).max(initial=0.0)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10")
    A = 0.5 * (M + M.T)
    fro = float(np.linalg.norm(A))
    if fro == 0.0 or n == 1:
        return np.diag(A).copy(), np.eye(n)
    # an odd n gets a zero row and column, whose rotations are all skipped
    m = n + n % 2
    A = np.pad(A, (0, m - n))
    V = np.eye(m)
    rounds = list(zip(*_round_robin(m)))
    for _ in range(60):  # sweep cap
        # direct off-diagonal norm; the sqrt(||A||^2 - ||diag||^2) shortcut
        # cancels catastrophically near convergence
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= 1e-14 * fro:
            break
        for p, q in rounds:
            apq = A[p, q]
            diff = A[q, q] - A[p, p]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                phi = diff / (2.0 * apq)
                t = np.sign(phi) / (np.abs(phi) + np.hypot(1.0, phi))
            t = np.where(diff == 0.0, 1.0, t)
            t = np.where(np.abs(apq) <= 1e-300, 0.0, t)  # skip: no rotation
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            # indexing by arrays copies, so colp .. vq keep the old values
            colp, colq = A[:, p], A[:, q]
            A[:, p] = c * colp - s * colq
            A[:, q] = s * colp + c * colq
            rowp, rowq = A[p, :], A[q, :]
            A[p, :] = c[:, None] * rowp - s[:, None] * rowq
            A[q, :] = s[:, None] * rowp + c[:, None] * rowq
            A[p, q] = 0.0
            A[q, p] = 0.0
            vp, vq = V[:, p], V[:, q]
            V[:, p] = c * vp - s * vq
            V[:, q] = s * vp + c * vq
    w = np.diag(A)[:n].copy()
    order = np.argsort(w)
    return w[order], V[:n, :n][:, order]
