"""Random-graph models and their expectation matrices.

Every model here draws each upper-triangle entry of the adjacency matrix as
an independent Bernoulli with a model-specific success probability P_ij, so
E[A] = P with a zero diagonal.  Sampling is vectorized: constant-probability
blocks are drawn with geometric skip sampling, degree-corrected blocks by
thinning, and dense-P models row by row.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import _validate

# largest n with a dense n x n P (LSM, IERM): 4096^2 doubles are 128 MB
DENSE_LIMIT = 4096
# largest n whose edge keys i*n + j, all below n*n, fit in an int64
_MAX_N = math.isqrt(np.iinfo(np.int64).max)


def _open_text(path):
    """A text file opened for writing: UTF-8, "\\n" line ends on every platform."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _format_rows(ints, w=None):
    """The lines "%d\\t%d...\\t%.17g\\n" of integer arrays and a float64 array w.

    Byte for byte what a per-row % format gives, built in numpy: each field
    sits right-aligned in a fixed-width slot of one uint8 row matrix, padded
    with zero bytes, and one mask drops the padding.
    """
    fields = [_digits(x) for x in ints]
    if w is not None:
        fields.append(_float_texts(w))
    buf = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)),
                   dtype=np.uint8)
    at = 0
    for f in fields:
        buf[:, at:at + f.shape[1]] = f
        at += f.shape[1] + 1
        buf[:, at - 1] = ord("\t")
    buf[:, -1] = ord("\n")
    return str(buf[buf != 0], "ascii")


def _digits(x):
    """Zero-padded, right-aligned ASCII rows of "%d" of each integer in x.

    Digits come from repeated division of the uint64 magnitude, so the int64
    and uint64 extremes are exact.
    """
    width = max(len("%d" % x.min()), len("%d" % x.max())) if len(x) else 1
    neg = x < 0
    mag = x.astype(np.uint64)  # a negative wraps to 2^64 + x ...
    np.negative(mag, out=mag, where=neg)  # ... and back to |x|
    out = np.empty((len(x), width), dtype=np.uint8)
    # a row's sign goes just left of its digits, zero bytes further left
    pad = np.where(neg, ord("-"), 0).astype(np.uint8)
    for col in range(width - 1, -1, -1):
        live = mag > 0
        rest = mag // 10  # np.divmod is several times slower
        digit = mag - 10 * rest + ord("0")
        if col == width - 1:  # the units digit is there even for 0
            out[:, col] = digit
        else:
            out[:, col] = np.where(live, digit, pad)
            pad *= live
        mag = rest
    return out


def _float_texts(w):
    """Zero-padded, right-aligned ASCII rows of "%.17g" of each float in w.

    Each distinct bit pattern is formatted once, so -0.0 keeps its sign.
    """
    bits, inv = np.unique(w.view(np.uint64), return_inverse=True)
    text = ["%.17g" % v for v in bits.view(np.float64).tolist()]
    width = max(map(len, text), default=1)
    table = np.frombuffer("".join(s.rjust(width, "\0") for s in text).encode("ascii"),
                          dtype=np.uint8).reshape(-1, width)
    return table[inv]


class Graph:
    """Simple undirected weighted graph stored as its strict upper triangle.

    Args:
        n: number of nodes.
        i, j: integer edge endpoint arrays with i < j entrywise.
        w: edge weights in (0, 1]; freshly sampled graphs have weight 1.0.

    This class alone knows the edge layout.  Edges are kept sorted by the key
    i*n + j, which makes equality, serialization and regularization
    deterministic, and a duplicate pair is rejected; n is at most _MAX_N, so
    the key fits in an int64.  incidence() is the one symmetric layout;
    adjacency() and degree capping both read it.
    """

    def __init__(self, n, i, j, w):
        try:
            i, j = (_validate.integers("edge endpoints", a) for a in (i, j))
        except OverflowError:  # an endpoint beyond int64
            raise ValueError("edge endpoint out of range") from None
        w = np.asarray(w, dtype=np.float64)
        n = _validate.integer("n", n, 0)
        if n > _MAX_N:
            raise ValueError(f"n must be at most {_MAX_N}, so that the edge key "
                             f"i*n + j fits in an int64, got {n!r}")
        if not (len(i) == len(j) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(i) and (i.min() < 0 or j.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(i >= j):
            raise ValueError("edges must satisfy i < j (no self-loops)")
        self.n = n
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
        # COO -> CSR is a stable counting sort by row and the edges arrive
        # sorted by i*n + j, so row v lists its columns i < v, then j > v,
        # each ascending: the CSR is canonical and scipy sorts nothing.
        ids = np.arange(self.m)
        A = sp.csr_matrix((np.concatenate([ids, ids]),
                           (np.concatenate([self.j, self.i]),
                            np.concatenate([self.i, self.j]))),
                          shape=(self.n, self.n))
        return A.indptr, A.indices, A.data

    def _reweighted(self, w, layout):
        """This graph with weights w, sharing its checked edges and the
        incidence() layout already built from them: nothing is sorted, scanned
        or laid out again, and the adjacency is w's gather through the layout.
        """
        out = object.__new__(Graph)
        out.n, out.i, out.j, out.w = self.n, self.i, self.j, w
        indptr, neighbors, ids = layout
        out._csr = sp.csr_matrix((w[ids], neighbors, indptr), shape=(self.n, self.n))
        return out

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
        with _open_text(path) as fh:
            fh.write(self.format_tsv())

    def format_tsv(self):
        """The `# n=<n>` header, then one "%d\\t%d\\t%.17g" line per edge."""
        return f"# n={self.n}\n" + _format_rows([self.i, self.j], self.w)

    @classmethod
    def from_tsv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse_tsv(fh.read())

    @classmethod
    def parse_tsv(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# n="):
            raise ValueError("missing '# n=<n>' header line")
        try:
            n = int(lines[0][4:])
        except ValueError:
            raise ValueError(f"malformed header line: {lines[0]!r}") from None
        ww = None
        # On ASCII text without \x1f, numpy's C reader accepts a subset of
        # what int() and float() accept, with equal values.  Elsewhere it
        # does not: it strips \x1f as a space, and reads some non-ASCII
        # characters as digits.  Whatever it does not take goes through the
        # line loop, which names the first bad line.
        if len(lines) > 1 and text.isascii() and "\x1f" not in text:
            try:
                e = np.loadtxt(lines[1:], delimiter="\t", comments=None, ndmin=1,
                               dtype=[("i", np.int64), ("j", np.int64), ("w", np.float64)])
                ii, jj, ww = e["i"], e["j"], e["w"]
            except ValueError:
                pass
        if ww is None:
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
    """One "%d" label per line, in node-index order."""
    a = np.asarray(labels)
    if a.ndim == 1 and a.dtype.kind in "iu":
        text = _format_rows([a])
    else:  # floats, bools, objects: whatever "%d" makes of them, or its error
        text = "".join(map("%d\n".__mod__, a.tolist()))
    with _open_text(path) as fh:
        fh.write(text)


def read_labels(path):
    """The integer labels of a label file; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        return np.fromiter(map(int, filter(str.strip, lines)), dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    for number, ln in enumerate(lines, 1):  # find the first line that is no int64
        try:
            np.int64(int(ln))
        except (ValueError, OverflowError):
            if ln.strip():
                raise ValueError(f"malformed label line {number}: {ln!r}") from None


# ---------------------------------------------------------------------------
# Model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ER:
    """Erdos-Renyi G(n, p): every pair connected independently with probability p."""

    p: float

    def __post_init__(self):
        _validate.real("p", self.p, zero_ok=True, at_most=1.0)


@dataclass(frozen=True)
class PlantedPartition:
    """G(n, a/n, b/n): balanced two-community model.

    Within-community pairs connect with probability a/n, across with b/n.
    The first ceil(n/2) nodes form community 1.
    """

    a: float
    b: float

    def __post_init__(self):
        _validate.real("a", self.a, zero_ok=True)
        _validate.real("b", self.b, zero_ok=True)


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
        if (theta.ndim != 1 or len(theta) == 0
                or not np.all((theta > 0) & np.isfinite(theta))):
            raise ValueError("theta must be a finite positive vector")
        worst = _worst_pair(base.pi, base.B, theta)
        if worst > 1.0 + 1e-12:
            raise ValueError(
                f"theta_i*theta_j*B must be <= 1 for all pairs (worst case {worst:.6g})")
        object.__setattr__(self, "theta", tuple(float(x) for x in theta))


def _worst_pair(pi, B, theta):
    """The largest theta_i theta_j B[c_i, c_j] that labels drawn i.i.d. from pi
    can reach: any labelling is possible, so the two largest theta against the
    largest B entry between labels of positive pi (a checked pi has one)."""
    sup = np.asarray(pi) > 0
    top = np.sort(theta)[::-1]
    return top[0] * top[min(1, len(top) - 1)] * np.asarray(B)[np.ix_(sup, sup)].max()


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
    except (TypeError, ValueError) as exc:  # missing, unknown or bad parameter
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
        self.labels = _validate.integers("labels", labels)
        self.n = len(self.labels)
        self.B = np.asarray(B, dtype=np.float64)
        if theta is not None:  # else the unit theta is built on first read
            self.theta = np.asarray(theta, dtype=np.float64)
            if len(self.theta) != self.n:
                raise ValueError("theta length must equal the number of labels")
        K = self.B.shape[0]
        if self.labels.min() < 1 or self.labels.max() > K:
            raise ValueError("label out of range for B")

    # Derived on first read and fixed per matrix, so a sampler that reads
    # only labels and B never builds them.

    @functools.cached_property
    def theta(self):
        """Unit theta, where none was given."""
        return np.ones(self.n)

    @functools.cached_property
    def _c(self):
        """0-based labels."""
        return self.labels - 1

    @functools.cached_property
    def _diag(self):
        """The diagonal theta^2 B_cc that P leaves out (see block_factors)."""
        return self.theta ** 2 * np.diag(self.B)[self._c]

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
        return float(max(0.0, self._block_max.max()))

    @functools.cached_property
    def _block_max(self):
        """K x K: the largest P_ij with c_i = k, c_j = l, i != j (0 if none)."""
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
        return M

    def to_dense(self):
        if self.n > DENSE_LIMIT:
            raise ValueError(f"refusing to densify n={self.n} > {DENSE_LIMIT}")
        c = self._c
        P = np.outer(self.theta, self.theta)
        P *= self.B[np.ix_(c, c)]
        np.fill_diagonal(P, 0.0)
        return P


def expected_matrix(spec, labels):
    """E[A] for the given spec conditioned on the given labels.

    LSM and IERM give a dense P, stored as n blocks of one node and refused
    above DENSE_LIMIT nodes.
    """
    labels = _validate.integers("labels", labels)
    n = len(labels)
    if isinstance(spec, ER):  # one block, whatever the labels
        return ExpectedMatrix(np.ones(n, dtype=np.int64), [[spec.p]])
    if isinstance(spec, PlantedPartition):
        a, b = spec.a / n, spec.b / n
        _validate.real("max(a, b) / n", max(a, b), zero_ok=True, at_most=1.0)
        return ExpectedMatrix(labels, [[a, b], [b, a]])
    if isinstance(spec, (SBM, DCSBM)):
        return ExpectedMatrix(labels, spec.B, getattr(spec, "theta", None))
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
    _validate.integer("n", n, 1)
    if labels is None and not isinstance(spec, (SBM, DCSBM)):
        labels = planted_labels(spec, n)  # fixed, not drawn
    if labels is not None:
        if len(labels) != n:
            raise ValueError(f"labels length must equal n = {n}, got {len(labels)}")
        E = expected_matrix(spec, labels)
        return float(E.row_sums().max()), float(E.n * E.max_entry())
    pi = np.asarray(spec.pi)
    B = np.asarray(spec.B)
    theta = np.ones(n) if isinstance(spec, SBM) else np.asarray(spec.theta)
    if len(theta) != n:
        raise ValueError("theta length must equal n")
    T = theta.sum()
    mean_block = B @ pi  # expected B_{k,c_j} over a random neighbor label
    rows = np.outer(theta, mean_block) * (T - theta)[:, None]
    return float(rows[:, pi > 0].max()), float(n * _worst_pair(pi, B, theta))


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


def _sample_block_model(E, thin, rng):
    """Edges of each block pair (k, l), drawn at B[k, l]; or, thinning for a
    theta that is not all ones, drawn at the pair's largest P_ij and each kept
    with probability P_ij over that cap."""
    K = len(E.B)
    groups = [np.flatnonzero(E.labels == k + 1) for k in range(K)]
    out_i, out_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for k in range(K):
        gk = groups[k]
        for l in range(k, K):
            gl = groups[l]
            cap = min(1.0, E._block_max[k, l]) if thin else E.B[k, l]
            if len(gk) == 0 or len(gl) == 0 or cap <= 0.0:
                continue
            if k == l:
                m = len(gk)
                r, c = _triangle_pairs(_skip_indices(m * (m - 1) // 2, cap, rng), m)
                gi, gj = gk[r], gk[c]
            else:
                flat = _skip_indices(len(gk) * len(gl), cap, rng)
                gi, gj = gk[flat // len(gl)], gl[flat % len(gl)]
            if thin:  # an empty draw takes no random numbers
                keep = rng.random(len(gi)) < E.entries(gi, gj) / cap
                gi, gj = gi[keep], gj[keep]
            if k != l:  # two blocks' nodes interleave; within a block r < c already
                gi, gj = np.minimum(gi, gj), np.maximum(gi, gj)
            out_i.append(gi)
            out_j.append(gj)
    return np.concatenate(out_i), np.concatenate(out_j)


def _sample_dense(P, rng):
    """Row-major upper-triangle Bernoulli draws against a dense P."""
    n = len(P)
    out_i, out_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r in range(n - 1):
        row = P[r, r + 1:]
        hits = np.flatnonzero(rng.random(n - 1 - r) < row)
        if len(hits):
            out_i.append(np.full(len(hits), r, dtype=np.int64))
            out_j.append(hits + r + 1)
    return np.concatenate(out_i), np.concatenate(out_j)


def sample(spec, n, seed):
    """Draw (Graph, labels) from the model.

    Labels are drawn first (where random), then each upper-triangle entry is
    an independent Bernoulli(P_ij).  Deterministic given (spec, n, seed).
    """
    n = _validate.integer("n", n, 1)
    rng = _rng(seed)
    labels = planted_labels(spec, n, rng)
    E = expected_matrix(spec, labels)  # validates probabilities vs n
    if isinstance(spec, (LSM, IERM)):  # a dense P: B with one block per node
        gi, gj = _sample_dense(E.B, rng)
    else:  # theta of all ones would spend draws on thinning
        gi, gj = _sample_block_model(E, isinstance(spec, DCSBM), rng)
    return Graph(n, gi, gj, np.ones(len(gi))), labels
