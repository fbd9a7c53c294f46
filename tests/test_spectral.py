import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgraph import experiments
from specgraph.experiments import eigenvector_study
from specgraph.models import (
    DCSBM,
    ER,
    IERM,
    SBM,
    ExpectedMatrix,
    PlantedPartition,
    expected_matrix,
    planted_labels,
    sample,
)
from specgraph.regularize import (
    expected_regularized_laplacian,
    laplacian,
    regularized_laplacian,
    tau_regularize,
)
from specgraph.spectral import (
    EigenPair,
    NonConvergenceError,
    SymmetricOperator,
    dense_eig_oracle,
    spectral_norm,
    top_eigs,
)


def random_operator(seed, n=16):
    """A messy multi-term operator plus its independent dense image."""
    rng = np.random.default_rng(seed)
    g, _ = sample(ER(0.4), n, seed)
    labels = rng.integers(1, 3, size=n)
    B = rng.uniform(0, 1, size=(2, 2))
    B = 0.5 * (B + B.T)
    E = ExpectedMatrix(labels, B)
    scale = rng.uniform(0.5, 1.5, size=n)
    op = SymmetricOperator.compose(
        n,
        sparse=g.adjacency(),
        rank_one=rng.uniform(-0.5, 0.5),
        scale=scale,
    )
    return op - SymmetricOperator.compose(n, expected=E, scale=scale)


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_matvec_matches_dense(seed):
    op = random_operator(seed)
    M = op.to_dense()
    assert np.allclose(M, M.T, atol=1e-12)
    rng = np.random.default_rng(seed + 1)
    for _ in range(3):
        x = rng.standard_normal(op.n)
        y = op.matvec(x)
        ref = M @ x
        assert np.linalg.norm(y - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def test_operator_difference_and_shift():
    a = random_operator(3)
    b = random_operator(4)
    diff = a - b
    assert np.allclose(diff.to_dense(), a.to_dense() - b.to_dense(), atol=1e-12)


def test_operator_validation():
    g, _ = sample(ER(0.5), 6, 0)
    with pytest.raises(ValueError):
        SymmetricOperator.compose(6, scale=np.ones(5))
    with pytest.raises(ValueError):
        SymmetricOperator.compose(4, sparse=g.adjacency())  # 6x6 into n=4
    with pytest.raises(ValueError):
        random_operator(0, n=8) - random_operator(0, n=10)
    with pytest.raises(ValueError):
        SymmetricOperator.compose(5000).to_dense()


def test_centered_operator_is_a_minus_ea():
    g, labels = sample(PlantedPartition(4.0, 1.0), 30, 5)
    E = expected_matrix(PlantedPartition(4.0, 1.0), labels)
    op = SymmetricOperator.centered(g, E)
    ref = g.adjacency().toarray() - E.to_dense()
    assert np.allclose(op.to_dense(), ref, atol=1e-12)


# ---------------------------------------------------------------------------
# the folded matvec against dense oracles built without SymmetricOperator
# ---------------------------------------------------------------------------

FOLD_N = 60


def _ierm(n, seed):
    P = np.random.default_rng(seed).uniform(0, 0.3, size=(n, n))
    P = 0.5 * (P + P.T)
    np.fill_diagonal(P, 0.0)
    return IERM(tuple(map(tuple, P)))


FOLD_MODELS = {
    "er": ER(0.1),
    "pp": PlantedPartition(8.0, 2.0),
    "sbm3": SBM((0.2, 0.3, 0.5),
                ((0.3, 0.05, 0.1), (0.05, 0.2, 0.02), (0.1, 0.02, 0.25))),
    "dcsbm": DCSBM((0.4, 0.6), ((0.3, 0.05), (0.05, 0.2)),
                   tuple(np.linspace(0.5, 1.5, FOLD_N))),
    "ierm": _ierm(FOLD_N, 9),
}


def _dense_laplacian(M, tau):
    """diag(s) (M + tau/n 11^T) diag(s) with s = (row sums of M + tau)^{-1/2}."""
    n = len(M)
    s = np.diag(1.0 / np.sqrt(M.sum(axis=1) + tau))
    return s @ (M + tau / n) @ s


def _assert_matvec_matches(op, M, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(op.n)
        ref = M @ x
        assert np.linalg.norm(op.matvec(x) - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


@pytest.mark.parametrize("name", sorted(FOLD_MODELS))
def test_folded_laplacian_deviation_matches_dense_oracle(name):
    spec = FOLD_MODELS[name]
    g, labels = sample(spec, FOLD_N, 3)
    E = expected_matrix(spec, labels)
    tau = 0.25 * float(g.degrees().mean())
    op = regularized_laplacian(g, tau) - expected_regularized_laplacian(E, tau)
    M = (_dense_laplacian(g.adjacency().toarray(), tau)
         - _dense_laplacian(E.to_dense(), tau))
    _assert_matvec_matches(op, M)


def test_folded_difference_of_two_sparse_laplacians():
    g1, _ = sample(ER(0.08), FOLD_N, 1)
    g2, _ = sample(PlantedPartition(6.0, 1.0), FOLD_N, 2)

    def dense_plain(g):
        A = g.adjacency().toarray()
        deg = A.sum(axis=1)
        s = np.diag(np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0))
        return s @ A @ s

    _assert_matvec_matches(laplacian(g1) - laplacian(g2),
                           dense_plain(g1) - dense_plain(g2))


@pytest.mark.parametrize("tau", [0.0, 1.5])
def test_folded_tau_regularize(tau):
    g, _ = sample(ER(0.1), FOLD_N, 4)
    M = g.adjacency().toarray() + tau / FOLD_N
    _assert_matvec_matches(tau_regularize(g, tau), M)


def test_folded_centered_dcsbm():
    spec = FOLD_MODELS["dcsbm"]
    g, labels = sample(spec, FOLD_N, 5)
    E = expected_matrix(spec, labels)
    _assert_matvec_matches(SymmetricOperator.centered(g, E),
                           g.adjacency().toarray() - E.to_dense())


@pytest.mark.parametrize("name", ["er", "dcsbm", "ierm"])
def test_matvec_repeatable_and_leaves_input(name):
    spec = FOLD_MODELS[name]
    g, labels = sample(spec, FOLD_N, 6)
    E = expected_matrix(spec, labels)
    op = regularized_laplacian(g, 1.0) - expected_regularized_laplacian(E, 1.0)
    x = np.random.default_rng(7).standard_normal(FOLD_N)
    before = x.copy()
    first = op.matvec(x)
    second = op.matvec(x)
    assert first.tobytes() == second.tobytes()
    assert x.tobytes() == before.tobytes()


def test_fold_shares_adjacency_indices():
    g, _ = sample(ER(0.1), FOLD_N, 8)
    op = regularized_laplacian(g, 1.0)
    op.matvec(np.ones(FOLD_N))
    csr = op._folded[0]
    A = g.adjacency()
    assert np.shares_memory(csr.indices, A.indices)
    assert np.shares_memory(csr.indptr, A.indptr)
    assert not np.shares_memory(csr.data, A.data)


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def test_spectral_norm_zero_operator():
    op = SymmetricOperator.compose(12)
    assert spectral_norm(op) == 0.0


def test_spectral_norm_rank_one():
    op = SymmetricOperator.compose(10, rank_one=0.5)
    assert spectral_norm(op, tol=1e-10) == pytest.approx(5.0, rel=1e-9)


def test_spectral_norm_vs_oracle_random_symmetric():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((32, 32))
    M = 0.5 * (M + M.T)
    w, _ = dense_eig_oracle(M)
    op = SymmetricOperator.from_matrix(M)
    assert spectral_norm(op, tol=1e-8) == pytest.approx(np.abs(w).max(), rel=1e-6)


def test_spectral_norm_dominates_max_column_norm():
    g, _ = sample(ER(0.2), 80, 9)
    A = g.adjacency().toarray()
    col = np.sqrt((A ** 2).sum(axis=0)).max()
    nrm = spectral_norm(SymmetricOperator.from_graph(g), tol=1e-8)
    assert nrm >= col - 1e-6


def test_spectral_norm_tol_validation():
    # tol = inf passed every residual check; nan raised NonConvergenceError
    op = SymmetricOperator.from_matrix(np.diag(np.arange(1.0, 31.0)))
    for tol in (0.0, -1e-8, math.inf, math.nan):
        for solve in (spectral_norm, lambda op, tol: top_eigs(op, 1, tol=tol)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                solve(op, tol=tol)


# ---------------------------------------------------------------------------
# top_eigs (ARPACK)
# ---------------------------------------------------------------------------

def test_top_eigs_diagonal():
    op = SymmetricOperator.from_matrix(np.diag([3.0, 2.0, 1.0]))
    pairs = top_eigs(op, 2, which="largest-algebraic", tol=1e-12)
    assert [p.value for p in pairs] == pytest.approx([3.0, 2.0], abs=1e-10)
    small = top_eigs(op, 2, which="smallest-algebraic", tol=1e-12)
    assert [p.value for p in small] == pytest.approx([1.0, 2.0], abs=1e-10)


def test_top_eigs_largest_magnitude_negative_dominant():
    op = SymmetricOperator.from_matrix(np.diag([-10.0, 9.0, 1.0, -0.5]))
    pairs = top_eigs(op, 2, which="largest-magnitude", tol=1e-12)
    assert pairs[0].value == pytest.approx(-10.0, abs=1e-9)
    assert pairs[1].value == pytest.approx(9.0, abs=1e-9)


def test_top_eigs_pp_expectation_closed_form():
    n, a, b = 50, 5.0, 0.1
    spec = PlantedPartition(a, b)
    labels = planted_labels(spec, n)
    E = expected_matrix(spec, labels)
    op = SymmetricOperator.compose(n, expected=E)
    pairs = top_eigs(op, 2, which="largest-algebraic", tol=1e-12)
    lam1 = (a + b) / 2 - a / n
    lam2 = (a - b) / 2 - a / n
    assert pairs[0].value == pytest.approx(lam1, abs=1e-8)
    assert pairs[1].value == pytest.approx(lam2, abs=1e-8)
    # second eigenvector separates the planted halves exactly
    v2 = pairs[1].vector
    signs = np.sign(v2)
    assert len(np.unique(signs[:25])) == 1
    assert len(np.unique(signs[25:])) == 1
    assert signs[0] != signs[-1]


def test_top_eigs_matches_oracle_on_sparse_graph():
    g, _ = sample(ER(0.3), 24, 17)
    op = SymmetricOperator.from_graph(g)
    w, V = dense_eig_oracle(op.to_dense())
    pairs = top_eigs(op, 3, which="largest-algebraic", tol=1e-10)
    for rank, pair in enumerate(pairs):
        assert pair.value == pytest.approx(w[-1 - rank], abs=1e-8)
    small = top_eigs(op, 3, which="smallest-algebraic", tol=1e-10)
    for rank, pair in enumerate(small):
        assert pair.value == pytest.approx(w[rank], abs=1e-8)


def test_top_eigs_residual_and_orthonormality():
    g, _ = sample(PlantedPartition(6.0, 1.0), 120, 2)
    op = SymmetricOperator.from_graph(g)
    tol = 1e-9
    pairs = top_eigs(op, 4, which="largest-algebraic", tol=tol)
    V = np.column_stack([p.vector for p in pairs])
    assert np.allclose(V.T @ V, np.eye(4), atol=1e-8)
    for p in pairs:
        resid = np.linalg.norm(op.matvec(p.vector) - p.value * p.vector)
        assert resid <= tol * max(1.0, abs(p.value))


def test_top_eigs_seed_invariant_values():
    g, _ = sample(ER(0.15), 90, 23)
    op = SymmetricOperator.from_graph(g)
    a = top_eigs(op, 3, tol=1e-10, seed=1)
    b = top_eigs(op, 3, tol=1e-10, seed=999)
    for pa, pb in zip(a, b):
        assert pa.value == pytest.approx(pb.value, abs=1e-8)


def test_top_eigs_validation_and_nonconvergence():
    op = SymmetricOperator.from_matrix(np.eye(8))
    with pytest.raises(ValueError):
        top_eigs(op, 0)
    with pytest.raises(ValueError):
        top_eigs(op, 9)
    with pytest.raises(ValueError):
        top_eigs(op, 1, which="wat")
    # a non-integral k never reaches ARPACK, which fails on it without a message
    for k in (2.0, True, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            top_eigs(op, k)
    with pytest.raises(ValueError, match=r"k must lie in \[1, 8\], got 9"):
        top_eigs(op, np.int64(9))
    rng = np.random.default_rng(1)
    M = rng.standard_normal((60, 60))
    M = 0.5 * (M + M.T)
    big = SymmetricOperator.from_matrix(M)
    with pytest.raises(NonConvergenceError) as err:
        top_eigs(big, 5, tol=1e-14, max_basis=6)
    assert err.value.best_estimate is not None
    assert err.value.best_estimate > 0


def test_top_eigs_rechecks_the_residual_of_what_arpack_returns(monkeypatch):
    import scipy.sparse.linalg as spla

    g, _ = sample(PlantedPartition(6.0, 1.0), 60, 1)
    op = SymmetricOperator.from_graph(g)
    exact = top_eigs(op, 2, tol=1e-8, seed=0)
    real = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, V = real(*args, **kwargs)
        V = V.copy()
        V[0] += 1e-3  # every returned vector, off by 1e-3 in one entry
        return vals, V

    monkeypatch.setattr(spla, "eigsh", perturbed)
    with pytest.raises(NonConvergenceError, match="residual") as err:
        top_eigs(op, 2, tol=1e-8, seed=0)
    assert err.value.best_estimate == exact[0].value


@pytest.mark.parametrize("draw", [7, 13, 54])
def test_top_eigs_same_seed_byte_identical_through_restarts(draw):
    # sparse planted-partition draws with several components: with the full
    # basis ARPACK hits invariant subspaces and restarts from fresh random
    # vectors, and on these draws its output depends on those vectors
    g, _ = sample(PlantedPartition(5.0, 0.1), 50, [draw, 0])
    op = laplacian(g)

    def vectors():
        pairs = top_eigs(op, 3, tol=1e-10, seed=[draw, 1], max_basis=g.n)
        return b"".join(p.vector.tobytes() for p in pairs)

    assert vectors() == vectors()


def test_eigenvector_study_plain_values_match_eigvalsh(monkeypatch):
    # eigenvalue 1 of the plain Laplacian is repeated in most of these draws,
    # once per component with an edge; the study must report it with its
    # multiplicity, not skip to a later one, and its vectors are
    # D^{1/2} 1_C / ||D^{1/2} 1_C||, in order of each component's smallest node
    from scipy.sparse.csgraph import connected_components

    real = experiments.top_eigs

    def default_basis(op, k, which="largest-algebraic", tol=1e-8, seed=None,
                      max_basis=None):
        assert max_basis is None, "a study solve set max_basis"
        return real(op, k, which, tol, seed)

    monkeypatch.setattr(experiments, "top_eigs", default_basis)
    for seed in range(200):
        study = eigenvector_study(seed=seed)
        g, _ = sample(PlantedPartition(5.0, 0.1), 50, [seed, 0])
        L = laplacian(g).to_dense()
        V = study.table[:, :3]
        assert np.allclose(V.T @ V, np.eye(3), atol=1e-8), seed
        w = np.linalg.eigvalsh(L)
        ref = w[::-1][:3]
        assert np.allclose(np.diag(V.T @ L @ V), ref, atol=1e-8), seed
        _, comp = connected_components(g.adjacency(), directed=False)
        with_edge = np.unique(comp[g.degrees() > 0])
        m = len(with_edge)
        assert m == np.count_nonzero(np.abs(w - 1.0) <= 1e-9), seed
        smallest = sorted(int(np.flatnonzero(comp == c)[0]) for c in with_edge)
        starts = []
        for v in V.T[:min(3, m)]:
            assert np.linalg.norm(L @ v - v) <= 1e-10, seed
            assert v.min() >= 0, seed
            support = np.flatnonzero(v)
            assert len(np.unique(comp[support])) == 1, seed
            starts.append(int(support[0]))
        assert starts == smallest[:3], seed


@pytest.mark.parametrize("which", ["largest-algebraic", "smallest-algebraic",
                                   "largest-magnitude"])
def test_top_eigs_zero_operator(which):
    pairs = top_eigs(SymmetricOperator.compose(12), 3, which=which)
    assert [p.value for p in pairs] == [0.0, 0.0, 0.0]
    V = np.column_stack([p.vector for p in pairs])
    assert np.allclose(V.T @ V, np.eye(3))


@pytest.mark.parametrize("k", [15, 16])
def test_top_eigs_dense_path_matches_oracle(k):
    op = random_operator(5, n=16)
    w, _ = dense_eig_oracle(op.to_dense())
    top = top_eigs(op, k, which="largest-algebraic", tol=1e-10)
    assert [p.value for p in top] == pytest.approx(w[::-1][:k], abs=1e-9)
    bottom = top_eigs(op, k, which="smallest-algebraic", tol=1e-10)
    assert [p.value for p in bottom] == pytest.approx(w[:k], abs=1e-9)
    mag = top_eigs(op, k, which="largest-magnitude", tol=1e-10)
    ref = w[np.argsort(-np.abs(w), kind="stable")][:k]
    assert [abs(p.value) for p in mag] == pytest.approx(np.abs(ref), abs=1e-9)
    for p in top:
        resid = np.linalg.norm(op.matvec(p.vector) - p.value * p.vector)
        assert resid <= 1e-10 * max(1.0, abs(p.value))


def test_eigenpair_is_named_tuple():
    p = EigenPair(2.0, np.array([1.0, 0.0]))
    val, vec = p
    assert val == 2.0 and vec[0] == 1.0


# ---------------------------------------------------------------------------
# dense Jacobi oracle
# ---------------------------------------------------------------------------

def test_oracle_diagonal_exact():
    w, V = dense_eig_oracle(np.diag([4.0, -1.0, 2.5]))
    assert np.allclose(w, [-1.0, 2.5, 4.0])
    assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])


def test_oracle_two_by_two_exchange():
    w, V = dense_eig_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    r = 1 / np.sqrt(2)
    assert np.allclose(np.abs(V), np.full((2, 2), r), atol=1e-12)


def test_oracle_reconstructs_wigner():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((64, 64))
    M = 0.5 * (M + M.T)
    w, V = dense_eig_oracle(M)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(V.T @ V, np.eye(64), atol=1e-10)
    err = np.linalg.norm(M - V @ np.diag(w) @ V.T) / np.linalg.norm(M)
    assert err <= 1e-8
    # cross-check against a completely independent decomposition
    assert np.allclose(w, np.linalg.eigvalsh(M), atol=1e-8)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        dense_eig_oracle(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        dense_eig_oracle(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        dense_eig_oracle(np.zeros((300, 300)))
    w, V = dense_eig_oracle(np.zeros((5, 5)))
    assert np.all(w == 0) and np.allclose(V, np.eye(5))
