import math
import tracemalloc
import warnings

import numpy as np
import pytest

from specgraph.models import ER, Graph, PlantedPartition, expected_matrix, sample
from specgraph.regularize import (
    choose_tau,
    degree_regularize,
    expected_regularized_laplacian,
    laplacian,
    regularized_laplacian,
    remove_high_degree,
    tau_regularize,
)
from specgraph.spectral import SymmetricOperator, dense_eig_oracle, spectral_norm, top_eigs


def star(leaves=9):
    return Graph(leaves + 1, np.zeros(leaves, dtype=np.int64),
                 np.arange(1, leaves + 1), np.ones(leaves))


def complete(n):
    ii, jj = np.triu_indices(n, 1)
    return Graph(n, ii, jj, np.ones(len(ii)))


# ---------------------------------------------------------------------------
# degree capping
# ---------------------------------------------------------------------------

def test_cap_noop_on_compliant_graph():
    g, _ = sample(PlantedPartition(4.0, 1.0), 40, 0)
    d_hat = float(g.degrees().max())  # cap = 2 * max degree, nothing violates
    out, report = degree_regularize(g, d_hat)
    assert out == g
    assert len(report.touched) == 0
    assert report.passes == 0
    assert not report.over_budget


def test_cap_star_hand_checked():
    g = star(9)
    out, report = degree_regularize(g, 2.0)  # cap = 4, center degree 9
    assert np.allclose(out.w, 4.0 / 9.0)
    deg = out.degrees()
    assert deg[0] == pytest.approx(4.0)
    assert np.allclose(deg[1:], 4.0 / 9.0)
    assert report.touched.tolist() == [0]
    assert report.factors[0] == pytest.approx(4.0 / 9.0)
    assert report.pre_max_degree == 9.0
    assert report.post_max_degree == pytest.approx(4.0)
    assert report.budget == math.ceil(10 * 10 / 2.0)
    assert report.passes == 1


def test_cap_idempotent():
    g, _ = sample(ER(2.0 / 300), 300, 4)
    once, _ = degree_regularize(g, 2.0)
    twice, rep = degree_regularize(once, 2.0)
    assert np.array_equal(once.w, twice.w)
    assert len(rep.touched) == 0


def test_cap_never_raises_degrees_and_respects_cap():
    g, _ = sample(ER(3.0 / 200), 200, 8)
    pre = g.degrees()
    out, report = degree_regularize(g, 3.0, cap_multiplier=2.0)
    post = out.degrees()
    assert np.all(post <= pre + 1e-9)
    assert post.max() <= 6.0 * (1 + 1e-9)
    assert report.post_max_degree <= 6.0 * (1 + 1e-9)


def test_cap_untouched_edges_keep_exact_weight():
    # hub 0 over the cap; the far edge (3,4) must stay exactly 1.0
    g = Graph(5, [0, 0, 0, 3], [1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0])
    out, report = degree_regularize(g, 1.0)  # cap = 2 < deg(0) = 3
    assert 0 in report.touched
    k = np.flatnonzero((out.i == 3) & (out.j == 4))[0]
    assert out.w[k] == 1.0


@pytest.mark.parametrize("spec, n, d_hat", [
    (PlantedPartition(14.0, 6.0), 4000, 10.0),  # a phase-sized draw
    (ER(2.0 / 1e4), 10_000, 2.0),
    (PlantedPartition(4.0, 1.0), 40, 1.0),
])
def test_cap_output_reuses_its_input_layout(monkeypatch, spec, n, d_hat):
    # the capped graph keeps the input's sorted edges and builds its CSR from
    # the one layout degree capping computed, bit for bit what a fresh Graph
    # of the same edges gives
    g, _ = sample(spec, n, 3)
    calls = []
    incidence = Graph.incidence
    monkeypatch.setattr(Graph, "incidence",
                        lambda self: calls.append(self) or incidence(self))
    out, report = degree_regularize(g, d_hat)
    A = out.adjacency()
    assert calls == [g] and len(report.touched) > 0
    assert out.i is g.i and out.j is g.j
    monkeypatch.undo()
    fresh = Graph(out.n, out.i, out.j, out.w)
    B = fresh.adjacency()
    assert out == fresh
    for field in ("indptr", "indices", "data"):
        a, b = getattr(A, field), getattr(B, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_cap_over_budget_flag():
    out, report = degree_regularize(complete(11), 20.0, cap_multiplier=0.01)
    assert report.over_budget == (len(report.touched) > report.budget)
    assert report.over_budget  # budget ceil(110/20) = 6 < 11 touched


def test_cap_validation():
    g = star(3)
    with pytest.raises(ValueError):
        degree_regularize(g, 0.0)
    with pytest.raises(ValueError):
        degree_regularize(g, 1.0, cap_multiplier=-2.0)
    # a NaN cap would compare false everywhere and cap nothing
    for d_hat, mult in [(math.nan, 2.0), (math.inf, 2.0), (1.0, math.nan),
                        (1.0, math.inf), (1.0, -math.inf)]:
        with pytest.raises(ValueError, match="must be finite and positive"):
            degree_regularize(g, d_hat, mult)
    # each factor is finite but the cap overflows; it used to cap nothing
    with pytest.raises(ValueError, match=r"^cap_multiplier \* d_hat must be "
                                         r"finite and positive, got inf"):
        degree_regularize(g, 3.0, 1e308)


def test_cap_report_json_round_trips():
    import json

    _, report = degree_regularize(star(9), 2.0)
    doc = json.loads(report.to_json())
    assert doc["touched"] == [0]
    assert doc["budget"] == 50
    assert doc["passes"] == 1


# ---------------------------------------------------------------------------
# vertex removal
# ---------------------------------------------------------------------------

def test_remove_star_threshold_five_empties():
    out = remove_high_degree(star(9), 5.0)
    assert out.m == 0
    assert out.n == 10  # vertex set preserved


def test_remove_strict_threshold():
    out = remove_high_degree(star(9), 9.0)  # degree 9 is NOT > 9
    assert out == star(9)


def test_remove_uses_original_degrees():
    # path 0-1-2-3: degrees [1,2,2,1]; threshold 1.5 removes vertices 1 and 2
    # simultaneously (no cascade off the updated graph)
    g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
    out = remove_high_degree(g, 1.5)
    assert out.m == 0


def test_remove_empty_and_validation():
    g = Graph(3, [], [], [])
    assert remove_high_degree(g, 1.0).m == 0
    with pytest.raises(ValueError):
        remove_high_degree(g, 0.0)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold must be finite"):
            remove_high_degree(star(9), threshold)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def test_laplacian_complete_graph_closed_form():
    L = laplacian(complete(4)).to_dense()
    ref = (np.ones((4, 4)) - np.eye(4)) / 3.0
    assert np.allclose(L, ref, atol=1e-14)


def test_laplacian_single_edge():
    g = Graph(2, [0], [1], [1.0])
    assert np.allclose(laplacian(g).to_dense(), [[0, 1], [1, 0]], atol=1e-15)


def test_laplacian_isolated_vertex_zero_row():
    g = Graph(3, [0], [1], [1.0])
    L = laplacian(g).to_dense()
    assert np.all(L[2] == 0) and np.all(L[:, 2] == 0)


def test_laplacian_norm_at_most_one():
    g, _ = sample(PlantedPartition(6.0, 1.0), 80, 1)
    assert spectral_norm(laplacian(g), tol=1e-8) <= 1 + 1e-7


def test_tau_regularize_dense_form():
    g = Graph(4, [0], [1], [1.0])
    A = g.adjacency().toarray()
    M = tau_regularize(g, 2.0).to_dense()
    assert np.allclose(M, A + 0.5 * np.ones((4, 4)), atol=1e-14)
    assert np.allclose(tau_regularize(g, 0.0).to_dense(), A, atol=1e-15)
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            tau_regularize(g, tau)


def test_tau_regularize_empty_graph_full_shift():
    g = Graph(7, [], [], [])
    op = tau_regularize(g, 7.0)  # A_tau = 11^T
    assert spectral_norm(op, tol=1e-10) == pytest.approx(7.0, rel=1e-8)


def test_regularized_laplacian_top_pair():
    g, _ = sample(PlantedPartition(5.0, 0.1), 50, 3)
    tau = 0.7
    op = regularized_laplacian(g, tau)
    v = np.sqrt(g.degrees() + tau)
    # (1, sqrt(d_i + tau)) is an exact eigenpair
    assert np.allclose(op.matvec(v), v, atol=1e-12)
    w, _ = dense_eig_oracle(op.to_dense())
    assert w[-1] == pytest.approx(1.0, abs=1e-10)
    assert w[0] >= -1.0 - 1e-8
    assert np.all(w <= 1.0 + 1e-8)


def test_regularized_laplacian_disconnected_gap():
    g = Graph(4, [0, 2], [1, 3], [1.0, 1.0])  # two disjoint edges
    w0, _ = dense_eig_oracle(regularized_laplacian(g, 0.0).to_dense())
    assert w0[-1] == pytest.approx(1.0, abs=1e-12)
    assert w0[-2] == pytest.approx(1.0, abs=1e-12)  # one 1 per component
    w1, _ = dense_eig_oracle(regularized_laplacian(g, 0.5).to_dense())
    assert w1[-1] == pytest.approx(1.0, abs=1e-12)
    assert w1[-2] < 1.0 - 1e-3  # the rank-one shift merges the components


def test_only_the_plain_laplacian_carries_its_unit_pairs():
    # top_eigs takes L(A)'s eigenvalue-1 pairs from the operator itself; an
    # operator derived from it, or built at tau > 0, must solve for its own
    g, labels = sample(PlantedPartition(5.0, 0.1), 50, [7, 0])
    L = laplacian(g)
    assert L._top_pairs is not None
    assert regularized_laplacian(g, 0)._top_pairs is not None
    E = expected_matrix(PlantedPartition(5.0, 0.1), labels)
    for op in (regularized_laplacian(g, 0.5), L - L, tau_regularize(g, 0.0),
               expected_regularized_laplacian(E, 0.0),
               SymmetricOperator.compose(g.n, sparse=g.adjacency())):
        assert op._top_pairs is None
    # three components with an edge fill k = 2 without a solve; k = 4 solves
    # for one pair on L(A) with the three moved to -2
    pairs, rest = L._top_pairs(2)
    assert [p.value for p in pairs] == [1.0, 1.0] and rest is None
    pairs, rest = L._top_pairs(4)
    assert len(pairs) == 3 and rest._top_pairs is None
    M = L.to_dense()
    for p in pairs:
        assert np.linalg.norm(M @ p.vector - p.vector) <= 1e-12
        assert rest.matvec(p.vector) == pytest.approx(-2.0 * p.vector, abs=1e-12)


def test_unit_pairs_build_no_more_than_k_vectors():
    # ER d = 2 at n = 1e5 has about 2650 components with an edge: as dense
    # vectors they would take 2.1 GB
    n = 100_000
    g, _ = sample(ER(2.0 / n), n, 0)
    op = laplacian(g)
    tracemalloc.start()
    try:
        pairs = top_eigs(op, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.value for p in pairs] == [1.0, 1.0]
    assert peak < 50e6, peak


def assert_same_operator(a, b, seed=0):
    assert a.to_dense().tobytes() == b.to_dense().tobytes()
    x = np.random.default_rng(seed).standard_normal(a.n)
    assert a.matvec(x).tobytes() == b.matvec(x).tobytes()


def test_regularized_laplacian_tau_zero_matches_plain():
    g = complete(5)
    assert_same_operator(regularized_laplacian(g, 0.0), laplacian(g))
    # the fig-eigvec regime, where most draws have isolated vertices
    isolated = 0
    for seed in range(5):
        g, _ = sample(PlantedPartition(5.0, 0.1), 50, [seed, 0])
        isolated += int(np.sum(g.degrees() == 0))
        assert_same_operator(regularized_laplacian(g, 0.0), laplacian(g), seed)
    assert isolated > 0


def test_regularized_laplacian_validation():
    g = Graph(3, [0], [1], [1.0])  # vertex 2 isolated
    # tau = 0 is the plain Laplacian, isolated vertex included, bit for bit
    assert_same_operator(regularized_laplacian(g, 0.0), laplacian(g))
    for tau in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            regularized_laplacian(g, tau)
    regularized_laplacian(g, 0.1)  # any tau > 0 is fine


def test_expected_regularized_laplacian_tau_zero_zero_row():
    # b = 0 and a one-node community: node 0 has expected degree 0
    E = expected_matrix(PlantedPartition(5.0, 0.0), np.array([1] + [2] * 9))
    op = expected_regularized_laplacian(E, 0.0)
    assert op.terms[0].scale[0] == 0.0
    M = op.to_dense()
    assert np.all(M[0] == 0) and np.all(M[:, 0] == 0)
    rows = E.row_sums()[1:]
    ref = E.to_dense()[1:, 1:] / np.sqrt(np.outer(rows, rows))
    assert np.allclose(M[1:, 1:], ref, atol=1e-14)
    x = np.random.default_rng(0).standard_normal(10)
    assert np.allclose(op.matvec(x), M @ x, atol=1e-13)


def test_expected_regularized_laplacian_dense_agreement():
    spec = PlantedPartition(5.0, 1.0)
    labels = np.array([1] * 10 + [2] * 10)
    E = expected_matrix(spec, labels)
    tau = 0.3
    op = expected_regularized_laplacian(E, tau)
    P = E.to_dense()
    D = P.sum(axis=1) + tau
    ref = (P + tau / 20.0) / np.sqrt(np.outer(D, D))
    assert np.allclose(op.to_dense(), ref, atol=1e-13)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            expected_regularized_laplacian(E, bad)


# ---------------------------------------------------------------------------
# tau selection
# ---------------------------------------------------------------------------

def test_choose_tau_examples():
    assert choose_tau(complete(4), rho=1.0) == pytest.approx(3.0)
    assert choose_tau(star(9), rho=0.25) == pytest.approx(0.45)


def test_choose_tau_empty_graph_returns_zero_silently():
    g = Graph(5, [], [], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert choose_tau(g) == 0.0


def test_choose_tau_rho_validation():
    g = complete(3)
    with pytest.raises(ValueError):
        choose_tau(g, rho=0.0)
    with pytest.raises(ValueError):
        choose_tau(g, rho=1.5)
