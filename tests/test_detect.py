import collections
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2, vq

import specgraph.detect as detect
from specgraph.detect import kmeans, misclassification_rate, sign_partition, spectral_cluster
from specgraph.models import (
    SBM,
    ExpectedMatrix,
    Graph,
    PlantedPartition,
    expected_matrix,
    planted_labels,
    sample,
)
from specgraph.regularize import choose_tau, degree_regularize, regularized_laplacian
from specgraph.spectral import SymmetricOperator, top_eigs


def two_cliques(half=10):
    ii, jj = np.triu_indices(half, 1)
    i = np.concatenate([ii, ii + half])
    j = np.concatenate([jj, jj + half])
    return Graph(2 * half, i, j, np.ones(len(i)))


# ---------------------------------------------------------------------------
# sign rule and scoring
# ---------------------------------------------------------------------------

def test_sign_partition_zero_goes_to_one():
    labels = sign_partition(np.array([0.5, -0.2, 0.0, 1.0]))
    assert labels.tolist() == [1, 2, 1, 1]


def test_misclassification_hand_counted():
    est = np.array([1, 1, 2, 2])
    truth = np.array([1, 2, 2, 2])
    assert misclassification_rate(est, truth) == pytest.approx(0.25)
    # a table over 1..3_000_000 would need 72 TB
    big = np.array([1, 2, 2, 3_000_000])
    assert misclassification_rate(est, big) == pytest.approx(0.5)


def test_misclassification_label_swap_is_free():
    truth = np.array([1, 1, 2, 2, 2])
    flipped = np.array([2, 2, 1, 1, 1])
    assert misclassification_rate(flipped, truth) == 0.0


def test_misclassification_validation_and_empty():
    with pytest.raises(ValueError):
        misclassification_rate(np.array([1, 2]), np.array([1]))
    assert misclassification_rate(np.array([], dtype=int), np.array([], dtype=int)) == 0.0
    assert misclassification_rate([], []) == 0.0  # numpy makes [] float64
    # the int64 cast would read [1.9, 1.2, 2.5] as [1, 1, 2] and score 1/3
    with pytest.raises(ValueError, match="^estimate must be integers, got float64$"):
        misclassification_rate([1.9, 1.2, 2.5], [1, 2, 2])
    with pytest.raises(ValueError, match="^truth must be integers, got bool$"):
        misclassification_rate([1, 2, 2], [True, True, True])


def test_misclassification_rejects_zero_based_labels():
    # labels are 1-based; a 0 must not wrap around to the last community
    with pytest.raises(ValueError):
        misclassification_rate(np.array([0, 1, 1]), np.array([1, 2, 2]))
    with pytest.raises(ValueError):
        misclassification_rate(np.array([1, 2, 2]), np.array([0, 1, 1]))


def test_misclassification_many_communities_assignment_path():
    # with K = 9 communities a cyclic relabeling must still score as perfect
    truth = np.tile(np.arange(1, 10), 4)
    est = (truth % 9) + 1
    assert misclassification_rate(est, truth) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_misclassification_invariant_under_relabeling(data):
    K = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 40))
    labels = st.lists(st.integers(1, K), min_size=n, max_size=n)
    est = np.array(data.draw(labels))
    truth = np.array(data.draw(labels))
    perm = np.array([0] + data.draw(st.permutations(range(1, K + 1))))
    assert misclassification_rate(perm[est], truth) == misclassification_rate(est, truth)


def _misclassification_by_relabeling(estimate, truth):
    """The reference: fewest disagreements over every injective map of the
    smaller set of occurring labels into the larger one, by enumeration."""
    pairs = list(zip(estimate, truth))
    count = collections.Counter(pairs)
    est, tru = sorted(set(estimate)), sorted(set(truth))
    if len(est) <= len(tru):
        best = max(sum(count[e, t] for e, t in zip(est, image))
                   for image in itertools.permutations(tru, len(est)))
    else:
        best = max(sum(count[e, t] for e, t in zip(image, tru))
                   for image in itertools.permutations(est, len(tru)))
    return float(len(pairs) - best) / len(pairs)


@st.composite
def _label_vectors(draw):
    """Two equally long label vectors, each over its own 1..6 occurring labels
    drawn from 1..2^40, so shapes K1 x K2 are rectangular both ways."""
    n = draw(st.integers(1, 60))
    vectors = []
    for _ in range(2):
        pool = draw(st.lists(st.integers(1, 2 ** 40), min_size=1, max_size=6, unique=True))
        vectors.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return vectors


@settings(max_examples=300, deadline=None)
@given(_label_vectors())
@example([[1, 2, 3, 4, 5, 6, 1], [1, 1, 1, 1, 1, 1, 1]])  # 6 x 1
@example([[9, 9, 9, 9, 9, 9, 9], [1, 2, 3, 4, 5, 6, 1]])  # 1 x 6
@example([[1, 2, 3, 4, 5, 6] * 2, [6, 5, 4, 3, 2, 1] * 2])  # 6 x 6, reversed
@example([[1, 1, 2, 2], [1, 2, 1, 2]])  # every matching ties
def test_misclassification_equals_brute_force_minimum(vectors):
    estimate, truth = vectors
    assert (misclassification_rate(np.array(estimate), np.array(truth))
            == _misclassification_by_relabeling(estimate, truth))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 50))
def test_misclassification_two_communities_at_most_half(seed, n):
    rng = np.random.default_rng(seed)
    est = rng.integers(1, 3, size=n)
    truth = rng.integers(1, 3, size=n)
    assert misclassification_rate(est, truth) <= 0.5


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(0, 0.05, size=(20, 2)),
                        rng.normal(5, 0.05, size=(25, 2))])
    labels = kmeans(X, 2, seed=1)
    assert len(np.unique(labels[:20])) == 1
    assert len(np.unique(labels[20:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_deterministic_and_validated():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 3))
    a = kmeans(X, 4, seed=7)
    b = kmeans(X, 4, seed=7)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        kmeans(X[:2], 3)


def _kmeans_all_steps(X, K, seed):
    """kmeans as it was before the fixed-point stop: every restart runs all
    _LLOYD_STEPS steps.  Returns the labels, each restart's centres, and the
    number of restarts whose centres would still move at one more step."""
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng()
    best, best_inertia, centres, capped = None, np.inf, [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(detect._RESTARTS):
            twin.bit_generator.state = rng.bit_generator.state
            C, _ = kmeans2(X, K, iter=detect._LLOYD_STEPS, minit="++",
                           missing="warn", rng=rng)
            C_more, _ = kmeans2(X, K, iter=detect._LLOYD_STEPS + 1, minit="++",
                                missing="warn", rng=twin)
            capped += not np.array_equal(C, C_more)
            centres.append(C)
            assign, dist = vq(X, C)
            inertia = float(dist @ dist)
            if inertia < best_inertia - 1e-15:
                best, best_inertia = assign, inertia
    return best.astype(np.int64) + 1, centres, capped


def _blobs(seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-3, 3, size=(4, 3))
    return np.concatenate([rng.normal(m, 1.0, size=(40, 3)) for m in means]), 4


@pytest.mark.parametrize("X, K, seed, at_cap", [
    (*_blobs(0), 5, False),
    (*_blobs(1), 11, False),
    (np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [4, 3, 5], axis=0), 5, 2, False),
    (np.random.default_rng(0).standard_normal((500, 3)), 10, 0, True),
], ids=["blobs-0", "blobs-1", "fewer-distinct-rows-than-K", "hits-step-cap"])
def test_kmeans_equals_every_step_formula(monkeypatch, X, K, seed, at_cap):
    # the fixed-point stop keeps every restart's centres bit for bit
    labels, centres, capped = _kmeans_all_steps(X, K, seed)
    assert (capped > 0) == at_cap
    seen = []
    monkeypatch.setattr(detect, "vq", lambda X, C, **kw: seen.append(C) or vq(X, C, **kw))
    assert np.array_equal(kmeans(X, K, seed=seed), labels)
    assert len(seen) == len(centres)
    for got, want in zip(seen, centres):
        assert np.array_equal(got, want)


def _cli_embedding(n, seed):
    """The rows k-means gets from detect --method top-k-embedding on a
    capped PP a = 6, b = 1 graph, at a smaller n."""
    g, _ = sample(PlantedPartition(6.0, 1.0), n, seed)
    capped, _ = degree_regularize(g, float(g.degrees().mean()))
    op = regularized_laplacian(capped, choose_tau(capped, 0.25))
    pairs = top_eigs(op, 2, which="largest-algebraic", seed=seed)
    return np.column_stack([p.vector for p in pairs])


def _unshared_steps(X, K, seed):
    """The kmeans2 calls of each restart when none shares a trajectory: steps
    until one returns the centres it was given, at most _LLOYD_STEPS."""
    rng = np.random.default_rng(seed)
    steps = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(detect._RESTARTS):
            C, _ = kmeans2(X, K, iter=1, minit="++", missing="warn", rng=rng)
            taken = 1
            while taken < detect._LLOYD_STEPS:
                D, _ = kmeans2(X, C, iter=1, minit="matrix", missing="warn")
                taken += 1
                if D.tobytes() == C.tobytes():
                    break
                C = D
            steps.append(taken)
    return steps


def _spy_kmeans(monkeypatch, X, K, seed):
    """kmeans(X, K, seed), with the kmeans2 calls of each restart and the
    centres it sends to vq."""
    import scipy.cluster.vq

    real, minits, seen = scipy.cluster.vq.kmeans2, [], []
    with monkeypatch.context() as m:
        m.setattr(scipy.cluster.vq, "kmeans2",
                  lambda *a, **kw: minits.append(kw["minit"]) or real(*a, **kw))
        m.setattr(detect, "vq", lambda X, C, **kw: seen.append(C) or vq(X, C, **kw))
        labels = kmeans(X, K, seed=seed)
    steps = np.diff(np.flatnonzero(np.append(np.array(minits) == "++", True)))
    return labels, steps.tolist(), seen


def test_kmeans_restarts_share_trajectories(monkeypatch):
    # on the cli's embedding shape, restarts reach centres from which an
    # earlier restart went on to its fixed point, and skip those steps
    X = _cli_embedding(4000, 0)
    labels, centres, _ = _kmeans_all_steps(X, 2, 0)
    unshared = _unshared_steps(X, 2, 0)
    got, steps, seen = _spy_kmeans(monkeypatch, X, 2, 0)
    assert np.array_equal(got, labels)
    assert len(steps) == len(seen) == len(centres) == detect._RESTARTS
    assert all(a <= b for a, b in zip(steps, unshared))
    assert sum(steps) < 0.8 * sum(unshared)
    for a, b in zip(seen, centres):
        assert np.array_equal(a, b)


def test_kmeans_shares_trajectories_at_every_step_cap(monkeypatch):
    # a restart may take an earlier fixed point only if it gets there within
    # its steps: at every cap, the labels and each restart's centres are
    # those of kmeans2(iter=cap), and some restart that would have used all
    # its steps stops early by sharing
    X = _cli_embedding(600, 1)
    near_cap = []
    for cap in range(1, 21):
        monkeypatch.setattr(detect, "_LLOYD_STEPS", cap)
        labels, centres, _ = _kmeans_all_steps(X, 2, 1)
        unshared = _unshared_steps(X, 2, 1)
        got, steps, seen = _spy_kmeans(monkeypatch, X, 2, 1)
        assert np.array_equal(got, labels), cap
        assert len(seen) == len(centres)
        for a, b in zip(seen, centres):
            assert np.array_equal(a, b), cap
        if any(a < b == cap for a, b in zip(steps, unshared)):
            near_cap.append(cap)
    assert len(near_cap) >= 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmeans_rejects_nonfinite_rows(bad):
    X = np.random.default_rng(0).standard_normal((10, 2))
    X[3, 1] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        kmeans(X, 2, seed=0)


@pytest.mark.parametrize("X, K", [
    (np.ones((5, 2)), 2),
    (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 3),
    (np.array([[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]]), 3),
], ids=["identical-rows", "three-points", "two-distinct-rows"])
def test_kmeans_degenerate_input(X, K):
    # fewer distinct rows than K: empty clusters and a 0/0 k-means++ draw,
    # none of whose warnings may reach the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = kmeans(X, K, seed=4)
        b = kmeans(X, K, seed=4)
    assert a.dtype == np.int64
    assert a.min() >= 1 and a.max() <= K
    assert np.array_equal(a, b)
    # equal rows share a label, distinct rows do not
    same = (X[:, None, :] == X[None, :, :]).all(axis=-1)
    assert np.array_equal(a[:, None] == a[None, :], same)


# ---------------------------------------------------------------------------
# spectral clustering
# ---------------------------------------------------------------------------

def test_cluster_expected_pp_exact():
    spec = PlantedPartition(5.0, 0.1)
    labels = planted_labels(spec, 50)
    E = expected_matrix(spec, labels)
    op = SymmetricOperator.compose(50, expected=E)
    est = spectral_cluster(op, mode="adjacency-second-largest", seed=0)
    assert misclassification_rate(est, labels) == 0.0


def test_cluster_two_cliques_regularized_laplacian_exact():
    g = two_cliques(10)
    truth = np.array([1] * 10 + [2] * 10)
    op = regularized_laplacian(g, 0.5)
    est = spectral_cluster(op, mode="laplacian-second-largest", seed=2)
    assert misclassification_rate(est, truth) == 0.0


def test_cluster_second_smallest_selector():
    # operator whose second-SMALLEST eigenvector carries the split: use the
    # negated expectation so the informative eigenvalue flips sign
    spec = PlantedPartition(5.0, 0.1)
    labels = planted_labels(spec, 30)
    E = expected_matrix(spec, labels)
    pos = SymmetricOperator.compose(30, expected=E)
    neg = SymmetricOperator.compose(30) - pos
    est = spectral_cluster(neg, mode="adjacency-second-smallest", seed=0)
    assert misclassification_rate(est, labels) == 0.0


def test_cluster_top_k_embedding_three_blocks():
    B = ((0.9, 0.05, 0.05), (0.05, 0.8, 0.05), (0.05, 0.05, 0.7))
    spec = SBM((1 / 3, 1 / 3, 1 / 3), B)
    labels = np.repeat([1, 2, 3], 12)
    E = expected_matrix(spec, labels)
    op = SymmetricOperator.compose(36, expected=E)
    est = spectral_cluster(op, K=3, mode="top-k-embedding", seed=5)
    assert misclassification_rate(est, labels) == 0.0


def test_cluster_deterministic_given_seed():
    g = two_cliques(8)
    op = regularized_laplacian(g, 0.4)
    a = spectral_cluster(op, mode="laplacian-second-largest", seed=11)
    b = spectral_cluster(op, mode="laplacian-second-largest", seed=11)
    assert np.array_equal(a, b)
    # seed=None is one fixed default for the solver and for k-means alike
    B = [[0.05 if k == l else 0.01 for l in range(4)] for k in range(4)]
    g, _ = sample(SBM((0.25,) * 4, B), 400, 0)
    op = regularized_laplacian(g, 1.0)
    a, b = (spectral_cluster(op, K=4, mode="top-k-embedding") for _ in range(2))
    assert np.array_equal(a, b)


def test_cluster_validation():
    op = SymmetricOperator.from_matrix(np.eye(6))
    with pytest.raises(ValueError):
        spectral_cluster(op, mode="wat")
    with pytest.raises(ValueError):
        spectral_cluster(op, K=1)
    for K in (2.0, True):
        for mode in ("top-k-embedding", "laplacian-second-largest"):
            with pytest.raises(ValueError, match="K must be an integer"):
                spectral_cluster(op, K=K, mode=mode)
    with pytest.raises(ValueError):
        spectral_cluster(op, K=3, mode="laplacian-second-largest")
