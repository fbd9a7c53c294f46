import hashlib
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import specgraph.models as models
from specgraph.models import (
    DCSBM,
    ER,
    IERM,
    LSM,
    SBM,
    ExpectedMatrix,
    Graph,
    PlantedPartition,
    expected_matrix,
    max_expected_degree,
    model_from_json,
    model_to_json,
    planted_labels,
    read_labels,
    sample,
    write_labels,
)


def dense_adjacency(g):
    return g.adjacency().toarray()


# ---------------------------------------------------------------------------
# sampling basics
# ---------------------------------------------------------------------------

def test_er_p1_is_complete():
    g, labels = sample(ER(1.0), 4, 0)
    assert g.m == 6
    A = dense_adjacency(g)
    assert np.array_equal(A, np.ones((4, 4)) - np.eye(4))
    assert np.array_equal(labels, np.ones(4, dtype=np.int64))


def test_er_p0_is_empty():
    g, _ = sample(ER(0.0), 100, 1)
    assert g.m == 0
    assert g.n == 100


def test_sample_symmetric_zero_diagonal_binary():
    g, _ = sample(PlantedPartition(5.0, 1.0), 60, 3)
    A = dense_adjacency(g)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert set(np.unique(A)) <= {0.0, 1.0}
    assert np.all(g.w == 1.0)


def test_sample_deterministic_given_seed():
    spec = DCSBM((0.4, 0.6), ((0.9, 0.1), (0.1, 0.7)), tuple([0.5, 1.0] * 15))
    g1, l1 = sample(spec, 30, 42)
    g2, l2 = sample(spec, 30, 42)
    assert g1 == g2
    assert np.array_equal(l1, l2)
    g3, _ = sample(spec, 30, 43)
    assert g1 != g3  # astronomically unlikely to collide


# One spec per model at n = 30.  The DCSBM's seeds 0-2 draw blocks of 3, 0
# and 1 nodes for label 3, label 4 has pi = 0 (always empty) and label 2 a
# zero B row.
_STREAM_N = 30
_STREAM_SPECS = {
    "er": ER(0.15),
    "pp": PlantedPartition(6.0, 1.5),
    "sbm": SBM((0.3, 0.7), ((0.4, 0.05), (0.05, 0.25))),
    "dcsbm": DCSBM((0.56, 0.39, 0.05, 0.0),
                   ((0.8, 0.0, 0.6, 0.2), (0.0, 0.0, 0.0, 0.0),
                    (0.6, 0.0, 0.9, 0.4), (0.2, 0.0, 0.4, 0.7)),
                   tuple(0.35 + 0.02 * ((7 * i) % _STREAM_N) for i in range(_STREAM_N))),
    "lsm": LSM(tuple((0.25 * i, 0.5 * (i % 3)) for i in range(_STREAM_N))),
    "ierm": IERM(tuple(tuple(0.0 if i == j else ((i + j) % 5) / 8
                             for j in range(_STREAM_N))
                       for i in range(_STREAM_N))),
}
# sha256 of format_tsv() then the int64 label bytes, for seeds 0, 1 and 2,
# recorded with numpy 2.4 (a numpy release may change a Generator method's
# stream, and so these values)
_STREAM_SHA256 = {
    "er": (
        "9d94ffed017b91897d42e3abe3caa22121302f8be95b3c33bb41be21b7c27bad",
        "44303ca58999edc12bb7e5c1851da5c96503b117cf0db805a8b56cc59ece4abe",
        "bf4c7c108beae7c100f1a981a690ec840193706ad1d5ac17bf1e876e7e523b0a",
    ),
    "pp": (
        "c2b657a425056cd46d6737696da2c828cb8a1dd4e4c574b0303120c16b73e0c8",
        "094bd5f0c5701ba28b402eb0e42498a4905094fe3803916c4b9317855811c632",
        "c3848cffc1ba34ee71a7dfbb13e54e278520af23f0cb4fff7dc42180daa7662c",
    ),
    "sbm": (
        "32e8327e34a972c67abacd027ac26a90668e25dd5efa10b37119dd0f5f4202bb",
        "924289c3ade3de7702cb077618de41652994e56b9d3e5d2711e4dff8f2ad8e64",
        "ecbab6fd8d9c4769bb58bb1a558b3d0bfe5967a771b229986cb278f4c4d2978e",
    ),
    "dcsbm": (
        "256e87df80bf4adea07b0e78bc7d09ea2c18714c40e26efab1d35157ee7353dc",
        "44787c159d5690cb1a574ab8ccd8459af96833a9eb8f021bd694167590e134bb",
        "35e22e52148d2d411632dc4cb8ffd01727a9127a7b107c32fd07e4eeac562583",
    ),
    "lsm": (
        "d03d4bf3d3ad71d4b584dfcecde123d70a9a9e1bbca21afa941e59bd34e83291",
        "7be7a5d39371d381ea59312d164ca3ab5c616a2d588d028f4f99aee9de734b4a",
        "4f3312d24062522ac4aea195681ceaf8a98eb275bbbfef5d50a4261030c494bf",
    ),
    "ierm": (
        "76908215e8f11a8266c1854ca011615838b9a02b572a5ef4d43af96fc54c5db9",
        "e3faf924144194a4ada1eb13b82a9d958987c5f835627db5348a1ba1038a3c09",
        "a2de709df33a7edda04e01bb0c03f75eb1198962904779180e6b15c85746ef4c",
    ),
}


@pytest.mark.parametrize("name", sorted(_STREAM_SPECS))
def test_sample_stream_is_pinned(name):
    # every draw, its order and its probability are fixed per (spec, n, seed):
    # a change to the sampler that moves the random stream changes these bytes
    digests, sizes = [], []
    for seed in range(3):
        g, labels = sample(_STREAM_SPECS[name], _STREAM_N, seed)
        digests.append(hashlib.sha256(g.format_tsv().encode("ascii")
                                      + labels.astype(np.int64).tobytes()).hexdigest())
        sizes.append(np.bincount(labels, minlength=5)[1:].tolist())
    assert tuple(digests) == _STREAM_SHA256[name]
    if name == "dcsbm":  # the block shapes the comment above names
        assert [size[2:] for size in sizes] == [[3, 0], [0, 0], [1, 0]]


def test_planted_partition_split_convention():
    labels = planted_labels(PlantedPartition(3.0, 1.0), 5)
    assert labels.tolist() == [1, 1, 1, 2, 2]  # odd node goes to community 1
    _, sampled = sample(PlantedPartition(3.0, 1.0), 7, 0)
    assert sampled.tolist() == [1, 1, 1, 1, 2, 2, 2]


def test_sbm_labels_need_rng():
    spec = SBM((0.3, 0.7), ((0.5, 0.1), (0.1, 0.5)))
    with pytest.raises(ValueError):
        planted_labels(spec, 10)
    labels = planted_labels(spec, 500, np.random.default_rng(0))
    assert set(labels.tolist()) <= {1, 2}
    # frequency of community 1 near pi_1
    assert abs(np.mean(labels == 1) - 0.3) < 0.1


def test_pp_mean_edge_count_matches_expectation_sum():
    # oracle: sum of P_ij over the upper triangle, built independently
    n, a, b = 50, 5.0, 0.1
    labels = np.array([1] * 25 + [2] * 25)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += (a / n) if labels[i] == labels[j] else (b / n)
    assert abs(total - 61.25) < 1e-9  # hand arithmetic: 600*0.1 + 625*0.002

    R = 600
    counts = np.array([sample(PlantedPartition(a, b), n, s)[0].m
                       for s in range(R)], dtype=float)
    # per-draw variance = sum p(1-p); 3-stderr acceptance band
    var = 600 * (a / n) * (1 - a / n) + 625 * (b / n) * (1 - b / n)
    stderr = math.sqrt(var / R)
    assert abs(counts.mean() - total) < 3 * stderr


def test_edge_frequency_matches_probability_fixed_label_models():
    """Empirical Bernoulli means track P_ij uniformly (models with fixed labels)."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, size=(8, 2))
    P = rng.uniform(0, 0.8, size=(10, 10))
    P = 0.5 * (P + P.T)
    np.fill_diagonal(P, 0.0)
    specs = [
        (ER(0.3), 20),
        (PlantedPartition(4.0, 1.0), 20),
        (LSM(tuple(map(tuple, X))), 8),
        (IERM(tuple(map(tuple, P))), 10),
    ]
    R = 5000
    for spec, n in specs:
        acc = np.zeros((n, n))
        for s in range(R):
            g, labels = sample(spec, n, s)
            acc += dense_adjacency(g)
        Pexp = expected_matrix(spec, labels).to_dense()
        freq = acc / R
        band = 4 * np.sqrt(Pexp * (1 - Pexp) / R) + 0.01
        assert np.all(np.abs(freq - Pexp) <= band)


def test_edge_frequency_matches_probability_random_label_models():
    """SBM/DCSBM agreement conditioned on the drawn labels.

    Labels differ per seed, so accumulate the conditional P alongside the
    adjacency; by the tower rule the two running means must agree entrywise,
    and the conditional variance E[P(1-P)] <= Pbar(1-Pbar) keeps the Bernoulli
    band valid.
    """
    rng = np.random.default_rng(3)
    theta = tuple(rng.uniform(0.4, 1.1, size=16))
    for spec in (SBM((0.5, 0.5), ((0.8, 0.15), (0.15, 0.6))),
                 DCSBM((0.5, 0.5), ((0.8, 0.15), (0.15, 0.6)), theta)):
        R = 5000
        n = 16
        acc = np.zeros((n, n))
        accP = np.zeros((n, n))
        for s in range(R):
            g, labels = sample(spec, n, s)
            E = expected_matrix(spec, labels)
            assert np.all(E.entries(g.i, g.j) > 0)  # no zero-probability edges
            acc += dense_adjacency(g)
            accP += E.to_dense()
        freq = acc / R
        Pbar = accP / R
        band = 4 * np.sqrt(np.maximum(Pbar * (1 - Pbar), 1e-4) / R) + 0.01
        assert np.all(np.abs(freq - Pbar) <= band)


def test_skip_indices_tiny_p_counts_then_places():
    # below p = 1e-12 geometric gaps would overflow int64, so the draw counts
    # the successes and places them; at N p = 500 it places some
    N, p = 10**15, 5e-13
    flat = models._skip_indices(N, p, models._rng(3))
    assert flat.dtype == np.int64 and len(flat) > 0
    assert np.all(np.diff(flat) > 0)  # sorted and unique
    assert 0 <= flat[0] and flat[-1] < N
    assert np.array_equal(flat, models._skip_indices(N, p, models._rng(3)))
    assert not np.array_equal(flat, models._skip_indices(N, p, models._rng(4)))


# ---------------------------------------------------------------------------
# expected matrices
# ---------------------------------------------------------------------------

def test_expected_matrix_er_constant_offdiag():
    E = expected_matrix(ER(0.37), np.ones(6, dtype=np.int64))
    P = E.to_dense()
    assert np.all(np.diag(P) == 0)
    off = P[~np.eye(6, dtype=bool)]
    assert np.all(off == 0.37)


def test_expected_matrix_pp_entries():
    n = 10
    labels = planted_labels(PlantedPartition(2.0, 1.0), n)
    P = expected_matrix(PlantedPartition(2.0, 1.0), labels).to_dense()
    for i in range(n):
        for j in range(n):
            if i == j:
                assert P[i, j] == 0
            elif labels[i] == labels[j]:
                assert P[i, j] == pytest.approx(0.2)
            else:
                assert P[i, j] == pytest.approx(0.1)


def test_dcsbm_unit_theta_equals_sbm():
    pi = (0.4, 0.6)
    B = ((0.7, 0.2), (0.2, 0.5))
    labels = planted_labels(SBM(pi, B), 40, np.random.default_rng(1))
    Ps = expected_matrix(SBM(pi, B), labels).to_dense()
    Pd = expected_matrix(DCSBM(pi, B, tuple([1.0] * 40)), labels).to_dense()
    assert np.array_equal(Ps, Pd)


def test_lsm_monotone_in_distance():
    X = ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (7.0, 0.0))
    spec = LSM(X)
    P = expected_matrix(spec, np.ones(4, dtype=np.int64)).to_dense()
    # d(0,1)=1 < d(0,2)=3 < d(0,3)=7 so P must decrease along that row
    assert P[0, 1] > P[0, 2] > P[0, 3]
    assert P[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_ierm_expected_is_p():
    P = np.array([[0.0, 0.3, 0.6], [0.3, 0.0, 0.1], [0.6, 0.1, 0.0]])
    E = expected_matrix(IERM(tuple(map(tuple, P))), np.ones(3, dtype=np.int64))
    assert np.allclose(E.to_dense(), P)


def _expected_case(name, rng, n=30):
    """(E, P) with P built here from the model's definition, diagonal zeroed."""
    if name == "dense":
        P = rng.uniform(0, 1, size=(n, n))
        P = 0.5 * (P + P.T)
        E = ExpectedMatrix.from_dense(P)
    elif name == "lsm":
        X = rng.uniform(0, 3, size=(n, 2))
        E = expected_matrix(LSM(tuple(map(tuple, X))), np.ones(n, dtype=np.int64))
        # kernel exp(-0) = 1 on the diagonal until it is zeroed
        P = np.exp(-np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)))
    else:
        if name == "dcsbm":
            labels = rng.integers(1, 4, size=n)
        else:  # block 1 empty, block 3 the single node 0
            labels = rng.choice([2, 4], size=n)
            labels[0] = 3
        K = int(labels.max())
        B = rng.uniform(0, 1, size=(K, K))
        B = 0.5 * (B + B.T)
        theta = rng.uniform(0.3, 1.0, size=n)
        if name != "dcsbm":
            # B entries no pair of nodes uses sit well above every P_ij, so
            # max_entry must skip the empty block and the single node's B_33
            B *= 0.5
            B[0, :] = B[:, 0] = B[2, 2] = 1.0
            theta[0] = 1.0
        E = ExpectedMatrix(labels, B, theta)
        P = theta[:, None] * B[labels - 1][:, labels - 1] * theta[None, :]
    np.fill_diagonal(P, 0.0)
    return E, P


@pytest.mark.parametrize("name", ["dcsbm", "dense", "lsm", "empty-and-singleton-blocks"])
def test_block_matvec_matches_dense(name):
    rng = np.random.default_rng(5)
    E, P = _expected_case(name, rng)
    n = len(P)
    assert np.allclose(E.to_dense(), P, atol=1e-15)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.linalg.norm(E.matvec(x) - P @ x) <= 1e-12 * max(1, np.linalg.norm(P @ x))
    assert np.allclose(E.row_sums(), P.sum(axis=1), atol=1e-12)
    assert np.allclose(E.row_sq_sums(), (P ** 2).sum(axis=1), atol=1e-12)
    assert E.max_entry() == pytest.approx(P.max(), abs=1e-14)
    # the block sampler's caps: the largest P_ij of each block pair
    c = E.labels - 1
    K = len(E.B)
    M = np.zeros((K, K))
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    np.maximum.at(M, (c[rows], c[cols]), P[rows, cols])
    assert np.allclose(E._block_max, M, atol=1e-14)
    ii, jj = np.triu_indices(n, 1)
    assert np.allclose(E.entries(ii, jj), P[ii, jj], atol=1e-14)


def test_block_factors_rebuild_p():
    for name in ("dcsbm", "dense"):
        E, P = _expected_case(name, np.random.default_rng(6), n=20)
        theta, c, BB, diag = E.block_factors()
        assert np.array_equal(c, E.labels - 1)
        rebuilt = theta[:, None] * BB[c][:, c] * theta[None, :] - np.diag(diag)
        assert np.allclose(rebuilt, P, atol=1e-15)


def test_max_expected_degree_conventions():
    rowmax, entrymax = max_expected_degree(ER(0.2), 10)
    assert rowmax == pytest.approx(9 * 0.2)
    assert entrymax == pytest.approx(10 * 0.2)

    _, entry = max_expected_degree(PlantedPartition(5.0, 0.1), 50)
    assert entry == pytest.approx(5.0)

    P0 = tuple(tuple(0.0 for _ in range(4)) for _ in range(4))
    assert max_expected_degree(IERM(P0), 4) == (0.0, 0.0)

    # distances 1, 2 and 3 between the three nodes; node 1 has the largest row
    rowmax, entrymax = max_expected_degree(LSM(((0.0,), (1.0,), (3.0,))), 3)
    assert rowmax == pytest.approx(np.exp(-1.0) + np.exp(-2.0), rel=1e-15)
    assert entrymax == pytest.approx(3 * np.exp(-1.0), rel=1e-15)

    # fixed labels (ER) and population labels (SBM) both need a node
    for spec in (ER(0.1), SBM((1.0,), ((0.5,),))):
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            max_expected_degree(spec, 0)


def test_max_expected_degree_sbm_is_dcsbm_with_unit_theta():
    pi, B, n = (0.3, 0.7, 0.0), ((0.05, 0.01, 0.9), (0.01, 0.04, 0.9),
                                 (0.9, 0.9, 0.9)), 100
    sbm = max_expected_degree(SBM(pi, B), n)
    dcsbm = max_expected_degree(DCSBM(pi, B, (1.0,) * n), n)
    assert sbm == pytest.approx(dcsbm, rel=1e-15)
    # (n - 1) max(B pi) over the labels pi can draw; the third has pi = 0
    assert sbm[0] == pytest.approx((n - 1) * 0.031, rel=1e-15)
    assert sbm[1] == pytest.approx(n * 0.05, rel=1e-15)
    with pytest.raises(ValueError, match="theta length must equal n"):
        max_expected_degree(DCSBM(pi, B, (0.1, 1.0, 1.0)), 1000)


def test_max_expected_degree_with_labels_exact():
    spec = SBM((0.5, 0.5), ((0.8, 0.1), (0.1, 0.4)))
    labels = np.array([1, 1, 1, 2, 2])
    rowmax, entrymax = max_expected_degree(spec, 5, labels)
    P = expected_matrix(spec, labels).to_dense()
    assert rowmax == pytest.approx(P.sum(axis=1).max())
    assert entrymax == pytest.approx(5 * P.max())
    # labels fix the size of P, so they must agree with n
    with pytest.raises(ValueError, match="labels length must equal n = 3, got 10"):
        max_expected_degree(ER(0.1), 3, np.ones(10, dtype=np.int64))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_er_probability_validation(bad):
    with pytest.raises(ValueError):
        ER(bad)


def test_pp_negative_rates_rejected():
    with pytest.raises(ValueError):
        PlantedPartition(-1.0, 0.5)
    for a, b in ((math.nan, 1.0), (5.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            PlantedPartition(a, b)


def test_pp_rates_above_n_rejected_at_expectation():
    labels = planted_labels(PlantedPartition(3.0, 1.0), 2)
    with pytest.raises(ValueError):
        expected_matrix(PlantedPartition(3.0, 1.0), labels)  # a/n = 1.5


def test_sbm_validation():
    with pytest.raises(ValueError):
        SBM((0.5, 0.4), ((0.5, 0.1), (0.1, 0.5)))  # pi does not sum to 1
    with pytest.raises(ValueError):
        SBM((0.5, 0.5), ((0.5, 0.2), (0.1, 0.5)))  # asymmetric B
    with pytest.raises(ValueError):
        SBM((0.5, 0.5), ((1.5, 0.1), (0.1, 0.5)))  # entry out of [0, 1]
    for pi in ((math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="pi"):
            SBM(pi, ((0.5, 0.1), (0.1, 0.5)))
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="entries of B"):
            SBM((0.5, 0.5), ((x, 0.1), (0.1, 0.5)))


def test_dcsbm_validation():
    with pytest.raises(ValueError):
        DCSBM((0.5, 0.5), ((0.5, 0.1), (0.1, 0.5)), (1.0, -0.2))
    with pytest.raises(ValueError):
        # top two thetas against max B give probability > 1
        DCSBM((0.5, 0.5), ((0.9, 0.1), (0.1, 0.9)), (2.0, 2.0, 0.5))
    for theta in ((math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), ()):
        with pytest.raises(ValueError, match="theta must be a finite positive vector"):
            DCSBM((1.0,), ((0.0,),), theta)
    # sample checks theta against its n through expected_matrix
    with pytest.raises(ValueError, match="theta length must equal the number of labels"):
        sample(DCSBM((0.5, 0.5), ((0.5, 0.1), (0.1, 0.5)), (1.0,) * 3), 4, 0)


def test_ierm_validation():
    with pytest.raises(ValueError):
        IERM(((0.0, 0.5), (0.4, 0.0)))  # asymmetric
    with pytest.raises(ValueError):
        IERM(((0.1, 0.5), (0.5, 0.0)))  # nonzero diagonal
    with pytest.raises(ValueError):
        IERM(((0.0, 1.5), (1.5, 0.0)))  # out of range
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="entries of P"):
            IERM(((0.0, x), (x, 0.0)))
    for P in ((), ((0.0, 0.5),), (0.0, 0.0)):  # empty, 1 x 2, flat
        with pytest.raises(ValueError, match="^P must be a nonempty square matrix$"):
            IERM(P)


def test_lsm_validation():
    with pytest.raises(ValueError):
        LSM(((0.0, 0.0),), kernel="nope")
    with pytest.raises(ValueError, match="finite"):
        LSM(((0.0, 0.0), (float("nan"), 1.0)))
    for X in ((), (0.0, 1.0), (((0.0,),),)):  # no rows, a flat list, 3-d
        with pytest.raises(ValueError, match="^positions must be an n x dim array$"):
            LSM(X)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(4, [2], [1], [1.0])  # i >= j
    with pytest.raises(ValueError):
        Graph(4, [0], [4], [1.0])  # endpoint out of range
    for big in (2 ** 63, -2 ** 63 - 1):  # beyond int64: no OverflowError
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            Graph(4, [0], [big], [1.0])
        with pytest.raises(ValueError, match="^edge endpoint out of range$"):
            Graph.parse_tsv(f"# n=4\n0\t{big}\t1\n")
    with pytest.raises(ValueError):
        Graph(4, [0, 1], [1], [1.0])  # ragged arrays
    # the int64 cast would read (0.9, 2.7) as (0, 2), and take bools
    for i, j in (([0.9], [2.7]), ([0], [True]), (["0"], ["2"])):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Graph(3, i, j, [1.0])
    assert Graph(0, [], [], []).m == 0  # numpy makes an empty list float64
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Graph(-3, [], [], [])
    for n in (3.7, np.float64(4.0), True):  # int() would read 3, 4 and 1
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            Graph(n, [0], [2], [1.0])
        with pytest.raises(ValueError, match="^n must be an integer, got "):
            sample(ER(0.5), n, 0)
    with pytest.raises(ValueError, match="^n must be an integer, got 3.5$"):
        sample(ER(0.5), 3.5, 0)  # not numpy's TypeError
    with pytest.raises(ValueError, match=r"duplicate edge pair \(0, 1\)"):
        Graph(4, [0, 0], [1, 1], [1.0, 0.5])
    with pytest.raises(ValueError):
        sample(ER(0.5), 0, 1)


def test_graph_rejects_n_whose_edge_keys_overflow_int64():
    # i*n + j wrapped past int64 and made (0, 5) and (2, 7) one key
    top = models._MAX_N
    assert top * top <= 2 ** 63 - 1 < (top + 1) ** 2
    bound = f"n must be at most {top}, so that the edge key i\\*n \\+ j fits in an int64"
    with pytest.raises(ValueError, match=f"^{bound}, got 9223372036854775807$"):
        Graph.parse_tsv("# n=9223372036854775807\n0\t5\t1\n2\t7\t1\n")
    with pytest.raises(ValueError, match=f"^{bound}, got {top + 1}$"):
        Graph(top + 1, [], [], [])
    g = Graph(top, [1, 0], [2, top - 1], [0.5, 1.0])  # the largest key is top^2 - 2
    assert g.i.tolist() == [0, 1] and g.j.tolist() == [top - 1, 2]


def test_graph_sorts_unsorted_edges():
    g = Graph(5, [3, 0, 1, 0, 1], [4, 2, 3, 1, 2], [0.1, 0.2, 0.3, 0.4, 0.5])
    assert g.i.tolist() == [0, 0, 1, 1, 3]
    assert g.j.tolist() == [1, 2, 2, 3, 4]
    assert g.w.tolist() == [0.4, 0.2, 0.5, 0.3, 0.1]


def test_graph_sorted_input_gives_equal_graph_and_owns_its_arrays():
    g, _ = sample(PlantedPartition(6.0, 1.0), 80, 3)
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.m)
    shuffled = Graph(g.n, g.i[perm], g.j[perm], g.w[perm])
    i, j, w = g.i.copy(), g.j.copy(), g.w.copy()
    same = Graph(g.n, i, j, w)
    assert shuffled == g
    assert same == g
    i[0], w[0] = 79, 0.5  # the caller's arrays stay the caller's
    assert same == g


def _lsm_reference(X):
    """P from the full n x n x dim difference tensor."""
    X = np.asarray(X, dtype=np.float64)
    diff = X[:, None, :] - X[None, :, :]
    P = np.exp(-np.sqrt((diff ** 2).sum(axis=-1)))
    np.fill_diagonal(P, 0.0)
    return P


@pytest.mark.parametrize("X", [
    np.random.default_rng(7).uniform(-1, 1, size=(8, 2)),
    ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (7.0, 0.0)),
    ((0.0, 1.0), (2.0, 0.0)),
    np.random.default_rng(0).uniform(0, 3, size=(200, 2)),
    np.random.default_rng(1).uniform(-2, 2, size=(30, 5)),
])
def test_lsm_expected_matrix_unchanged(X):
    spec = LSM(tuple(map(tuple, np.asarray(X))))
    P = expected_matrix(spec, np.ones(len(spec.positions), dtype=np.int64)).to_dense()
    assert np.array_equal(P, _lsm_reference(X))


def test_expected_matrix_validation(monkeypatch):
    B = ((0.5, 0.1), (0.1, 0.5))
    for labels in ([1, 3], [0, 1]):  # labels lie in 1..K
        with pytest.raises(ValueError, match="^label out of range for B$"):
            ExpectedMatrix(labels, B)
    # the int64 cast would read [1.7, 2.2, 2.9] as [1, 2, 2], and take bools
    for labels in ([1.7, 2.2, 2.9], [True, True, True], ["1", "2", "2"]):
        with pytest.raises(ValueError, match="^labels must be integers, got "):
            ExpectedMatrix(labels, B)
        with pytest.raises(ValueError, match="^labels must be integers, got "):
            expected_matrix(PlantedPartition(2, 1), labels)
    three = np.ones(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^LSM position count must equal len\(labels\)$"):
        expected_matrix(LSM(((0.0, 0.0), (1.0, 0.0))), three)
    with pytest.raises(ValueError, match=r"^P size must equal len\(labels\)$"):
        expected_matrix(IERM(((0.0, 0.5), (0.5, 0.0))), three)
    monkeypatch.setattr(models, "DENSE_LIMIT", 2)
    with pytest.raises(ValueError, match="^refusing to densify n=3 > 2$"):
        expected_matrix(ER(0.5), three).to_dense()


@pytest.mark.parametrize("make", [
    lambda n: LSM(tuple((float(k), 0.0) for k in range(n))),
    lambda n: IERM(tuple(tuple(0.0 if a == b else 0.1 for b in range(n)) for a in range(n))),
], ids=["lsm", "ierm"])
def test_dense_models_refuse_n_above_limit(monkeypatch, make):
    # a small limit checks the guard without building the extreme
    monkeypatch.setattr(models, "DENSE_LIMIT", 6)
    g, _ = sample(make(6), 6, 0)
    assert g.n == 6
    with pytest.raises(ValueError, match="refusing a dense P"):
        sample(make(7), 7, 0)
    with pytest.raises(ValueError, match="refusing a dense P"):
        expected_matrix(make(7), np.ones(7, dtype=np.int64))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tsv_round_trip(tmp_path):
    g, _ = sample(PlantedPartition(6.0, 1.0), 40, 11)
    # exercise non-unit weights too
    g.w[:] = np.linspace(0.1, 1.0, g.m)
    path = tmp_path / "g.tsv"
    g.to_tsv(path)
    back = Graph.from_tsv(path)
    assert back == g


def test_tsv_format_details():
    g = Graph(3, [0], [2], [0.25])
    text = g.format_tsv()
    assert text == "# n=3\n0\t2\t0.25\n"
    assert Graph.parse_tsv(text) == g


def test_tsv_parse_errors():
    with pytest.raises(ValueError):
        Graph.parse_tsv("0\t1\t1.0\n")  # missing header
    with pytest.raises(ValueError):
        Graph.parse_tsv("# n=3\n0\t1\n")  # malformed line
    with pytest.raises(ValueError):
        Graph.parse_tsv("# n=3\n0\t1\t0\n")  # nonpositive weight
    with pytest.raises(ValueError, match="n must be nonnegative"):
        Graph.parse_tsv("# n=-3\n")
    with pytest.raises(ValueError, match=r"^malformed header line: '# n=abc'$"):
        Graph.parse_tsv("# n=abc\n0\t1\t1\n")


@pytest.mark.parametrize("body", [
    "0\t1\tnan\n",              # nan weight would give nan degrees
    "0\t1\tinf\n",
    "0\t1\t-inf\n",
    "0\t1\t1.5\n",              # weight above 1
    "0\t1\t1\n1\t2\t1\n0\t1\t0.5\n",  # duplicate pair
])
def test_tsv_parse_rejects_bad_weights_and_duplicates(body):
    with pytest.raises(ValueError):
        Graph.parse_tsv("# n=3\n" + body)


def _parse_tsv_by_lines(text):
    """Graph.parse_tsv as one Python line loop: the reference for its numpy path."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
    bad = np.flatnonzero(~((ww > 0) & (ww <= 1)))
    if len(bad):
        raise ValueError(f"edge weight must lie in (0, 1]: {lines[1 + bad[0]]!r}")
    return Graph(n, ii, jj, ww)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("body", [
    "0\t1\t1\n1\t2\t0.5\n",
    "1_000\t1001\t1\n",               # int() takes underscores, numpy does not
    "1.0\t2\t1\n",                    # a float as an index
    "0x10\t20\t1\n",
    "0\t1\t1 # note\n",               # '#' inside a line
    "0#\t1\t1\n",
    "0\t1\tnan\n",
    "0\t1\tinf\n",
    "0\t1\t0\n",
    "0\t1\t1.5\n",
    "0\t1\t0.1_5\n",
    "0\t1\t0x1p-1\n",
    "0\t1\t1\t\n",                    # trailing tab
    "0\t1\n",
    "0\t1\t1\r\n1\t2\t0.5\r\n",       # CRLF endings
    "\n\n0\t1\t1\n  \n\t\n1\t2\t1\n\n",  # blank lines
    " 0 \t 1\t 0.25 \n",
    "",                                # header only
    f"{2 ** 63}\t{2 ** 63 + 1}\t1\n",  # index past int64
    "0\t1\t1\n0\t1\t0.5\n",           # duplicate pair
    "2\t1\t1\n",
    "0\t3000\t1\n",
    "\u0661\t\u0662\t1\n",              # Arabic-Indic digits
    "\u01fe0\t1\t1\n",                 # numpy would read this index as 4620
    "\U000200000\t1\t1\n",
    "0\x1f\t1\t1\n",                   # numpy strips \x1f, int() does not
])
def test_tsv_parse_matches_line_loop(body):
    text = "# n=2000\n" + body
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on an empty body
        assert _outcome(Graph.parse_tsv, text) == _outcome(_parse_tsv_by_lines, text)


def test_tsv_parse_reads_plain_ascii_with_numpy(monkeypatch):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    g = Graph(5, [0, 1, 3], [4, 2, 4], [1.0, 0.5, 0.1])
    assert Graph.parse_tsv(g.format_tsv()) == g
    assert len(calls) == 1


@pytest.mark.parametrize("labels", [
    np.array([1, 2, 10, 1], dtype=np.int64),
    [1, 2, 10, 1],
])
def test_write_labels_bytes(tmp_path, labels):
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    assert path.read_bytes() == b"1\n2\n10\n1\n"


def test_labels_round_trip(tmp_path):
    labels = np.array([1, 2, 2, 1, 3])
    path = tmp_path / "labels.txt"
    write_labels(path, labels)
    assert np.array_equal(read_labels(path), labels)


def test_read_labels_takes_what_int_takes_and_names_a_bad_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text(" 3 \n\n+4\n1_0\n\u0662\n-1\n", encoding="utf-8")
    assert read_labels(path).tolist() == [3, 4, 10, 2, -1]
    path.write_text("1\n\n2\n1.0\nx\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^malformed label line 4: '1\.0'$"):
        read_labels(path)
    # int() takes it, int64 does not
    path.write_text("-9223372036854775808\n9223372036854775807\n\n"
                    "99999999999999999999\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^malformed label line 4: '9{20}'$"):
        read_labels(path)


def _read_labels_by_lines(path):
    """read_labels as one int() per line: the reference for its numpy path."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        return np.fromiter(map(int, filter(str.strip, lines)), dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    for number, ln in enumerate(lines, 1):
        try:
            np.int64(int(ln))
        except (ValueError, OverflowError):
            if ln.strip():
                raise ValueError(f"malformed label line {number}: {ln!r}") from None


# pieces of label lines: what int() and numpy's reader each take or refuse
LABEL_PIECES = st.sampled_from([
    "0", "1", "7", "12", "-", "+", "_", ".", "0.", "e3", "x", " ", "\t", "\x0b",
    "\x0c", "\x1f", "\r\n", "\n", "1.0", "1_0", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
    "\u0662", "\u01fe", "\U00020000", "\xa0", "#", ",",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(LABEL_PIECES, max_size=4).map("".join), max_size=6)
       .map("\n".join))
@example("1\n2\n10\n")
@example("1\n\n \n2\n\t\n")                        # blank lines
@example("1\n1.0\n")                               # a float
@example("1_0\n2\n")                               # int() takes underscores
@example("9223372036854775807\n9223372036854775808\n")  # past int64
@example("-9223372036854775808\n-9223372036854775809\n")
@example("\u0661\n\u0662\n")                         # Arabic-Indic digits
@example("1\t2\n3\t4\n")                            # two columns
@example("1\t2\n")
@example("")
def test_read_labels_matches_line_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "hypothesis.labels"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = _outcome(read_labels, path), _outcome(_read_labels_by_lines, path)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    else:
        assert got == want


def test_read_labels_reads_plain_ascii_with_numpy(monkeypatch, tmp_path):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    path = tmp_path / "labels.txt"
    write_labels(path, [1, 2, 2, 1])
    assert read_labels(path).tolist() == [1, 2, 2, 1]
    assert len(calls) == 1


def _format_tsv_by_edges(g):
    """Graph.format_tsv as one % format per edge: the reference for its numpy path."""
    return f"# n={g.n}\n" + "".join(
        "%d\t%d\t%.17g\n" % e for e in zip(g.i.tolist(), g.j.tolist(), g.w.tolist()))


TOP = models._MAX_N  # the largest n a Graph takes, so indices reach TOP - 1


@st.composite
def graphs_built_in_code(draw):
    """Graphs as code may build them: any float weight, n up to TOP."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(2, TOP), st.just(TOP)))
    pair = st.integers(0, n - 2).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    edges = draw(st.lists(pair, unique=True, max_size=12)) if n >= 2 else []
    weights = draw(st.lists(
        st.one_of(st.sampled_from([5e-324, 1 - 2 ** -53, 0.1, 0.0, -0.0, math.nan,
                                   math.inf, -math.inf]), st.floats()),
        min_size=len(edges), max_size=len(edges)))
    return Graph(n, [i for i, _ in edges], [j for _, j in edges], weights)


@settings(max_examples=200, deadline=None)
@given(graphs_built_in_code())
@example(Graph(0, [], [], []))
@example(Graph(5, [0, 0, 1, 1], [1, 2, 3, 4], [5e-324, 1 - 2 ** -53, 0.1, 1.0]))
@example(Graph(4, [0, 0, 0, 1, 2], [1, 2, 3, 3, 3], [0.0, -0.0, math.nan, math.inf, -0.0]))
@example(Graph(TOP, [0, 1], [TOP - 1, 2], [1.0, 0.25]))
def test_format_tsv_matches_percent_format(g):
    assert g.format_tsv() == _format_tsv_by_edges(g)


def _labels_by_lines(labels):
    """write_labels' text as one "%d" per label: the reference for its numpy path."""
    values = labels.tolist() if isinstance(labels, np.ndarray) else labels
    return "".join("%d\n" % v for v in values)


def _int_arrays(dtype):
    info = np.iinfo(dtype)
    elements = st.one_of(st.sampled_from([info.min, info.max, 0, -1 if info.min else 1]),
                         hnp.from_dtype(np.dtype(dtype)))
    return hnp.arrays(dtype, st.integers(0, 20), elements=elements)


LABEL_INPUTS = st.one_of(
    *[_int_arrays(dt) for dt in (np.int8, np.int16, np.int32, np.int64,
                                 np.uint8, np.uint16, np.uint32, np.uint64)],
    st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=20),
    hnp.arrays(np.bool_, st.integers(0, 20)),
    hnp.arrays(np.float64, st.integers(0, 20)),  # nan and inf: "%d" raises
    st.just([]),
)


@settings(max_examples=300, deadline=None)
@given(LABEL_INPUTS)
def test_write_labels_matches_percent_d(tmp_path_factory, labels):
    path = tmp_path_factory.getbasetemp() / "hypothesis.labels"

    def written(labels):
        write_labels(path, labels)
        return path.read_bytes().decode("utf-8")

    assert _outcome(written, labels) == _outcome(_labels_by_lines, labels)


def test_model_json_round_trip():
    rng = np.random.default_rng(2)
    P = rng.uniform(0, 0.5, size=(4, 4))
    P = 0.5 * (P + P.T)
    np.fill_diagonal(P, 0.0)
    specs = [
        ER(0.25),
        PlantedPartition(5.0, 0.1),
        SBM((0.3, 0.7), ((0.5, 0.1), (0.1, 0.6))),
        DCSBM((0.3, 0.7), ((0.5, 0.1), (0.1, 0.6)), (0.9, 1.1, 0.8)),
        LSM(((0.0, 1.0), (2.0, 0.0))),
        IERM(tuple(map(tuple, P))),
    ]
    for spec in specs:
        back = model_from_json(model_to_json(spec))
        assert back == spec


def test_model_json_unknown_kind():
    with pytest.raises(ValueError):
        model_from_json(json.dumps({"model": "wat"}))


@pytest.mark.parametrize("call", [
    model_to_json,
    lambda x: expected_matrix(x, np.ones(3, dtype=np.int64)),
    lambda x: planted_labels(x, 3),
], ids=["model_to_json", "expected_matrix", "planted_labels"])
def test_non_spec_is_rejected(call):
    with pytest.raises(ValueError, match=r"^not a model spec: \{'model': 'er'"):
        call({"model": "er", "p": 0.5})


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0))
def test_tsv_round_trip_property(n, seed, p):
    g, _ = sample(ER(p), n, seed)
    assert Graph.parse_tsv(g.format_tsv()) == g


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    weights = draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        min_size=len(edges), max_size=len(edges)))
    ii = [a for a, _ in edges]
    jj = [b for _, b in edges]
    return Graph(n, ii, jj, weights)


@settings(max_examples=60, deadline=None)
@given(weighted_graphs())
def test_tsv_round_trip_arbitrary_weights_property(g):
    assert Graph.parse_tsv(g.format_tsv()) == g


@settings(max_examples=60, deadline=None)
@given(weighted_graphs())
def test_adjacency_and_incidence_layout(g):
    ref = sp.csr_matrix((np.concatenate([g.w, g.w]),
                         (np.concatenate([g.i, g.j]), np.concatenate([g.j, g.i]))),
                        shape=(g.n, g.n))
    A = g.adjacency()
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    indptr, neighbors, ids = g.incidence()
    for v in range(g.n):
        es = ids[indptr[v]:indptr[v + 1]]
        nbrs = neighbors[indptr[v]:indptr[v + 1]]
        assert sorted(es) == np.flatnonzero((g.i == v) | (g.j == v)).tolist()
        assert np.array_equal(nbrs, np.where(g.i[es] == v, g.j[es], g.i[es]))
        assert np.all(np.diff(nbrs) > 0)
