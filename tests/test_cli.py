import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import specgraph
from specgraph import cli, experiments
from specgraph.cli import main
from specgraph.detect import spectral_cluster
from specgraph.models import Graph, PlantedPartition, read_labels, sample
from specgraph.regularize import laplacian, regularized_laplacian
from specgraph.spectral import NonConvergenceError, top_eigs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def star_tsv(leaves=9):
    ii = np.zeros(leaves, dtype=np.int64)
    jj = np.arange(1, leaves + 1, dtype=np.int64)
    return Graph(leaves + 1, ii, jj, np.ones(leaves)).format_tsv()


def two_cliques_tsv(half=4, bridge=False):
    n = 2 * half
    ii, jj = [], []
    for base in (0, half):
        for u in range(half):
            for v in range(u + 1, half):
                ii.append(base + u)
                jj.append(base + v)
    if bridge:
        ii.append(half - 1)
        jj.append(half)
    return Graph(n, ii, jj, np.ones(len(ii))).format_tsv()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_complete_graph(capsys):
    code, out, _ = run(capsys, "gen", "--model", "er", "--p", "1", "--n", "4")
    assert code == 0
    g = Graph.parse_tsv(out)
    assert g.n == 4 and g.m == 6
    assert np.all(g.w == 1.0)


def test_gen_invalid_probability(capsys):
    code, _, err = run(capsys, "gen", "--model", "er", "--p", "1.5", "--n", "4")
    assert code == 2
    assert "error:" in err


def test_gen_spec_missing_key(tmp_path, capsys):
    # each malformed document exits 2 with an error line naming the fault
    docs = [
        ({"model": "pp", "a": 5.0}, "'b'"),  # missing key
        ({"model": "er", "p": "0.5"}, "bad er spec"),  # wrong type
        ([1, 2], "JSON object"),
        ({"model": "sbm", "pi": [1.0], "B": 0.5}, "K x K"),
        ({"model": "pp", "a": 5, "b": 1, "extra": 3}, "'extra'"),  # unknown key
        # JSON booleans are ints to Python; ER(p=True) would be the complete graph
        ({"model": "er", "p": True}, "boolean"),
        ({"model": "pp", "a": True, "b": False}, "boolean"),
        ({"model": "lsm", "positions": [[True, False]]}, "boolean"),
        # nan fails every comparison, so each check must be one that nan fails
        ({"model": "pp", "a": float("nan"), "b": 1}, "a must be finite"),
        ({"model": "pp", "a": 5, "b": float("inf")}, "b must be finite"),
        ({"model": "sbm", "pi": [float("nan"), 1], "B": [[0.1, 0], [0, 0.1]]},
         "pi must be a finite"),
        ({"model": "sbm", "pi": [0.5, 0.5], "B": [[float("nan"), 0], [0, 0.1]]},
         "entries of B"),
        ({"model": "dcsbm", "pi": [1], "B": [[0.1]], "theta": [float("nan"), 1, 1]},
         "theta must be a finite"),
        ({"model": "ierm", "P": [[0, float("inf")], [float("inf"), 0]]},
         "entries of P"),
    ]
    path = tmp_path / "spec.json"
    for doc, needle in docs:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "gen", "--spec", str(path), "--n", "10")
        assert code == 2 and out == "", doc
        assert "error:" in err and needle in err, (doc, err)


def test_gen_missing_n(capsys):
    code, _, err = run(capsys, "gen", "--model", "er", "--p", "0.5")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--model", "er"), "--model er needs --p"),
    (("--model", "pp", "--a", "5"), "--model pp needs --a and --b"),
    (("--model", "sbm"), "--model sbm needs --spec with the full parameter set"),
])
def test_gen_model_flags_missing_a_parameter(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv, "--n", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gen_pp_deterministic(capsys):
    args = ("gen", "--model", "pp", "--a", "6", "--b", "1", "--n", "80",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, "gen", "--model", "pp", "--a", "6", "--b", "1",
                     "--n", "80", "--seed", "8")
    assert out3 != out1


def test_gen_writes_labels_file(tmp_path, capsys):
    out = tmp_path / "g.tsv"
    code, _, _ = run(capsys, "gen", "--model", "pp", "--a", "4", "--b", "1",
                     "--n", "10", "--seed", "1", "--out", str(out))
    assert code == 0
    labels = read_labels(str(out) + ".labels")
    assert list(labels) == [1] * 5 + [2] * 5
    assert Graph.parse_tsv(out.read_text()).n == 10


def test_gen_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SPECGRAPH_SEED", "7")
    _, out_env, _ = run(capsys, "gen", "--model", "pp", "--a", "6", "--b", "1",
                        "--n", "80")
    monkeypatch.delenv("SPECGRAPH_SEED")
    _, out_flag, _ = run(capsys, "gen", "--model", "pp", "--a", "6", "--b", "1",
                         "--n", "80", "--seed", "7")
    assert out_env == out_flag
    monkeypatch.setenv("SPECGRAPH_SEED", "not-a-number")
    code, _, err = run(capsys, "gen", "--model", "er", "--p", "0.5", "--n", "9")
    assert code == 2 and "SPECGRAPH_SEED" in err
    # numpy's "expected non-negative integer" named neither source
    for env, flags in (("-1", ()), ("7", ("--seed", "-1"))):
        monkeypatch.setenv("SPECGRAPH_SEED", env)
        code, out, err = run(capsys, "gen", "--model", "er", "--p", "0.5",
                             "--n", "9", *flags)
        assert code == 2 and out == "", (env, flags)
        assert "error: seed must be nonnegative, got -1" in err, (env, flags)


# ---------------------------------------------------------------------------
# reg
# ---------------------------------------------------------------------------

def test_reg_cap_noop_identity(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(star_tsv())
    code, out, err = run(capsys, "reg", "--in", str(src), "--mode", "cap",
                         "--d-hat", "100")
    assert code == 0
    assert out == star_tsv()  # untouched graph round-trips byte-identically
    report = json.loads(err)
    assert report["touched"] == [] and report["passes"] == 0


def test_reg_remove_star(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(star_tsv())
    dst = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "reg", "--in", str(src), "--mode", "remove",
                       "--threshold", "5", "--out", str(dst))
    assert code == 0
    report = json.loads(out)  # with --out, the report takes stdout
    assert report["removed"] == 1 and report["edges_out"] == 0
    g = Graph.parse_tsv(dst.read_text())
    assert g.n == 10 and g.m == 0


def test_reg_tau_reports_and_passes_graph_through(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(star_tsv())
    code, out, err = run(capsys, "reg", "--in", str(src), "--mode", "tau",
                         "--rho", "0.5")
    assert code == 0
    assert out == star_tsv()
    report = json.loads(err)
    assert report["tau"] == pytest.approx(0.5 * 18 / 10)  # rho x mean degree
    assert report["rho"] == 0.5


def test_reg_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "reg", "--in", "/nonexistent/g.tsv",
                       "--mode", "cap", "--d-hat", "3")
    assert code == 2
    # an edgeless graph has no mean degree for the defaults to scale; the
    # error used to name d_hat or threshold at 0.0, which no one passed
    src = tmp_path / "e.tsv"
    src.write_text("# n=5\n")
    for mode, flag in (("cap", "--d-hat"), ("remove", "--threshold")):
        code, out, err = run(capsys, "reg", "--in", str(src), "--mode", mode)
        assert (code, out) == (2, ""), mode
        assert err == (f"error: the graph has no edges, so there is no mean "
                       f"degree for the default {flag}; pass {flag}\n")
        code, out, _ = run(capsys, "reg", "--in", str(src), "--mode", mode,
                           flag, "1")
        assert (code, out) == (0, "# n=5\n"), mode


@pytest.mark.parametrize("argv", [
    ("reg", "--mode", "cap", "--d-hat", "3"),
    ("detect", "--seed", "0"),
])
def test_n_past_the_edge_key_bound_exits_2(tmp_path, capsys, argv):
    # the key i*n + j of (0, 5) and (2, 7) wrapped to one value at this n
    src = tmp_path / "g.tsv"
    src.write_text("# n=9223372036854775807\n0\t5\t1\n2\t7\t1\n")
    code, out, err = run(capsys, argv[0], "--in", str(src), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: n must be at most 3037000499, so that the edge key")
    assert "duplicate" not in err


def test_integer_beyond_int64_exits_2(tmp_path, capsys):
    big = "99999999999999999999"
    src = tmp_path / "g.tsv"
    src.write_text(f"# n=3\n0\t{big}\t1\n")
    code, out, err = run(capsys, "reg", "--in", str(src), "--mode", "cap",
                         "--d-hat", "3")
    assert (code, out, err) == (2, "", "error: edge endpoint out of range\n")
    src.write_text(two_cliques_tsv())
    truth = tmp_path / "t.labels"
    truth.write_text(f"1\n{big}\n")
    code, out, err = run(capsys, "detect", "--in", str(src), "--truth", str(truth))
    assert (code, out, err) == (2, "", f"error: malformed label line 2: '{big}'\n")


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def test_detect_two_cliques(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv())
    code, out, _ = run(capsys, "detect", "--in", str(src), "--seed", "0")
    assert code == 0
    report = json.loads(out)
    labels = report["labels"]
    assert sorted(set(labels)) == [1, 2]
    assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
    assert labels[0] != labels[4]
    assert report["tau"] > 0


def test_detect_truth_scoring_and_labels_out(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv())
    truth = tmp_path / "t.labels"
    truth.write_text("\n".join(["2"] * 4 + ["1"] * 4) + "\n")
    labels_out = tmp_path / "pred.labels"
    code, out, _ = run(capsys, "detect", "--in", str(src), "--seed", "0",
                       "--truth", str(truth), "--labels-out", str(labels_out))
    assert code == 0
    report = json.loads(out)
    assert report["misclassification"] == 0.0  # permutation-invariant score
    assert "labels" not in report
    assert len(read_labels(labels_out)) == 8


def test_detect_truth_names_a_malformed_label_line(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv())
    truth = tmp_path / "t.labels"
    truth.write_text("1\n1\n\n1\nx2\n2\n2\n2\n")
    code, out, err = run(capsys, "detect", "--in", str(src), "--truth", str(truth))
    assert code == 2 and out == ""
    assert err == "error: malformed label line 5: 'x2'\n"


def test_detect_unknown_method(tmp_path, capsys):
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv())
    code, _, err = run(capsys, "detect", "--in", str(src), "--method", "oracle")
    assert code == 2 and "unknown method" in err


def test_detect_adjacency_method(tmp_path, capsys):
    # a bridge keeps the top adjacency eigenvalue simple, so v2 is well defined
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv(bridge=True))
    code, out, _ = run(capsys, "detect", "--in", str(src), "--seed", "3",
                       "--method", "adjacency-second-largest")
    assert code == 0
    labels = json.loads(out)["labels"]
    assert labels[:4] != labels[4:] and len(set(labels[:4])) == 1


def test_detect_tau_rho(tmp_path, capsys):
    # 0 asks for the plain Laplacian; every other rho must lie in (0, 1]
    # (a negative or NaN rho used to run the plain Laplacian silently)
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv(bridge=True))
    for rho in ("-1", "nan", "2"):
        code, out, err = run(capsys, "detect", "--in", str(src), "--tau-rho", rho)
        assert code == 2 and out == "", rho
        assert "error: rho must be finite and positive" in err, (rho, err)
    # the second graph has dozens of components with an edge, so L(A)'s
    # eigenvalue 1 is repeated: the top two values are both 1, which ARPACK
    # at the default basis could return once
    sparse, _ = sample(PlantedPartition(3.0, 0.5), 2000, 4)
    for g in (Graph.from_tsv(src), sparse):
        src.write_text(g.format_tsv())
        plain = laplacian(g)
        top = [p.value for p in top_eigs(regularized_laplacian(g, 0), 2, seed=0)]
        assert top == pytest.approx(np.linalg.eigvalsh(plain.to_dense())[:-3:-1],
                                    abs=1e-9)
        for method in ("laplacian-second-largest", "top-k-embedding"):
            code, out, _ = run(capsys, "detect", "--in", str(src), "--tau-rho", "0",
                               "--seed", "5", "--method", method)
            assert code == 0
            report = json.loads(out)
            assert report["tau"] == 0.0
            labels = spectral_cluster(plain, K=2, mode=method, seed=5)
            assert report["labels"] == [int(x) for x in labels]


def test_detect_reports_components_at_tau_zero(tmp_path, capsys, monkeypatch):
    # at tau = 0, m, the number of components with an edge, decides the
    # labels: on this draw m >= 2 and the sign rule labels every node 1
    g, _ = sample(PlantedPartition(3.0, 0.5), 2000, 4)
    src = tmp_path / "g.tsv"
    src.write_text(g.format_tsv())
    _, comp = connected_components(g.adjacency(), directed=False)
    m = len(np.unique(comp[g.degrees() > 0]))
    assert m >= 2
    for method in ("laplacian-second-largest", "top-k-embedding"):
        code, out, _ = run(capsys, "detect", "--in", str(src), "--tau-rho", "0",
                           "--seed", "0", "--method", method)
        report = json.loads(out)
        assert code == 0 and report["tau"] == 0.0 and report["components"] == m
    assert set(report["labels"]) == {1, 2}
    code, out, _ = run(capsys, "detect", "--in", str(src), "--tau-rho", "0")
    assert code == 0 and set(json.loads(out)["labels"]) == {1}
    # elsewhere m is neither computed nor reported
    monkeypatch.setattr(cli, "edge_components", None)
    for argv in ((), ("--method", "adjacency-second-largest")):
        code, out, _ = run(capsys, "detect", "--in", str(src), *argv)
        assert code == 0 and "components" not in json.loads(out)


# ---------------------------------------------------------------------------
# sweep / phase / fig-eigvec
# ---------------------------------------------------------------------------

def test_sweep_flags_and_thread_invariance(capsys):
    base = ("sweep", "--n-grid", "100", "--d-grid", "3", "--R", "3",
            "--seed", "11")
    _, serial, _ = run(capsys, *base, "--threads", "1")
    _, pooled, _ = run(capsys, *base, "--threads", "4")
    assert serial == pooled
    lines = serial.splitlines()
    assert lines[0] == ",".join(experiments.CSV_COLUMNS)
    assert any("deviation_norm" in line for line in lines[1:])


def test_sweep_config_file(tmp_path, capsys):
    cfg = {"model": "er", "n_grid": [100], "d_grid": [3.0], "R": 3, "seed": 11}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    _, from_file, _ = run(capsys, "sweep", "--config", str(path))
    _, from_flags, _ = run(capsys, "sweep", "--n-grid", "100", "--d-grid", "3",
                           "--R", "3", "--seed", "11")
    assert from_file == from_flags


def test_sweep_config_unknown_key(tmp_path, capsys):
    # each malformed config exits 2 with an error line naming the fault
    base = {"model": "er", "n_grid": [100], "d_grid": [3.0]}
    docs = [
        (dict(base, replicates=3), "replicates"),  # unknown key
        (dict(base, R=2.5), "R"),
        (dict(base, R=True), "R"),
        (dict(base, seed=1.5), "seed"),
        (dict(base, tau_rho="a"), "tau_rho"),
        (dict(base, cap_multiplier=None), "cap_multiplier"),
        (dict(base, n_grid=[50.7]), "50.7"),
        (dict(base, n_grid=5), "not iterable"),
        (dict(base, tau_rho=10 ** 400), "tau_rho"),  # too large for a float
        (dict(base, tau_rho=7), "tau_rho must"),
        (dict(base, cap_multiplier=-5), "cap_multiplier must"),
        # every replicate would reject these, but only after sampling a graph
        (dict(base, d_grid=[0, 3], regularization="degree-cap"), "d_grid"),
        (dict(base, d_grid=[0], regularization="vertex-removal"), "d_grid"),
        ({"model": "pp", "n_grid": [100], "ab_grid": [[0, 0]],
          "regularization": "degree-cap"}, "ab_grid"),
        ({"model": "pp", "n_grid": [10, 100], "ab_grid": [[20, 1]]}, "ab_grid"),
        ({"model": "pp", "n_grid": [100], "ab_grid": [[1, 2, 3]]}, "ab_grid"),
        ([base], "JSON object"),
    ]
    path = tmp_path / "cfg.json"
    for doc, needle in docs:
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", "--config", str(path))
        assert code == 2 and out == "", doc
        assert "error:" in err and needle in err, (doc, err)


def test_sweep_knobs_rejected_before_any_replicate(capsys, monkeypatch):
    # each exits 2 naming the knob it came from, before any graph is sampled
    calls = []
    monkeypatch.setattr(experiments, "_concentration_replicate",
                        lambda *args: calls.append(args) or (0.0, 0.0))
    base = ("sweep", "--n-grid", "50", "--d-grid", "0,3", "--R", "1")
    cases = [(("--tau-rho", "7"), "tau_rho must"),
             (("--cap-multiplier", "-5"), "cap_multiplier must"),
             (("--reg", "tau-laplacian", "--tau-rho", "2"), "tau_rho must"),
             (("--reg", "degree-cap"), "d_grid must be positive"),
             (("--reg", "vertex-removal"), "d_grid must be positive")]
    for flags, needle in cases:
        code, out, err = run(capsys, *base, *flags)
        assert code == 2 and out == "", flags
        assert "error:" in err and needle in err, (flags, err)
    code, out, err = run(capsys, "sweep", "--model", "pp", "--n-grid", "10",
                         "--ab-grid", "20:1", "--R", "1")
    assert code == 2 and "ab_grid entry [20.0, 1.0]" in err, err
    assert calls == []


def test_sweep_grid_flags_skip_empty_entries(capsys, monkeypatch):
    # "5:0.1,,6:1" is the grid "5:0.1,6:1", as "10,,20" is "10,20"
    configs = []
    monkeypatch.setattr(experiments, "measure_concentration",
                        lambda config, threads: configs.append(config) or
                        experiments.ExperimentResult([]))
    code, _, err = run(capsys, "sweep", "--model", "pp", "--n-grid", "10,,20",
                       "--ab-grid", "5:0.1,,6:1", "--R", "1")
    assert code == 0, err
    assert configs[0].n_grid == (10, 20)
    assert configs[0].ab_grid == ((5.0, 0.1), (6.0, 1.0))


def test_sweep_bad_grid(capsys):
    code, _, err = run(capsys, "sweep", "--n-grid", "100", "--d-grid", "")
    assert code == 2
    for n_grid in ("0", "100,0", "-3", "1"):
        code, out, err = run(capsys, "sweep", "--n-grid", n_grid, "--d-grid", "2")
        assert code == 2 and out == "", n_grid
        assert "error:" in err and "at least 2" in err, (n_grid, err)


def test_sweep_grid_flags_name_the_entry_that_does_not_parse(capsys):
    cases = [(("--n-grid", "10,x", "--d-grid", "2"),
              "expected comma-separated ints, got '10,x'"),
             (("--model", "pp", "--n-grid", "10", "--ab-grid", "5-1"),
              "expected a:b pairs, got '5-1'"),
             (("--model", "pp", "--n-grid", "10", "--ab-grid", "5:x"),
              "expected a:b pairs, got '5:x'"),
             (("--model", "pp", "--n-grid", "10", "--ab-grid", "5:1,5:1:2"),
              "expected a:b pairs, got '5:1:2'")]
    for flags, needle in cases:
        code, out, err = run(capsys, "sweep", *flags)
        assert code == 2 and out == "", flags
        assert f"error: {needle}" in err, (flags, err)


def test_phase_csv(capsys):
    code, out, _ = run(capsys, "phase", "--d", "4", "--snr", "0,50", "--n",
                       "120", "--R", "2", "--seed", "1", "--method",
                       "reg-laplacian", "--threads", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(experiments.CSV_COLUMNS)
    body = [line.split(",") for line in lines[1:]]
    stats = {row[8] for row in body}
    assert stats == {"accuracy", "infeasible"}  # snr=50 needs b < 0


def test_phase_bad_inputs(monkeypatch, capsys):
    # each bad value exits 2 before any replicate, naming the flag it came from
    def no_grid(*args, **kwargs):
        raise AssertionError("a replicate ran")
    monkeypatch.setattr(experiments, "_run_grid", no_grid)
    cases = [(("--snr", s), "snr") for s in ("-1", "nan", "inf", "0,-inf")]
    cases += [(("--snr", "1", "--d", d), "d must") for d in ("nan", "0", "inf")]
    cases += [(("--snr", "1", "--tau-rho", r), "tau_rho must") for r in ("nan", "0", "2")]
    # every replicate solves for two eigenpairs
    cases += [(("--snr", "1", "--n", n), f"n must be at least 2, got {n}") for n in ("0", "1")]
    cases += [(("--snr", s), "phase sweeps need a nonempty snr_grid") for s in (",", "")]
    for flags, needle in cases:
        code, out, err = run(capsys, "phase", "--n", "60", "--R", "1", *flags)
        assert code == 2 and out == "", flags
        assert "error:" in err and needle in err, (flags, err)


def test_nan_cap_multiplier_exits_2(tmp_path, capsys):
    # a NaN cap compares false against every degree, so it used to cap nothing
    src = tmp_path / "g.tsv"
    src.write_text(star_tsv())
    for argv in (("reg", "--in", str(src), "--mode", "cap"),
                 ("phase", "--snr", "1", "--d", "2", "--n", "60", "--R", "1")):
        code, out, err = run(capsys, *argv, "--cap-multiplier", "nan")
        assert code == 2 and out == "", argv
        assert "error: cap_multiplier must be finite and positive, got nan" in err


def test_overflowing_cap_exits_2_before_any_replicate(tmp_path, capsys,
                                                      monkeypatch):
    # cap_multiplier and the degree are finite but the cap, their product, is
    # not; each command used to exit 0 with nothing capped
    calls = []
    for name in ("_concentration_replicate", "_phase_replicate"):
        monkeypatch.setattr(experiments, name,
                            lambda *args: calls.append(args) or (0.0, 0.0))
    src = tmp_path / "g.tsv"
    src.write_text(star_tsv())
    sweep = ("sweep", "--n-grid", "100", "--R", "1")
    cases = [((*sweep, "--d-grid", "3", "--reg", "degree-cap"), "d"),
             ((*sweep, "--d-grid", "3", "--reg", "vertex-removal"), "d"),
             ((*sweep, "--model", "pp", "--ab-grid", "6:1", "--reg",
               "degree-cap"), "d"),
             (("reg", "--in", str(src), "--mode", "cap"), "d_hat"),
             (("phase", "--snr", "4", "--n", "300", "--R", "1", "--method",
               "reg-adjacency"), "a")]
    for argv, factor in cases:
        code, out, err = run(capsys, *argv, "--cap-multiplier", "1e308")
        assert code == 2 and out == "", argv
        assert (f"error: cap_multiplier * {factor} must be finite and "
                f"positive, got inf") in err, (argv, err)
    assert calls == []
    # no cap is formed without a capping regularization
    code, _, _ = run(capsys, *sweep, "--d-grid", "3", "--cap-multiplier", "1e308")
    assert code == 0 and len(calls) == 1


def test_threads_must_be_positive(capsys):
    # 0 used to mean "all cores" and a negative count ran serially
    for cmd in (("sweep", "--n-grid", "50", "--d-grid", "2"),
                ("phase", "--snr", "1", "--d", "2", "--n", "60")):
        for threads in ("0", "-3"):
            code, out, err = run(capsys, *cmd, "--R", "1", "--threads", threads)
            assert code == 2 and out == "", (cmd, threads)
            assert f"error: threads must be at least 1, got {threads}" in err


def test_fig_eigvec_shape(capsys):
    code, out, err = run(capsys, "fig-eigvec", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 51
    assert lines[0] == "lap_v1,lap_v2,lap_v3,reglap_v1,reglap_v2,reglap_v3"
    assert all(len(line.split(",")) == 6 for line in lines[1:])
    report = json.loads(err)
    assert {"tau", "misclassification_unregularized",
            "misclassification_regularized"} <= set(report)


# sha256 of the fig-eigvec CSV from the code that wrote L(A)'s eigenvalue-1
# vectors inside eigenvector_study, before top_eigs took them from laplacian.
# n = 3 solves densely (seed 0 has one component with an edge, seed 5 none);
# at n = 50 seeds 7 and 13 have three and four, so nothing is left to solve
FIG_EIGVEC_PINNED = {
    (3, 0): "2ac677471c29ea683c3bc94d80303be9932d98dfe5cb4a7b600da0054444b470",
    (3, 5): "f327c86956e30ffc70128b57790dc507cf7def021e4a8bd0cd5410546d547b4c",
    (50, 0): "f2c1f86c5aaea13685799616f82fbfabf21ef7c1fa32071d502e93c8ae10314a",
    (50, 7): "307f014835318ce0a36e5e755503eb0aa4b10f08690dbe3bc615fc6e1202c8e5",
    (50, 13): "7b1d9e636e5db1aea689440f9008fd8d425cd36aa477ad3a51646301e338f4e6",
    (3000, 0): "ff4721488510059f18ba2d9310b8c32a30fe5045338831bb94fa097953065b12",
}


@pytest.mark.parametrize("n, seed", list(FIG_EIGVEC_PINNED))
def test_fig_eigvec_csv_bytes_pinned(capsys, n, seed):
    ab = ["--a", "1", "--b", "0.1"] if n == 3 else []  # a / n must be <= 1
    code, out, _ = run(capsys, "fig-eigvec", "--n", str(n), "--seed", str(seed), *ab)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIG_EIGVEC_PINNED[n, seed]


def test_fig_eigvec_needs_three_nodes(capsys, monkeypatch):
    def no_sample(*args):
        raise AssertionError("a graph was sampled")
    monkeypatch.setattr(experiments, "sample", no_sample)
    code, out, err = run(capsys, "fig-eigvec", "--n", "2", "--a", "1", "--b", "0.1")
    assert code == 2 and out == ""
    assert "error: n must be at least 3, got 2" in err
    # no solve keeps a basis of n vectors, so there is no upper limit
    monkeypatch.undo()
    code, out, _ = run(capsys, "fig-eigvec", "--n", "4097", "--a", "1", "--b", "0.1")
    assert code == 0 and len(out.splitlines()) == 4098


def test_nonconvergence_exit_code(capsys, monkeypatch):
    def explode(**kwargs):
        raise NonConvergenceError("stalled", best_estimate=1.0)

    monkeypatch.setattr(experiments, "eigenvector_study", explode)
    code, _, err = run(capsys, "fig-eigvec", "--seed", "0")
    assert code == 3 and "did not converge" in err


def test_detect_exits_3_when_a_returned_pair_misses_its_residual(tmp_path, capsys,
                                                                monkeypatch):
    import scipy.sparse.linalg as spla

    real = spla.eigsh

    def perturbed(*args, **kwargs):
        vals, V = real(*args, **kwargs)
        return vals, V + 1e-3

    monkeypatch.setattr(spla, "eigsh", perturbed)
    src = tmp_path / "g.tsv"
    src.write_text(two_cliques_tsv(half=6, bridge=True))
    code, out, err = run(capsys, "detect", "--in", str(src), "--seed", "1")
    assert code == 3 and out == ""
    assert "did not converge" in err and "residual" in err, err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_bai_yin(capsys):
    code, out, _ = run(capsys, "bounds", "--bound", "bai-yin", "--d", "25")
    assert code == 0
    assert out.strip() == "10"


def test_bounds_thm54_defaults_r(capsys):
    code, out, _ = run(capsys, "bounds", "--bound", "thm54", "--tau", "4",
                       "--d", "4")
    assert code == 0
    assert float(out) == pytest.approx(2.0 ** 2.5 / 2.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:benaych bound stated")
def test_sweep_ratios_match_bounds_command(capsys):
    # mean / ratio_<name> is what `bounds --bound <name>` prints at the row's
    # n, d and mean tau, with sigma = sqrt(d), K = 1 and r = C = 1
    n, d = 300, 5.0
    for reg, names in (("degree-cap", ("sqrt_d", "bai-yin", "bernstein",
                                       "bvh", "benaych", "thm51")),
                       ("tau-laplacian", ("sqrt_d", "thm54"))):
        code, out, _ = run(capsys, "sweep", "--n-grid", str(n), "--d-grid",
                           "%r" % d, "--R", "2", "--reg", reg, "--seed", "3")
        assert code == 0
        rows = {row[8]: row[9] for row in
                (line.split(",") for line in out.splitlines()[1:])}
        ratios = [s[len("ratio_"):] for s in rows if s.startswith("ratio_")]
        assert ratios == list(names), (reg, ratios)
        flags = {"n": n, "d": d, "sigma": math.sqrt(d), "bigk": 1.0,
                 "r": 1.0, "c": 1.0}
        if "tau" in rows:
            flags["tau"] = float(rows["tau"])
        argv = [tok for key, val in flags.items()
                for tok in (f"--{key}", "%r" % val)]
        mean = float(rows["deviation_norm"])
        for name in names[1:]:
            code, out, _ = run(capsys, "bounds", "--bound", name, *argv)
            assert code == 0, name
            bound = mean / float(rows[f"ratio_{name}"])
            assert bound == pytest.approx(float(out), rel=1e-12, abs=0), name


def test_bounds_missing_parameter(capsys):
    code, _, err = run(capsys, "bounds", "--bound", "bai-yin")
    assert code == 2 and "--d" in err
    # a NaN or infinite argument used to print nan or inf and exit 0
    for argv in (("bai-yin", "--d", "nan"), ("bai-yin", "--d", "inf"),
                 ("thm54", "--tau", "nan", "--d", "4"),
                 ("thm51", "--r", "nan", "--d", "4"),
                 ("bernstein", "--sigma", "nan", "--bigk", "1", "--n", "10")):
        code, out, err = run(capsys, "bounds", "--bound", *argv)
        assert code == 2 and out == "", argv
        assert "must be finite" in err, (argv, err)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("specgraph") is None,
                    reason="the specgraph launcher is not on PATH "
                           "(the package is not installed)")
def test_console_script_installed():
    exe = shutil.which("specgraph")
    assert exe is not None
    proc = subprocess.run([exe, "bounds", "--bound", "bai-yin", "--d", "25"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"


_START_UP = """
import json, sys
import specgraph
from specgraph.cli import main

lazy = ("scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.cluster", "scipy.optimize",
        "multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
report, *runs = sys.argv[1:]
seen = []
for argv in runs:
    code = main(json.loads(argv))
    seen.append([code, [m for m in lazy if m in sys.modules]])
with open(report, "w") as f:
    json.dump(seen, f)
"""


def _start_up(tmp_path, *runs):
    """[exit code, lazily loaded subpackages] after each CLI run, in order,
    all in one fresh interpreter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(specgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    report = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _START_UP, str(report),
                           *map(json.dumps, runs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_solver_subpackages_load_on_first_use(tmp_path):
    # import specgraph, bounds, gen and reg load numpy and scipy.sparse only;
    # the eigensolver, the assignment solver and k-means load when first
    # called, no command loads scipy.optimize, and only a grid that sends its
    # solves to worker processes loads multiprocessing, and none loads
    # concurrent.futures.process or concurrent.futures.thread
    g = str(tmp_path / "g.tsv")
    linalg, csgraph, cluster = "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.cluster"
    assert _start_up(
        tmp_path,
        ["bounds", "--bound", "bai-yin", "--d", "25"],
        ["gen", "--model", "pp", "--a", "6", "--b", "1", "--n", "60", "--seed", "1",
         "--out", g],
        ["reg", "--in", g, "--mode", "cap", "--out", str(tmp_path / "capped.tsv")],
        ["detect", "--in", g, "--method", "top-k-embedding", "--truth", g + ".labels"],
    ) == [[0, []], [0, []], [0, []], [0, [linalg, csgraph, cluster]]]
    # without --truth only the plain Laplacian loads the component search,
    # which gives its eigenvalue-1 vectors
    assert _start_up(tmp_path, ["detect", "--in", g]) == [[0, [linalg]]]
    assert _start_up(tmp_path, ["detect", "--in", g, "--tau-rho", "0"]) == [
        [0, [linalg, csgraph]]]
    # a grid sends its replicates to worker processes, and loads
    # multiprocessing, only with two replicates or more at --threads 2; the
    # workers then load the assignment solver, not the caller
    phase = ["phase", "--d", "4", "--snr", "0,4", "--n", "60", "--R", "2",
             "--seed", "0", "--threads"]
    assert _start_up(
        tmp_path, ["sweep", "--n-grid", "1000", "--d-grid", "2", "--R", "1",
                   "--seed", "0", "--threads", "2"], phase + ["1"],
    ) == [[0, [linalg]], [0, [linalg, csgraph]]]
    assert _start_up(tmp_path, phase + ["2"]) == [[0, [linalg, "multiprocessing"]]]
    assert _start_up(
        tmp_path, ["fig-eigvec", "--n", "30", "--seed", "0",
                   "--out", str(tmp_path / "table.csv")],
    ) == [[0, [linalg, csgraph]]]
