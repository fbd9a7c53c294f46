"""Command-line interface.

Subcommands: gen, reg, detect, sweep, fig-eigvec, phase, bounds.
Exit codes: 0 success, 2 usage/validation error, 3 eigensolver
non-convergence.  Output is line-oriented UTF-8; CSV/TSV formats are the ones
used by the library's readers, so every artifact round-trips.

Seeds resolve in order: --seed flag, SPECGRAPH_SEED environment variable, 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import _validate
from . import bounds as bounds_mod
from . import experiments
from .detect import misclassification_rate, spectral_cluster
from .models import (
    ER,
    Graph,
    PlantedPartition,
    _open_text,
    model_from_json,
    read_labels,
    sample,
    write_labels,
)
from .regularize import (
    choose_tau,
    degree_regularize,
    regularized_laplacian,
    remove_high_degree,
)
from .spectral import NonConvergenceError, SymmetricOperator


def _resolve_seed(value):
    env = os.environ.get("SPECGRAPH_SEED")
    if value is None and env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(f"SPECGRAPH_SEED must be an integer, got {env!r}") from exc
    return _validate.at_least("seed", 0 if value is None else value, 0)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with _open_text(path) as fh:
            fh.write(text)


def _number_list(text, kind=float):
    """"1,2" -> (1.0, 2.0), or (1, 2) for kind=int."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated {kind.__name__}s, "
                         f"got {text!r}") from exc


def _pair_list(text):
    """"5:0.1,6:1" -> ((5.0, 0.1), (6.0, 1.0))"""
    out = []
    for tok in text.split(","):
        if tok == "":
            continue
        try:
            a, b = map(float, tok.split(":"))
        except ValueError as exc:  # a missing or extra ':', or a non-number
            raise ValueError(f"expected a:b pairs, got {tok!r}") from exc
        out.append((a, b))
    return tuple(out)


def _model_from_flags(args):
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return model_from_json(fh.read())
    if args.model == "er":
        if args.p is None:
            raise ValueError("--model er needs --p")
        return ER(args.p)
    if args.model == "pp":
        if args.a is None or args.b is None:
            raise ValueError("--model pp needs --a and --b")
        return PlantedPartition(args.a, args.b)
    raise ValueError(f"--model {args.model} needs --spec with the full parameter set")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args):
    spec = _model_from_flags(args)
    if args.n is None:
        raise ValueError("--n is required")
    seed = _resolve_seed(args.seed)
    g, labels = sample(spec, args.n, seed)
    _write_text(args.out, g.format_tsv())
    if args.out is not None:
        write_labels(args.out + ".labels", labels)
    return 0


def _mean_degree(g, flag):
    """g's mean degree, of which flag's default is a multiple."""
    if not g.m:
        raise ValueError(f"the graph has no edges, so there is no mean degree "
                         f"for the default {flag}; pass {flag}")
    return float(g.degrees().mean())


def _cmd_reg(args):
    g = Graph.from_tsv(args.infile)
    report = {"mode": args.mode, "n": g.n, "edges_in": g.m}
    if args.mode == "cap":
        d_hat = args.d_hat if args.d_hat is not None else _mean_degree(g, "--d-hat")
        out, rep = degree_regularize(g, d_hat, args.cap_multiplier)
        report.update(json.loads(rep.to_json()))
        report["d_hat"] = d_hat
    elif args.mode == "remove":
        threshold = (args.threshold if args.threshold is not None
                     else 2.0 * _mean_degree(g, "--threshold"))
        out = remove_high_degree(g, threshold)
        report["threshold"] = threshold
        report["removed"] = int(np.sum(g.degrees() > threshold))
    else:  # tau; argparse's choices admit no other mode
        # rank-one shift is virtual: the graph passes through unchanged and
        # downstream consumers apply tau themselves
        out = g
        report["tau"] = choose_tau(g, args.rho)
        report["rho"] = args.rho
    report["edges_out"] = out.m
    _write_text(args.out, out.format_tsv())
    stream = sys.stdout if args.out is not None else sys.stderr
    json.dump(report, stream)
    stream.write("\n")
    return 0


def _cmd_detect(args):
    g = Graph.from_tsv(args.infile)
    seed = _resolve_seed(args.seed)
    method = args.method.lower()  # spectral_cluster rejects an unknown one
    tau = None
    if method in ("laplacian-second-largest", "top-k-embedding"):
        # 0 asks for the plain Laplacian; choose_tau checks every other rho
        tau = choose_tau(g, args.tau_rho) if args.tau_rho else 0.0
        op = regularized_laplacian(g, tau)
    else:
        op = SymmetricOperator.from_graph(g)
    labels = spectral_cluster(op, K=args.k, mode=method, seed=seed)
    report = {"n": g.n, "k": args.k, "method": method, "tau": tau,
              "misclassification": None}
    if args.truth is not None:
        truth = read_labels(args.truth)
        report["misclassification"] = misclassification_rate(labels, truth)
    if args.labels_out is not None:
        write_labels(args.labels_out, labels)
        report["labels_out"] = args.labels_out
    else:
        report["labels"] = [int(x) for x in labels]
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _config_from_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"bad sweep config {path}: expected a JSON object")
    try:
        return experiments.ExperimentConfig(**doc)
    except TypeError as exc:  # unknown key, or a value of the wrong shape
        raise ValueError(f"bad sweep config {path}: {exc}") from None


def _cmd_sweep(args):
    if args.config is not None:
        config = _config_from_json(args.config)
    else:
        config = experiments.ExperimentConfig(
            model=args.model,
            n_grid=_number_list(args.n_grid, int) if args.n_grid else (),
            d_grid=_number_list(args.d_grid) if args.d_grid else (),
            ab_grid=_pair_list(args.ab_grid) if args.ab_grid else (),
            R=args.R,
            regularization=args.reg,
            tau_rho=args.tau_rho,
            cap_multiplier=args.cap_multiplier,
            seed=_resolve_seed(args.seed),
        )
    result = experiments.measure_concentration(config, threads=args.threads)
    _write_text(args.out, result.to_csv())
    return 0


def _cmd_fig_eigvec(args):
    study = experiments.eigenvector_study(n=args.n, a=args.a, b=args.b,
                                          rho=args.rho,
                                          seed=_resolve_seed(args.seed))
    _write_text(args.out, study.to_csv())
    json.dump({"tau": study.tau,
               "misclassification_unregularized": study.mis_unregularized,
               "misclassification_regularized": study.mis_regularized},
              sys.stderr)
    sys.stderr.write("\n")
    return 0


def _cmd_phase(args):
    result = experiments.phase_sweep(d=args.d, snr_grid=_number_list(args.snr),
                                     n=args.n, R=args.R, method=args.method,
                                     tau_rho=args.tau_rho,
                                     cap_multiplier=args.cap_multiplier,
                                     seed=_resolve_seed(args.seed),
                                     threads=args.threads)
    _write_text(args.out, result.to_csv())
    return 0


def _cmd_bounds(args):
    name = args.bound  # argparse's choices admit only registered bounds
    fn, needed = bounds_mod.BOUND_REGISTRY[name]
    params = {}
    for key in needed:
        val = getattr(args, key)
        if val is None:
            raise ValueError(f"bound {name!r} needs --{key}")
        params[key] = val
    value = fn(params)
    print("%.17g" % value)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="specgraph",
        description="Random-graph sampling, regularization, spectral "
                    "community detection, and concentration experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    threads_help = ("worker processes for grids of two replicates or more, at most "
                    "and by default one per usable core; the CSV does not depend "
                    "on it")

    p = sub.add_parser("gen", help="sample a graph and write TSV (+ labels)")
    p.add_argument("--model", default="er",
                   choices=["er", "pp", "sbm", "dcsbm", "lsm", "ierm"])
    p.add_argument("--p", type=float, help="ER edge probability")
    p.add_argument("--a", type=float, help="planted-partition within-degree a")
    p.add_argument("--b", type=float, help="planted-partition between-degree b")
    p.add_argument("--spec", help="ModelSpec JSON file (required for "
                                  "sbm/dcsbm/lsm/ierm)")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="TSV path; labels go to <out>.labels; "
                                 "stdout if omitted")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("reg", help="regularize a graph file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", required=True, choices=["cap", "remove", "tau"])
    p.add_argument("--d-hat", dest="d_hat", type=float,
                   help="degree scale for cap mode (default: observed mean)")
    p.add_argument("--cap-multiplier", type=float, default=2.0)
    p.add_argument("--threshold", type=float,
                   help="removal degree threshold (default: 2 x mean degree)")
    p.add_argument("--rho", type=float, default=0.25,
                   help="tau = rho x mean degree in tau mode")
    p.add_argument("--out", help="output TSV; stdout if omitted "
                                 "(report then goes to stderr)")
    p.set_defaults(fn=_cmd_reg)

    p = sub.add_parser("detect", help="spectral community detection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", default="laplacian-second-largest")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tau-rho", dest="tau_rho", type=float, default=0.25,
                   help="Laplacian methods: tau = rho x mean degree, rho in "
                        "(0, 1]; 0 runs the plain Laplacian")
    p.add_argument("--seed", type=int)
    p.add_argument("--truth", help="labels file to score against")
    p.add_argument("--labels-out", dest="labels_out")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("sweep", help="concentration sweep over an (n, d) grid")
    p.add_argument("--config", help="ExperimentConfig JSON file "
                                    "(overrides the grid flags)")
    p.add_argument("--model", default="er", choices=["er", "pp"])
    p.add_argument("--n-grid", dest="n_grid", help="comma-separated sizes")
    p.add_argument("--d-grid", dest="d_grid", help="comma-separated degrees")
    p.add_argument("--ab-grid", dest="ab_grid", help="a:b pairs, comma-separated")
    p.add_argument("--R", type=int, default=20)
    p.add_argument("--reg", default="none",
                   choices=list(experiments.REGULARIZATIONS))
    p.add_argument("--tau-rho", dest="tau_rho", type=float, default=0.25)
    p.add_argument("--cap-multiplier", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help=threads_help)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fig-eigvec",
                       help="eigenvectors of L(A) vs L(A_tau) on one draw")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--a", type=float, default=5.0)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(fn=_cmd_fig_eigvec)

    p = sub.add_parser("phase", help="detection accuracy along an SNR grid")
    p.add_argument("--d", type=float, default=10.0)
    p.add_argument("--snr", required=True, help="comma-separated SNR values")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--R", type=int, default=50)
    p.add_argument("--method", default="both",
                   choices=["both", *experiments.PHASE_METHODS])
    p.add_argument("--tau-rho", dest="tau_rho", type=float, default=0.25)
    p.add_argument("--cap-multiplier", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help=threads_help)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(fn=_cmd_phase)

    p = sub.add_parser("bounds", help="evaluate a closed-form bound")
    p.add_argument("--bound", required=True,
                   choices=sorted(bounds_mod.BOUND_REGISTRY))
    p.add_argument("--d", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--tau", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--bigk", type=float, help="almost-sure entry bound K")
    p.add_argument("--c", type=float, default=1.0, help="leading constant (default 1)")
    p.set_defaults(fn=_cmd_bounds)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except NonConvergenceError as exc:
        print(f"error: eigensolver did not converge: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
