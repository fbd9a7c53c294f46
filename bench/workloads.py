"""The benchmark's workloads: their generated inputs, the API calls that run
them, and the checks on every call's output.

Every input a workload hands to specgraph comes from ``call_seed(seed, i)``,
the benchmark seed mixed with the call's index; sizes and parameters are fixed
below and never depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sparse-deviation", "phase", "cli-pipeline")

# Why these sizes (2-core reference machine, see README.md):
# - sparse-deviation runs the tau-Laplacian at n = 1e5, where the Lanczos
#   solver reaches its 500-vector basis cap (about 50 s, often failing); the
#   plain and degree-capped sweeps run at n = 1e4, where enough replicates fit
#   in one run that their throughput repeats across seeds.  At n = 1e5 one
#   capped replicate takes 4 to 13 s depending on the draw.
# - phase and cli-pipeline use the sizes of the acceptance phase sweep and of
#   a mid-size CLI session.
SIZES = {
    "sparse-deviation": {"n": 10_000, "n_tau": 100_000, "d": 2.0, "R": 2},
    "phase": {"n": 4000, "d": 10.0, "snr": (0.0, 4.0, 10.0), "R": 1},
    "cli-pipeline": {"n": 50_000, "a": 6.0, "b": 1.0},
}
# same code paths at a size that runs in well under a second: warm-up, tests
TINY = {
    "sparse-deviation": {"n": 400, "n_tau": 400, "d": 2.0, "R": 2},
    "phase": {"n": 300, "d": 10.0, "snr": (0.0, 4.0, 10.0), "R": 1},
    "cli-pipeline": {"n": 400, "a": 6.0, "b": 1.0},
}
# the thread-invariance pair: phase_sweep at the phase workload's size
INVARIANCE_R = 1

CSV_HEADER = ["model", "n", "d", "a", "b", "snr", "regularization", "method",
              "statistic", "mean", "stderr", "R", "seed"]


def call_seed(seed, index):
    """The library seed of call ``index`` in a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Call:
    index: int
    seed: int
    params: tuple  # sorted (key, value) pairs; never depends on the seed

    @property
    def p(self):
        return dict(self.params)


def plan(workload, seed, sizes=None):
    """Endless sequence of the calls a run makes, in order."""
    size = (sizes or SIZES)[workload]
    if workload == "sparse-deviation":
        first = {"regularization": "tau-laplacian", "n": size["n_tau"], "R": 1,
                 "d": size["d"]}
        cycle = [{"regularization": reg, "n": size["n"], "R": size["R"],
                  "d": size["d"]} for reg in ("none", "degree-cap")]
        params = itertools.chain([first], itertools.cycle(cycle))
    elif workload == "phase":
        params = itertools.repeat({k: size[k] for k in ("n", "d", "snr", "R")})
    elif workload == "cli-pipeline":
        params = itertools.repeat(dict(size))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, p in enumerate(params):
        yield Call(i, call_seed(seed, i), tuple(sorted(p.items())))


@dataclass
class Outcome:
    wall_s: float               # wall time of the API calls, checks excluded
    attempted: int
    failed: int
    problems: list = field(default_factory=list)   # failed output checks
    values: list = field(default_factory=list)     # compared with the reference
    csv: str = ""


# ---------------------------------------------------------------------------
# running one call
# ---------------------------------------------------------------------------

def run_call(workload, call, scratch, threads=None,
             untraced=contextlib.nullcontext):
    """Run one call and check its output; ``untraced()`` wraps the checks."""
    if workload == "sparse-deviation":
        return _run_sweep(call, threads)
    if workload == "phase":
        return _run_phase(call, threads)
    return _run_pipeline(call, scratch, untraced)


def _run_sweep(call, threads):
    from specgraph.experiments import ExperimentConfig, measure_concentration
    p = call.p
    config = ExperimentConfig(model="er", n_grid=(p["n"],), d_grid=(p["d"],),
                              R=p["R"], regularization=p["regularization"],
                              seed=call.seed)
    t0 = time.perf_counter()
    text = measure_concentration(config, threads=threads).to_csv()
    wall = time.perf_counter() - t0
    return _check_sweep(call, text, wall)


def _run_phase(call, threads):
    from specgraph.experiments import phase_sweep
    p = call.p
    t0 = time.perf_counter()
    text = phase_sweep(d=p["d"], snr_grid=p["snr"], n=p["n"], R=p["R"],
                       method="both", seed=call.seed, threads=threads).to_csv()
    wall = time.perf_counter() - t0
    out = _check_phase(call, text, wall)
    out.csv = text
    return out


def _run_pipeline(call, scratch, untraced):
    from specgraph.cli import main
    p = call.p
    work = tempfile.mkdtemp(prefix="pipeline-", dir=scratch)
    try:
        g, capped = os.path.join(work, "g.tsv"), os.path.join(work, "capped.tsv")
        truth = g + ".labels"
        seed = str(call.seed)
        argvs = [
            ["gen", "--model", "pp", "--a", str(p["a"]), "--b", str(p["b"]),
             "--n", str(p["n"]), "--seed", seed, "--out", g],
            ["reg", "--in", g, "--mode", "cap", "--out", capped],
            ["detect", "--in", capped, "--truth", truth, "--labels-out",
             os.path.join(work, "laplacian.labels"), "--seed", seed],
            ["detect", "--in", capped, "--truth", truth, "--method",
             "top-k-embedding", "--labels-out",
             os.path.join(work, "embedding.labels"), "--seed", seed],
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        codes = []
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            for argv in argvs:
                codes.append(main(argv))
                if codes[-1] != 0:
                    break
        wall = time.perf_counter() - t0
        out = Outcome(wall, 1, 0)
        if codes != [0, 0, 0, 0]:
            out.failed = 1
            out.problems.append(f"exit codes {codes}: {stderr.getvalue().strip()}")
            return out
        with untraced():
            _check_pipeline(out, p, stdout.getvalue(), work, g, capped)
        if out.problems:
            out.failed = 1
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# output checks (seed-independent; the reference check is in run.py)
# ---------------------------------------------------------------------------

def _parse_csv(text, problems):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        problems.append(f"CSV header {rows[:1]} != {CSV_HEADER}")
        return []
    body = []
    for raw in rows[1:]:
        if len(raw) != len(CSV_HEADER):
            problems.append(f"CSV row has {len(raw)} cells: {raw}")
            continue
        r = dict(zip(CSV_HEADER, raw))
        body.append(r)
        for key in ("mean", "stderr"):
            if r[key] != "" and not math.isfinite(float(r[key])):
                problems.append(f"non-finite {key} in row {r}")
    return body


def _check_sweep(call, text, wall):
    p = call.p
    problems = []
    rows = _parse_csv(text, problems)
    norms = [r for r in rows if r["statistic"] == "deviation_norm"]
    out = Outcome(wall, p["R"], 0, problems)
    if len(norms) != 1:
        problems.append(f"{len(norms)} deviation_norm rows")
        out.failed = p["R"]
        return out
    row = norms[0]
    expect = {"model": "er", "n": str(p["n"]), "regularization": p["regularization"],
              "seed": str(call.seed)}
    for key, val in expect.items():
        if row[key] != val or float(row["d"]) != p["d"]:
            problems.append(f"row {row} does not match the call {expect}")
            break
    used = int(row["R"])
    out.failed = p["R"] - used
    failures = [r for r in rows if r["statistic"] == "solver_failures"]
    if out.failed and (len(failures) != 1 or float(failures[0]["mean"]) != out.failed):
        problems.append(f"{out.failed} failed replicates but solver_failures {failures}")
    # ||L(A_tau) - L(E A_tau)|| <= 2; ||A - E A|| <= max degree + d, far below 50
    # for an ER d = 2 draw
    upper = 2.0 if p["regularization"] == "tau-laplacian" else 50.0
    if used:
        norm = float(row["mean"])
        if not 0.0 < norm <= upper:
            problems.append(f"deviation norm {norm} outside (0, {upper}]")
        out.values = [norm]
    else:
        if row["mean"] != "":
            problems.append(f"R=0 but mean {row['mean']!r}")
        out.values = [None]
    if problems:
        out.failed = p["R"]
    return out


def _check_phase(call, text, wall):
    p = call.p
    problems = []
    rows = _parse_csv(text, problems)
    keys = [(float(r["snr"]), r["method"]) for r in rows]
    expect = [(s, m) for s in p["snr"] for m in ("reg-adjacency", "reg-laplacian")]
    out = Outcome(wall, p["R"] * len(expect), 0, problems)
    if keys != expect or any(r["statistic"] != "accuracy" for r in rows):
        problems.append(f"phase rows {keys} != {expect}")
        out.failed = out.attempted
        return out
    for r in rows:
        used = int(r["R"])
        out.failed += p["R"] - used
        acc = float(r["mean"]) if used else None
        out.values.append(acc)
        if acc is None:
            continue
        # two-community accuracy is minimized over label swaps, so >= 1/2;
        # snr 0 carries no signal and snr 10 is far above the threshold 1
        low, high = {0.0: (0.5, 0.6), 10.0: (0.9, 1.0)}.get(float(r["snr"]),
                                                            (0.5, 1.0))
        if not low <= acc <= high:
            problems.append(f"accuracy {acc} at snr {r['snr']} outside [{low}, {high}]")
    if problems:
        out.failed = out.attempted
    return out


def _check_pipeline(out, p, stdout, work, g_path, capped_path):
    from specgraph.models import Graph, read_labels
    problems = out.problems
    lines = [json.loads(ln) for ln in stdout.splitlines() if ln.startswith("{")]
    if len(lines) != 3:
        problems.append(f"expected 3 JSON reports, got {len(lines)}")
        return
    reg, lap, emb = lines
    with open(g_path, encoding="utf-8") as fh:
        text = fh.read()
    g = Graph.parse_tsv(text)
    if g.n != p["n"] or Graph.parse_tsv(g.format_tsv()) != g or g.format_tsv() != text:
        problems.append("graph TSV does not round-trip")
    with open(capped_path, encoding="utf-8") as fh:
        capped = Graph.parse_tsv(fh.read())
    if reg["edges_in"] != g.m or reg["edges_out"] != capped.m:
        problems.append(f"reg report {reg['edges_in']}/{reg['edges_out']} "
                        f"!= edges {g.m}/{capped.m}")
    if float(capped.degrees().max()) > 2.0 * float(g.degrees().mean()) * (1 + 1e-9):
        problems.append("capped graph has a degree above the cap")
    truth = read_labels(g_path + ".labels")
    for name, rep in (("laplacian", lap), ("embedding", emb)):
        labels = read_labels(os.path.join(work, f"{name}.labels"))
        if len(labels) != p["n"] or not set(np.unique(labels)) <= {1, 2}:
            problems.append(f"{name} labels malformed")
        # a = 6, b = 1 is well above the detection threshold (snr 3.6)
        mis = rep["misclassification"]
        if not 0.0 <= mis <= 0.35:
            problems.append(f"{name} misclassification {mis} outside [0, 0.35]")
        out.values.append(mis)
    if len(truth) != p["n"]:
        problems.append("truth labels malformed")
