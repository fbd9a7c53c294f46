"""Fast tests of the benchmark's own code.

    python3 -m pytest -q bench

Every workload also gets a smoke pass at the tiny sizes, so the benchmark
code is exercised in seconds.
"""

import contextlib
import io
import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# percentile rule
# ---------------------------------------------------------------------------

def test_p90_omitted_below_100_samples():
    assert set(run.percentiles([float(i) for i in range(99)])) == {"p50"}
    pct = run.percentiles([float(i) for i in range(100)])
    assert set(pct) == {"p50", "p90"}
    assert pct["p50"] == 49.5
    assert 89.0 <= pct["p90"] <= 91.0


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def _span(sid, start, end, parent=None, thread=1):
    s = tracing.Span(sid, f"s{sid}", start, parent, sid, thread)
    s.end = end
    return s


def test_self_time_of_nested_spans():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, parent=1),
             _span(3, 2.0, 3.0, parent=2), _span(4, 6.0, 7.5, parent=1)]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - 3.0 - 1.5, 2: 2.0, 3: 1.0, 4: 1.5}


def test_self_time_counts_overlapping_threaded_children_once():
    # a sweep call on thread 1 waiting on two pool workers whose replicates
    # overlap in time: the parent's self time is what no child covers
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, parent=1, thread=2),
             _span(3, 4.0, 9.0, parent=1, thread=3),
             _span(4, 9.5, 12.0, parent=1, thread=2)]  # runs past the parent
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert all(v >= 0 for v in selfs.values())


def test_worker_spans_attach_to_the_submitting_span():
    tracer = tracing.Tracer()
    outer = tracer.open("sweep", new_trace=True)
    seen = {}

    def worker():
        span = tracer.open("replicate", new_trace=True)
        inner = tracer.open("solve")
        tracer.close(inner)
        tracer.close(span)
        seen.update(span=span, inner=inner)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(outer)
    assert seen["span"].parent == outer.id
    assert seen["span"].trace == seen["span"].id  # a replicate is its own op
    assert seen["inner"].parent == seen["span"].id
    assert seen["inner"].trace == seen["span"].id
    assert seen["span"].thread != outer.thread


def test_instrument_restores_every_binding():
    from specgraph import experiments, models, spectral
    before = (experiments.top_eigs, models.Graph.__init__,
              models.Graph.__dict__["parse_tsv"], spectral.SymmetricOperator.matvec,
              experiments._phase_replicate)
    restore = tracing.instrument(tracing.Tracer(), [])
    assert experiments.top_eigs is not before[0]
    restore()
    after = (experiments.top_eigs, models.Graph.__init__,
             models.Graph.__dict__["parse_tsv"], spectral.SymmetricOperator.matvec,
             experiments._phase_replicate)
    assert after == before


# ---------------------------------------------------------------------------
# the seed reaches only the generated inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_only_the_library_seeds(workload):
    def first(seed):
        gen = workloads.plan(workload, seed)
        return [next(gen) for _ in range(5)]

    a, b, a2 = first(1), first(2), first(1)
    assert a == a2
    assert [c.params for c in a] == [c.params for c in b]
    assert [c.index for c in a] == [c.index for c in b]
    assert all(x.seed != y.seed for x, y in zip(a, b))
    assert not any("seed" in dict(c.params) for c in a)


def test_traced_call_count_depends_only_on_seconds():
    assert run.traced_calls("phase", 7) == run.traced_calls("phase", 7)
    assert run.traced_calls("sparse-deviation", 0.1) == 2  # tau call + one more


# ---------------------------------------------------------------------------
# tiny smoke passes
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SIZES", workloads.TINY)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_calls_pass_their_checks(tiny, workload):
    gen = workloads.plan(workload, 5)
    for _ in range(3):
        call = next(gen)
        out = workloads.run_call(workload, call, str(tiny))
        assert out.problems == []
        assert out.attempted >= 1 and out.wall_s > 0
    assert os.listdir(tiny) == []  # pipeline scratch directories are removed


def test_a_wrong_output_is_caught():
    call = next(workloads.plan("phase", 0, workloads.TINY))
    bad = "model,n\n"
    out = workloads._check_phase(call, bad, 1.0)
    assert out.problems and out.failed == out.attempted


def test_a_reference_mismatch_fails_the_op():
    run_ = run.Run("phase", 0)
    call = next(workloads.plan("phase", 0))
    out = workloads.Outcome(1.0, 6, 0, values=[0.0] * 6)
    run_.record(call, out)
    assert run_.problems and run_.failed == 6


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(tiny, workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    bench = _benchmark_json()
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_UNITS)
