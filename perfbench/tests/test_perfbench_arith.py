"""Unit tests of the wall-clock benchmark's own arithmetic and tracing."""

import gzip
import json
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

from wallbench import hostspeed, layers  # noqa: E402
from wallbench.stats import (  # noqa: E402
    TAIL_PERCENTILES,
    Outcome,
    fail_frac,
    failure_counts,
    geomean,
    nearest_rank,
    per_query_geomean,
    self_times,
    spread,
    tail,
    tail_percentile,
)
from wallbench.trace import Patcher, Tracer  # noqa: E402
from wallbench.workloads import END_TO_END, WORKLOADS  # noqa: E402

# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (39, 50.0), (40, 75.0), (44, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_beyond_and_next_candidate_does_not():
    for n in range(20, 3000):
        chosen = tail_percentile(n)
        assert n - nearest_rank(chosen, n) >= 10
        higher = [p for p in TAIL_PERCENTILES if p > chosen]
        if higher:
            assert n - nearest_rank(min(higher), n) < 10


def test_tail_falls_back_to_median_for_tiny_samples():
    assert tail_percentile(5) == 50.0
    percentile, value, n = tail([5.0, 1.0, 3.0])
    assert (percentile, value, n) == (50.0, 3.0, 3)


def test_tail_value_is_nearest_rank():
    percentile, value, n = tail([float(v) for v in range(44, 0, -1)])
    assert (percentile, value, n) == (75.0, 33.0, 44)


# -- geomean and spread ------------------------------------------------------------


def test_geomean():
    assert geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert geomean([7.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
    with pytest.raises(ValueError):
        geomean([])


def test_per_query_geomean_uses_each_querys_median():
    latencies = {1: [1.0, 100.0, 4.0], 2: [9.0]}
    assert per_query_geomean(latencies) == pytest.approx(6.0)


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- host speed --------------------------------------------------------------------


def test_host_scale_divides_out_the_mean_slowness():
    assert hostspeed.host_scale(1.0, 1.0) == pytest.approx(1.0)
    assert hostspeed.host_scale(2.0, 2.0) == pytest.approx(0.5)
    assert hostspeed.host_scale(1.0, 3.0) == pytest.approx(0.5)


def test_outcome_scaled_latency():
    assert Outcome(1, 0.2).scaled_s == pytest.approx(0.2)
    assert Outcome(1, 0.2, host_scale=0.75).scaled_s == pytest.approx(0.15)


def test_host_clock_shares_probes_between_back_to_back_intervals(monkeypatch):
    ref = hostspeed.REFERENCE_PROBE_S
    readings = iter([2 * ref, 4 * ref, ref, 0.5 * ref, 1.5 * ref])
    monkeypatch.setattr(hostspeed, "cpu_probe", lambda: next(readings))
    clock = hostspeed.HostClock(reuse_s=60.0)
    wall, scale = clock.stop(clock.start())
    assert wall >= 0.0
    assert scale == pytest.approx(1 / 3)
    # The probe that ended the first interval opens the second.
    _, scale = clock.stop(clock.start())
    assert scale == pytest.approx(2 / 5)
    clock.reuse_s = -1.0  # too old: probe again
    _, scale = clock.stop(clock.start())
    assert scale == pytest.approx(1.0)
    assert clock.probes == pytest.approx([2.0, 4.0, 1.0, 0.5, 1.5])


def test_echo_probe_is_a_geometric_mean_and_its_child_is_reaped(monkeypatch):
    monkeypatch.setattr(hostspeed, "cpu_probe", lambda: 4 * hostspeed.REFERENCE_PROBE_S)
    clock = hostspeed.HostClock(cross_process=True)
    pid = clock.echo.pid
    try:
        assert clock.echo.round_trips() > 0.0
        monkeypatch.setattr(
            clock.echo, "round_trips", lambda: 9 * hostspeed.REFERENCE_ECHO_S
        )
        _, scale = clock.stop(clock.start())
        assert scale == pytest.approx(1 / 6)
    finally:
        clock.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, 0)
    clock.close()  # idempotent


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_nested_spans():
    spans = [
        ("outer", 0, 100, 1),
        ("mid", 10, 40, 1),
        ("inner", 20, 30, 1),
        ("mid", 50, 60, 1),
    ]
    assert self_times(spans) == {"outer": 60, "mid": 30, "inner": 10}


def test_self_time_is_per_process():
    # The driver blocks while a worker runs: both keep their own time.
    spans = [
        ("dispatch_wait", 0, 100, 1),
        ("task", 10, 90, 2),
        ("kernel", 20, 50, 2),
        ("task", 15, 95, 3),
    ]
    assert self_times(spans) == {"dispatch_wait": 100, "task": 130, "kernel": 30}


def test_self_time_order_independent_and_clips_overhang():
    spans = [("b", 10, 120, 1), ("a", 0, 100, 1)]
    assert self_times(spans) == self_times(list(reversed(spans)))
    assert self_times(spans) == {"a": 10, "b": 90}


def test_self_time_of_sequential_spans():
    spans = [("a", 0, 10, 1), ("a", 10, 25, 1), ("b", 30, 31, 1)]
    assert self_times(spans) == {"a": 25, "b": 1}


# -- failure accounting ----------------------------------------------------------------


def test_fail_frac_counts_every_failure_kind():
    outcomes = [
        Outcome(1, 0.1),
        Outcome(2, 0.1, error="ExecutionError: boom"),
        Outcome(3, 0.1, matched=False),
        Outcome(4, 0.1, leaked_blocks=2),
        Outcome(5, 0.1, runtime_changed=True),
        Outcome(6, 0.1),
        Outcome(7, 0.1),
        Outcome(8, 0.1),
    ]
    assert [o.failed for o in outcomes] == [False, True, True, True, True, False, False, False]
    assert failure_counts(outcomes) == (8, 4)
    assert fail_frac(outcomes) == 0.5
    assert fail_frac([]) == 0.0


# -- tracing ---------------------------------------------------------------------------


def test_span_folds_recursion_and_nests_other_layers(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.span("inner", lambda: "x")

    def recurse(depth):
        return recurse_wrapped(depth - 1) if depth else inner()

    recurse_wrapped = tracer.span("outer", recurse)
    assert recurse_wrapped(3) == "x"
    names = [s[0] for s in tracer.spans]
    assert names == ["inner", "outer"]
    (_, i_start, i_end, _), (_, o_start, o_end, _) = tracer.spans
    assert o_start <= i_start <= i_end <= o_end


def test_counter_counts_calls(tmp_path):
    tracer = Tracer(tmp_path)
    counted = tracer.counter("calls", lambda x: x + 1)
    assert [counted(i) for i in range(3)] == [1, 2, 3]
    assert tracer.counts == Counter({"calls": 3})


def _child_task(task):
    task()


def test_worker_spans_merge_into_driver(tmp_path):
    tracer = Tracer(tmp_path)
    kernel = tracer.span("kernel", lambda: None)
    task = tracer.worker_task("task", lambda: kernel())
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_child_task, args=(task,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert tracer.spans == []
    tracer.merge_workers()
    assert sorted(s[0] for s in tracer.spans) == ["kernel", "task"]
    assert {s[3] for s in tracer.spans} == {proc.pid}
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "trace.json.gz"
    tracer.write_chrome_trace(out)
    events = json.loads(gzip.decompress(out.read_bytes()))["traceEvents"]
    assert {e["ph"] for e in events} == {"M", "X"}
    assert {e["pid"] for e in events} == {proc.pid}


def test_patcher_rebinds_everywhere_and_restores():
    import repro.kernels.sort as sort_module
    import repro.physical.operators as operators

    original = sort_module.sort_batch
    assert operators.sort_batch is original
    patcher = Patcher()
    patcher.patch("repro.kernels.sort:sort_batch", lambda fn: lambda *a, **k: "wrapped")
    patcher.patch("repro.data.batch:Batch.__init__", lambda fn: fn)
    try:
        assert sort_module.sort_batch() == "wrapped"
        assert operators.sort_batch() == "wrapped"
    finally:
        patcher.restore()
    assert sort_module.sort_batch is original
    assert operators.sort_batch is original


# -- per-layer arithmetic and the benchmark contract --------------------------------------


def test_layer_metrics_are_per_pass():
    spans = [
        ("core.wait", 0, 4_000_000, 1),
        ("kernels.agg", 1_000_000, 2_000_000, 1),
        ("gcs.commit", 2_000_000, 2_500_000, 1),
        ("gcs.commit", 3_000_000, 3_500_000, 1),
    ]
    counts = Counter({"core.descriptor_attempts": 40, "sim.events": 100})
    sums = {"tasks_executed": 4, "lineage_bytes": 2048}
    extra = {name: 0.0 for name in (
        "tpch.generate_s", "optimizer.analyze_ms", "plan.reference_ms",
        "trace.overhead_frac", "sim.runtime_s", "sim.recovery_ratio",
    )}
    values = layers.layer_metrics(spans, counts, 2, sums, extra)
    assert list(values) == [name for name, _unit in layers.PER_LAYER]
    assert values["core.wait_ms"] == pytest.approx(1.0)
    assert values["kernels.agg_ms"] == pytest.approx(0.5)
    assert values["gcs.commit_ms"] == pytest.approx(0.5)
    assert values["gcs.transactions"] == 1
    assert values["core.tasks_committed"] == 2
    assert values["core.descriptor_attempts"] == 20
    assert values["core.attempt_yield"] == pytest.approx(0.1)
    assert values["gcs.lineage_kb"] == pytest.approx(1.0)
    assert values["parallel.tasks"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
