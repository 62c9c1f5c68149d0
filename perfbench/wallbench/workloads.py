"""The four workloads and the closed loop that times them.

One client sends one TPC-H SQL text at a time and awaits its result before
sending the next.  Every answer is checked against the reference
interpreter's, so a run that got faster by being wrong reports failures.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from wallbench import layers
from wallbench.hostspeed import HostClock
from wallbench.stats import (
    Outcome,
    fail_frac,
    failure_counts,
    geomean,
    per_query_geomean,
    tail,
)
from wallbench.trace import Tracer

ALL_QUERIES = tuple(range(1, 23))
#: ``REPRESENTATIVE_QUERIES`` of ``repro.tpch`` (paper Figures 7-11).
KILL_QUERIES = (1, 6, 3, 10, 5, 7, 8, 9)

PARALLEL_WORKERS = 2
ENGINE_WORKERS = 4
ENGINE_CPUS = 4
#: The engine's cost model scales I/O to the paper's SF 100.
TARGET_SCALE_FACTOR = 100.0
KILL_WORKER = 1
KILL_FRACTION = 0.5

SHM_DIR = Path("/dev/shm")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "parallel" (ParallelRunner) or "engine" (simulated WAL engine)
    scale_factor: float
    queries: Tuple[int, ...]
    #: About one pass's wall time on a 2-CPU host; a pass runs every query
    #: once on every catalog.  ``--seconds`` buys a fixed number of passes,
    #: so the sample size, and with it the tail percentile, is the same on
    #: every run.
    nominal_pass_s: float
    #: Catalog generations per run; ``setup_s`` takes their median.
    setup_reps: int
    #: Catalogs measured per run, with data seeds derived from ``--seed``.
    #: More than one evens out work that swings with the data seed.
    catalogs: int = 1
    kill: bool = False

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def data_seeds(self, seed: int) -> List[int]:
        if self.catalogs == 1:
            return [seed]
        return [seed * self.catalogs + i for i in range(self.catalogs)]


#: Every workload ``run.py`` accepts.  ``BENCHMARK.json`` lists the two that
#: fit its runs budget on a 2-CPU host and cover every layer between them:
#: ``par-sf0.01`` (planning, parallel backend, kernels, expressions, batches)
#: and ``wal-kill`` (simulator, GCS, recovery).  ``par-sf0.1`` and
#: ``wal-sf0.01`` stay runnable by name.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "par-sf0.1",
            "22 TPC-H queries, SF 0.1, ParallelRunner(workers=2): kernels, "
            "expressions, batches and shm transport do most of the work",
            "parallel", 0.1, ALL_QUERIES, nominal_pass_s=10.0, setup_reps=2,
        ),
        Workload(
            "par-sf0.01",
            "22 TPC-H queries, SF 0.01, ParallelRunner(workers=2): per-query fixed "
            "costs (planning, pool fork, dispatch, split slicing) dominate",
            "parallel", 0.01, ALL_QUERIES, nominal_pass_s=10 / 3, setup_reps=3,
        ),
        Workload(
            "wal-sf0.01",
            "22 TPC-H queries, SF 0.01, simulated write-ahead-lineage engine on a "
            "fresh 4x4 cluster each: sim loop, task polling and GCS commits dominate",
            "engine", 0.01, ALL_QUERIES, nominal_pass_s=7.5, setup_reps=3,
        ),
        Workload(
            "wal-kill",
            "8 representative queries on the same engine, worker 1 killed at 50% "
            "of the clean virtual runtime: the only workload that runs recovery",
            "engine", 0.01, KILL_QUERIES, nominal_pass_s=15.0, setup_reps=5,
            catalogs=5, kill=True,
        ),
    )
}

#: End-to-end metrics in output order: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("query_geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answered_frac", "ratio"),
]


def settings(workload: Workload, seed: int, passes: int) -> dict:
    import numpy

    out = {
        "workload": workload.name,
        "seed": seed,
        "data_seeds": workload.data_seeds(seed),
        "scale_factor": workload.scale_factor,
        "queries": list(workload.queries),
        "timed_passes": passes,
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if workload.backend == "parallel":
        out["parallel_workers"] = PARALLEL_WORKERS
    else:
        out["engine_cluster"] = f"{ENGINE_WORKERS} workers x {ENGINE_CPUS} cpus"
        out["io_scale_multiplier"] = TARGET_SCALE_FACTOR / workload.scale_factor
    if workload.kill:
        out["kill"] = f"worker {KILL_WORKER} at {KILL_FRACTION:.0%} of clean virtual runtime"
    return out


@dataclass
class DataSet:
    """One generated catalog with its oracle answers and virtual runtimes."""

    seed: int
    context: object
    answers: Dict[int, object] = field(default_factory=dict)
    #: Clean virtual runtime per query (the kill baseline on ``wal-kill``).
    clean_virtual: Dict[int, float] = field(default_factory=dict)
    #: Virtual runtime per query of the first timed execution.
    virtual: Dict[int, float] = field(default_factory=dict)
    digests: Dict[int, str] = field(default_factory=dict)


@dataclass
class PassSet:
    """Outcomes and ``QueryMetrics`` sums of consecutive timed passes."""

    wall_s: float = 0.0
    #: ``(correct answers, reference seconds, wall seconds)`` of each catalog's
    #: share of each pass; the seconds are sums of its queries' latencies.
    segments: List[Tuple[int, float, float]] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    sums: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


class WorkloadRun:
    """Set up one workload, time it closed-loop, and compute its metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.passes = workload.passes(seconds)
        self.shm_prefix = f"repro_par_{os.getpid()}_"
        self.datasets: List[DataSet] = []
        self.runner = None
        self.setup_failures: List[Outcome] = []
        self.info: Dict[str, object] = {}
        self.clock = HostClock(cross_process=workload.backend == "parallel")

    # -- set-up --------------------------------------------------------------------

    def setup(self) -> float:
        """Generate + ANALYZE, oracle answers, then one warm-up pass per catalog.

        Returns ``setup_s``: the median generate + ANALYZE time plus the
        median warm-up pass, both in reference seconds (``hostspeed``).  The
        oracle is excluded; it doubles as the interpreter's wall time over the
        same queries.
        """
        from repro.api import ParallelRunner
        from repro.tpch import generate_catalog, reference_answer

        workload = self.workload
        seeds = workload.data_seeds(self.seed)
        # Extra generations (beyond one per catalog) only time set-up.
        gen_seeds = seeds + [seeds[-1]] * (workload.setup_reps - len(seeds))
        generate_s, analyze_s, build_s, catalogs = [], [], [], {}
        for seed in gen_seeds:
            catalogs.pop(seed, None)
            gc.collect()
            token = self.clock.start()
            started = time.perf_counter()
            catalog = generate_catalog(workload.scale_factor, seed)
            generated = time.perf_counter()
            catalog.analyze()
            analyzed = time.perf_counter()
            wall, scale = self.clock.stop(token)
            generate_s.append(generated - started)
            analyze_s.append(analyzed - generated)
            build_s.append(wall * scale)
            catalogs[seed] = catalog
            del catalog
        if workload.backend == "parallel":
            self.runner = ParallelRunner(workers=PARALLEL_WORKERS)

        reference_s, warm_s = 0.0, []
        for seed in seeds:
            data = DataSet(seed, self._context(catalogs[seed]))
            self.datasets.append(data)
            for number in workload.queries:
                started = time.perf_counter()
                data.answers[number] = reference_answer(catalogs[seed], number)
                reference_s += time.perf_counter() - started
            warm_s.append(0.0)
            for number in workload.queries:
                outcome, result = self.execute(data, number, clean=True)
                warm_s[-1] += outcome.scaled_s
                if outcome.failed:
                    self.setup_failures.append(outcome)
                elif workload.backend == "engine":
                    data.clean_virtual[number] = result.metrics.runtime_seconds

        # Catalogs, oracle answers and contexts live for the whole run; keep
        # the collector from re-scanning them inside every timed query.
        gc.collect()
        gc.freeze()
        self.info.update(
            generate_s=statistics.median(generate_s),
            analyze_s=statistics.median(analyze_s),
            warmup_s=statistics.median(warm_s),
            reference_s=reference_s,
        )
        return statistics.median(build_s) + statistics.median(warm_s)

    def _context(self, catalog):
        from repro.api import QuokkaContext
        from repro.common.config import CostModelConfig

        if self.workload.backend == "parallel":
            return QuokkaContext(catalog=catalog)
        multiplier = TARGET_SCALE_FACTOR / self.workload.scale_factor
        return QuokkaContext(
            num_workers=ENGINE_WORKERS,
            cpus_per_worker=ENGINE_CPUS,
            cost_config=CostModelConfig(io_scale_multiplier=multiplier),
            catalog=catalog,
        )

    # -- one query -----------------------------------------------------------------

    def _shm_blocks(self) -> set:
        return {name for name in os.listdir(SHM_DIR) if name.startswith(self.shm_prefix)}

    def execute(self, data: DataSet, number: int, clean: bool = False, recorder=None):
        """Run one query closed-loop; returns its :class:`Outcome` and result."""
        from repro.chaos.harness import batches_match
        from repro.cluster.faults import FailurePlan
        from repro.core.options import QueryOptions
        from repro.tpch import SQL_QUERIES

        options = QueryOptions(tracer=recorder)
        if self.workload.kill and not clean:
            plan = FailurePlan.at_fraction(
                KILL_WORKER, KILL_FRACTION, data.clean_virtual[number]
            )
            options = options.with_overrides(failure_plans=[plan])
        parallel = self.runner is not None
        before = self._shm_blocks() if parallel else set()
        result, error, matched = None, None, False
        # Every query starts with empty collector generations, so the
        # collections inside it repeat from pass to pass.
        gc.collect()
        token = self.clock.start()
        try:
            # Latency runs from submit to result batch, planning included.
            frame = data.context.sql(SQL_QUERIES[number])
            result = frame.submit(self.runner, options).wait()
            latency, scale = self.clock.stop(token)
            matched = batches_match(result.batch, data.answers[number])
        except Exception as exc:  # a failed query is counted, not fatal
            if result is None:
                latency, scale = self.clock.stop(token)
            error = f"{type(exc).__name__}: {exc}"
        # The executor unlinks every block of its query; any left is a leak.
        leaked = len(self._shm_blocks() - before) if parallel else 0
        changed = False
        if result is not None and not parallel and not clean:
            virtual = result.metrics.runtime_seconds
            changed = data.virtual.setdefault(number, virtual) != virtual
        outcome = Outcome(number, latency, error, matched, leaked, changed, scale)
        return outcome, result

    # -- timed passes ----------------------------------------------------------------

    def timed_passes(self, traced: bool = False) -> PassSet:
        from repro.trace import TraceRecorder, trace_digest

        backend = self.workload.backend
        out = PassSet()
        started = time.perf_counter()
        for _ in range(self.passes):
            for data in self.datasets:
                first = len(out.outcomes)
                for number in self.workload.queries:
                    recorder = TraceRecorder() if traced and backend == "engine" else None
                    outcome, result = self.execute(data, number, recorder=recorder)
                    out.outcomes.append(outcome)
                    if result is None:
                        continue
                    metrics = result.metrics
                    for name in layers.QUERY_METRIC_SUMS[backend].values():
                        out.sums[name] += getattr(metrics, name)
                    if backend == "parallel":
                        out.sums["shm_bytes"] += metrics.network_bytes
                    else:
                        out.sums["lineage_bytes"] += metrics.lineage_bytes
                    if recorder is not None:
                        digest = trace_digest(recorder)
                        if data.digests.setdefault(number, digest) != digest:
                            self.info.setdefault("digest_drift", []).append(
                                (data.seed, number)
                            )
                segment = out.outcomes[first:]
                correct = sum(1 for o in segment if not o.failed)
                out.segments.append((
                    correct,
                    sum(o.scaled_s for o in segment),
                    sum(o.latency_s for o in segment),
                ))
        out.wall_s = time.perf_counter() - started
        return out

    # -- metrics -------------------------------------------------------------------------

    def end_to_end(self, setup_s: float, timed: PassSet) -> Dict[str, float]:
        outcomes = timed.outcomes
        attempted, failed = failure_counts(outcomes)
        latencies_ms = [o.scaled_s * 1000.0 for o in outcomes]
        by_query: Dict[int, List[float]] = defaultdict(list)
        wall_by_query: Dict[int, List[float]] = defaultdict(list)
        for o in outcomes:
            by_query[o.query].append(o.scaled_s * 1000.0)
            wall_by_query[o.query].append(o.latency_s * 1000.0)
        percentile, tail_ms, n = tail(latencies_ms)
        self.info["tail"] = {"percentile": percentile, "n": n}
        self.info["query_latencies_ms"] = dict(sorted(by_query.items()))
        self.info["query_wall_ms"] = dict(sorted(wall_by_query.items()))
        probes = self.clock.probes
        self.info["host"] = {
            "probes": len(probes),
            "slowness_quartiles": statistics.quantiles(probes, n=4),
            "median_scale": statistics.median(o.host_scale for o in outcomes),
            "wall_query_p50_ms": statistics.median(o.latency_s * 1000.0 for o in outcomes),
            "wall_queries_per_s": statistics.median(c / w for c, _, w in timed.segments),
        }
        return {
            "setup_s": setup_s,
            # Median over passes (and catalogs), so one disturbed pass does not
            # move it.
            "queries_per_s": statistics.median(c / s for c, s, _ in timed.segments),
            "query_p50_ms": statistics.median(latencies_ms),
            "query_tail_ms": tail_ms,
            "query_geomean_ms": per_query_geomean(by_query),
            "peak_rss_mb": peak_rss_mb(),
            "answered_frac": (attempted - failed) / attempted,
        }

    def simulator_figures(self) -> Dict[str, float]:
        """Virtual runtime of one pass and the kill's recovery ratio (0 if n/a)."""
        if self.workload.backend != "engine":
            return {"sim.runtime_s": 0.0, "sim.recovery_ratio": 0.0}
        runtime = sum(sum(d.virtual.values()) for d in self.datasets)
        ratio = 0.0
        if self.workload.kill:
            ratio = geomean(
                d.virtual[q] / d.clean_virtual[q] for d in self.datasets for q in d.virtual
            )
        return {"sim.runtime_s": runtime, "sim.recovery_ratio": ratio}

    def per_query_report(self) -> dict:
        """Virtual runtime and trace digest of every (data seed, query)."""
        return {
            f"seed{d.seed}:q{q}": {
                "virtual_s": d.virtual.get(q),
                "clean_virtual_s": d.clean_virtual.get(q),
                "trace_digest": d.digests.get(q),
            }
            for d in self.datasets
            for q in self.workload.queries
        }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload; return the report (metrics, outcomes, settings)."""
    bench = WorkloadRun(workload, seed, seconds)
    try:
        return _measure(bench, trace, out_dir)
    finally:
        bench.clock.close()


def _measure(bench: WorkloadRun, trace: bool, out_dir: Path) -> dict:
    from repro.parallel.shm import sweep_blocks

    workload, seed = bench.workload, bench.seed
    setup_s = bench.setup()
    timed = bench.timed_passes()
    report = {"settings": settings(workload, seed, bench.passes)}
    outcomes = list(timed.outcomes)
    if not trace:
        report["metrics"] = bench.end_to_end(setup_s, timed)
    else:
        tracer = Tracer(out_dir)
        patcher = layers.install(tracer)
        try:
            traced = bench.timed_passes(traced=True)
        finally:
            patcher.restore()
            tracer.merge_workers()
        outcomes.extend(traced.outcomes)
        extra = {
            "tpch.generate_s": bench.info["generate_s"],
            "optimizer.analyze_ms": bench.info["analyze_s"] * 1000.0,
            "plan.reference_ms": bench.info["reference_s"] * 1000.0,
            "trace.overhead_frac": traced.wall_s / timed.wall_s - 1.0,
        }
        extra.update(bench.simulator_figures())
        report["metrics"] = layers.layer_metrics(
            tracer.spans, tracer.counts, bench.passes, traced.sums, extra
        )
        trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json.gz"
        tracer.write_chrome_trace(trace_path)
        report["chrome_trace"] = str(trace_path)
        report["spans"] = len(tracer.spans)
    # Blocks a failed query left behind were counted; do not leave them.
    sweep_blocks(bench.shm_prefix)
    attempted, failed = failure_counts(outcomes)
    report.update(
        attempted=attempted,
        failed=failed,
        fail_frac=fail_frac(outcomes),
        correct=failed == 0
        and not bench.setup_failures
        and "digest_drift" not in bench.info,
        failures=[o for o in bench.setup_failures + outcomes if o.failed],
        info=bench.info,
        queries=bench.per_query_report() if workload.backend == "engine" else {},
    )
    report.update(bench.simulator_figures())
    return report
