"""Which module boundaries the traced run wraps, and the per-layer metrics.

Each span name is ``<layer>.<what>`` after the ``src/repro`` package it
times.  Self time is what a layer spends outside every other listed span, so
the ``*_ms`` metrics of one pass add up to (at most) its traced wall time.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Tuple

from wallbench.stats import Span, self_times
from wallbench.trace import Patcher, Tracer

#: Span name -> the functions and methods whose outermost calls it times.
SPANS: Dict[str, Tuple[str, ...]] = {
    "sql.parse": ("repro.sql.parser:parse",),
    "sql.plan": ("repro.sql.planner:plan_query",),
    "optimizer.optimize": ("repro.optimizer.optimizer:optimize_plan",),
    "optimizer.join_order": ("repro.optimizer.join_order:reorder_joins",),
    "physical.compile": ("repro.physical.compiler:compile_plan",),
    "parallel.execute": ("repro.parallel.runner:ParallelExecutor.execute",),
    "parallel.dispatch_wait": ("repro.parallel.pool:WorkerPool.run",),
    "parallel.shm_write": (
        "repro.parallel.shm:write_batch",
        "repro.parallel.shm:write_blob",
    ),
    "parallel.shm_read": (
        "repro.parallel.shm:read_batch",
        "repro.parallel.shm:read_blob",
    ),
    "kernels.agg": (
        "repro.kernels.aggregate:GroupedAggregationState.update",
        "repro.kernels.aggregate:GroupedAggregationState.merge",
        "repro.kernels.aggregate:GroupedAggregationState.finalize",
    ),
    "kernels.join": (
        "repro.kernels.join:HashJoin.build",
        "repro.kernels.join:HashJoin.probe",
    ),
    "kernels.filter": ("repro.kernels.filter:filter_batch",),
    "kernels.project": ("repro.kernels.project:project_batch",),
    "kernels.sort": ("repro.kernels.sort:sort_batch", "repro.kernels.sort:top_k"),
    "kernels.factorize": (
        "repro.kernels.factorize:KeyEncoder.__init__",
        "repro.kernels.factorize:KeyEncoder.encode",
        "repro.kernels.factorize:factorize_key",
    ),
    "kernels.runtime_filter": (
        "repro.kernels.runtimefilter:RuntimeFilter.mask",
        "repro.kernels.runtimefilter:RuntimeFilterBuilder.add",
        "repro.kernels.runtimefilter:RuntimeFilterBuilder.finalize",
    ),
    "expr.eval": ("repro.expr.eval:evaluate",),
    "data.partition": (
        "repro.data.partition:hash_partition",
        "repro.data.partition:round_robin_partition",
    ),
    "data.batch_init": ("repro.data.batch:Batch.__init__",),
    "plan.splits": ("repro.plan.catalog:TableMetadata.splits",),
    "core.submit": ("repro.core.session:Session.submit_options",),
    "core.wait": ("repro.core.session:Session.wait",),
    "gcs.commit": ("repro.gcs.store:Transaction.commit",),
    "core.recovery": (
        "repro.core.recovery:RecoveryCoordinator.recover_from_failure",
        "repro.core.recovery:RecoveryCoordinator.reconcile_stuck_channels",
    ),
}

#: Count-only wrappers for calls too frequent or too generator-shaped to span.
COUNTERS: Dict[str, str] = {
    "sim.events": "repro.sim.core:Environment.step",
    "core.descriptor_attempts": "repro.core.engine:ExecutionContext._run_descriptor",
}

#: The parallel task body: spanned in the worker, then handed to the driver.
WORKER_TASK = ("parallel.task", "repro.parallel.runner:StageGraphTaskHandler.run")
#: Pool construction and shutdown; the driver merges worker spans after close.
POOL_OPEN = ("parallel.pool", "repro.parallel.pool:WorkerPool.__init__")
POOL_CLOSE = ("parallel.pool", "repro.parallel.pool:WorkerPool.close")


def install(tracer: Tracer) -> Patcher:
    """Wrap every listed boundary with ``tracer``; returns the undo handle."""
    import repro.api  # noqa: F401 - load every module that imports a target
    import repro.core.engine  # noqa: F401
    import repro.core.recovery  # noqa: F401
    import repro.parallel.runner  # noqa: F401
    import repro.plan.interpreter  # noqa: F401

    patcher = Patcher()
    for name, targets in SPANS.items():
        for target in targets:
            patcher.patch(target, lambda fn, name=name: tracer.span(name, fn))

    def count_stages(fn):
        def wrapper(*args, **kwargs):
            graph = fn(*args, **kwargs)
            tracer.counts["physical.stages"] += len(graph)
            return graph

        return wrapper

    # Wraps the compile span, so the count sits outside the timed call.
    patcher.patch(SPANS["physical.compile"][0], count_stages)
    for name, target in COUNTERS.items():
        patcher.patch(target, lambda fn, name=name: tracer.counter(name, fn))
    patcher.patch(WORKER_TASK[1], lambda fn: tracer.worker_task(WORKER_TASK[0], fn))
    patcher.patch(POOL_OPEN[1], lambda fn: tracer.span(POOL_OPEN[0], fn))

    def close_then_merge(fn):
        spanned = tracer.span(POOL_CLOSE[0], fn)

        def wrapper(pool, *args, **kwargs):
            try:
                return spanned(pool, *args, **kwargs)
            finally:
                tracer.merge_workers()

        return wrapper

    patcher.patch(POOL_CLOSE[1], close_then_merge)
    return patcher


# -- metrics ---------------------------------------------------------------------

#: Per-layer metrics in output order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("sql.parse_ms", "ms"),
    ("sql.plan_ms", "ms"),
    ("optimizer.optimize_ms", "ms"),
    ("optimizer.join_order_ms", "ms"),
    ("optimizer.analyze_ms", "ms"),
    ("physical.compile_ms", "ms"),
    ("physical.stages", "count"),
    ("tpch.generate_s", "s"),
    ("parallel.execute_ms", "ms"),
    ("parallel.pool_ms", "ms"),
    ("parallel.dispatch_wait_ms", "ms"),
    ("parallel.task_busy_ms", "ms"),
    ("parallel.tasks", "count"),
    ("parallel.shm_mb", "MB"),
    ("parallel.shm_write_ms", "ms"),
    ("parallel.shm_read_ms", "ms"),
    ("parallel.splits_pruned", "count"),
    ("parallel.filter_rows_dropped", "count"),
    ("kernels.agg_ms", "ms"),
    ("kernels.join_ms", "ms"),
    ("kernels.filter_ms", "ms"),
    ("kernels.project_ms", "ms"),
    ("kernels.sort_ms", "ms"),
    ("kernels.factorize_ms", "ms"),
    ("kernels.runtime_filter_ms", "ms"),
    ("expr.eval_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("data.batch_inits", "count"),
    ("data.batch_init_ms", "ms"),
    ("plan.splits_calls", "count"),
    ("plan.splits_ms", "ms"),
    ("core.submit_ms", "ms"),
    ("core.wait_ms", "ms"),
    ("core.tasks_committed", "count"),
    ("core.descriptor_attempts", "count"),
    ("core.attempt_yield", "ratio"),
    ("sim.events", "count"),
    ("sim.runtime_s", "virtual_s"),
    ("sim.recovery_ratio", "ratio"),
    ("gcs.transactions", "count"),
    ("gcs.commit_ms", "ms"),
    ("gcs.lineage_kb", "KB"),
    ("core.recovery_ms", "ms"),
    ("core.replay_tasks", "count"),
    ("core.regenerated_input_tasks", "count"),
    ("core.rewound_channels", "count"),
    ("plan.reference_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

#: ``*_ms`` metrics read straight off one span's self time.
_SELF_MS = {
    "sql.parse_ms": "sql.parse",
    "sql.plan_ms": "sql.plan",
    "optimizer.optimize_ms": "optimizer.optimize",
    "optimizer.join_order_ms": "optimizer.join_order",
    "physical.compile_ms": "physical.compile",
    "parallel.execute_ms": "parallel.execute",
    "parallel.pool_ms": "parallel.pool",
    "parallel.dispatch_wait_ms": "parallel.dispatch_wait",
    "parallel.task_busy_ms": "parallel.task",
    "parallel.shm_write_ms": "parallel.shm_write",
    "parallel.shm_read_ms": "parallel.shm_read",
    "kernels.agg_ms": "kernels.agg",
    "kernels.join_ms": "kernels.join",
    "kernels.filter_ms": "kernels.filter",
    "kernels.project_ms": "kernels.project",
    "kernels.sort_ms": "kernels.sort",
    "kernels.factorize_ms": "kernels.factorize",
    "kernels.runtime_filter_ms": "kernels.runtime_filter",
    "expr.eval_ms": "expr.eval",
    "data.partition_ms": "data.partition",
    "data.batch_init_ms": "data.batch_init",
    "plan.splits_ms": "plan.splits",
    "core.submit_ms": "core.submit",
    "core.wait_ms": "core.wait",
    "gcs.commit_ms": "gcs.commit",
    "core.recovery_ms": "core.recovery",
}

#: Count metrics read off the number of spans of one name.
_SPAN_COUNTS = {
    "parallel.tasks": "parallel.task",
    "data.batch_inits": "data.batch_init",
    "plan.splits_calls": "plan.splits",
    "gcs.transactions": "gcs.commit",
}

#: Count metrics summed from each query's ``QueryMetrics`` field, per backend
#: (the engine reports filter counters too, but they are not ``parallel.*``).
QUERY_METRIC_SUMS = {
    "parallel": {
        "parallel.splits_pruned": "splits_pruned",
        "parallel.filter_rows_dropped": "filter_rows_dropped",
    },
    "engine": {
        "core.tasks_committed": "tasks_executed",
        "core.replay_tasks": "replay_tasks",
        "core.regenerated_input_tasks": "regenerated_input_tasks",
        "core.rewound_channels": "rewound_channels",
    },
}
_SUMMED = {m: f for sums in QUERY_METRIC_SUMS.values() for m, f in sums.items()}


def layer_metrics(
    spans: Iterable[Span],
    counts: Counter,
    passes: int,
    query_sums: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric, per timed pass.

    ``query_sums`` holds the backend's :data:`QUERY_METRIC_SUMS` fields
    summed over the traced passes, plus ``shm_bytes`` (parallel) or
    ``lineage_bytes`` (engine); ``extra`` holds
    the metrics the run measures itself (set-up, reference, overhead and
    simulator figures), already in their final units.
    """
    spans = list(spans)
    selfs = self_times(spans)
    span_counts = Counter(span[0] for span in spans)
    values: Dict[str, float] = {}
    for metric, span in _SELF_MS.items():
        values[metric] = selfs.get(span, 0) / 1e6 / passes
    for metric, span in _SPAN_COUNTS.items():
        values[metric] = span_counts.get(span, 0) / passes
    for metric, field in _SUMMED.items():
        values[metric] = query_sums.get(field, 0) / passes
    values["physical.stages"] = counts.get("physical.stages", 0) / passes
    values["core.descriptor_attempts"] = counts.get("core.descriptor_attempts", 0) / passes
    values["sim.events"] = counts.get("sim.events", 0) / passes
    attempts = values["core.descriptor_attempts"]
    values["core.attempt_yield"] = (
        values["core.tasks_committed"] / attempts if attempts else 0.0
    )
    values["parallel.shm_mb"] = query_sums.get("shm_bytes", 0) / 1e6 / passes
    values["gcs.lineage_kb"] = query_sums.get("lineage_bytes", 0) / 1024 / passes
    values.update(extra)
    missing = [name for name, _unit in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: values[name] for name, _unit in PER_LAYER}
