"""Runtime semi-join filter coordination for the simulated engine.

One :class:`FilterCoordinator` per :class:`~repro.core.engine.ExecutionContext`
owns the lifecycle of every :class:`~repro.physical.stages.RuntimeFilterSpec`
on the compiled graph:

* **Accumulation.**  Every committed output of a filter's source stage (the
  join's build-side producer) folds its key column into a
  :class:`~repro.kernels.runtimefilter.RuntimeFilterBuilder`.  The fold runs
  *synchronously* right after the commit transaction — before any simulation
  yield — so no process can observe the channel-done mark of a commit whose
  values are not yet in the builder.  Re-commits from rewound or retraced
  producers re-add identical values into idempotent reductions, so recovery
  needs no deduplication.

* **Publication.**  When the last source channel marks done, the filter is
  finalized on the spot (its content is now a pure function of the build
  value set) and the shipped bytes are charged on the simulated network from
  the committing worker to every worker hosting a target channel.  The gate
  on the target stage lifts only after those transfers complete.

* **Gating (the epoch discipline).**  Tasks of a target stage are held back —
  exactly like the adaptive controller's pending-decision gate — until every
  filter aimed at them is published.  A target task therefore always observes
  the *final* filter, and a retraced producer re-running arbitrarily later
  observes the very same one: filters never change after publication, which
  is what keeps lineage-driven reconstruction byte-identical.

  Gating is deadlock-free: every filter edge points from a join's build
  subtree into its disjoint probe subtree of a tree-shaped plan, so a cycle
  among "target waits for source completion" dependencies would require two
  subtrees to be simultaneously nested and disjoint.

* **Application.**  :meth:`apply` drops non-matching rows from a target
  stage's output after its fused post-ops (and after the scan cache, so
  cached scan outputs stay shareable with filter-less queries) through
  :func:`~repro.kernels.runtimefilter.apply_runtime_filters`, and counts
  them; the engine prunes whole scan splits with
  :func:`~repro.optimizer.runtime_filters.split_is_prunable` over
  :meth:`aimed_at`.  Both functions are the ones the parallel backend
  calls, so the two backends drop and prune exactly the same rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.data.batch import Batch
from repro.kernels.runtimefilter import (
    RuntimeFilter,
    RuntimeFilterBuilder,
    apply_runtime_filters,
)
from repro.physical.stages import RuntimeFilterSpec, Stage


class FilterCoordinator:
    """Builds, publishes and applies runtime filters for one query."""

    def __init__(self, execution):
        self.execution = execution
        self.specs: List[RuntimeFilterSpec] = list(execution.graph.runtime_filters)
        self._by_source: Dict[int, List[RuntimeFilterSpec]] = {}
        self._by_target: Dict[int, List[RuntimeFilterSpec]] = {}
        for spec in self.specs:
            self._by_source.setdefault(spec.source_stage_id, []).append(spec)
            self._by_target.setdefault(spec.target_stage_id, []).append(spec)
        self._builders: Dict[int, RuntimeFilterBuilder] = {}
        #: Finalized filters by filter id (content frozen at source completion).
        self.filters: Dict[int, RuntimeFilter] = {}
        #: Filter ids whose shipped bytes have been charged (gate lifted).
        self.published: set = set()
        #: Finalized but not yet network-charged, in finalization order.
        self._pending_publish: List[RuntimeFilterSpec] = []
        #: Observed probe traffic per filter id: [rows_tested, rows_dropped].
        self._observed: Dict[int, List[int]] = {
            spec.filter_id: [0, 0] for spec in self.specs
        }

    # -- gating -------------------------------------------------------------------

    def gated(self, stage_id: int) -> bool:
        """True while any filter aimed at ``stage_id`` is not yet published."""
        specs = self._by_target.get(stage_id)
        if not specs:
            return False
        return any(spec.filter_id not in self.published for spec in specs)

    # -- accumulation / publication -------------------------------------------------

    def observe_commit(self, stage: Stage, out_batch: Batch) -> None:
        """Fold one committed source output; finalize on source completion.

        Must be called synchronously after the commit transaction (no yield in
        between): the completion check below reads the channel-done marks that
        the same transaction wrote, and every earlier commit's fold already
        ran under the same no-yield discipline.
        """
        specs = self._by_source.get(stage.stage_id)
        if not specs:
            return
        live = [spec for spec in specs if spec.filter_id not in self.filters]
        if not live:
            return
        if out_batch.num_rows:
            for spec in live:
                self._builder_for(stage, spec).add(
                    out_batch.column_data(spec.build_key)
                )
        gcs = self.execution.gcs
        if all(
            gcs.channel_done.is_done(stage.stage_id, channel)
            for channel in range(stage.num_channels)
        ):
            for spec in live:
                builder = self._builder_for(stage, spec)
                self.filters[spec.filter_id] = builder.finalize()
                self._builders.pop(spec.filter_id, None)
                self._pending_publish.append(spec)

    def _builder_for(self, stage: Stage, spec: RuntimeFilterSpec) -> RuntimeFilterBuilder:
        builder = self._builders.get(spec.filter_id)
        if builder is None:
            dtype = stage.output_schema.field(spec.build_key).dtype
            builder = RuntimeFilterBuilder(dtype)
            self._builders[spec.filter_id] = builder
        return builder

    def publish_ready(self, worker):
        """Process: charge the network for newly finalized filters.

        The filter travels from the worker that committed the completing
        build output to every worker hosting a channel of the target stage
        (the simulated analogue of a coordinator fan-out).  Only after the
        transfers complete does the filter count as published, i.e. does the
        target's gate lift.
        """
        execution = self.execution
        while self._pending_publish:
            spec = self._pending_publish.pop(0)
            rf = self.filters[spec.filter_id]
            target = execution.graph.stage(spec.target_stage_id)
            nbytes = rf.nbytes
            scaled = execution.cost_model.scaled(nbytes)
            destinations = {
                execution.gcs.placement.worker_for(target.stage_id, channel)
                for channel in range(target.num_channels)
            }
            for destination in sorted(destinations):
                yield from execution.cluster.network.transfer(
                    worker.worker_id,
                    destination,
                    scaled + execution.PIECE_OVERHEAD,
                )
            self.published.add(spec.filter_id)
            execution.state_changed()  # lifts the target stage's gate
            execution.metrics.filters_published += 1
            execution.metrics.filter_bytes += float(nbytes)
            if execution.tracer.enabled:
                execution.tracer.record_filter(
                    execution.env.now,
                    spec.filter_id,
                    spec.join_stage_id,
                    spec.source_stage_id,
                    spec.target_stage_id,
                    spec.build_key,
                    spec.probe_key,
                    rf.kind,
                    nbytes,
                    rf.build_rows,
                )

    # -- application ----------------------------------------------------------------

    def aimed_at(self, stage_id: int) -> List[Tuple[RuntimeFilterSpec, RuntimeFilter]]:
        """The finalized filters aimed at ``stage_id``, paired with their specs.

        The gate guarantees every one is published by the time the stage's
        tasks run, so lookups are plain dict hits.
        """
        return [
            (spec, self.filters[spec.filter_id])
            for spec in self._by_target.get(stage_id, ())
        ]

    def apply(self, stage: Stage, batch: Batch) -> Batch:
        """Filter one target-stage output, counting what each filter drops.

        The counts feed the query metrics and :meth:`probe_scale`.
        """
        aimed = self.aimed_at(stage.stage_id)
        if not aimed:
            return batch
        batch, counts = apply_runtime_filters(
            batch, [(spec.probe_key, rf) for spec, rf in aimed]
        )
        metrics = self.execution.metrics
        for (spec, _rf), (tested, dropped) in zip(aimed, counts):
            metrics.filter_rows_tested += tested
            metrics.filter_rows_dropped += dropped
            observed = self._observed[spec.filter_id]
            observed[0] += tested
            observed[1] += dropped
        return batch

    # -- adaptive feedback ------------------------------------------------------------

    def probe_scale(self, join_stage_id: int) -> float:
        """Observed shrink factor of a join's probe input from ready filters.

        The product of kept/tested ratios over every published filter whose
        target lies in the join's probe subtree and has seen traffic.  Feeds
        the adaptive controller's channel re-sizing: a probe side the filters
        cut by 10x needs far fewer join channels than its compile-time
        estimate implied.
        """
        subtree = self._probe_subtree(join_stage_id)
        scale = 1.0
        for spec in self.specs:
            if spec.target_stage_id not in subtree:
                continue
            if spec.filter_id not in self.published:
                continue
            tested, dropped = self._observed[spec.filter_id]
            if tested:
                scale *= (tested - dropped) / tested
        return scale

    def _probe_subtree(self, join_stage_id: int) -> set:
        graph = self.execution.graph
        stage = graph.stage(join_stage_id)
        if not stage.join_info:
            return set()
        seen: set = set()
        pending = [stage.join_info["probe_id"]]
        while pending:
            stage_id = pending.pop()
            if stage_id in seen:
                continue
            seen.add(stage_id)
            pending.extend(
                link.upstream_id for link in graph.stage(stage_id).upstreams
            )
        return seen

    # -- introspection (tests / benches) ----------------------------------------------

    def selectivities(self) -> Dict[int, Optional[float]]:
        """Kept/tested ratio per published filter (``None`` before traffic)."""
        out: Dict[int, Optional[float]] = {}
        for spec in self.specs:
            tested, dropped = self._observed[spec.filter_id]
            out[spec.filter_id] = (tested - dropped) / tested if tested else None
        return out
