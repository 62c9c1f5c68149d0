"""Idle-attempt memoization in the session's TaskManager loop.

A TaskManager attempt that returns without yielding is *idle*: it found its
task not ready and changed nothing.  ``Session._serve_query`` memoizes such
attempts against ``ExecutionContext.readiness_version()`` and skips them
while that version is unchanged.  These tests park a descriptor as idle,
check that it stays skipped, and check that each kind of state change it
could be waiting for — a flight-buffer put, an upstream lineage commit or
channel-done mark, a runtime-filter publication, an adaptive decision or
plan revision, a channel-runtime rewind, the end of an attempt that yielded,
a worker failure and the recovery rewind after it — makes it run again.  An
audit then re-runs every skipped attempt of whole queries, with one and two
TaskManagers per worker, and checks that each one would indeed have been
idle.
"""

from __future__ import annotations

from unittest.mock import patch

import pytest

from repro.api import QuokkaContext
from repro.chaos import ChaosOptions
from repro.chaos.harness import batches_match
from repro.cluster.faults import FailurePlan
from repro.common.config import ClusterConfig
from repro.core.options import QueryOptions
from repro.core.session import Session
from repro.data.batch import Batch
from repro.gcs.naming import Lineage, TaskName
from repro.gcs.tables import TaskDescriptor
from repro.tpch import SQL_QUERIES, generate_catalog, reference_answer

# Q3's stages at SF 0.001 with broadcast joins off: scans 0 (lineitem),
# 1 (orders), 2 (customer); join 3 = customer x orders, join 4 = 3 x lineitem,
# then aggregation 5 and the final sort 6.  Runtime filter 0 goes from the
# customer scan to the orders scan; adaptive join 3 gates the orders scan
# until its size decision.
ORDERS_SCAN, CUSTOMER_SCAN, JOIN, OUTER_JOIN, AGG = 1, 2, 3, 4, 5


@pytest.fixture(scope="module")
def catalog():
    catalog = generate_catalog(scale_factor=0.001, seed=3)
    catalog.analyze()
    return catalog


class Harness:
    """One admitted Q3 whose TaskManager sweeps the test drives by hand."""

    def __init__(self, catalog, **options):
        frame = QuokkaContext(catalog=catalog).sql(SQL_QUERIES[3])
        self.session = Session(catalog=catalog, enable_output_cache=False)
        self.env = self.session.env
        handle = self.session.submit_options(
            frame, QueryOptions(broadcast_threshold_bytes=0.0, **options)
        )
        self.execution = handle.execution
        # Closed, the shared TaskManagers and coordinator exit at their first
        # step, so the only attempts made are the sweeps below.
        self.session.close()
        self.env.run()
        self.calls = []
        original = self.execution._run_descriptor

        def spy(worker, descriptor):
            self.calls.append(descriptor.name)
            return (yield from original(worker, descriptor))

        self.execution._run_descriptor = spy

    def worker_of(self, name: TaskName):
        return self.session.cluster.worker(self.execution.gcs.tasks.get(name).worker_id)

    def sweep(self, name: TaskName) -> tuple:
        """One sweep of ``name``'s worker offering only ``name``.

        Returns ``(attempts made, whether a task ran)``.
        """
        descriptor = self.execution.gcs.tasks.get(name)
        worker = self.session.cluster.worker(descriptor.worker_id)
        before = len(self.calls)
        with patch.object(self.execution.gcs.tasks, "for_worker", lambda _w: [descriptor]):
            ran = self.env.run(
                self.env.process(self.session._serve_query(worker, self.execution))
            )
        return len(self.calls) - before, ran

    def park(self, name: TaskName) -> None:
        """Attempt ``name`` once (idle) and check the next sweep skips it."""
        assert self.sweep(name) == (1, False)
        assert self.sweep(name) == (0, False)


def test_parked_attempt_stays_skipped_while_nothing_changes(catalog):
    harness = Harness(catalog)
    name = TaskName(AGG, 0, 0)
    harness.park(name)
    for _ in range(3):
        assert harness.sweep(name) == (0, False)
    assert harness.calls == [name]


def test_flight_put_lineage_commit_and_done_mark_each_wake_the_consumer(catalog):
    harness = Harness(catalog)
    execution = harness.execution
    name = TaskName(AGG, 0, 0)
    producer = TaskName(OUTER_JOIN, 0, 0)
    harness.park(name)

    piece = Batch.empty(execution.graph.stage(OUTER_JOIN).output_schema)
    harness.worker_of(name).flight.put((AGG, 0), producer, piece)
    harness.park(name)  # the piece has no committed lineage yet

    execution.gcs.lineage.commit(Lineage(producer, kind="finalize"))
    harness.park(name)  # one piece is below the dynamic batch minimum

    execution.gcs.channel_done.mark_done(OUTER_JOIN, 0, 1)
    assert harness.sweep(name) == (1, True)  # the tail of a finished channel


def test_runtime_filter_publication_wakes_the_gated_scan(catalog):
    harness = Harness(catalog, adaptive=False)
    execution = harness.execution
    filters = execution.filters
    source = execution.graph.stage(CUSTOMER_SCAN)
    assert filters.gated(ORDERS_SCAN)
    for channel in range(source.num_channels):
        execution.gcs.channel_done.mark_done(CUSTOMER_SCAN, channel, 1)
    name = TaskName(ORDERS_SCAN, 0, 0)
    harness.park(name)

    # Finalizing the filter does not lift the gate; publishing it does.
    filters.observe_commit(source, Batch.empty(source.output_schema))
    assert harness.sweep(name) == (0, False)
    worker = harness.worker_of(name)
    harness.env.run(harness.env.process(filters.publish_ready(worker)))
    assert not filters.gated(ORDERS_SCAN)
    assert harness.sweep(name) == (1, True)


def test_adaptive_size_decision_wakes_the_gated_probe_scan(catalog):
    harness = Harness(catalog, runtime_filters=False)
    adaptive = harness.execution.adaptive
    assert adaptive.gated(ORDERS_SCAN)
    name = TaskName(ORDERS_SCAN, 0, 0)
    harness.park(name)

    harness.env.run(harness.env.process(adaptive._decide_join(JOIN)))
    assert not adaptive.gated(ORDERS_SCAN)
    assert harness.sweep(name) == (1, True)


def test_adaptive_plan_revision_wakes_a_parked_attempt(catalog):
    harness = Harness(catalog)
    name = TaskName(AGG, 0, 0)
    harness.park(name)
    harness.execution.adaptive._revised()
    assert harness.sweep(name) == (1, False)


def test_channel_runtime_rewind_wakes_a_parked_attempt(catalog):
    harness = Harness(catalog)
    name = TaskName(AGG, 0, 0)
    harness.park(name)
    harness.execution.drop_runtime(AGG, 0)
    assert harness.sweep(name) == (1, False)


def test_attempt_that_yielded_invalidates_every_memo(catalog):
    """Only an attempt that returns False without yielding counts as idle.

    Any other attempt may have moved channel runtimes (watermarks, acks,
    finalization) that no GCS or flight write covers, so its end bumps the
    readiness version.
    """
    harness = Harness(catalog)
    session, execution, env = harness.session, harness.execution, harness.env
    descriptor = execution.gcs.tasks.get(TaskName(AGG, 0, 0))
    worker = session.cluster.worker(descriptor.worker_id)

    def returns_at_once(_worker, _descriptor):
        return False
        yield  # a generator, like the real attempt

    def waits_first(_worker, _descriptor):
        yield env.timeout(0)
        return False

    for body, idle in ((returns_at_once, True), (waits_first, False)):
        execution._run_descriptor = body
        before = execution.readiness_version()
        claim = (execution.query_id, descriptor.name)
        outcome = env.run(env.process(session._attempt(worker, execution, descriptor, claim)))
        assert outcome == (False, idle)
        assert (execution.readiness_version() == before) is idle
        assert claim not in session._inflight


def test_worker_kill_and_recovery_rewind_each_wake_a_parked_attempt(catalog):
    harness = Harness(catalog)
    name = TaskName(AGG, 0, 0)
    assert harness.worker_of(name).worker_id != 1
    harness.park(name)

    harness.session.cluster.worker(1).fail()
    harness.park(name)

    harness.session._recover_query(harness.execution, [1])
    assert harness.execution.metrics.rewound_channels > 0
    harness.park(name)


# -- audit: a skipped attempt must always have been idle ----------------------------


class AuditedMemo(dict):
    """An idle-attempt memo that re-runs every attempt it is about to skip.

    ``_serve_query`` skips a descriptor when ``get`` returns the current
    readiness version.  Before saying so, this memo runs the real attempt and
    records a violation if it yielded or returned True: a skip of a task that
    was ready.  It does so only where the loop would otherwise have run the
    descriptor (it is still queued on that worker and no other slot holds it).
    """

    def __init__(self, session, execution):
        super().__init__()
        self.session = session
        self.execution = execution
        self.verified = 0
        self.violations = []

    def get(self, key, default=None):
        version = super().get(key, default)
        execution = self.execution
        if version is None or version != execution.readiness_version():
            return version
        worker_id, name, kind, prescribed = key
        current = execution.gcs.tasks.get(name)
        if (
            current is None
            or current.worker_id != worker_id
            or (execution.query_id, name) in self.session._inflight
        ):
            return version
        descriptor = TaskDescriptor(name, worker_id, kind=kind, prescribed=prescribed)
        attempt = execution._run_descriptor(self.session.cluster.worker(worker_id), descriptor)
        try:
            next(attempt)
        except StopIteration as stop:
            if stop.value:
                self.violations.append((self.session.env.now, key))
            self.verified += 1
            return version
        attempt.close()
        self.violations.append((self.session.env.now, key))
        return None


AUDIT_CASES = [
    (3, "clean", 1),
    (3, "kill", 2),
    (9, "clean", 2),
    (9, "kill", 1),
    (9, "chaos", 1),
    (21, "kill", 1),
]


@pytest.mark.parametrize("number,variant,managers", AUDIT_CASES)
def test_no_skipped_attempt_was_ready(catalog, number, variant, managers):
    frame = QuokkaContext(catalog=catalog).sql(SQL_QUERIES[number])

    def run(options):
        session = Session(
            cluster_config=ClusterConfig(task_managers_per_worker=managers),
            catalog=catalog,
            enable_output_cache=False,
        )
        handle = session.submit_options(frame, options)
        memo = AuditedMemo(session, handle.execution)
        handle.execution.idle_attempts = memo
        try:
            return session.wait(handle), memo
        finally:
            session.close()

    clean, memo = run(QueryOptions())
    if variant == "kill":
        plan = FailurePlan.at_fraction(1, 0.5, clean.metrics.runtime_seconds)
        result, memo = run(QueryOptions(failure_plans=[plan]))
        assert result.metrics.failures_injected == 1
    elif variant == "chaos":
        horizon = clean.metrics.runtime_seconds
        result, memo = run(QueryOptions(chaos=ChaosOptions(seed=5, horizon=horizon)))
    else:
        result = clean
    assert memo.violations == []
    assert memo.verified > 0
    assert batches_match(result.batch, reference_answer(catalog, number))
