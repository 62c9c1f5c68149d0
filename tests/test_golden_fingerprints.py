"""Golden fingerprints of the simulated engine's virtual schedule.

The determinism tests elsewhere compare two runs of one build.  These pin the
schedule itself across builds: a change to the engine's bookkeeping (how
TaskManagers poll, how the GCS is read, what gets cached) must leave every
virtual runtime, trace digest, committed-task count and result batch exactly
as recorded here.  A change that moves the schedule on purpose must say so
and re-record the values.

Each fingerprint is ``(repr(runtime_seconds), trace_digest, tasks_executed,
batch hash)`` for a TPC-H query at SF 0.01 (data seed 3) on the default
4-worker x 4-CPU cluster, with the I/O cost scaled to SF 100 as in the
benchmarks.  The kill cases fail worker 1 at 50% of the pinned clean runtime.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import QuokkaContext
from repro.chaos import ChaosOptions
from repro.cluster.faults import FailurePlan
from repro.common.config import CostModelConfig
from repro.core.options import QueryOptions
from repro.tpch import SQL_QUERIES, generate_catalog
from repro.trace import TraceRecorder, trace_digest

SCALE_FACTOR = 0.01
DATA_SEED = 3
KILL_WORKER = 1
KILL_FRACTION = 0.5
CHAOS_SEED = 5

#: case -> (repr(runtime_seconds), trace digest, tasks_executed, batch hash)
GOLDEN = {
    'q21-clean': (
        '892.7643081655419',
        'a7c3be10efd41e2f80063b24c22076c113fe387502214b64e698fa2ca5b37f14',
        534,
        '1d0cb704f2aa71ce327386934884bc13ae17f629e7a5f880ccafa59ade524730',
    ),
    'q21-kill': (
        '973.1181989410877',
        'e628e1b149e15fe20a6afde1b50d511bf0a2a7643acbce6f61275a515f3cd9d8',
        563,
        '1d0cb704f2aa71ce327386934884bc13ae17f629e7a5f880ccafa59ade524730',
    ),
    'q3-clean': (
        '143.80069606873667',
        '4f6d9996dc3bc7bea5ae8deb5495967d652f86418a3bd583df4fb0d2700121ae',
        154,
        'bd011bf809fb0f069aaee1cf87f3206b24a8b2138e6e9989c5fab8688848bc18',
    ),
    'q3-kill': (
        '196.1403032627049',
        '01dec6e429eb4c82b2c9df7a0cb2c8dd1002438e5c2e6eafbc37cacfc5674acb',
        180,
        'bd011bf809fb0f069aaee1cf87f3206b24a8b2138e6e9989c5fab8688848bc18',
    ),
    'q3-kill-tm2': (
        '189.1500773164328',
        '6b870bed17ab3a044d566ef698866a4fb9723a96a7384cef6c2992af49d04ff1',
        171,
        'bd011bf809fb0f069aaee1cf87f3206b24a8b2138e6e9989c5fab8688848bc18',
    ),
    'q9-chaos': (
        '200.57467092501034',
        '642ae2d900901d3d41152844d44d0fe250f111d8901cb6c7772cb9308efb7305',
        395,
        'b461b415e69d2e12440120c2c4deae1bc0c875a1c68f6d51b1213e773698a110',
    ),
    'q9-clean': (
        '147.56285456837543',
        'a86c3819af01f89286de94942eed10a63d2f4cdca99710b772b75d52d0c05642',
        443,
        'b461b415e69d2e12440120c2c4deae1bc0c875a1c68f6d51b1213e773698a110',
    ),
    'q9-kill': (
        '200.805107367283',
        'acbccfd6a53b6fe3a6a41aa744dc9769e9a7fa057fc3730052e9865aa5b1cde7',
        434,
        'b461b415e69d2e12440120c2c4deae1bc0c875a1c68f6d51b1213e773698a110',
    ),
    'q9-tm2': (
        '147.80563327080716',
        '4ee52ccb773c3f75674a6af9d0f7a4ac21bb8ff8f34d653f3b88c50f3c1975a9',
        437,
        'b461b415e69d2e12440120c2c4deae1bc0c875a1c68f6d51b1213e773698a110',
    ),
}


#: Two queries submitted together onto one session, in submission order.
GOLDEN_SESSION = [
    (
        '261.20537457387684',
        '82d8368b3d73a2a6237a43a1cab3aa2400b78cae41ad9a48a8e24cff55e5eee1',
        127,
        'bd011bf809fb0f069aaee1cf87f3206b24a8b2138e6e9989c5fab8688848bc18',
    ),
    (
        '283.2089183357412',
        'eb5f7f1fd71b518cc623546276681d45426f34328058d29c881c1a0af512c1ad',
        380,
        'b461b415e69d2e12440120c2c4deae1bc0c875a1c68f6d51b1213e773698a110',
    ),
]


def batch_hash(batch) -> str:
    """SHA-256 over a batch's column names and values, in row order.

    Floats are rounded to 6 decimals first: a NumPy build may sum in another
    order and move the last bits, which is not a change of schedule (the
    runtime and trace digest pin that exactly).
    """
    hasher = hashlib.sha256()
    for name in batch.schema.names:
        column = np.asarray(batch.column(name))
        if column.dtype.kind == "f":
            column = np.round(column, 6)
        hasher.update(name.encode())
        hasher.update(
            column.tobytes() if column.dtype != object else repr(column.tolist()).encode()
        )
    return hasher.hexdigest()


def fingerprint(result, recorder) -> tuple:
    return (
        repr(result.metrics.runtime_seconds),
        trace_digest(recorder),
        result.metrics.tasks_executed,
        batch_hash(result.batch),
    )


@pytest.fixture(scope="module")
def catalog():
    catalog = generate_catalog(scale_factor=SCALE_FACTOR, seed=DATA_SEED)
    catalog.analyze()
    return catalog


def context(catalog, task_managers_per_worker: int = 1) -> QuokkaContext:
    return QuokkaContext(
        cost_config=CostModelConfig(io_scale_multiplier=100 / SCALE_FACTOR),
        catalog=catalog,
        task_managers_per_worker=task_managers_per_worker,
    )


def clean_runtime(number: int) -> float:
    return float(GOLDEN[f"q{number}-clean"][0])


def run_case(catalog, case: str) -> tuple:
    """Run one named case and return its fingerprint."""
    query, _, variant = case.partition("-")
    number = int(query[1:])
    recorder = TraceRecorder()
    options = QueryOptions(tracer=recorder)
    managers = 2 if variant.endswith("tm2") else 1
    if variant.startswith("kill"):
        plan = FailurePlan.at_fraction(KILL_WORKER, KILL_FRACTION, clean_runtime(number))
        options = options.with_overrides(failure_plans=[plan])
    if variant == "chaos":
        options = options.with_overrides(
            chaos=ChaosOptions(seed=CHAOS_SEED, horizon=clean_runtime(number))
        )
    frame = context(catalog, managers).sql(SQL_QUERIES[number])
    return fingerprint(frame.submit(None, options).wait(), recorder)


def run_session(catalog) -> list:
    """Q3 and Q9 submitted together onto one shared session."""
    ctx = context(catalog)
    session = ctx.session()
    try:
        submitted = []
        for number in (3, 9):
            recorder = TraceRecorder()
            frame = ctx.sql(SQL_QUERIES[number])
            submitted.append(
                (frame.submit(session, QueryOptions(tracer=recorder)), recorder)
            )
        return [fingerprint(handle.wait(), recorder) for handle, recorder in submitted]
    finally:
        session.close()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_engine_schedule_matches_golden(catalog, case):
    assert run_case(catalog, case) == GOLDEN[case]


def test_session_schedule_matches_golden(catalog):
    assert run_session(catalog) == GOLDEN_SESSION
