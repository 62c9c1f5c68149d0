"""Runtime semi-join filters: kernel, planning, plumbing, pruning, fast paths.

The filter kernel's exactness contract — a finalized filter is a pure
function of the build value set, and its mask never drops a row the join
would keep — is what every other test in this file leans on.  Kernel tests
pin the contract directly (order independence, idempotence, no false
negatives); the rest check the layers above it: the planning pass that
places filter edges, the option plumbing that turns them on, zone-map split
pruning on both backends, and the dictionary-vocabulary fast path.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.api.context import QuokkaContext
from repro.api.runners import ParallelRunner, ReferenceRunner
from repro.chaos.harness import batches_match
from repro.cli import build_parser
from repro.core.options import QueryOptions
from repro.data.batch import Batch
from repro.data.dictionary import DictionaryArray
from repro.data.schema import DataType, Field, Schema
from repro.expr import col, lit
from repro.expr.eval import evaluate
from repro.expr.nodes import like
from repro.kernels.filter import map_vocabulary
from repro.kernels.join import JoinType
from repro.kernels.runtimefilter import (
    EXACT_VALUE_LIMIT,
    RuntimeFilterBuilder,
)
from repro.optimizer.cost import runtime_filter_decision
from repro.physical.compiler import compile_plan
from repro.plan.catalog import Catalog
from repro.tpch import build_query, generate_catalog
from repro.tpch.adversarial import adversarial_catalog


@pytest.fixture(scope="module")
def catalog():
    return adversarial_catalog("standard", scale_factor=0.002, seed=0)


def _reference(frame):
    return ReferenceRunner().submit(frame, QueryOptions()).wait().batch


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


class TestFilterKernel:
    def test_exact_filter_is_precise(self):
        builder = RuntimeFilterBuilder(DataType.INT64)
        builder.add(np.array([3, 1, 4, 1, 5], dtype=np.int64))
        rf = builder.finalize()
        assert rf.kind == "exact"
        probe = np.array([0, 1, 2, 3, 4, 5, 6], dtype=np.int64)
        assert rf.mask(probe).tolist() == [False, True, False, True, True, True, False]

    def test_degrades_to_bloom_past_the_cap(self):
        builder = RuntimeFilterBuilder(DataType.INT64)
        builder.add(np.arange(EXACT_VALUE_LIMIT + 1, dtype=np.int64))
        rf = builder.finalize()
        assert rf.kind == "bloom"
        assert rf.min_value == 0 and rf.max_value == EXACT_VALUE_LIMIT

    def test_bloom_has_no_false_negatives(self):
        values = np.arange(0, 200_000, 3, dtype=np.int64)
        builder = RuntimeFilterBuilder(DataType.INT64)
        builder.add(values)
        rf = builder.finalize()
        assert rf.kind == "bloom"
        assert rf.mask(values).all()

    def test_bloom_range_rejects_out_of_range_probes(self):
        builder = RuntimeFilterBuilder(DataType.INT64)
        builder.add(np.arange(10_000, 10_000 + EXACT_VALUE_LIMIT + 5, dtype=np.int64))
        rf = builder.finalize()
        probe = np.array([0, 9_999, 10_000 + EXACT_VALUE_LIMIT + 5], dtype=np.int64)
        assert not rf.mask(probe).any()

    def test_order_independence(self):
        """Pieces folded in any order finalize to byte-identical filters —
        the property that makes filters safe under retrace, chaos, and
        parallel workers committing in arbitrary order."""
        rng = np.random.default_rng(7)
        pieces = [
            rng.integers(0, 20_000, size=3_000).astype(np.int64) for _ in range(6)
        ]
        orders = [pieces, pieces[::-1], pieces[3:] + pieces[:3]]
        blobs = []
        for order in orders:
            builder = RuntimeFilterBuilder(DataType.INT64)
            for piece in order:
                builder.add(piece)
            blobs.append(pickle.dumps(builder.finalize().__getstate__()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_re_adding_a_piece_is_idempotent(self):
        """Recovery can re-commit a retraced build task; the filter's value
        state must not change (build_rows is a diagnostic, not filter state)."""
        piece = np.array([2, 4, 6, 8], dtype=np.int64)
        once = RuntimeFilterBuilder(DataType.INT64)
        once.add(piece)
        twice = RuntimeFilterBuilder(DataType.INT64)
        twice.add(piece)
        twice.add(piece)
        a, b = once.finalize(), twice.finalize()
        assert np.array_equal(a.values, b.values)
        assert (a.min_value, a.max_value, a.has_nan) == (
            b.min_value,
            b.max_value,
            b.has_nan,
        )

    def test_empty_build_drops_every_probe_row(self):
        rf = RuntimeFilterBuilder(DataType.INT64).finalize()
        assert rf.kind == "exact"
        assert not rf.mask(np.array([1, 2, 3], dtype=np.int64)).any()

    def test_nan_build_keys_keep_nan_probe_rows(self):
        """The join kernels group NaN keys together, so a build-side NaN
        matches probe-side NaNs — the mask must not drop them."""
        builder = RuntimeFilterBuilder(DataType.FLOAT64)
        builder.add(np.array([1.0, np.nan], dtype=np.float64))
        rf = builder.finalize()
        assert rf.has_nan
        mask = rf.mask(np.array([1.0, 2.0, np.nan], dtype=np.float64))
        assert mask.tolist() == [True, False, True]

    def test_dictionary_mask_matches_materialized_mask(self):
        values = np.array(["ash", "birch", "cedar", "ash"], dtype=object)
        encoded = DictionaryArray.encode(values)
        builder = RuntimeFilterBuilder(DataType.STRING)
        builder.add(np.array(["ash", "cedar"], dtype=object))
        rf = builder.finalize()
        assert np.array_equal(rf.mask(encoded), rf.mask(values))
        assert rf.mask(encoded).tolist() == [True, False, True, True]

    def test_may_contain_range(self):
        builder = RuntimeFilterBuilder(DataType.INT64)
        builder.add(np.array([100, 200, 300], dtype=np.int64))
        rf = builder.finalize()
        assert rf.may_contain_range(150, 250)
        assert not rf.may_contain_range(101, 199)
        assert not rf.may_contain_range(301, 400)


# ---------------------------------------------------------------------------
# planning pass
# ---------------------------------------------------------------------------


class TestFilterPlanning:
    @pytest.mark.parametrize("number", [5, 9, 21])
    def test_selective_queries_get_filter_edges(self, catalog, number):
        graph = compile_plan(
            build_query(catalog, number).plan, num_channels=4, runtime_filters=True
        )
        assert len(graph.runtime_filters) >= 1

    def test_off_by_default(self, catalog):
        graph = compile_plan(build_query(catalog, 5).plan, num_channels=4)
        assert graph.runtime_filters == []

    def test_only_inner_and_semi_joins_are_eligible(self):
        assert runtime_filter_decision(JoinType.INNER)
        assert runtime_filter_decision(JoinType.SEMI)
        assert not runtime_filter_decision(JoinType.LEFT)
        assert not runtime_filter_decision(JoinType.ANTI)

    def test_explain_renders_filter_edges_and_bounds(self, catalog):
        graph = compile_plan(
            build_query(catalog, 5).plan, num_channels=4, runtime_filters=True
        )
        text = graph.explain()
        assert "<~ runtime filter #" in text
        assert "zone-map bounds:" in text

    def test_some_filter_reaches_a_raw_scan_column(self, catalog):
        """At least one Q9 filter must descend all the way to an input stage
        and trace its probe key to a raw table column — the precondition for
        zone-map split pruning driven by the filter's min/max."""
        graph = compile_plan(
            build_query(catalog, 9).plan, num_channels=4, runtime_filters=True
        )
        scans = [
            spec
            for spec in graph.runtime_filters
            if graph.stage(spec.target_stage_id).table is not None
        ]
        assert scans
        assert any(spec.target_raw_column is not None for spec in scans)

    def test_filter_edges_keep_topological_order_acyclic(self, catalog):
        graph = compile_plan(
            build_query(catalog, 21).plan, num_channels=4, runtime_filters=True
        )
        order = graph.topological_order(include_filter_edges=True)
        assert sorted(order) == sorted(s.stage_id for s in graph)
        position = {stage_id: i for i, stage_id in enumerate(order)}
        for spec in graph.runtime_filters:
            assert position[spec.source_stage_id] < position[spec.target_stage_id]


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------


class TestOptionsPlumbing:
    def test_defaults_on_when_optimized(self, catalog):
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        result = build_query(catalog, 5).bind(ctx).submit().wait()
        assert result.metrics.filters_published >= 1
        assert result.metrics.filter_rows_dropped > 0

    def test_defaults_off_without_the_optimizer(self, catalog):
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        result = (
            build_query(catalog, 5)
            .bind(ctx)
            .submit(options=QueryOptions(optimize=False))
            .wait()
        )
        assert result.metrics.filters_published == 0

    def test_explicit_false_wins(self, catalog):
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        result = (
            build_query(catalog, 5)
            .bind(ctx)
            .submit(options=QueryOptions(runtime_filters=False))
            .wait()
        )
        assert result.metrics.filters_published == 0

    def test_session_cache_distinguishes_on_and_off(self, catalog):
        """The result cache keys on the resolved flag: an on-run must never be
        served for an off-run (their metrics — and under adaptivity their
        physical plans — differ)."""
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        frame = build_query(catalog, 5).bind(ctx)
        on = frame.submit(options=QueryOptions(runtime_filters=True)).wait()
        off = frame.submit(options=QueryOptions(runtime_filters=False)).wait()
        assert on.metrics.filters_published >= 1
        assert off.metrics.filters_published == 0
        assert batches_match(on.batch, off.batch)

    def test_reference_runner_is_inert(self, catalog):
        ctx = QuokkaContext(num_workers=4, catalog=catalog)
        frame = build_query(catalog, 5).bind(ctx)
        on = ReferenceRunner().submit(frame, QueryOptions(runtime_filters=True)).wait()
        off = ReferenceRunner().submit(frame, QueryOptions(runtime_filters=False)).wait()
        assert on.batch.equals(off.batch)

    def test_parallel_runner_supports_filters(self, catalog):
        runner = ParallelRunner(workers=2, morsel_rows=2048)
        frame = build_query(catalog, 5)
        result = runner.submit(frame, QueryOptions(runtime_filters=True)).wait()
        assert result.metrics.filters_published >= 1
        assert result.metrics.filter_rows_dropped > 0
        assert batches_match(result.batch, _reference(frame))

    def test_cli_flag_is_tri_state(self):
        parser = build_parser()
        assert parser.parse_args(["tpch", "--query", "5"]).runtime_filters is None
        assert parser.parse_args(
            ["tpch", "--query", "5", "--runtime-filters"]
        ).runtime_filters is True
        assert parser.parse_args(
            ["sql", "SELECT 1 AS one", "--no-runtime-filters"]
        ).runtime_filters is False


# ---------------------------------------------------------------------------
# zone-map split pruning
# ---------------------------------------------------------------------------


def _sorted_catalog():
    """One fact table sorted by ``f_date`` over 16 splits, so a narrow range
    predicate (or a narrow build-key range) excludes most zone maps."""
    n = 40_000
    schema = Schema(
        [Field("f_date", DataType.INT64), Field("f_qty", DataType.FLOAT64)]
    )
    batch = Batch.from_pydict(
        {
            "f_date": np.arange(10_000, 10_000 + n, dtype=np.int64),
            "f_qty": np.linspace(0.0, 1.0, n),
        },
        schema,
    )
    dim = Batch.from_pydict(
        {"d_date": np.arange(11_500, 11_600, dtype=np.int64)},
        Schema([Field("d_date", DataType.INT64)]),
    )
    catalog = Catalog()
    catalog.register("facts", batch, num_splits=16)
    catalog.register("dim", dim, num_splits=1)
    return catalog


def _range_frame(ctx):
    return (
        ctx.read_table("facts")
        .filter((col("f_date") >= lit(11_500)) & (col("f_date") < lit(11_600)))
        .agg(total=("f_qty", "sum"))
    )


def _dim_join_frame(ctx):
    return (
        ctx.read_table("facts")
        .join(ctx.read_table("dim"), left_on="f_date", right_on="d_date")
        .agg(total=("f_qty", "sum"))
    )


class TestZoneMapPruning:
    @pytest.fixture(scope="class")
    def sorted_catalog(self):
        return _sorted_catalog()

    def test_static_bounds_prune_on_engine(self, sorted_catalog):
        """Regression: a join-free plan (no filter edges at all) must still
        prune on its static scan bounds."""
        ctx = QuokkaContext(num_workers=4, catalog=sorted_catalog)
        frame = _range_frame(ctx)
        result = frame.submit(options=QueryOptions(runtime_filters=True)).wait()
        assert result.metrics.splits_pruned >= 10
        assert batches_match(result.batch, _reference(frame))

    def test_static_bounds_prune_on_parallel(self, sorted_catalog):
        ctx = QuokkaContext(num_workers=4, catalog=sorted_catalog)
        frame = _range_frame(ctx)
        result = (
            ParallelRunner(workers=2)
            .submit(frame, QueryOptions(runtime_filters=True))
            .wait()
        )
        assert result.metrics.splits_pruned >= 10
        assert batches_match(result.batch, _reference(frame))

    def test_pruning_off_with_filters_off(self, sorted_catalog):
        ctx = QuokkaContext(num_workers=4, catalog=sorted_catalog)
        frame = _range_frame(ctx)
        result = frame.submit(options=QueryOptions(runtime_filters=False)).wait()
        assert result.metrics.splits_pruned == 0
        assert batches_match(result.batch, _reference(frame))

    @pytest.mark.parametrize("backend", ["engine", "parallel"])
    def test_runtime_min_max_prunes_splits(self, sorted_catalog, backend):
        """A join against a dimension whose keys span one narrow band: the
        build-side filter's min/max range excludes most fact splits even
        though the query has no static predicate on the fact table."""
        ctx = QuokkaContext(num_workers=4, catalog=sorted_catalog)
        frame = _dim_join_frame(ctx)
        options = QueryOptions(runtime_filters=True)
        if backend == "engine":
            result = frame.submit(options=options).wait()
        else:
            result = ParallelRunner(workers=2).submit(frame, options).wait()
        assert result.metrics.splits_pruned >= 10
        assert batches_match(result.batch, _reference(frame))


# ---------------------------------------------------------------------------
# both backends filter and prune through the same functions
# ---------------------------------------------------------------------------

_COUNTERS = (
    "filters_published",
    "filter_bytes",
    "filter_rows_tested",
    "filter_rows_dropped",
    "splits_pruned",
)


def _counters(metrics):
    return {name: getattr(metrics, name) for name in _COUNTERS}


def _backend_counters(frame, options):
    """Filter counters of the engine (static plan) and the inline parallel
    executor, both with four channels per stage."""
    engine = frame.submit(options=options.with_overrides(adaptive=False)).wait()
    parallel = ParallelRunner(workers=0, num_channels=4).submit(frame, options).wait()
    return _counters(engine.metrics), _counters(parallel.metrics)


class TestBackendsCountFiltersAlike:
    """The engine and the parallel backend publish the same filters and
    test, drop and prune the same rows and splits."""

    #: (filters_published, filter_bytes, filter_rows_tested,
    #: filter_rows_dropped) at SF 0.01, data seed 3.
    TPCH = {
        5: (5, 32776, 72909, 50986),
        9: (6, 19584, 83358, 72579),
        17: (2, 16176, 60497, 60137),
        21: (5, 60208, 76120, 37907),
    }

    @pytest.fixture(scope="class")
    def tpch_catalog(self):
        return generate_catalog(scale_factor=0.01, seed=3)

    @pytest.mark.parametrize("number", sorted(TPCH))
    def test_tpch_counters_match(self, tpch_catalog, number):
        ctx = QuokkaContext(num_workers=4, catalog=tpch_catalog)
        frame = build_query(tpch_catalog, number).bind(ctx)
        engine, parallel = _backend_counters(frame, QueryOptions())
        assert engine == parallel
        assert (
            engine["filters_published"],
            engine["filter_bytes"],
            engine["filter_rows_tested"],
            engine["filter_rows_dropped"],
        ) == self.TPCH[number]

    @pytest.mark.parametrize("build", [_range_frame, _dim_join_frame])
    def test_splits_pruned_match(self, build):
        ctx = QuokkaContext(num_workers=4, catalog=_sorted_catalog())
        engine, parallel = _backend_counters(
            build(ctx), QueryOptions(runtime_filters=True)
        )
        assert engine == parallel
        assert engine["splits_pruned"] >= 10


# ---------------------------------------------------------------------------
# dictionary fast path
# ---------------------------------------------------------------------------


class TestDictionaryFastPath:
    def _string_batch(self):
        values = np.array(
            ["promo steel", "small brass", "promo brass", "large steel"] * 25,
            dtype=object,
        )
        schema = Schema([Field("s", DataType.STRING), Field("x", DataType.INT64)])
        return Batch(
            schema,
            {"s": DictionaryArray.encode(values), "x": np.arange(100, dtype=np.int64)},
        ), values

    def test_map_vocabulary_matches_per_row_application(self):
        values = np.array(["aa", "ab", "ba", "aa", "ab"], dtype=object)
        encoded = DictionaryArray.encode(values)
        fast = map_vocabulary(encoded, lambda v: v.startswith("a"), dtype=bool)
        slow = np.array([v.startswith("a") for v in values], dtype=bool)
        assert np.array_equal(fast, slow)

    def test_map_vocabulary_empty_array(self):
        encoded = DictionaryArray.encode(np.empty(0, dtype=object))
        assert len(map_vocabulary(encoded, len, dtype=np.int64)) == 0

    @pytest.mark.parametrize("pattern", ["promo%", "%steel", "%bra%"])
    def test_like_on_dict_column_matches_materialized(self, pattern):
        batch, values = self._string_batch()
        plain = Batch(
            batch.schema, {"s": values.copy(), "x": np.asarray(batch.column("x"))}
        )
        expr = like(col("s"), pattern)
        assert np.array_equal(
            np.asarray(evaluate(expr, batch)), np.asarray(evaluate(expr, plain))
        )

    def test_equality_and_in_list_on_dict_column(self):
        batch, values = self._string_batch()
        eq = col("s") == lit("promo brass")
        assert np.array_equal(
            np.asarray(evaluate(eq, batch)),
            values == "promo brass",
        )
        isin = col("s").is_in(["small brass", "large steel"])
        assert np.array_equal(
            np.asarray(evaluate(isin, batch)),
            np.isin(values.astype(str), ["small brass", "large steel"]),
        )


# ---------------------------------------------------------------------------
# parallel determinism
# ---------------------------------------------------------------------------


def _fingerprint(batch):
    hasher = hashlib.sha256()
    hasher.update("|".join(batch.schema.names).encode())
    for name in batch.schema.names:
        column = np.asarray(batch.column(name))
        hasher.update(name.encode())
        hasher.update(
            column.tobytes()
            if column.dtype != object
            else repr(column.tolist()).encode()
        )
    return hasher.hexdigest()


class TestParallelDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_filtered_runs_are_byte_stable(self, catalog, workers):
        frame = build_query(catalog, 9)

        def run():
            runner = ParallelRunner(workers=workers, morsel_rows=1024)
            return runner.submit(frame, QueryOptions(runtime_filters=True)).wait()

        first, second = run(), run()
        assert first.metrics.filters_published >= 1
        assert _fingerprint(first.batch) == _fingerprint(second.batch)
        assert batches_match(first.batch, _reference(frame))
