"""Tests for the TPC-H query definitions.

Every query must build against the generated catalog, produce a non-degenerate
plan, execute identically through the single-node interpreter and the
inline (``workers=0``) parallel executor, and — the golden differential tier — run
end-to-end through the distributed write-ahead-lineage engine with a
batch-exact match against :mod:`repro.tpch.reference` for all 22 queries.
"""

import pytest

from repro.chaos import batches_match
from repro.common.config import ClusterConfig
from repro.core.session import Session
from repro.parallel import ParallelExecutor
from repro.physical import compile_plan
from repro.tpch import (
    QUERIES,
    QUERY_CATEGORIES,
    REPRESENTATIVE_QUERIES,
    build_query,
    generate_catalog,
    reference_answer,
)

#: Golden reference row counts for the fixture catalog (scale factor 0.002,
#: seed 11).  A drift here means the generator or the reference interpreter
#: changed behaviour — both must stay bit-stable for chaos replay to work.
GOLDEN_ROW_COUNTS = {
    1: 4, 2: 0, 3: 10, 4: 5, 5: 1, 6: 1, 7: 4, 8: 2, 9: 47, 10: 20, 11: 124,
    12: 2, 13: 19, 14: 1, 15: 1, 16: 59, 17: 1, 18: 0, 19: 1, 20: 0, 21: 1,
    22: 0,
}


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=0.002, seed=11)


@pytest.fixture(scope="module")
def engine_session(catalog):
    """One shared distributed session for the golden end-to-end runs."""
    with Session(
        cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=2),
        catalog=catalog,
    ) as session:
        yield session


class TestRegistry:
    def test_all_22_queries_registered(self):
        assert sorted(QUERIES) == list(range(1, 23))

    def test_representative_queries_match_paper(self):
        assert REPRESENTATIVE_QUERIES == [1, 6, 3, 10, 5, 7, 8, 9]
        assert QUERY_CATEGORIES == {"I": [1, 6], "II": [3, 10], "III": [5, 7, 8, 9]}

    def test_unknown_query_number(self, catalog):
        with pytest.raises(KeyError):
            build_query(catalog, 23)


class TestAllQueriesBuildAndRun:
    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_query_builds_and_produces_reference_answer(self, catalog, number):
        frame = build_query(catalog, number)
        assert len(frame.schema.names) > 0
        answer = reference_answer(catalog, number)
        assert answer.schema.names == frame.schema.names

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_distributed_stage_graph_matches_reference(self, catalog, number):
        frame = build_query(catalog, number)
        expected = reference_answer(catalog, number)
        graph = compile_plan(frame.plan, num_channels=4)
        result = ParallelExecutor(graph, workers=0, morsel_rows=1500).execute()
        assert batches_match(result, expected)


class TestGoldenEngineResults:
    """All 22 queries end-to-end through the distributed engine vs reference.

    Previously only a subset of queries was differentially checked through
    the real engine; this class is the golden tier every future engine change
    must keep green for the complete TPC-H suite.
    """

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_engine_result_matches_reference(self, catalog, engine_session, number):
        expected = reference_answer(catalog, number)
        result = engine_session.run(
            build_query(catalog, number), query_name=f"golden-q{number}"
        ).batch
        assert batches_match(result, expected), (
            f"Q{number}: distributed engine result differs from the reference"
        )

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_reference_row_counts_match_golden_snapshot(self, catalog, number):
        assert reference_answer(catalog, number).num_rows == GOLDEN_ROW_COUNTS[number]

    @pytest.mark.parametrize("number", sorted(QUERIES))
    def test_sql_path_row_counts_match_the_same_golden_snapshot(self, catalog, number):
        """The SQL formulations hit the identical golden row counts — the
        dialect covers all 22 queries and decorrelation changes no answers."""
        from repro.plan.interpreter import execute_plan
        from repro.tpch import build_sql_query

        result = execute_plan(build_sql_query(catalog, number).plan)
        assert result.num_rows == GOLDEN_ROW_COUNTS[number]


class TestSelectedAnswers:
    def test_q1_has_expected_groups(self, catalog):
        answer = reference_answer(catalog, 1)
        groups = set(
            zip(answer.column("l_returnflag").tolist(), answer.column("l_linestatus").tolist())
        )
        assert groups <= {("A", "F"), ("N", "F"), ("N", "O"), ("R", "F")}
        assert answer.num_rows >= 3
        assert (answer.column("sum_qty") > 0).all()

    def test_q6_single_scalar(self, catalog):
        answer = reference_answer(catalog, 6)
        assert answer.num_rows == 1
        assert answer.column("revenue")[0] > 0

    def test_q3_limit_and_ordering(self, catalog):
        answer = reference_answer(catalog, 3)
        assert answer.num_rows <= 10
        revenue = answer.column("revenue")
        assert all(revenue[i] >= revenue[i + 1] for i in range(len(revenue) - 1))

    def test_q5_returns_asian_nations(self, catalog):
        answer = reference_answer(catalog, 5)
        asian = {"INDIA", "INDONESIA", "JAPAN", "CHINA", "VIETNAM"}
        assert set(answer.column("n_name").tolist()) <= asian

    def test_q8_market_share_between_zero_and_one(self, catalog):
        answer = reference_answer(catalog, 8)
        shares = answer.column("mkt_share")
        assert ((shares >= 0.0) & (shares <= 1.0)).all()

    def test_q13_distribution_counts_customers(self, catalog):
        answer = reference_answer(catalog, 13)
        assert answer.column("custdist").sum() == catalog.table("customer").num_rows

    def test_q22_country_codes(self, catalog):
        answer = reference_answer(catalog, 22)
        allowed = {"13", "31", "23", "29", "30", "18", "17"}
        assert set(answer.column("cntrycode").tolist()) <= allowed
