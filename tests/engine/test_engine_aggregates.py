"""GROUP BY aggregates through the engines: correctness, identity, sharing.

The engine-level contract of PR 10's incremental aggregation:

* a single-query ``stems`` run's aggregate output equals a brute-force
  GROUP BY over the base table (windowless) — and, windowed, a recompute
  over the rows that survived eviction;
* the output is **byte-identical** (through the durable codec) across
  routing policies × batch sizes;
* in a multi-query run, admissions with the same grouping signature share
  one :class:`~repro.core.aggregates.AggregateModule`, retirement snapshots
  the output and releases the module, and nothing leaks;
* the baseline engines reject aggregate queries loudly.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.core.aggregates import AggregateModule
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.errors import ExecutionError, QueryError
from repro.recovery.codec import canonical_json, encode_value
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.conftest import single_query_engine
from tests.helpers import recompute_aggregate

AGG_SQL = "SELECT a, count(*), sum(key), avg(key), min(key), max(key) FROM R GROUP BY a"
FILTERED_SQL = "SELECT a, count(*), sum(key) FROM R WHERE R.key < 60 GROUP BY a"


def build_catalog(rows: int = 120) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, max(rows // 6, 1), seed=11))
    catalog.add_table(make_source_t(rows, seed=12))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def encoded(rows):
    return canonical_json([encode_value(tuple(row)) for row in rows])


def brute_force(catalog, cutoff=None):
    """GROUP BY a, (count(*), sum(key)) over the base R table."""
    groups = collections.defaultdict(lambda: [0, 0])
    for row in catalog.table("R").rows:
        if cutoff is not None and not row["key"] < cutoff:
            continue
        groups[row["a"]][0] += 1
        groups[row["a"]][1] += row["key"]
    return sorted((a, n, s) for a, (n, s) in groups.items())


class TestSingleQueryAggregates:
    def test_matches_brute_force(self):
        catalog = build_catalog()
        result = execute(FILTERED_SQL, catalog, policy="naive")
        assert result.is_aggregate
        assert [tuple(r) for r in result.aggregate_rows] == brute_force(
            catalog, cutoff=60
        )
        assert result.aggregate_labels == ("R.a", "count(*)", "sum(R.key)")
        assert "groups" in result.summary()

    def test_byte_identity_across_policy_batch(self):
        # The acceptance matrix: naive/lottery/benefit × batch 1/8 — one
        # oracle, every configuration byte-identical.
        oracle = None
        for policy in ("naive", "lottery", "benefit"):
            for batch_size in (1, 8):
                result = execute(
                    AGG_SQL,
                    build_catalog(),
                    policy=policy,
                    batch_size=batch_size,
                )
                rendered = encoded(result.aggregate_rows)
                if oracle is None:
                    oracle = rendered
                assert rendered == oracle, (
                    f"aggregate output diverged at policy={policy} "
                    f"batch={batch_size}"
                )

    @pytest.mark.parametrize(
        "bound",
        [
            {"stem_eviction": "count", "stem_max_size": 16},
            {"stem_eviction": "time-window", "stem_window": 20},
        ],
        ids=["count", "time-window"],
    )
    def test_windowed_run_equals_recompute_over_survivors(self, bound):
        engine = single_query_engine(AGG_SQL, build_catalog(), policy="naive", **bound)
        result = engine.run()["q0"]
        eddy = engine.eddy_of("q0")
        module = eddy.aggregate_module
        stem = eddy.stems["R"].stem
        expected = recompute_aggregate(
            module.state.group_by,
            module.state.aggregates,
            (row for row, _ in stem.state_entries()),
        )
        assert encoded(result.aggregate_rows) == encoded(expected)
        assert stem.stats["evictions"] > 0  # the window actually slid

    def test_unknown_aggregate_column_rejected(self):
        with pytest.raises(QueryError, match="names no column"):
            execute(
                "SELECT a, sum(b) FROM R GROUP BY a", build_catalog(),
                policy="naive",
            )

    def test_baseline_engines_reject_aggregates(self):
        catalog = build_catalog()
        for engine in ("eddy-joins", "static"):
            with pytest.raises(ExecutionError, match="does not support"):
                execute(AGG_SQL, catalog, engine=engine)


class TestMultiQueryAggregates:
    def admissions(self):
        return [
            QueryAdmission(AGG_SQL, query_id="qa", policy="naive"),
            QueryAdmission(
                AGG_SQL, query_id="qb", policy="naive", arrival_time=0.5
            ),
            QueryAdmission(
                FILTERED_SQL, query_id="qf", policy="naive", arrival_time=1.0
            ),
            QueryAdmission(
                "SELECT * FROM R, T WHERE R.key = T.key",
                query_id="join",
                policy="naive",
                arrival_time=1.5,
            ),
        ]

    def test_same_signature_shares_one_module(self):
        engine = MultiQueryEngine(self.admissions(), build_catalog())
        result = engine.run()
        stats = result.registry_stats
        assert stats["aggregates_created"] == 2  # qa/qb shared, qf its own
        assert stats["aggregates_shared"] == 1
        assert result["qa"].aggregate_rows == result["qb"].aggregate_rows
        assert result["qa"].aggregate_rows != result["qf"].aggregate_rows
        assert result["join"].aggregate_rows is None
        assert [tuple(r) for r in result["qf"].aggregate_rows] == brute_force(
            engine.catalog, cutoff=60
        )

    def test_retirement_snapshots_and_releases(self):
        engine = MultiQueryEngine(self.admissions(), build_catalog())
        first = engine.run()
        full_rows = first["qa"].aggregate_rows
        name = engine.eddy_of("qa").aggregate_module.name
        engine.retire("qb")
        assert engine.aggregate_registry.stats["reclaimed"] == 0  # qa holds it
        engine.retire("qa")
        assert engine.aggregate_registry.stats["reclaimed"] == 1
        final = engine.run()
        assert final["qa"].aggregate_rows == full_rows
        assert final["qa"].retired_at is not None
        # The last owner's result keeps the reclaimed module's final stats.
        inserted = first["qa"].module_stats[name]["inserted"]
        assert inserted > 0
        assert final["qa"].module_stats[name]["inserted"] == inserted

    def test_retired_aggregate_module_is_collectable(self):
        engine = MultiQueryEngine(self.admissions()[:1], build_catalog())
        engine.run()
        module = engine.eddy_of("qa").aggregate_module
        assert isinstance(module, AggregateModule)
        stem = engine.registry._stems["R"]
        assert module in stem._readers
        ref = weakref.ref(module)
        engine.retire("qa")
        assert module not in stem._readers
        del module
        gc.collect()
        assert ref() is None, "retired aggregate module still referenced"

    def test_windowed_multi_readmission_bootstraps(self):
        # The join query keeps R's shared SteM referenced across qa's
        # retirement, so the re-admitted aggregate finds the surviving
        # 16-row window and bootstraps from it at attach.
        engine = MultiQueryEngine(
            [self.admissions()[0], self.admissions()[3]],
            build_catalog(),
            continuous=True,
            stem_eviction="count",
            stem_max_size=16,
        )
        engine.run()
        engine.retire("qa")
        engine.admit(QueryAdmission(AGG_SQL, query_id="qa2", policy="naive"))
        result = engine.run()
        module = engine.eddy_of("qa2").aggregate_module
        assert module.stats["bootstrapped"] == 16
        assert len(result["qa2"].aggregate_rows) >= 1
