"""Engine-level byte identity: hash-partitioned SteMs vs the single shard.

The acceptance bar for partitioning mirrors the columnar plane's: with
every SteM split across N hash shards and probe collection parallelised,
every engine (single-query stems, multi-query shared SteMs,
continuous-query churn) must produce byte-identical results *and traces*
to the 1-shard oracle across routing policies, batch sizes and data-plane
backends.  Retirement must also reclaim the partitioned wrapper and all
its shard SteMs, not just a single SteM.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.workloads import churn_workload
from repro.errors import ExecutionError
from repro.core.partition import PartitionedSteM, partitioned_stem
from repro.engine.api import execute
from repro.engine.multi import (
    ChurnEvent,
    MultiQueryEngine,
    QueryAdmission,
    run_churn,
    run_multi,
)
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.columns import numpy_available
from repro.storage.datagen import make_source_r, make_source_t

SQL = "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 6"
SECOND_SQL = "SELECT * FROM R, T WHERE R.key = T.key"

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=7))
    catalog.add_table(make_source_t(40, seed=8))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def records(trace: TraceLog) -> list[tuple]:
    return [(record.time, record.kind, record.detail) for record in trace]


class TestSingleEngineIdentity:
    @pytest.mark.parametrize("policy", ["naive", "benefit", "lottery"])
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_identical_results_and_traces(self, policy, batch_size):
        sharded_trace, single_trace = TraceLog(), TraceLog()
        sharded = execute(
            SQL, build_catalog(), engine="stems", policy=policy,
            batch_size=batch_size, shards=4, trace=sharded_trace,
        )
        single = execute(
            SQL, build_catalog(), engine="stems", policy=policy,
            batch_size=batch_size, shards=1, trace=single_trace,
        )
        assert len(sharded.tuples) > 0
        assert [t.identity() for t in sharded.tuples] == [
            t.identity() for t in single.tuples
        ]
        assert records(sharded_trace) == records(single_trace)

    @pytest.mark.parametrize("backend", BACKENDS + ["off"])
    def test_identity_holds_on_every_data_plane(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        sharded_trace, single_trace = TraceLog(), TraceLog()
        sharded = execute(
            SQL, build_catalog(), policy="benefit", batch_size=4,
            shards=4, trace=sharded_trace,
        )
        single = execute(
            SQL, build_catalog(), policy="benefit", batch_size=4,
            shards=1, trace=single_trace,
        )
        assert [t.identity() for t in sharded.tuples] == [
            t.identity() for t in single.tuples
        ]
        assert records(sharded_trace) == records(single_trace)

    def test_shards_env_leg(self, monkeypatch):
        # shards=None resolves from REPRO_SHARDS — the CI leg mechanism.
        monkeypatch.setenv("REPRO_SHARDS", "4")
        env_trace, single_trace = TraceLog(), TraceLog()
        from_env = execute(SQL, build_catalog(), policy="naive",
                           trace=env_trace)
        monkeypatch.delenv("REPRO_SHARDS")
        single = execute(SQL, build_catalog(), policy="naive",
                         trace=single_trace)
        assert [t.identity() for t in from_env.tuples] == [
            t.identity() for t in single.tuples
        ]
        assert records(env_trace) == records(single_trace)

    def test_unknown_option_fails_clearly(self):
        with pytest.raises(ExecutionError, match="execute.*shard_count.*shards"):
            execute(SQL, build_catalog(), shard_count=4)


class TestMultiEngineIdentity:
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    @pytest.mark.parametrize("shared", [True, False],
                             ids=["shared-stems", "private-stems"])
    def test_identical_results_and_traces(self, batch_size, shared):
        def admissions():
            return [
                QueryAdmission(SQL, query_id="a", policy="naive",
                               trace=TraceLog()),
                QueryAdmission(SECOND_SQL, query_id="b", policy="lottery",
                               arrival_time=0.2, trace=TraceLog()),
                QueryAdmission(SECOND_SQL, query_id="c", policy="benefit",
                               arrival_time=0.4, trace=TraceLog()),
            ]

        sharded_admissions, single_admissions = admissions(), admissions()
        sharded = run_multi(
            sharded_admissions, build_catalog(), shared_stems=shared,
            batch_size=batch_size, shards=4,
        )
        single = run_multi(
            single_admissions, build_catalog(), shared_stems=shared,
            batch_size=batch_size, shards=1,
        )
        for query_id in ("a", "b", "c"):
            assert [t.identity() for t in sharded[query_id].tuples] == [
                t.identity() for t in single[query_id].tuples
            ]
        for one, other in zip(sharded_admissions, single_admissions):
            assert records(one.trace) == records(other.trace)

    def test_run_multi_accepts_the_shared_option_set(self):
        # Regression for the option-plumbing gap: stem_eviction/stem_window
        # used to be impossible to reach through run_multi.
        result = run_multi(
            [QueryAdmission(SQL, query_id="a", policy="naive")],
            build_catalog(),
            stem_eviction="count", stem_max_size=16, stem_window=None,
            shards=2,
        )
        assert result["a"].row_count >= 0

    def test_unknown_option_fails_clearly(self):
        with pytest.raises(ExecutionError, match="run_multi.*bogus"):
            run_multi([QueryAdmission(SQL, query_id="a")], build_catalog(),
                      bogus=1)
        with pytest.raises(ExecutionError, match="run_churn.*stem_windw"):
            run_churn([], build_catalog(), stem_windw=5)


class TestChurnEngineIdentity:
    @pytest.mark.parametrize("policy", ["naive", "benefit", "lottery"])
    def test_identical_results_and_traces(self, policy):
        def events(traces):
            return [
                ChurnEvent(
                    time=0.0, action="admit",
                    admission=QueryAdmission(
                        SQL, query_id="bg", policy=policy, trace=traces[0],
                    ),
                ),
                ChurnEvent(
                    time=1.3, action="admit",
                    admission=QueryAdmission(
                        SECOND_SQL, query_id="late", policy=policy,
                        trace=traces[1],
                    ),
                ),
                ChurnEvent(time=30.0, action="retire", query_id="bg"),
            ]

        sharded_traces = [TraceLog(), TraceLog()]
        single_traces = [TraceLog(), TraceLog()]
        sharded = run_churn(
            events(sharded_traces), build_catalog(), batch_size=4,
            shards=4, stem_eviction="count", stem_max_size=64,
        )
        single = run_churn(
            events(single_traces), build_catalog(), batch_size=4,
            shards=1, stem_eviction="count", stem_max_size=64,
        )
        for query_id in ("bg", "late"):
            assert sharded[query_id].identities() == single[query_id].identities()
        for one, other in zip(sharded_traces, single_traces):
            assert records(one) == records(other)
        assert sharded.summary() == single.summary()

    def test_late_admission_sees_all_shards_prior_state(self):
        # The late query's first probes must answer from state the background
        # query built before its admission — across every shard, exactly as
        # they would from one shared SteM.
        def run(shards):
            return run_churn(
                [
                    ChurnEvent(time=0.0, action="admit",
                               admission=QueryAdmission(SQL, query_id="bg",
                                                        policy="naive")),
                    ChurnEvent(time=5.0, action="admit",
                               admission=QueryAdmission(SECOND_SQL,
                                                        query_id="late",
                                                        policy="naive")),
                ],
                build_catalog(), shards=shards,
            )

        single, sharded = run(1), run(4)
        assert single["late"].row_count > 0
        assert sharded["late"].identities() == single["late"].identities()


class TestBoundedSteMsStaySingleShard:
    """Per-shard eviction picks other victims than one SteM, and over a
    bounded SteM the victims shape the answer — so ``partitioned_stem``
    never partitions a bounded SteM, and the answer ignores ``shards``."""

    @pytest.mark.parametrize(
        "bound",
        [
            {"stem_eviction": "count", "stem_max_size": 24},
            {"stem_eviction": "time-window", "stem_window": 2.0},
        ],
        ids=["count", "time-window"],
    )
    def test_churn_answers_equal_the_single_shard(self, bound):
        workload = churn_workload(duration=20.0, rows=60, seed=3)
        sharded = run_churn(workload.events, workload.catalog, shards=4, **bound)
        single = run_churn(workload.events, workload.catalog, shards=1, **bound)
        assert set(sharded.results) == set(single.results)
        for query_id in single.results:
            assert sharded[query_id].identities() == single[query_id].identities(), query_id
        assert sum(stats["evictions"] for stats in single.stem_stats.values()) > 0

    def test_factory_keeps_bounded_stems_whole(self):
        for bound in (
            {"eviction": "count", "max_size": 8},
            {"eviction": "time-window", "window": 2.0},
            {"max_size": 8},
        ):
            stem = partitioned_stem("S", aliases=("S",), join_columns=("x",), shards=4, **bound)
            assert not isinstance(stem, PartitionedSteM), bound
        unbounded = partitioned_stem("S", aliases=("S",), join_columns=("x",), shards=4)
        assert isinstance(unbounded, PartitionedSteM)


class TestPartitionedRetirement:
    def build_engine(self, **kwargs) -> MultiQueryEngine:
        return MultiQueryEngine(
            [
                QueryAdmission(SQL, query_id="keep", policy="naive"),
                QueryAdmission(SQL, query_id="churned", policy="naive",
                               arrival_time=0.4),
            ],
            build_catalog(),
            shards=4,
            **kwargs,
        )

    def test_registry_serves_partitioned_stems(self):
        engine = self.build_engine()
        engine.run()
        assert engine.registry is not None
        stems = list(engine.registry.stems.values())
        assert stems and all(isinstance(s, PartitionedSteM) for s in stems)
        assert all(s.shards == 4 for s in stems)

    def test_retirement_reclaims_wrapper_and_all_shards(self):
        engine = self.build_engine()
        engine.run()
        engine.retire("churned")
        engine.retire("keep")
        # After the last owner retires the registry reclaims the SteMs:
        # re-admit and watch a fresh wrapper + its shards get collected on
        # re-retirement.
        engine.admit(QueryAdmission(SQL, query_id="again", policy="naive"))
        engine.run()
        stems = list(engine.registry.stems.values())
        assert stems
        refs = [weakref.ref(stem) for stem in stems]
        for stem in stems:
            refs.extend(weakref.ref(shard) for shard in stem.shard_modules)
        engine.retire("again")
        del stems, stem
        gc.collect()
        dead = [ref for ref in refs if ref() is None]
        assert len(dead) == len(refs), (
            f"{len(refs) - len(dead)} partitioned-SteM objects still alive"
        )

    def test_retired_stats_fold_with_annotation_entries(self):
        # merge_stats must carry string annotations (satellite: the
        # columnar_disabled_reason note) without trying to int-sum them.
        engine = self.build_engine(stem_eviction="count", stem_max_size=32)
        engine.run()
        engine.retire("churned")
        result = engine.run()
        for stats in result.stem_stats.values():
            for name, value in stats.items():
                assert isinstance(value, (int, str)), (name, value)
