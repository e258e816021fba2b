"""Aggregate state across crash/recover: exactly-once, byte-for-byte.

Aggregate output is *derived* state — checkpoints carry it only for
verification, and a restore re-bootstraps every module from the rebuilt
SteM window (:meth:`AggregateModule.attach` walks ``state_entries()``).
The contracts:

* a crash at an arbitrary event boundary followed by a restore from the
  last cut ends with aggregate output byte-identical (through the durable
  codec) to an uninterrupted run;
* a restore reconstructs, before a single new source row streams, exactly
  the group table the closing checkpoint recorded — the
  ``RecoveredState.aggregates`` section is the witness;
* windowed (count-evicting) state recovers the same way: the rebuilt
  window drives the rebuilt aggregate.
"""

from __future__ import annotations

import pytest

from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.recovery import CheckpointManager, recover_state, restore_engine
from repro.recovery.codec import canonical_json, encode_value
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.reference.crash_oracle import CrashInjector, InjectedCrash

AGG_SQL = "SELECT a, count(*), sum(key), avg(key), min(key), max(key) FROM R GROUP BY a"
FILTERED_SQL = "SELECT a, count(*), sum(key) FROM R WHERE R.key < 60 GROUP BY a"
JOIN_SQL = "SELECT * FROM R, T WHERE R.key = T.key"


def build_catalog(rows: int = 100) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, max(rows // 5, 1), seed=21))
    catalog.add_table(make_source_t(rows, seed=22))
    catalog.add_scan("R", rate=60.0)
    catalog.add_scan("T", rate=50.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def admissions():
    return [
        QueryAdmission(AGG_SQL, query_id="agg", policy="naive"),
        QueryAdmission(
            FILTERED_SQL, query_id="filtered", policy="naive", arrival_time=0.4
        ),
        QueryAdmission(JOIN_SQL, query_id="join", policy="naive", arrival_time=0.8),
    ]


def encoded(rows):
    return canonical_json([encode_value(tuple(row)) for row in rows])


def reference_outputs(**engine_kwargs):
    result = MultiQueryEngine(
        admissions(), build_catalog(), **engine_kwargs
    ).run()
    return {
        query_id: encoded(result[query_id].aggregate_rows)
        for query_id in ("agg", "filtered")
    }


class TestCrashReplay:
    @pytest.mark.parametrize("boundary", [50, 400, 1200])
    def test_replay_restores_aggregates_exactly(self, tmp_path, boundary):
        reference = reference_outputs()

        engine = MultiQueryEngine(
            admissions(), build_catalog(), continuous=True
        )
        CheckpointManager.attach(engine, str(tmp_path / "ckpt"), interval=2.0)
        CrashInjector(engine.simulator, boundary).arm()
        with pytest.raises(InjectedCrash):
            engine.run()

        resumed = restore_engine(
            recover_state(str(tmp_path / "ckpt")), build_catalog(), mode="replay"
        )
        result = resumed.run()
        for query_id, expected in reference.items():
            assert encoded(result[query_id].aggregate_rows) == expected, query_id

    def test_windowed_replay_restores_aggregates_exactly(self, tmp_path):
        window_kwargs = {"stem_eviction": "count", "stem_max_size": 24}
        reference = reference_outputs(**window_kwargs)

        engine = MultiQueryEngine(
            admissions(), build_catalog(), continuous=True, **window_kwargs
        )
        CheckpointManager.attach(engine, str(tmp_path / "ckpt"), interval=2.0)
        CrashInjector(engine.simulator, 500).arm()
        with pytest.raises(InjectedCrash):
            engine.run()

        resumed = restore_engine(
            recover_state(str(tmp_path / "ckpt")),
            build_catalog(),
            mode="replay",
            **window_kwargs,
        )
        result = resumed.run()
        module = resumed.eddy_of("agg").aggregate_module
        # The surviving window drove the rebuilt aggregate: bootstrapped
        # from the restored rows, then fed by the builds after the cut.
        assert module.stats["inserted"] + module.stats["bootstrapped"] > 0
        for query_id, expected in reference.items():
            assert encoded(result[query_id].aggregate_rows) == expected, query_id


class TestResumeAndSnapshot:
    def test_checkpoint_records_aggregate_section(self, tmp_path):
        engine = MultiQueryEngine(
            admissions(), build_catalog(), continuous=True
        )
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        final = engine.run()
        manager.close()

        state = recover_state(str(tmp_path / "ckpt"))
        assert set(state.aggregates) == {"agg", "filtered"}
        for query_id in ("agg", "filtered"):
            section = state.aggregates[query_id]
            assert tuple(section["labels"]) == final[query_id].aggregate_labels
            assert encoded(section["rows"]) == encoded(
                final[query_id].aggregate_rows
            )

    def test_fleet_without_aggregates_has_an_empty_section(self, tmp_path):
        engine = MultiQueryEngine(
            [admissions()[2]], build_catalog(), continuous=True
        )
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        engine.run()
        manager.close()
        state = recover_state(str(tmp_path / "ckpt"))
        assert state.aggregates == {}

    def test_resume_bootstraps_module_to_snapshot_state(self, tmp_path):
        engine = MultiQueryEngine(
            admissions(), build_catalog(), continuous=True
        )
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        engine.run(until=1.2)  # mid-flight: only part of R streamed
        manager.close()

        state = recover_state(str(tmp_path / "ckpt"))
        assert "agg" in state.aggregates
        snapshot_rows = encoded(
            tuple(row) for row in state.aggregates["agg"]["rows"]
        )

        resumed = restore_engine(state, build_catalog(), mode="resume")
        module = resumed.eddy_of("agg").aggregate_module
        # Before any new source rows stream, the re-bootstrapped module's
        # group table equals what the closing checkpoint materialised.
        assert encoded(module.result_rows()) == snapshot_rows
        assert module.stats["bootstrapped"] > 0
