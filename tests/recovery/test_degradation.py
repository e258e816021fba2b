"""Graceful degradation under source failures and hostile data.

The failure-handling contract: a flaky, stalled, or poisonous input must
never wedge the engine — lookups retry with exponential backoff, exhausted
retries degrade the result (coverage stays honestly unclaimed) instead of
blocking, poison rows are quarantined out of the dataflow, and attaching
durability (checkpointing, even under churn) never changes what a run
produces.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.workloads import churn_workload
from repro.engine.api import execute
from repro.engine.multi import run_churn, run_multi
from repro.errors import CatalogError, ExecutionError
from repro.recovery.faults import lookup_fault_model
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s


SQL = "SELECT * FROM R, S WHERE R.a = S.x"


def rs_catalog(**index_kwargs):
    catalog = Catalog()
    catalog.add_table(make_source_r(cardinality=60, distinct_a=15, seed=7))
    catalog.add_table(make_source_s(cardinality=25))
    catalog.add_scan("R", rate=200.0)
    catalog.add_index("S", ["x"], latency=0.05, **index_kwargs)
    return catalog


def index_stats(result):
    (stats,) = [
        s for name, s in result.module_stats.items() if "idx" in name
    ]
    return stats


class TestLookupRetries:
    def test_flaky_source_with_retries_loses_nothing(self):
        reference = execute(SQL, rs_catalog(), engine="stems")
        flaky = execute(
            SQL,
            rs_catalog(
                failure_rate=0.4,
                failure_seed=3,
                max_retries=8,
                retry_backoff=0.01,
            ),
            engine="stems",
        )
        assert flaky.canonical_identities() == reference.canonical_identities()
        stats = index_stats(flaky)
        assert stats["lookup_failures"] > 0
        assert stats["lookup_retries"] == stats["lookup_failures"]
        assert stats["lookups_abandoned"] == 0

    def test_exhausted_retries_degrade_but_complete(self):
        dead = execute(
            SQL,
            rs_catalog(failure_rate=0.97, failure_seed=1, max_retries=1),
            engine="stems",
        )
        # The run quiesced (did not wedge) with a degraded result set.
        reference = execute(SQL, rs_catalog(), engine="stems")
        assert len(dead.tuples) < len(reference.tuples)
        stats = index_stats(dead)
        assert stats["lookups_abandoned"] > 0
        # Abandoned keys claimed no coverage: every emitted result is real.
        assert set(dead.canonical_identities()) <= set(
            reference.canonical_identities()
        )

    def test_retry_backoff_stretches_completion(self):
        fast = execute(
            SQL,
            rs_catalog(failure_rate=0.4, failure_seed=3, max_retries=8),
            engine="stems",
        )
        slow = execute(
            SQL,
            rs_catalog(
                failure_rate=0.4,
                failure_seed=3,
                max_retries=8,
                retry_backoff=0.5,
            ),
            engine="stems",
        )
        # Same results either way; the backoff only costs (virtual) time.
        assert slow.canonical_identities() == fast.canonical_identities()
        assert slow.final_time > fast.final_time

    def test_timeout_cuts_through_stalled_source(self):
        # The source stalls for 30 virtual seconds; without a timeout every
        # in-flight lookup waits the stall out.
        patient = execute(
            SQL, rs_catalog(stalls=[(0.5, 30.0)]), engine="stems"
        )
        assert patient.final_time > 30.0
        impatient = execute(
            SQL,
            rs_catalog(
                stalls=[(0.5, 30.0)], lookup_timeout=0.2, max_retries=2
            ),
            engine="stems",
        )
        stats = index_stats(impatient)
        assert stats["lookup_timeouts"] > 0
        assert stats["lookups_abandoned"] > 0
        # Degraded completion long before the stall would have cleared.
        assert impatient.final_time < 30.0

    def test_defaults_change_nothing(self):
        # failure_rate=0 must leave the lookup path event-identical: the
        # fault branch is skipped entirely, not merely benign.
        plain = execute(SQL, rs_catalog(), engine="stems")
        explicit = execute(
            SQL,
            rs_catalog(failure_rate=0.0, max_retries=5, retry_backoff=1.0),
            engine="stems",
        )
        assert plain.canonical_identities() == explicit.canonical_identities()
        assert plain.final_time == explicit.final_time


class TestCutDuringBackoff:
    def test_attempt_number_survives_a_cut_taken_during_a_backoff(self, tmp_path):
        """A failed lookup waiting out its backoff is in flight: the cut
        carries the attempt it will make next and when, and the restored
        AM makes that attempt then — not a first one, not at once."""
        from repro.engine.multi import MultiQueryEngine, QueryAdmission
        from repro.recovery import CheckpointManager, recover_state, restore_engine
        from tests.reference.crash_oracle import result_identity_counts, run_reference

        def catalog():
            return rs_catalog(
                failure_rate=0.4, failure_seed=3, max_retries=12, retry_backoff=0.05
            )

        admissions = [QueryAdmission(SQL, query_id="q", policy="naive")]
        _, reference = run_reference(admissions, catalog())
        engine = MultiQueryEngine(admissions, catalog(), continuous=True)
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        (am,) = engine.eddy_of("q").index_ams["S"]

        class Stop(Exception):
            pass

        def stop_in_second_backoff(event) -> None:
            if any(
                step == "_issue_attempt" and attempt >= 3
                for step, attempt, _ in am._in_flight.values()
            ):
                raise Stop

        engine.simulator.after_event_hook = stop_in_second_backoff
        with pytest.raises(Stop):
            engine.run()
        waiting = dict(am._in_flight)
        manager.take_checkpoint()
        manager.simulate_crash()

        state = recover_state(str(tmp_path / "ckpt"))
        assert state.cut_counts()["lookups_in_flight"] == len(waiting)
        restored = restore_engine(state, catalog())
        (restored_am,) = restored.eddy_of("q").index_ams["S"]
        assert restored_am._in_flight == waiting
        assert restored_am.stats["lookup_retries"] == 0  # nothing re-failed yet
        acked = Counter(state.emitted.get("q", {}))
        post = result_identity_counts(restored.run())["q"]
        assert acked and post + acked == reference["q"]
        assert restored_am.stats["lookups_abandoned"] == 0


class TestFaultModelAndSpecValidation:
    def test_fault_model_deterministic_in_seed(self):
        a = lookup_fault_model(0.5, seed=9)
        b = lookup_fault_model(0.5, seed=9)
        assert [a(i) for i in range(50)] == [b(i) for i in range(50)]

    def test_zero_rate_returns_none(self):
        assert lookup_fault_model(0.0, seed=1) is None

    def test_rate_above_one_rejected(self):
        with pytest.raises(ExecutionError):
            lookup_fault_model(1.5, seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_rate": -0.1},
            {"failure_rate": 1.1},
            {"max_retries": -1},
            {"retry_backoff": -1.0},
            {"lookup_timeout": 0.0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(CatalogError):
            rs_catalog(**kwargs)


class _Bomb:
    """A user predicate that raises on rows where R.a == 3."""

    def __new__(cls):
        from repro.query.predicates import Predicate

        class Bomb(Predicate):
            def aliases(self):
                return frozenset({"R"})

            def evaluate(self, components):
                if components["R"].values[1] == 3:
                    raise ValueError("poison row")
                return True

            def __str__(self):
                return "bomb(R)"

        return Bomb(name="bomb")


class TestPoisonQuarantine:
    def bombed_query(self):
        from repro.query.parser import parse_query
        from repro.query.query import Query

        base = parse_query(SQL)
        return Query(
            base.tables,
            base.predicates + (_Bomb(),),
            base.projections,
            name="bombed",
        )

    def test_poison_rows_quarantined_single_query(self):
        result = execute(self.bombed_query(), rs_catalog(), policy="naive")
        # The run completed; poisoned rows were quarantined, not raised, and
        # the unpoisoned remainder still produced results.
        assert result.eddy_stats["quarantined"] > 0
        assert result.tuples
        clean = execute(SQL, rs_catalog(), engine="stems", policy="naive")
        assert set(result.canonical_identities()) < set(
            clean.canonical_identities()
        )

    def test_poison_query_does_not_take_down_neighbors(self):
        # In the shared multi-query engine a poisonous admission must only
        # degrade itself: the clean query sharing the SteMs still gets its
        # full answer.
        clean_only = run_multi([SQL], rs_catalog())
        mixed = run_multi([SQL, self.bombed_query()], rs_catalog())
        assert (
            mixed["q0"].canonical_identities()
            == clean_only["q0"].canonical_identities()
        )
        total_quarantined = sum(
            res.eddy_stats.get("quarantined", 0)
            for _, res in mixed.items()
        )
        assert total_quarantined > 0


class TestCheckpointingIsTransparent:
    def test_checkpoint_under_churn_changes_nothing(self, tmp_path):
        # Durability must be observationally free: the same churn schedule
        # with and without an attached CheckpointManager produces identical
        # per-query results at identical times.
        workload = churn_workload(
            duration=20.0, arrival_rate=0.4, rows=60, seed=11
        )
        bare = run_churn(workload.events, workload.catalog)
        durable = run_churn(
            workload.events,
            workload.catalog,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=2.0,
        )
        assert durable.same_results(bare)
        # Per-query output timelines are identical point for point; only the
        # engine-level quiesce time may move (the checkpoint tick is itself
        # a scheduled event).
        for query_id, bare_result in bare.items():
            durable_result = durable[query_id]
            assert (
                durable_result.completion_time == bare_result.completion_time
            )
            assert list(durable_result.output_series) == list(
                bare_result.output_series
            )
