"""Match runs: one probe's matches crossing the eddy as one entry.

A :class:`~repro.core.tuples.MatchRun` must route exactly as the QTuples it
stands for: the same drain (each match one of ``batch_size`` items), the same
signature groups within EOT barriers, the same decisions, outputs, tuple
ids, virtual times, partial series and trace.  Where a match must be a tuple
of its own — a query with preferences, a run not ready for output, a
checkpoint — the run is materialised into those very QTuples; a policy's
feedback hooks take the run itself.
"""

from __future__ import annotations

import pytest

from repro.core.policies import LotteryPolicy
from repro.core.stem import SteM
from repro.core.tuples import (
    EOTTuple,
    MatchRun,
    QTuple,
    TupleIdAllocator,
    install_id_allocator,
    singleton_maker,
)
from repro.query.layout import done_mask_of
from repro.query.predicates import selection
from repro.recovery.codec import encode_item
from repro.recovery.snapshot import SnapshotStore
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.conftest import single_query_engine
from tests.helpers import equi_join
from tests.reference.crash_oracle import crash_recovery_oracle

SQL = "SELECT * FROM R, T WHERE R.key = T.key"
R_ROWS = make_source_r(8, 4, seed=1).rows
T_ROWS = make_source_t(12, seed=2).rows


def fresh_eddy(batch_size: int, policy: str = "naive", preferences=()):
    """The eddy of a built, never started R-T join, with a trace."""
    catalog = Catalog()
    catalog.add_table(make_source_r(8, 4, seed=1))
    catalog.add_table(make_source_t(12, seed=2))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=100.0)
    engine = single_query_engine(
        SQL, catalog, policy=policy, preferences=preferences, batch_size=batch_size
    )
    eddy = engine.eddy_of("q0")
    eddy.trace = TraceLog()
    return eddy


def runs(eddy, sizes):
    """One output-ready run per size, each from its own R probe, with tuple
    ids from 100 on (the same ids on every call)."""
    install_id_allocator(TupleIdAllocator(start=100))
    try:
        make = singleton_maker("R", "am:R_scan:R", eddy.layout)
        done = done_mask_of(eddy.resolver.query.predicates)
        made, start = [], 0
        for position, size in enumerate(sizes):
            probe = make(R_ROWS[position])
            probe.query_id = eddy.query_id
            probe.mark_built("R", float(position + 1))
            rows = T_ROWS[start : start + size]
            stamps = [float(50 + start + offset) for offset in range(size)]
            made.append(MatchRun(probe, "T", rows, stamps, done))
            start += size
        return made
    finally:
        install_id_allocator()


def routed(eddy, items):
    """Hand ``items`` off as one SteM's output, run the simulator dry and
    read back everything routing decided."""
    eddy.to_eddy_all(items, eddy.stems["T"])
    eddy.sim.run()
    assert not eddy._ready and eddy._runs_waiting == 0
    return {
        "outputs": [
            (time, kept.tuple_id, kept.identity(), kept.build_timestamps)
            for time, kept in zip(eddy.output_times, eddy.output_tuples)
        ],
        "stats": eddy.stats,
        "partial": eddy.partial_series,
        "trace": [(record.time, record.kind, record.detail) for record in eddy.trace],
        "eots": eddy.stems["T"].stem.stats["eot_builds"],
    }


def materialised(items):
    return [
        routable
        for item in items
        for routable in (item.tuples() if type(item) is MatchRun else (item,))
    ]


EOT = EOTTuple(table="T", alias="T", am_name="am:T_scan:T")


class TestRoutingARun:
    def test_a_run_straddles_batch_boundaries_and_an_eot_barrier(self):
        eddy = fresh_eddy(batch_size=4)
        first, second = runs(eddy, (6, 5))
        ids = [*range(first.tuple_id, first.tuple_id + 6),
               *range(second.tuple_id, second.tuple_id + 5)]
        observed = routed(eddy, [first, EOT, second])
        reference = fresh_eddy(batch_size=4)
        first_again, second_again = runs(reference, (6, 5))
        assert routed(reference, materialised([first_again, EOT, second_again])) == observed
        # Events: 4 matches | 2 matches, the EOT, 1 match | 4 matches; the
        # EOT splits the middle batch into three decisions.
        stats = observed["stats"]
        assert (stats["route_events"], stats["routings"], stats["route_decisions"]) == (
            3, 12, 5,
        )
        assert observed["eots"] == 1
        assert [output[1] for output in observed["outputs"]] == ids

    def test_a_run_s_tail_groups_with_a_plain_tuple_of_its_signature(self):
        eddy = fresh_eddy(batch_size=4)
        run, other = runs(eddy, (6, 1))
        plain = other.first()
        assert plain.routing_signature() == run.routing_signature()
        ids = [*range(run.tuple_id, run.tuple_id + 6), plain.tuple_id]
        observed = routed(eddy, [run, plain])
        # The second batch is the run's last two matches and the plain
        # tuple: one group, one decision, in drain order.
        stats = observed["stats"]
        assert (stats["route_events"], stats["route_decisions"]) == (2, 2)
        assert [output[1] for output in observed["outputs"]] == ids
        assert len({output[0] for output in observed["outputs"][4:]}) == 1
        reference = fresh_eddy(batch_size=4)
        run, other = runs(reference, (6, 1))
        assert routed(reference, [*run.tuples(), other.first()]) == observed

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_a_run_routes_as_its_tuples_would(self, batch_size):
        eddy = fresh_eddy(batch_size)
        observed = routed(eddy, [*runs(eddy, (5, 2, 4))])
        reference = fresh_eddy(batch_size)
        assert routed(reference, materialised(runs(reference, (5, 2, 4)))) == observed
        assert observed["stats"]["routings"] == 11


class TestMaterialisedRuns:
    def test_a_query_with_preferences_gets_tuples_with_their_own_priority(self):
        eddy = fresh_eddy(8, preferences=[selection("T.key", "<", 5, priority=2.0)])
        (run,) = runs(eddy, (6,))
        eddy.to_eddy_all([run], eddy.stems["T"])
        assert [type(item) for item in eddy._ready] == [QTuple] * 6
        assert eddy._runs_waiting == 0
        assert [item.tuple_id for item in eddy._ready] == list(
            range(run.tuple_id, run.tuple_id + 6)
        )
        assert [item.priority for item in eddy._ready] == [
            2.0 if row["key"] < 5 else 0.0 for row in run.rows
        ]

    def test_a_feedback_policy_keeps_an_output_ready_run_whole(self, monkeypatch):
        eddy = fresh_eddy(8, policy="lottery")
        (run,) = runs(eddy, (3,))
        stem = eddy.stems["T"]
        # Off the exploration floor, so n debits of one differ in float
        # from one debit of n.
        eddy.policy._tickets = {stem.name: 10.3, run.source: 0.7}
        replay = LotteryPolicy()
        replay._tickets = dict(eddy.policy._tickets)

        def materialised(self):
            raise AssertionError("an output-ready run was materialised")

        monkeypatch.setattr(MatchRun, "tuples", materialised)
        ids = list(range(run.tuple_id, run.tuple_id + 3))
        eddy.to_eddy_all([run], stem)
        assert list(eddy._ready) == [run] and eddy._runs_waiting == 1
        eddy.sim.run()
        assert [kept.tuple_id for kept in eddy.output_tuples] == ids
        for _ in run.rows:  # a debit per match on hand-off, a credit per output
            replay.debit(stem.name, 1.0)
        for _ in run.rows:
            replay.credit(run.source, 0.1)
        assert eddy.policy._tickets == replay._tickets

    def test_a_checkpoint_cuts_a_waiting_run_as_its_tuples(self, tmp_path):
        from repro.bench.workloads import staggered_fleet_workload
        from repro.engine.multi import MultiQueryEngine
        from repro.recovery import CheckpointManager

        workload = staggered_fleet_workload(n_queries=2, rows=60, seed=3, policy="naive")
        # A dry run of the durable engine (its commits are events too): the
        # boundaries at which some query holds a run in its ready deque.
        engine = MultiQueryEngine(
            list(workload.admissions), workload.catalog, continuous=True, batch_size=8
        )
        CheckpointManager.attach(engine, str(tmp_path / "dry-run"))
        waiting = []

        def note(event) -> None:
            for query_id in engine.active:
                ready = engine.eddy_of(query_id)._ready
                if any(type(item) is MatchRun for item in ready):
                    waiting.append(engine.simulator.executed_events)

        engine.simulator.after_event_hook = note
        engine.run()
        assert waiting, "no run ever waited in a ready deque"
        directory = tmp_path / "ckpt"
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(directory),
            waiting[len(waiting) // 2] + 40,
            checkpoint_after_events=waiting[len(waiting) // 2],
            batch_size=8,
        )
        assert report["crashed"] and report["passed"], report["mismatches"]
        assert report["cut_counts"]["ready"] > 0
        snapshot = SnapshotStore(str(directory)).load_latest()
        assert snapshot["version"] == 3
        # Every waiting match is cut in the format a QTuple has always had.
        (run,) = runs(fresh_eddy(1), (1,))
        formats = {frozenset(encode_item(run.first())), frozenset(encode_item(EOT))}
        ready = [item for query in snapshot["queries"].values() for item in query["ready"]]
        assert ready and {frozenset(item) for item in ready} <= formats


class TestProbeResults:
    def test_probe_results_read_as_tuples_with_sequential_ids(self):
        stem = SteM("T", aliases=("T",), join_columns=("key",))
        for timestamp, row in enumerate(T_ROWS, start=1):
            stem.build(row, float(timestamp))
        eddy = fresh_eddy(1)
        install_id_allocator(TupleIdAllocator(start=500))
        try:
            probe = singleton_maker("R", "am:R_scan:R", eddy.layout)(R_ROWS[0])
            keyed = [row for row in T_ROWS if row["key"] == R_ROWS[0]["key"]]
            outcome = stem.probe(probe, "T", [equi_join("R.key", "T.key")])
            after = singleton_maker("R", "am:R_scan:R", eddy.layout)(R_ROWS[1])
        finally:
            install_id_allocator()
        results = outcome.results
        assert all(type(result) is QTuple for result in results)
        assert [result.tuple_id for result in results] == list(range(501, 501 + len(keyed)))
        assert after.tuple_id == 501 + len(keyed)
        assert [result.component("T") for result in results] == keyed
        assert len(outcome.run.rows) == len(keyed) > 0
