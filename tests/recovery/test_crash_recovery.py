"""Crash-at-any-event-boundary recovery: the differential oracle.

The contract under test: for a crash at *any* event boundary, with the last
checkpoint cut at *any* earlier boundary, acked-before-crash +
emitted-after-restore equals an uninterrupted run, per query, as a multiset
of result identities — no duplicates, no losses — across routing policies
and batch sizes, with and without live churn, and with the crash landing
mid-checkpoint (torn snapshot).  The restored run starts at
the cut: it regenerates, and suppresses, only what was acknowledged after
it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.workloads import (
    bursty_join_workload,
    churn_workload,
    q1_workload,
    staggered_fleet_workload,
)
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.errors import ExecutionError
from repro.recovery import CheckpointManager, recover_state, restore_engine
from repro.recovery.wal import replay_wal_file, wal_generations
from tests.helpers import shared_tables_mixed_workload
from tests.reference.crash_oracle import (
    CrashInjector,
    InjectedCrash,
    crash_recovery_oracle,
    result_identity_counts,
    run_reference,
)

#: Event boundaries swept by the smoke grid: one almost immediately, one
#: mid-stream, two deep into the run — before the first periodic checkpoint
#: (virtual 5.0: the empty cut) and after it (runs are ~2,500 events).
BOUNDARIES = (7, 150, 900, 1500)

#: The CI smoke seeds (see .github/workflows/ci.yml crash-recovery leg).
SMOKE_SEEDS = (3, 11, 29)


def small_fleet(seed=3, policy="naive"):
    return staggered_fleet_workload(n_queries=3, rows=60, seed=seed, policy=policy)


class TestCrashRecoveryOracle:
    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_policies_boundary_sweep(self, tmp_path, policy, boundary):
        workload = small_fleet(policy=policy)
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            boundary,
            checkpoint_interval=5.0,
        )
        assert report["crashed"]
        assert report["passed"], report["mismatches"]
        combined = report["pre_crash_emitted"] + report["post_restore_emitted"]
        assert combined == report["reference_emitted"] > 0
        # What was acked after the cut is regenerated and suppressed; what
        # was acked before it is never produced again.
        assert (
            report["suppressed_emits"]
            == report["tail_acks"]
            <= report["pre_crash_emitted"]
        )
        if boundary == 1500:
            assert report["cut_time"] == 5.0
            assert 0 < report["tail_acks"] < report["pre_crash_emitted"]

    @pytest.mark.parametrize("policy", ["naive", "lottery", "benefit"])
    def test_crash_at_the_checkpoint_boundary_suppresses_nothing(self, tmp_path, policy):
        workload = small_fleet(policy=policy)
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            1500,
            checkpoint_after_events=1500,
        )
        assert report["crashed"] and report["passed"], report["mismatches"]
        assert report["pre_crash_emitted"] > 0
        assert report["suppressed_emits"] == report["tail_acks"] == 0
        assert report["cut_time"] == report["crash_time"]

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_batch_grid(self, tmp_path, batch_size):
        workload = small_fleet(policy="lottery")
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            400,
            checkpoint_interval=5.0,
            batch_size=batch_size,
        )
        assert report["crashed"]
        assert report["passed"], report["mismatches"]

    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_smoke_seeds(self, tmp_path, seed):
        workload = small_fleet(seed=seed)
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            250,
            checkpoint_interval=4.0,
        )
        assert report["crashed"] and report["passed"], report["mismatches"]

    def test_churn_crash_replays_remaining_schedule(self, tmp_path):
        workload = churn_workload(
            duration=25.0, arrival_rate=0.3, rows=80, seed=5
        )
        report = crash_recovery_oracle(
            [],
            workload.catalog,
            str(tmp_path / "ckpt"),
            600,
            churn_events=workload.events,
            checkpoint_interval=4.0,
        )
        assert report["crashed"]
        assert report["passed"], report["mismatches"]
        assert report["pre_crash_emitted"] > 0

    def test_crash_mid_checkpoint_torn_snapshot_falls_back(self, tmp_path):
        workload = small_fleet()
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            700,
            checkpoint_interval=3.0,
            tear_final_snapshot=True,
        )
        assert report["crashed"]
        # The torn generation was detected and skipped...
        assert report["torn_snapshots"] == 1
        # ...and recovery from the previous generation's cut, with the
        # longer ack tail that goes with it, still satisfies the oracle.
        assert report["cut_time"] < report["crash_time"]
        assert report["tail_acks"] > 0
        assert report["passed"], report["mismatches"]

    def test_wal_only_recovery_without_any_checkpoint(self, tmp_path):
        workload = small_fleet()
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            500,
            checkpoint_interval=None,  # no periodic snapshots at all
        )
        assert report["crashed"]
        # The empty cut at time zero: a fresh run under the emit filter,
        # every pre-crash ack in the tail.
        assert report["snapshot_seq"] is None
        assert report["cut_time"] == 0.0
        assert report["tail_acks"] == report["pre_crash_emitted"] > 0
        assert report["suppressed_emits"] == report["tail_acks"]
        assert report["passed"], report["mismatches"]

    def test_boundary_past_end_means_clean_run(self, tmp_path):
        workload = small_fleet()
        report = crash_recovery_oracle(
            workload.admissions,
            workload.catalog,
            str(tmp_path / "ckpt"),
            10**9,
            checkpoint_interval=5.0,
        )
        assert not report["crashed"]
        # Everything was acked; the restored run emits nothing new.
        assert report["post_restore_emitted"] == 0
        assert report["passed"], report["mismatches"]


class TestResumeMode:
    """A clean ``close()`` is a cut at the stop point; restoring it is the
    same path a crash takes, with an empty tail."""

    def test_clean_restart_continues_exactly_once(self, tmp_path):
        workload = small_fleet()
        _, reference = run_reference(workload.admissions, workload.catalog)

        engine = MultiQueryEngine(
            list(workload.admissions), workload.catalog, continuous=True
        )
        manager = CheckpointManager.attach(
            engine, str(tmp_path / "ckpt"), interval=2.0
        )
        engine.run(until=6.0)  # stop mid-flight
        manager.close()  # clean shutdown: final checkpoint

        state = recover_state(str(tmp_path / "ckpt"))
        pre = {q: Counter(state.emitted[q]) for q in state.emitted}
        assert sum(sum(c.values()) for c in pre.values()) > 0

        assert state.cut_time == 6.0 and not state.tail_acks
        resumed = restore_engine(state, workload.catalog)
        result = resumed.run()
        post = result_identity_counts(result)
        assert not any(
            res.eddy_stats["suppressed_emits"] for res in result.results.values()
        )

        for query_id in set(reference) | set(pre) | set(post):
            combined = pre.get(query_id, Counter()) + post.get(
                query_id, Counter()
            )
            assert combined == reference.get(query_id, Counter()), query_id

    def test_resume_restores_state_and_counter(self, tmp_path):
        workload = small_fleet()
        engine = MultiQueryEngine(
            list(workload.admissions), workload.catalog, continuous=True
        )
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        engine.run(until=8.0)
        counter_at_close = engine.next_build_timestamp
        stored = {
            table: dict(
                (row, ts) for row, ts in stem.state_entries()
            )
            for table, stem in engine.registry.stems.items()
        }
        coverage = {
            table: stem.coverage_state()
            for table, stem in engine.registry.stems.items()
        }
        manager.close()

        state = recover_state(str(tmp_path / "ckpt"))
        assert state.next_timestamp == counter_at_close
        resumed = restore_engine(state, workload.catalog)
        assert resumed.next_build_timestamp == counter_at_close
        assert resumed.simulator.now == 8.0
        for table, rows in stored.items():
            restored_stem = resumed.registry.stems[table]
            restored_rows = dict(restored_stem.state_entries())
            assert restored_rows == rows
            # Coverage (scan seals + per-key EOTs) carried over byte-for-byte.
            assert restored_stem.coverage_state() == coverage[table]

    def test_last_retirement_reclaims_the_restored_stems(self, tmp_path):
        # The restore holds the recovered tables only until the queries it
        # re-admits hold them: retiring the last query then reclaims every
        # SteM, as it does in the run the cut came from.
        workload = staggered_fleet_workload(n_queries=1, rows=60, seed=3)
        checkpointed, engine = (
            MultiQueryEngine(list(workload.admissions), workload.catalog, continuous=True)
            for _ in range(2)
        )
        manager = CheckpointManager.attach(checkpointed, str(tmp_path / "ckpt"))
        checkpointed.run(until=2.0)
        manager.close()
        engine.run(until=2.0)
        restored = restore_engine(recover_state(str(tmp_path / "ckpt")), workload.catalog)
        assert sorted(restored.registry.stems) == sorted(engine.registry.stems) == ["R", "T"]
        assert restored.registry.owners == engine.registry.owners == ("q0",)
        for run in (engine, restored):
            run.retire("q0")
        assert len(restored.registry) == len(engine.registry) == 0
        assert restored.registry.stats["reclaimed"] == engine.registry.stats["reclaimed"] == 2
        assert restored.registry.owners == engine.registry.owners == ()

    def test_resume_skips_retired_queries(self, tmp_path):
        workload = churn_workload(
            duration=20.0, arrival_rate=0.4, rows=60, seed=7
        )
        engine = MultiQueryEngine([], workload.catalog, continuous=True)
        engine.schedule_churn(workload.events)
        manager = CheckpointManager.attach(engine, str(tmp_path / "ckpt"))
        engine.run()
        manager.close()

        state = recover_state(str(tmp_path / "ckpt"))
        assert state.retired  # the workload actually retired queries
        for mode in ("resume", "replay"):  # two names, one behaviour
            resumed = restore_engine(state, workload.catalog, mode=mode)
            assert set(resumed.active).isdisjoint(state.retired)


def _acked_per_generation(directory: str) -> list[dict[str, Counter]]:
    """Per WAL generation (= engine incarnation), the acks its flushed
    records hold, per query."""
    generations = []
    for _, path in wal_generations(directory):
        acked: dict[str, Counter] = {}
        for record in replay_wal_file(path)[0]:
            if record["k"] in ("emit", "emits"):
                keys = record["ids"] if record["k"] == "emits" else (record["id"],)
                acked.setdefault(record["q"], Counter()).update(keys)
        generations.append(acked)
    return generations


def _crash_incarnation(engine, directory, kill_after, cut_after=None):
    """Attach a manager, cut once — ``cut_after`` events in, or at the first
    boundary after a retirement when None — and crash ``kill_after`` events
    in; returns what recovery reads back."""
    manager = CheckpointManager.attach(engine, directory)
    injector = CrashInjector(engine.simulator, kill_after).arm()
    crash_check = engine.simulator.after_event_hook
    retired, cut = [], []
    engine.add_retire_listener(lambda query_id, now: retired.append(query_id))

    def cut_then_crash_check(event) -> None:
        if not cut and (retired if cut_after is None else injector.seen + 1 == cut_after):
            cut.append(manager.take_checkpoint())
        crash_check(event)

    engine.simulator.after_event_hook = cut_then_crash_check
    with pytest.raises(InjectedCrash):
        engine.run()
    manager.simulate_crash()
    assert cut
    return recover_state(directory)


class TestSecondCrash:
    """A manager attached to a restored engine carries the earlier
    incarnations' acks, retirements and retired admissions into its own
    snapshots, so a second crash recovers all of them."""

    def test_acks_and_retirements_survive_a_second_crash(self, tmp_path):
        _, catalog, churn_events, _ = _churn()
        _, reference = run_reference((), catalog, churn_events)
        directory = str(tmp_path / "ckpt")

        engine = MultiQueryEngine([], catalog, continuous=True)
        engine.schedule_churn(list(churn_events))
        first = _crash_incarnation(engine, directory, kill_after=1000)
        assert first.retired and not first.retired_after_cut

        restored = restore_engine(first, catalog, churn_events=churn_events)
        second = _crash_incarnation(restored, directory, kill_after=400, cut_after=200)
        assert second.cut_time > first.cut_time and second.tail_acks

        acked = _acked_per_generation(directory)
        assert len(acked) == 2 and all(acked)
        summed: dict[str, Counter] = {}
        for generation in acked:
            for query_id, counts in generation.items():
                summed.setdefault(query_id, Counter()).update(counts)
        assert {q: Counter(counts) for q, counts in second.emitted.items()} == summed
        assert first.retired.items() <= second.retired.items()
        assert {a.query_id for a in first.admissions} <= {a.query_id for a in second.admissions}

        final = restore_engine(second, catalog, churn_events=churn_events).run()
        post = result_identity_counts(final)
        for query_id in set(reference) | set(post) | set(second.emitted):
            combined = Counter(second.emitted.get(query_id, {})) + post.get(query_id, Counter())
            assert combined == reference.get(query_id, Counter()), query_id


class TestRestoreValidation:
    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ExecutionError):
            restore_engine(
                recover_state(str(tmp_path)), None, mode="sideways"
            )

    def test_checkpoint_requires_shared_stems(self, tmp_path):
        workload = small_fleet()
        engine = MultiQueryEngine(
            list(workload.admissions),
            workload.catalog,
            shared_stems=False,
        )
        with pytest.raises(ExecutionError, match="shared"):
            CheckpointManager.attach(engine, str(tmp_path / "ckpt"))

    def test_injector_validates_boundary_and_double_arm(self):
        workload = small_fleet()
        engine = MultiQueryEngine(
            list(workload.admissions), workload.catalog
        )
        with pytest.raises(ExecutionError):
            CrashInjector(engine.simulator, 0)
        CrashInjector(engine.simulator, 5).arm()
        with pytest.raises(ExecutionError):
            CrashInjector(engine.simulator, 9).arm()
        with pytest.raises(InjectedCrash):
            engine.run()


# -- cuts that are not empty -----------------------------------------------------

#: Crash this many events after the cut: at it, right after it, well past it.
CRASH_OFFSETS = (0, 1, 40)


#: The places a cut can hold work in flight (``RecoveredState.cut_counts``).
HELD_KINDS = ("ready", "queued", "in_service", "queued_keys", "lookups_in_flight")


def _dry_run(tmp_path, admissions, catalog, churn_events=(), **engine_kwargs):
    """Run the workload durably (the commit events count as boundaries)
    without a crash; returns its event count and, per kind of in-flight
    state, the event boundaries at which some query held any."""
    engine = MultiQueryEngine(
        list(admissions), catalog, continuous=True, **engine_kwargs
    )
    engine.schedule_churn(list(churn_events))
    CheckpointManager.attach(engine, str(tmp_path / "dry-run"))
    simulator = engine.simulator
    holding: dict[str, list[int]] = {kind: [] for kind in HELD_KINDS}

    def note(event) -> None:
        held = dict.fromkeys(HELD_KINDS, 0)
        for query_id in engine.active:
            eddy = engine.eddy_of(query_id)
            held["ready"] += len(eddy._ready)
            for module in eddy.modules.values():
                held["queued"] += len(module.queue)
                held["in_service"] += module.busy
                if module.kind == "index_am":
                    held["queued_keys"] += len(module._lookup_queue)
                    held["lookups_in_flight"] += len(module._in_flight)
        for kind, count in held.items():
            if count:
                holding[kind].append(simulator.executed_events)

    simulator.after_event_hook = note
    engine.run()
    return simulator.executed_events, holding


def _boundaries(events: int, holding: dict[str, list[int]], count: int = 8) -> list[int]:
    """``count`` boundaries spread evenly over the run, plus — per kind of
    in-flight state the run ever holds — the middle boundary that holds it,
    so that no sweep depends on an even spread happening to hit one."""
    spread = {max(1, events * (2 * i + 1) // (2 * count)) for i in range(count)}
    spread.update(at[len(at) // 2] for at in holding.values() if at)
    return sorted(spread)


def sweep_cuts(tmp_path, admissions, catalog, boundaries, churn_events=(), **engine_kwargs):
    """Checkpoint at each boundary, crash at, just after and well after it.

    Every oracle must pass, suppress exactly the acks made after the cut
    (none for a crash at the cut itself); returns, per kind of in-flight
    state, the most any swept cut held — so a caller can assert the sweep
    saw cuts that were not empty.
    """
    _, reference = run_reference(admissions, catalog, churn_events, **engine_kwargs)
    held: Counter = Counter()
    for boundary in boundaries:
        for offset in CRASH_OFFSETS:
            report = crash_recovery_oracle(
                admissions,
                catalog,
                str(tmp_path / f"ckpt-{boundary}-{offset}"),
                boundary + offset,
                churn_events=churn_events,
                checkpoint_after_events=boundary,
                reference=reference,
                **engine_kwargs,
            )
            where = (boundary, offset, report["cut_counts"])
            assert report["passed"], (where, report["mismatches"])
            assert report["suppressed_emits"] == report["tail_acks"], where
            if report["crashed"]:
                assert report["snapshot_seq"] == 1, where
                if offset == 0:
                    assert report["tail_acks"] == 0, where
                    assert report["cut_time"] == report["crash_time"], where
            for kind, count in report["cut_counts"].items():
                held[kind] = max(held[kind], count)
    return held


def _fleet(**kwargs):
    workload = staggered_fleet_workload(**kwargs)
    return workload.admissions, workload.catalog, (), {}


def _index_only():
    """The Q1 shape twice: S is reachable only through its index, so cuts
    fall inside a lookup's flight and with keys waiting behind it."""
    workload = q1_workload(r_rows=40, distinct_a=16, s_index_latency=0.3)
    admissions = (
        QueryAdmission(workload.query, query_id="all", policy="naive"),
        QueryAdmission(
            "SELECT * FROM R, S WHERE R.a = S.x AND R.key < 25",
            query_id="some",
            policy="naive",
            arrival_time=0.31,
        ),
    )
    return admissions, workload.catalog, (), {}


def _three_way():
    workload = shared_tables_mixed_workload(rows=24, stagger=0.3)
    return workload.admissions, workload.catalog, (), {}


def _self_join():
    """A self-join keeps a private SteM per alias beside the shared ones."""
    workload = staggered_fleet_workload(n_queries=2, rows=20, seed=3, stagger=0.3)
    self_join = QueryAdmission(
        "SELECT * FROM R r1, R r2 WHERE r1.a = r2.a AND r1.key < 12",
        query_id="self",
        policy="naive",
        arrival_time=0.1,
    )
    return (*workload.admissions, self_join), workload.catalog, (), {}


def _bursty():
    """Stalls and jitter: scan streams that are not monotone in row order."""
    workload = bursty_join_workload(rows=36, seed=2)
    admissions = (
        QueryAdmission(workload.query, query_id="b0", policy="naive"),
        QueryAdmission(workload.query, query_id="b1", policy="naive", arrival_time=0.7),
    )
    return admissions, workload.catalog, (), {"cost_model": workload.cost_model}


def _bounded():
    """One query over a count-bounded SteM: T comes by scan and by index, so
    an evicted row is delivered, built and joined again — equal identities
    on both sides of a cut, which only a tail-armed filter tells apart."""
    workload = staggered_fleet_workload(n_queries=1, rows=40, seed=3)
    options = {"stem_eviction": "count", "stem_max_size": 10}
    return workload.admissions, workload.catalog, (), options


def _churn():
    workload = churn_workload(
        duration=12.0, arrival_rate=0.5, mean_lifetime=4.0, rows=30, seed=5
    )
    return (), workload.catalog, workload.events, {}


SWEPT_WORKLOADS = {
    "index_only": _index_only,
    "three_way": _three_way,
    "self_join": _self_join,
    "bursty": _bursty,
    "bounded": _bounded,
    "churn": _churn,
    "lottery": lambda: _fleet(n_queries=3, rows=24, seed=3, policy="lottery", stagger=0.3),
    "benefit": lambda: _fleet(n_queries=3, rows=24, seed=3, policy="benefit", stagger=0.3),
}


class TestCutSweeps:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_exhaustive_tiny_fleet(self, tmp_path, batch_size):
        """A checkpoint at *every* event boundary of a tiny fleet."""
        admissions, catalog, _, _ = _fleet(n_queries=2, rows=3, seed=3, stagger=0.1)
        events, _ = _dry_run(tmp_path, admissions, catalog, batch_size=batch_size)
        held = sweep_cuts(
            tmp_path, admissions, catalog, range(1, events + 1), batch_size=batch_size
        )
        assert all(held[kind] > 0 for kind in HELD_KINDS), held

    @pytest.mark.parametrize("name", sorted(SWEPT_WORKLOADS))
    def test_spread_boundaries(self, tmp_path, name):
        admissions, catalog, churn_events, options = SWEPT_WORKLOADS[name]()
        events, holding = _dry_run(tmp_path, admissions, catalog, churn_events, **options)
        # Every workload here has an index AM and, at some boundary, work in
        # each place a cut can hold it; the sweep must have cut there.
        assert all(holding.values()), holding
        held = sweep_cuts(
            tmp_path,
            admissions,
            catalog,
            _boundaries(events, holding),
            churn_events,
            **options,
        )
        assert all(held[kind] > 0 for kind in HELD_KINDS), held

    def test_churn_cuts_fall_on_every_side_of_the_lifecycle(self, tmp_path):
        """Before an admission, between admission and retirement, after a
        retirement — by the cut's own record of who was live."""
        _, catalog, churn_events, _ = _churn()
        events, holding = _dry_run(tmp_path, (), catalog, churn_events)
        seen = set()
        for boundary in _boundaries(events, holding):
            directory = str(tmp_path / f"ckpt-{boundary}")
            crash_recovery_oracle(
                (), catalog, directory, boundary,
                churn_events=churn_events, checkpoint_after_events=boundary,
            )
            state = recover_state(directory)
            admitted = {a.query_id for a in state.admissions}
            if any(
                e.action == "admit" and e.admission.query_id not in admitted
                for e in churn_events
            ):
                seen.add("before an admission")
            if admitted - set(state.retired):
                seen.add("between admission and retirement")
            if state.retired:
                seen.add("after a retirement")
                restored = restore_engine(state, catalog, churn_events=churn_events)
                assert set(restored.active).isdisjoint(state.retired)
        assert len(seen) == 3, seen
