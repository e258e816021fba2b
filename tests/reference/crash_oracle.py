"""The crash-recovery differential oracle (a test oracle: no entry point runs it).

The correctness claim of the durability layer is *exactly-once equivalence*:
for a crash at **any** event boundary, the union of the results durably
acknowledged before the crash and the results emitted by the restored run
is identical — as a multiset of result identities, per query — to an
uninterrupted run of the same workload.  No duplicates, no losses.

:func:`crash_recovery_oracle` checks that claim end to end for one
workload and one crash boundary:

1. run the workload *without* durability → the reference result multisets;
2. run it again with a :class:`~repro.recovery.manager.CheckpointManager`
   attached and a :class:`CrashInjector` armed, let
   the injected crash kill it, and drop the WAL's unflushed buffer exactly
   as a real crash would;
3. recover from disk, rebuild the engine standing at the last cut, run it
   to completion;
4. compare, per query: acked-before-crash + emitted-after-restore vs
   reference.

Runs are deterministic (virtual-time simulator, seeded workloads), so the
reference and the crashed run execute identical event sequences up to the
crash — which is what makes sweeping the boundary over every event index
an exhaustive check rather than a probabilistic one.  Periodic checkpoints
fall where little is in flight; ``checkpoint_after_events`` cuts at an
arbitrary boundary instead, so a sweep can see queues, service slots and
lookups that are not empty.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Sequence

from repro.engine.multi import ChurnEvent, MultiQueryEngine, QueryAdmission
from repro.engine.results import MultiQueryResult
from repro.errors import ExecutionError
from repro.recovery.manager import (
    CheckpointManager,
    identity_key,
    recover_state,
    restore_engine,
)
from repro.sim.simulator import Simulator


class InjectedCrash(RuntimeError):
    """Raised out of the simulator loop to kill a run at an event boundary.

    Deliberately *not* an :class:`~repro.errors.ExecutionError`: nothing in
    the engine may catch and absorb it — it must unwind to the harness like
    a real crash.
    """

    def __init__(self, events_executed: int, time: float):
        super().__init__(
            f"injected crash after {events_executed} events at t={time:.3f}"
        )
        self.events_executed = events_executed
        self.time = time


class CrashInjector:
    """Kill a simulator run after exactly ``after_events`` executed events.

    Counts events from :meth:`arm`, so the boundary index is stable across
    runs of the same workload — the crash-recovery oracle sweeps it.
    """

    def __init__(self, simulator: Simulator, after_events: int):
        if after_events < 1:
            raise ExecutionError(
                f"crash boundary must be >= 1 events, got {after_events}"
            )
        self.simulator = simulator
        self.after_events = after_events
        self.seen = 0
        self.fired = False

    def arm(self) -> "CrashInjector":
        if self.simulator.after_event_hook is not None:
            raise ExecutionError(
                "the simulator already has an after_event_hook installed"
            )
        self.simulator.after_event_hook = self._hook
        return self

    def _hook(self, event) -> None:
        self.seen += 1
        if not self.fired and self.seen >= self.after_events:
            self.fired = True
            raise InjectedCrash(self.seen, self.simulator.now)


def result_identity_counts(result: MultiQueryResult) -> dict[str, Counter]:
    """Per-query multiset of result identities (the oracle's currency)."""
    return {
        query_id: Counter(identity_key(tuple_) for tuple_ in res.tuples)
        for query_id, res in result.results.items()
    }


def _build_engine(
    admissions: Sequence[QueryAdmission | str],
    catalog,
    churn_events: Sequence[ChurnEvent],
    **engine_kwargs,
) -> MultiQueryEngine:
    engine = MultiQueryEngine(
        list(admissions), catalog, continuous=True, **engine_kwargs
    )
    if churn_events:
        engine.schedule_churn(list(churn_events))
    return engine


def run_reference(
    admissions: Sequence[QueryAdmission | str],
    catalog,
    churn_events: Sequence[ChurnEvent] = (),
    until: float | None = None,
    **engine_kwargs,
) -> tuple[MultiQueryResult, dict[str, Counter]]:
    """Run the workload without durability; the oracle's ground truth.

    Admissions must carry policy *names*, not instances — the harness runs
    the same workload through three engines, and policy instances are
    stateful and single-use.
    """
    engine = _build_engine(admissions, catalog, churn_events, **engine_kwargs)
    result = engine.run(until=until)
    return result, result_identity_counts(result)


def crash_recovery_oracle(
    admissions: Sequence[QueryAdmission | str],
    catalog,
    checkpoint_dir: str,
    crash_after_events: int,
    churn_events: Sequence[ChurnEvent] = (),
    checkpoint_interval: float | None = None,
    until: float | None = None,
    tear_final_snapshot: bool = False,
    checkpoint_after_events: int | None = None,
    reference: dict[str, Counter] | None = None,
    **engine_kwargs,
) -> dict[str, Any]:
    """Crash one run at an event boundary, recover, and verify exactly-once.

    Args:
        admissions: the workload's initial admissions (policy names only).
        catalog: the catalog (shared by all three runs).
        checkpoint_dir: where the durable run checkpoints (must not hold a
            previous run's state).
        crash_after_events: the event boundary to kill the durable run at;
            boundaries past the workload's end make it complete cleanly
            (``crashed`` is False in the report and the oracle still holds).
        churn_events: optional live admission/retirement schedule; the
            restore applies whatever portion the crash pre-empted.
        checkpoint_interval: virtual-time checkpoint cadence (None: no
            periodic snapshot — recovery from the empty cut and the WAL).
        until: virtual-time bound passed to every run.
        tear_final_snapshot: additionally simulate the crash landing
            mid-checkpoint — a snapshot of the at-crash state is written and
            then torn (truncated on disk), so recovery must detect the bad
            CRC and fall back to the previous generation + longer WAL tail.
        checkpoint_after_events: additionally take one checkpoint by hand
            right after this many events (and before the crash check of the
            same boundary), wherever the dataflow happens to stand.
        reference: the identity counts :func:`run_reference` returns for
            this workload, when a sweep has already computed them.
        engine_kwargs: engine configuration (batch size, eviction, ...),
            identical across all three runs.

    Returns a report dict; ``report["passed"]`` is the oracle verdict and
    ``report["mismatches"]`` lists every per-query identity whose combined
    count differs from the reference (positive delta = duplicate, negative
    = loss).
    """
    reference_keys = reference
    if reference_keys is None:
        _, reference_keys = run_reference(
            admissions, catalog, churn_events, until=until, **engine_kwargs
        )

    engine = _build_engine(admissions, catalog, churn_events, **engine_kwargs)
    manager = CheckpointManager.attach(
        engine, checkpoint_dir, interval=checkpoint_interval
    )
    injector = CrashInjector(engine.simulator, crash_after_events).arm()
    if checkpoint_after_events is not None:
        crash_check = engine.simulator.after_event_hook

        def checkpoint_then_crash_check(event) -> None:
            if injector.seen + 1 == checkpoint_after_events:
                manager.take_checkpoint()
            crash_check(event)

        engine.simulator.after_event_hook = checkpoint_then_crash_check
    crashed = False
    crash_time = None
    try:
        engine.run(until=until)
    except InjectedCrash as crash:
        crashed = True
        crash_time = crash.time
    finally:
        engine.simulator.after_event_hook = None
    if crashed:
        if tear_final_snapshot:
            _write_torn_snapshot(manager)
        lost_wal_records = manager.simulate_crash()
    else:
        manager.close()
        lost_wal_records = 0

    state = recover_state(checkpoint_dir)
    pre_crash = {
        query_id: Counter(state.emitted[query_id])
        for query_id in state.emitted
    }

    restored = restore_engine(
        state, catalog, churn_events=churn_events, **engine_kwargs
    )
    restored_result = restored.run(until=until)
    post_restore = result_identity_counts(restored_result)

    mismatches: list[dict[str, Any]] = []
    query_ids = set(reference_keys) | set(pre_crash) | set(post_restore)
    for query_id in sorted(query_ids):
        reference = reference_keys.get(query_id, Counter())
        combined = pre_crash.get(query_id, Counter()) + post_restore.get(
            query_id, Counter()
        )
        for key in set(reference) | set(combined):
            delta = combined.get(key, 0) - reference.get(key, 0)
            if delta != 0:
                mismatches.append(
                    {"query_id": query_id, "identity": key, "delta": delta}
                )

    return {
        "passed": not mismatches,
        "mismatches": mismatches,
        "crashed": crashed,
        "crash_after_events": crash_after_events,
        "crash_time": crash_time,
        "lost_wal_records": lost_wal_records,
        "pre_crash_emitted": sum(sum(c.values()) for c in pre_crash.values()),
        "post_restore_emitted": sum(
            sum(c.values()) for c in post_restore.values()
        ),
        "reference_emitted": sum(
            sum(c.values()) for c in reference_keys.values()
        ),
        "suppressed_emits": sum(
            res.eddy_stats.get("suppressed_emits", 0)
            for res in restored_result.results.values()
        ),
        "torn_wal_records": state.torn_wal_records,
        "torn_snapshots": state.torn_snapshots,
        "snapshot_seq": state.snapshot_seq,
        "cut_time": state.cut_time,
        "cut_counts": state.cut_counts(),
        "tail_acks": state.total_tail_acks(),
        "restored_events": restored.simulator.executed_events,
    }


def _write_torn_snapshot(manager: CheckpointManager) -> None:
    """Simulate the crash landing mid-checkpoint.

    Writes a real snapshot of the at-crash state, then truncates the file
    to half its length on disk — exactly what a write torn below the
    atomic-rename protocol leaves behind.  Recovery must reject it by CRC
    and fall back.
    """
    path = manager.take_checkpoint()
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
