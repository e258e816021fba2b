"""Deterministic fault injection for the recovery and degradation suites.

Three fault families, all seeded and replayable:

* **Crashes at event boundaries** — :class:`CrashInjector` arms the
  simulator's ``after_event_hook`` and raises :class:`InjectedCrash` after
  exactly N executed events.  Because engine code only runs inside events,
  an event boundary is precisely where a real process crash can leave
  observable state: any interleaving a crash could produce, a boundary
  crash produces too.
* **Torn snapshot writes** — via ``SnapshotStore.write(torn_bytes=...)``
  (see :mod:`repro.recovery.snapshot`), simulating a checkpoint killed
  mid-write.
* **Index-lookup failures** — :func:`lookup_fault_model` builds the seeded
  failure predicate the access modules consult per lookup attempt, driving
  the retry/backoff/abandon machinery of
  :class:`~repro.core.modules.access.IndexAMModule`.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ExecutionError
from repro.sim.simulator import Simulator

__all__ = ["CrashInjector", "InjectedCrash", "lookup_fault_model"]


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


def lookup_fault_model(
    failure_rate: float, seed: int
) -> Callable[[int], bool] | None:
    """A seeded per-attempt failure predicate for index lookups.

    Returns ``fails(attempt) -> bool`` drawing one RNG tick per call —
    deterministic given the (seeded) call order, which the single-threaded
    simulator guarantees.  ``failure_rate`` of 0 returns None: the access
    module then skips the fault branch entirely.
    """
    if failure_rate <= 0.0:
        return None
    if failure_rate > 1.0:
        raise ExecutionError(
            f"failure_rate must be within [0, 1], got {failure_rate}"
        )
    rng = random.Random(seed)

    def fails(attempt: int) -> bool:
        return rng.random() < failure_rate

    return fails
