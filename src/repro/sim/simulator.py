"""The discrete-event simulator that drives all query execution.

The simulator owns the virtual time and an event queue.  Engine code
schedules callbacks (``schedule``/``schedule_at``) and the simulator runs
them in time order, advancing the clock.  Execution is single-threaded and
fully deterministic; "asynchrony" in the paper's sense (concurrent module
threads, outstanding index probes) is modelled by interleaving events.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.tracing import TraceLog


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        start_time: initial virtual time.
        trace: optional :class:`TraceLog` capturing every executed event.
        max_events: safety valve — raise after this many events (guards
            against accidental infinite routing loops in buggy policies).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: TraceLog | None = None,
        max_events: int = 50_000_000,
    ):
        #: Current virtual time.  Only the event loop moves it, and only
        #: forwards.
        self.now = float(start_time)
        self._queue = EventQueue()
        self.trace = trace
        self.max_events = max_events
        self.executed_events = 0
        self._running = False
        #: Fault hook: called after every executed event with the event
        #: just completed.  The crash-injection harness raises from here to
        #: kill the run at an exact event boundary — engine state is left
        #: frozen mid-flight, exactly like a process crash between events.
        self.after_event_hook: Callable[[Event], None] | None = None

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self._queue.push(self.now + delay, callback, label)

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time (>= now)."""
        now = self.now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past (now={now}, requested={time})"
            )
        return self._queue.push(time if time > now else now, callback, label)

    def reserve(
        self, delays: Iterable[float], base: float | None = None
    ) -> list[tuple[float, int]]:
        """Reserve the slots ``schedule(delay, ...)`` would occupy, in order.

        For each delay in turn: the absolute time and the sequence number a
        :meth:`schedule` call made now would get, with nothing scheduled.  A
        source that knows all its instants up front (a scan) reserves them
        in one step and keeps one event armed through
        :meth:`schedule_reserved`; because the sequence numbers — the
        tie-break between same-instant events — are the ones eager
        scheduling would have drawn, the heap order is the same.  ``base``
        stands in for "now": a scan restored from a checkpoint re-derives
        its instants from its original start time (the slots of instants
        already past are simply never scheduled).
        """
        now = self.now if base is None else base
        times = []
        for delay in delays:
            if delay < 0:
                raise SimulationError(f"cannot schedule with negative delay {delay}")
            times.append(now + delay)
        first = self._queue.reserve(len(times))
        return list(zip(times, range(first, first + len(times))))

    def schedule_reserved(
        self, slot: tuple[float, int], callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` in a slot :meth:`reserve` returned (once).

        The event goes through :meth:`schedule_at` like any other — its
        guard, and whatever wraps it, see every event — so the slot's
        sequence number travels as one-shot queue state that the push made
        by this very call consumes.
        """
        time, sequence = slot
        queue = self._queue
        queue.next_sequence = sequence
        try:
            return self.schedule_at(time, callback, label)
        finally:
            queue.next_sequence = None

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event."""
        self._queue.cancel(event)

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._queue)

    # -- execution ------------------------------------------------------------

    def _execute(self, until: float | None, single: bool) -> bool:
        """The event loop: pop, advance the clock, count, trace, call, hook.

        Runs one event (``single``) or every event up to ``until``; returns
        whether an event ran.
        """
        pop = self._queue.pop
        while True:
            event = pop(until)
            if event is None:
                # Drained, or the next event lies beyond ``until``: only
                # then does the clock move to ``until`` — and never back.
                if until is not None and until > self.now and self._queue:
                    self.now = float(until)
                return False
            time = event.time
            if time > self.now:
                self.now = time
            elif time < self.now - 1e-12:
                raise SimulationError(
                    f"cannot move the clock backwards (now={self.now}, requested={time})"
                )
            self.executed_events += 1
            if self.executed_events > self.max_events:
                raise SimulationError(
                    f"exceeded {self.max_events} events; "
                    "likely an infinite routing loop"
                )
            if self.trace is not None:
                self.trace.record(self.now, "event", event.label)
            event.callback()
            if self.after_event_hook is not None:
                self.after_event_hook(event)
            if single:
                return True

    def step(self) -> bool:
        """Execute the next event; return False if the queue is empty."""
        return self._execute(None, True)

    def run(self, until: float | None = None) -> float:
        """Run events until the queue drains (or virtual time ``until``).

        Returns the final virtual time.  An ``until`` behind the clock runs
        nothing and leaves the time unchanged.
        """
        if self._running:
            raise SimulationError("the simulator is already running (re-entrant run)")
        self._running = True
        try:
            self._execute(until, False)
        finally:
            self._running = False
        return self.now

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_events}, "
            f"executed={self.executed_events})"
        )
