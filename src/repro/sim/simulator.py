"""The discrete-event simulator that drives all query execution.

The simulator owns the virtual time and the event heap.  Engine code
schedules callbacks (``schedule``/``schedule_at``) and the simulator runs
them in time order, advancing the clock.  Execution is single-threaded and
fully deterministic; "asynchrony" in the paper's sense (concurrent module
threads, outstanding index probes) is modelled by interleaving events.

A heap entry is one list, ``[time, sequence, callback, label, state]``,
and it is also the handle :meth:`Simulator.cancel` takes.  Ties in time are
broken by a monotonically increasing sequence number, so events scheduled
earlier run earlier; sequence numbers are unique, so the heap's C
comparison never reaches the callback.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, NamedTuple

from repro.errors import SimulationError
from repro.sim.tracing import TraceLog

#: The ``state`` of a heap entry: waiting (the one falsy state), cancelled,
#: or popped and run.  Cancelling a popped entry is a no-op — a caller
#: tearing down (e.g. a scan AM on query retirement) may cancel the handle
#: it holds without tracking whether it already fired.
_LIVE, _CANCELLED, _FIRED = 0, 1, 2
#: Builds an :class:`Event` view from a 4-tuple without the Python-level
#: ``__new__`` a ``NamedTuple`` call runs (once per event while a hook is set).
_new_view = tuple.__new__


class Event(NamedTuple):
    """A read-only view of one scheduled callback, built only for
    :attr:`Simulator.after_event_hook` and :meth:`Simulator.upcoming`."""

    time: float
    sequence: int
    label: str
    callback: Callable[[], None]


class Simulator:
    """A deterministic discrete-event simulator.

    Cancellation is lazy — a cancelled entry stays in the heap and is
    skipped when it reaches the top — but not *unbounded*: once cancelled
    entries outnumber live ones the heap is compacted in place, so
    long-running simulations that cancel many events (multi-query runs
    tearing down per-query timers) neither leak memory nor pay O(dead) on
    every pop.

    Args:
        start_time: initial virtual time.
        trace: optional :class:`TraceLog` capturing every executed event.
        max_events: safety valve — raise after this many events (guards
            against accidental infinite routing loops in buggy policies).
    """

    #: Don't bother compacting heaps smaller than this; the win is noise.
    _COMPACT_THRESHOLD = 64

    def __init__(
        self,
        start_time: float = 0.0,
        trace: TraceLog | None = None,
        max_events: int = 50_000_000,
    ):
        #: Current virtual time.  Only the event loop moves it, and only
        #: forwards.
        self.now = float(start_time)
        self._heap: list[list] = []
        self._sequence = 0
        self._live = 0
        #: Cancelled entries still sitting in the heap.
        self._dead = 0
        #: One-shot: a reserved sequence number the next :meth:`schedule_at`
        #: takes in place of a fresh one.  :meth:`schedule_reserved` sets it
        #: around the single call it makes; it is None at all other times.
        self._next_sequence: int | None = None
        self.trace = trace
        self.max_events = max_events
        self.executed_events = 0
        self._running = False
        #: Fault hook: called after every executed event with an
        #: :class:`Event` view of it.  The crash-injection harness raises
        #: from here to kill the run at an exact event boundary — engine
        #: state is left frozen mid-flight, exactly like a process crash
        #: between events.
        self.after_event_hook: Callable[[Event], None] | None = None

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> list:
        """Schedule ``callback`` to run ``delay`` virtual seconds from now;
        returns the handle :meth:`cancel` takes."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = [self.now + delay, sequence, callback, label, _LIVE]
        heappush(self._heap, entry)
        self._live += 1
        return entry

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> list:
        """Schedule ``callback`` at an absolute virtual time (>= now)."""
        now = self.now
        if not time >= now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past (now={now}, requested={time})"
            )
        sequence = self._next_sequence
        if sequence is None:
            sequence = self._sequence
            self._sequence = sequence + 1
        else:
            self._next_sequence = None
        entry = [float(time) if time > now else now, sequence, callback, label, _LIVE]
        heappush(self._heap, entry)
        self._live += 1
        return entry

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
        already past are simply never scheduled).  No later call is issued
        a reserved number.
        """
        now = self.now if base is None else base
        times = []
        for delay in delays:
            if not delay >= 0:
                raise SimulationError(f"cannot schedule with negative delay {delay}")
            times.append(now + delay)
        first = self._sequence
        self._sequence = first + len(times)
        return list(zip(times, range(first, first + len(times))))

    def schedule_reserved(
        self, slot: tuple[float, int], callback: Callable[[], None], label: str = ""
    ) -> list:
        """Schedule ``callback`` in a slot :meth:`reserve` returned (once).

        The event goes through :meth:`schedule_at` like any other — its
        guard, and whatever wraps it, see every event — so the slot's
        sequence number travels as one-shot state that the call made here
        consumes.
        """
        time, self._next_sequence = slot
        try:
            return self.schedule_at(time, callback, label)
        finally:
            self._next_sequence = None

    def cancel(self, event: list) -> None:
        """Cancel a scheduled event (a no-op once it has fired or was cancelled)."""
        if not event[4]:
            event[4] = _CANCELLED
            self._live -= 1
            self._dead += 1
            if self._dead >= self._COMPACT_THRESHOLD and self._dead * 2 > len(self._heap):
                # In place (the event loop holds the list), O(live) —
                # amortised O(1) per cancellation, because a compaction
                # only fires after half the heap has died.
                heap = self._heap
                heap[:] = [entry for entry in heap if not entry[4]]
                heapify(heap)
                self._dead = 0

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return self._live

    def upcoming(self) -> list[Event]:
        """Every event still scheduled, in the order they will fire, as
        read-only :class:`Event` views (cancelled ones are not listed)."""
        return [
            Event(time, sequence, label, callback)
            for time, sequence, callback, label, state in sorted(self._heap)
            if not state
        ]

    # -- execution ------------------------------------------------------------

    def _execute(self, until: float | None, single: bool) -> bool:
        """The event loop: pop, advance the clock, count, trace, call, hook.

        Runs one event (``single``) or every event up to ``until``; returns
        whether an event ran.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[4]:
                heappop(heap)
                self._dead -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                # The next event lies beyond ``until``: only then does the
                # clock move to ``until`` — and never back.
                if until > self.now:
                    self.now = float(until)
                return False
            heappop(heap)
            entry[4] = _FIRED
            self._live -= 1
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
                self.trace.record(self.now, "event", entry[3])
            entry[2]()
            if self.after_event_hook is not None:
                self.after_event_hook(_new_view(Event, (time, entry[1], entry[3], entry[2])))
            if single:
                return True
        return False

    def step(self) -> bool:
        """Execute the next event; return False if none is scheduled."""
        return self._execute(None, True)

    def run(self, until: float | None = None) -> float:
        """Run events until none is left (or virtual time ``until``).

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
