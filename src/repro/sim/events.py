"""Event queue for the discrete-event simulator.

Events are callbacks scheduled at a virtual time.  Ties are broken by a
monotonically increasing sequence number so that events scheduled earlier run
earlier — this makes every simulation fully deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable


class Event:
    """The handle of a scheduled callback.

    The queue orders events by ``(time, sequence)``; the handle itself is
    never compared.
    """

    __slots__ = ("time", "sequence", "callback", "label", "cancelled", "popped")

    def __init__(
        self, time: float, sequence: int, callback: Callable[[], None], label: str = ""
    ):
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: Set once the event has been popped and executed.  Cancelling a
        #: popped event is a no-op — a caller tearing down (e.g. a scan AM on
        #: query retirement) may cancel the handle it holds without tracking
        #: whether it already fired.
        self.popped = False

    def __repr__(self) -> str:
        return f"Event({self.time!r}, #{self.sequence}, {self.label!r})"


class EventQueue:
    """A priority queue of :class:`Event` objects.

    Heap entries are plain ``(time, sequence, event)`` tuples, so the heap
    compares them in C; sequence numbers are unique, so a comparison never
    reaches the event.

    Cancellation is lazy — a cancelled event stays in the heap and is
    skipped when it reaches the top — but not *unbounded*: once cancelled
    entries outnumber live ones the heap is compacted in place, so
    long-running simulations that cancel many events (multi-query runs
    tearing down per-query timers) neither leak memory nor pay O(dead) on
    every :meth:`pop`.
    """

    #: Don't bother compacting heaps smaller than this; the win is noise.
    _COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._live = 0
        #: Cancelled events still sitting in the heap.
        self._dead = 0
        #: One-shot: a reserved sequence number the next :meth:`push` takes
        #: in place of a fresh one.  ``Simulator.schedule_reserved`` sets it
        #: around the single push it makes; it is None at all other times.
        self.next_sequence: int | None = None

    def reserve(self, count: int) -> int:
        """Set aside ``count`` consecutive sequence numbers; returns the first.

        No later push is issued a reserved number: it is used only by a push
        made while :attr:`next_sequence` names it.
        """
        first = self._sequence
        self._sequence = first + count
        return first

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule a callback at an absolute virtual time."""
        time = float(time)
        sequence = self.next_sequence
        if sequence is None:
            sequence = self._sequence
            self._sequence = sequence + 1
        else:
            self.next_sequence = None
        event = Event(time, sequence, callback, label)
        heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop(self, until: float | None = None) -> Event | None:
        """Remove and return the earliest non-cancelled event, or None.

        With ``until``, an event later than ``until`` stays queued and None
        is returned instead.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if until is not None and time > until:
                return None
            heappop(heap)
            self._live -= 1
            event.popped = True
            return event
        return None

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (no-op once it has fired)."""
        if not event.cancelled and not event.popped:
            event.cancelled = True
            self._live -= 1
            self._dead += 1
            if (
                self._dead >= self._COMPACT_THRESHOLD
                and self._dead * 2 > len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop every cancelled event and restore the heap invariant.

        O(live) — amortised O(1) per cancellation, because a compaction
        only fires after at least half the heap has died.
        """
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
