"""Module base class: the unit the eddy routes tuples to.

Paper section 2.1: "Each module runs asynchronously in a separate thread,
though this asynchrony can also be achieved in a single-threaded
implementation."  Here each module is a simulated entity with

* a (possibly bounded) input queue fed by the eddy,
* a sequential service loop — one item at a time, each taking
  ``service_time(item)`` virtual seconds,
* a ``process`` method producing the tuples sent back to the eddy.

The bounded queue plus sequential service is what reproduces the
head-of-line blocking behaviour that motivates SteMs (paper section 4.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, Sequence, Union

from repro.core.tuples import EOTTuple, QTuple
from repro.query.layout import PlanLayout
from repro.sim.queues import BoundedQueue

#: Anything that can be routed to a module.
Routable = Union[QTuple, EOTTuple]


class EddyRuntime(Protocol):
    """The runtime a module is attached to: its query's
    :class:`~repro.core.eddy.Eddy`.  Modules call every member directly."""

    @property
    def now(self) -> float:
        """Current virtual time."""

    @property
    def layout(self) -> PlanLayout:
        """The query's compiled :class:`~repro.query.layout.PlanLayout`.
        Access modules stamp it onto the singleton tuples they create, so
        TupleState masks are encoded over the query's aliases from birth."""

    @property
    def live(self) -> bool:
        """False once the query was retired: in-flight work is dropped."""

    def schedule(self, delay: float, callback, label: str = ""):
        """Schedule a callback on the engine's simulator; returns the
        event handle :meth:`cancel` takes."""

    def reserve(self, delays, base: float | None = None) -> list:
        """Reserve, in order, the ``(time, sequence)`` slots that
        :meth:`schedule` called now (or at ``base``) with each delay would
        occupy (see :meth:`~repro.sim.simulator.Simulator.reserve`)."""

    def schedule_reserved(self, slot, callback, label: str = ""):
        """Schedule a callback in a slot from :meth:`reserve`; returns the
        event handle."""

    def cancel(self, event) -> None:
        """Cancel a scheduled event (a no-op once it has fired)."""

    def to_eddy(self, item: Routable, source: "Module") -> None:
        """Deliver a tuple back into the eddy's dataflow."""

    def to_eddy_all(self, items: Sequence[Routable], source: "Module") -> None:
        """Deliver, in order, what one producer call produced (a probe's matches as one run)."""

    def next_timestamp(self) -> float:
        """The next global build timestamp (monotonically increasing)."""

    def has_scan_am(self, alias: str) -> bool:
        """True if the alias's table has a scan access method."""

    def notify_idle(self, module: "Module") -> None:
        """Tell the eddy that the module freed queue space / went idle."""

    def note_absorbed(self, tuple_: QTuple) -> None:
        """Tell the eddy a tuple was absorbed by a module (left the dataflow
        without returning to routing, e.g. a duplicate build), so traces and
        policy feedback account for the departure."""

    def quarantine_tuple(self, tuple_: QTuple, module: str, error: Exception) -> None:
        """Trap a tuple whose predicate or extractor raised in ``module``
        out of the dataflow (see :class:`~repro.core.eddy.QuarantineRecord`)."""


class Module(ABC):
    """Base class of all eddy-routable modules.

    Args:
        name: unique module name (used by routing policies and traces).
        cost: default per-item service time in virtual seconds.
        queue_capacity: bound on the input queue (None = unbounded).
    """

    kind = "module"

    def __init__(self, name: str, cost: float = 0.0, queue_capacity: int | None = None):
        self.name = name
        self.cost = cost
        self.queue = BoundedQueue[Routable](queue_capacity, name=name)
        self.busy = False
        #: The item being serviced while ``busy`` (service is sequential, so
        #: the completion event needs no per-item closure).
        self._in_service: Routable | None = None
        self.runtime: EddyRuntime | None = None
        #: Static event label, precomputed once — service scheduling is a
        #: hot path and the label is needed whether or not a trace is
        #: attached, so it must not be re-formatted per item.
        self._service_label = f"{name}:service"
        #: Operational statistics common to all modules.
        self.stats: dict[str, float] = {"items": 0, "busy_time": 0.0}

    # -- wiring -----------------------------------------------------------------

    def attach(self, runtime: EddyRuntime) -> None:
        """Connect the module to its engine runtime."""
        self.runtime = runtime

    def start(self) -> None:
        """Hook called once when query execution begins (e.g. scans seed here)."""

    def stop(self) -> None:
        """Hook called when the owning query is retired mid-run.

        Subclasses with self-scheduled future work (scan deliveries, index
        lookups) cancel or abandon it here; the base module needs nothing —
        its in-flight service completion is defused by the runtime's
        ``live`` flag (see :meth:`_complete`).
        """

    # -- queueing and service ----------------------------------------------------

    def offer(self, item: Routable) -> bool:
        """Accept an item from the eddy if the input queue has room."""
        if not self.queue.offer(item):
            return False
        if not self.busy:
            self._maybe_start()
        return True

    def _maybe_start(self) -> None:
        runtime = self.runtime
        if self.busy or not self.queue.items or runtime is None:
            return
        item = self._in_service = self.queue.pop()
        self.busy = True
        duration = self.service_time(item)
        self.stats["busy_time"] += duration
        runtime.schedule(duration, self._complete, self._service_label)

    def _complete(self) -> None:
        runtime = self.runtime
        assert runtime is not None
        item, self._in_service = self._in_service, None
        self.busy = False
        if not runtime.live:
            # The query was retired while this item was in service: do not
            # process it — a retired query's builds must not keep mutating
            # SteM state other queries may share.
            return
        self.stats["items"] += 1
        outputs = self.process(item)
        if outputs:
            runtime.to_eddy_all(outputs, self)
        if self.queue.items:
            self._maybe_start()
        runtime.notify_idle(self)

    # -- checkpoints --------------------------------------------------------------

    def cut(self) -> dict:
        """What a checkpoint taken between two events must carry to put this
        module back: the item in service and the queue, in order, plus a
        module-specific ``state`` of plain values (tuples and scalars)."""
        return {
            "kind": self.kind,
            "in_service": self._in_service,
            "queue": list(self.queue.items),
            "state": (),
        }

    def restore(self, cut: dict) -> None:
        """Put :meth:`cut` back on the freshly wired module.

        Queued items return to the queue itself, not to the eddy: they were
        charged their visit when they were routed here, and routing them
        again would trip BoundedRepetition.  The item in service heads the
        queue, so its service restarts.
        """
        if cut["in_service"] is not None:
            self.queue.items.append(cut["in_service"])
        self.queue.items.extend(cut["queue"])
        self._maybe_start()

    # -- behaviour ----------------------------------------------------------------

    def service_time(self, item: Routable) -> float:
        """Service time for one item; subclasses may vary it per item."""
        return self.cost

    @abstractmethod
    def process(self, item: Routable) -> list[Routable]:
        """Handle one item and return the tuples to send back to the eddy."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
