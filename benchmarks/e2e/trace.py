"""Outside-in tracer: spans at every layer boundary, none inside ``src/``.

For one traced repetition the tracer replaces, from here and only until
:meth:`Tracer.uninstall`,

* every callback handed to ``Simulator.schedule``/``schedule_at`` with a
  *dispatch span* attributed to the layer that owns the callback (a bound
  method's class module, a closure's ``__module__``) — which separates the
  eddy's routing wake-ups and the modules' service completions from the
  event heap without naming a private method;
* every callback registered as a SteM build/evict/EOT listener with a
  *listener span* attributed the same way (aggregate maintenance and the
  write-ahead log hang off those);
* the public entry points of each layer (:data:`ENTRY_POINTS`).

A span has a name, a start, an end and a parent (a stack; the repetition is
the root).  A span's self time is its duration minus the part its child
spans cover.  Call counts, total and self time accumulate per name; raw
spans are kept up to a cap; :meth:`Tracer.report` returns both for
``trace.json``.  The layer of a span is the first dotted component of its
name, and layers are named after the modules under ``src/repro/``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from repro.core.aggregates import AggregateState
from repro.core.constraints import ConstraintChecker
from repro.core.eddy import Eddy
from repro.core.modules.base import Module
from repro.core.policies.base import RoutingPolicy
from repro.core.stem import SteM
from repro.core.tuples import QTuple
from repro.engine.multi import MultiQueryEngine
from repro.query.layout import PlanLayout
from repro.query.parser import parse_query
from repro.recovery.manager import (
    CheckpointManager,
    identity_key,
    recover_state,
    restore_engine,
)
from repro.recovery.snapshot import SnapshotStore
from repro.recovery.wal import WriteAheadLog
from repro.sim.simulator import Simulator

#: Module-name prefix -> layer, most specific first.
LAYER_OF_MODULE = (
    ("repro.sim", "sim"),
    ("repro.core.eddy", "eddy"),
    ("repro.core.constraints", "constraints"),
    ("repro.core.policies", "policies"),
    ("repro.core.modules", "modules"),
    ("repro.core.stem_registry", "engine"),
    ("repro.core.stem", "stem"),
    ("repro.core.partition", "stem"),
    ("repro.storage.indexes", "stem"),
    ("repro.storage.columns", "stem"),
    ("repro.query.probeplan", "stem"),
    ("repro.core.tuples", "tuples"),
    ("repro.core.aggregates", "aggregates"),
    ("repro.recovery", "recovery"),
    ("repro.engine", "engine"),
    ("repro.query", "query"),
)

#: Public methods wrapped per class: (class, layer, method names).  Policies
#: and modules are wrapped per subclass, see :meth:`Tracer.install`.
ENTRY_POINTS = (
    (Simulator, "sim", ("run", "step", "cancel")),
    (Eddy, "eddy", ("to_eddy", "notify_idle", "start", "shutdown")),
    (
        ConstraintChecker,
        "constraints",
        ("destinations", "destinations_for_signature", "ready_for_output"),
    ),
    (Module, "modules", ("offer",)),
    (
        SteM,
        "stem",
        ("build_batch", "build_eot", "probe", "probe_with_plan", "probe_batch"),
    ),
    (QTuple, "tuples", ("extended",)),
    (AggregateState, "aggregates", ("insert", "retract", "result_rows")),
    (WriteAheadLog, "recovery", ("append", "log_emit", "flush")),
    (SnapshotStore, "recovery", ("write",)),
    (CheckpointManager, "recovery", ("take_checkpoint",)),
    (MultiQueryEngine, "engine", ("admit", "retire", "run")),
    (PlanLayout, "query", ("__init__",)),
)
POLICY_METHODS = ("choose", "choose_batch", "on_output", "on_producer_output", "on_retire")
#: Module-level functions, wrapped wherever a ``repro`` module refers to them.
FUNCTIONS = (
    (parse_query, "query"),
    (recover_state, "recovery"),
    (restore_engine, "recovery"),
    (identity_key, "recovery"),
)
LISTENER_REGISTRATIONS = ("add_build_listener", "add_evict_listener", "add_eot_listener")

SPAN_CAP = 20_000
_PACKAGE = __name__.partition(".")[0]


def layer_of(module_name: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return "other"


def _subclasses(cls):
    for subclass in cls.__subclasses__():
        yield subclass
        yield from _subclasses(subclass)


class _ListenerSpan:
    """A SteM listener wrapped in a span.

    Equal to the callback it wraps, so ``remove_*_listener(callback)`` still
    finds it in the SteM's listener list.
    """

    __slots__ = ("tracer", "name", "callback")

    def __init__(self, tracer, name, callback):
        self.tracer = tracer
        self.name = name
        self.callback = callback

    def __call__(self, *args):
        self.tracer.enter(self.name)
        try:
            return self.callback(*args)
        finally:
            self.tracer.exit()

    def __eq__(self, other):
        if isinstance(other, _ListenerSpan):
            other = other.callback
        return self.callback == other

    def __hash__(self):
        return hash(self.callback)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, span_cap: int = SPAN_CAP):
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: Raw spans ``(id, name, start, end, parent id)``, capped.
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped_spans = 0
        #: Open spans: [name, id, parent id, child seconds, start].
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._callback_names: dict = {}
        self.pending_peak = 0
        #: Successful SteM insertions and evictions (what the return values say).
        self.counts: Counter = Counter()
        self.rows_resident_peak = 0

    # -- recording -------------------------------------------------------------

    def enter(self, name: str) -> None:
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1][1] if stack else -1
        stack.append([name, span_id, parent, 0.0, perf_counter()])

    def exit(self) -> None:
        end = perf_counter()
        name, span_id, parent, child, start = self._stack.pop()
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            self.totals[name] = [1, duration, duration - child]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent))
        else:
            self.dropped_spans += 1

    @contextmanager
    def span(self, name: str):
        """A span around a call made from the benchmark's own files."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- reading ---------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.totals[name][0] for name in names if name in self.totals)

    def total_s(self, *names: str) -> float:
        return sum(self.totals[name][1] for name in names if name in self.totals)

    def self_s(self, *names: str) -> float:
        return sum(self.totals[name][2] for name in names if name in self.totals)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (first dotted component of the span name)."""
        layers: dict[str, float] = {}
        for name, (_, _, self_seconds) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_seconds
        return layers

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(
            entry[0] for name, entry in self.totals.items() if name.startswith(prefix)
        )

    def report(self) -> dict:
        """Everything recorded, in the shape written to ``trace.json``."""
        return {
            "totals": {
                name: {"calls": calls, "total_s": total, "self_s": self_seconds}
                for name, (calls, total, self_seconds) in sorted(self.totals.items())
            },
            "layer_self_s": self.layer_self_s(),
            "span_columns": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` puts the originals back."""
        for cls, layer, methods in ENTRY_POINTS:
            for method in methods:
                self._wrap_method(cls, method, layer)
        for policy in [RoutingPolicy, *_subclasses(RoutingPolicy)]:
            for method in POLICY_METHODS:
                if method in policy.__dict__:
                    self._wrap_method(policy, method, "policies")
        for module in _subclasses(Module):
            if "process" in module.__dict__:
                self._wrap_method(module, "process", "modules")
        for function, layer in FUNCTIONS:
            self._wrap_function(function, layer)
        self._wrap_scheduling()
        self._wrap_stem_state()

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _traced(self, original, name: str, after=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_method(self, cls, method: str, layer: str, after=None) -> None:
        name = f"{layer}.{cls.__name__}.{method}"
        self._replace(cls, method, self._traced(cls.__dict__[method], name, after))

    def _wrap_function(self, function, layer: str) -> None:
        traced = self._traced(function, f"{layer}.{function.__name__}")
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] not in ("repro", _PACKAGE) or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._replace(module, attribute, traced)

    def _dispatch_name(self, callback) -> str:
        owner = getattr(callback, "__self__", None)
        function = getattr(callback, "__func__", callback)
        key = (type(owner), getattr(function, "__code__", type(function)))
        name = self._callback_names.get(key)
        if name is None:
            module = (
                type(owner).__module__
                if owner is not None
                else getattr(function, "__module__", None) or ""
            )
            label = getattr(function, "__qualname__", type(function).__name__)
            name = self._callback_names[key] = f"{layer_of(module)}.dispatch.{label}"
        return name

    def _wrap_scheduling(self) -> None:
        """Dispatch spans: wrap each callback on its way into the event queue."""
        tracer = self
        enter, exit_ = self.enter, self.exit

        def dispatched(callback):
            name = tracer._dispatch_name(callback)

            def dispatch():
                enter(name)
                try:
                    callback()
                finally:
                    exit_()

            return dispatch

        for method in ("schedule", "schedule_at"):
            original = Simulator.__dict__[method]
            name = f"sim.Simulator.{method}"

            def scheduling(sim, when, callback, label="", original=original, name=name):
                enter(name)
                try:
                    event = original(sim, when, dispatched(callback), label)
                finally:
                    exit_()
                pending = sim.pending_events
                if pending > tracer.pending_peak:
                    tracer.pending_peak = pending
                return event

            self._replace(Simulator, method, functools.wraps(original)(scheduling))

    def _wrap_stem_state(self) -> None:
        """SteM.build/evict with a resident-row count, and listener spans."""
        tracer = self

        counts = self.counts

        def after_build(outcome) -> None:
            if not outcome.duplicate:
                counts["stem.insertions"] += 1
                resident = counts["stem.insertions"] - counts["stem.evictions"]
                if resident > tracer.rows_resident_peak:
                    tracer.rows_resident_peak = resident

        def after_evict(evicted) -> None:
            if evicted:
                counts["stem.evictions"] += 1

        self._wrap_method(SteM, "build", "stem", after=after_build)
        self._wrap_method(SteM, "evict", "stem", after=after_evict)
        for method in LISTENER_REGISTRATIONS:
            original = SteM.__dict__[method]

            def register(stem, callback, original=original):
                function = getattr(callback, "__func__", callback)
                owner = getattr(callback, "__self__", None)
                module = (
                    type(owner).__module__ if owner is not None else function.__module__
                )
                name = f"{layer_of(module)}.listener.{function.__qualname__}"
                return original(stem, _ListenerSpan(tracer, name, callback))

            self._replace(SteM, method, functools.wraps(original)(register))
