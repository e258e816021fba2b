"""The scan's delivery stream ≡ the pre-pushed schedule it replaced.

``ScanAMModule.start`` used to push one event per row (plus the EOT) onto
the simulator the moment the scan started.  It now reserves those events'
``(time, sequence)`` slots and keeps a single event armed.  The oracle below
*is* the old ``start``/``stop`` — moved here verbatim, scheduling everything
up front through the plain ``schedule`` — and the property holds the stream
to it event for event: same firing instants, same sequence numbers (the
tie-break among same-instant events, so also the same interleaving with
unrelated events), same labels, same rows, same stats.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.core.modules.access import ScanAMModule
from repro.core.tuples import EOTTuple
from repro.sim.latency import AvailabilityModel
from repro.storage.catalog import ScanSpec
from repro.storage.datagen import make_source_t
from tests.helpers import FakeRuntime, layout_over, singleton_tuple


class PrePushedScan(ScanAMModule):
    """The oracle: the scan as it was before delivery streams."""

    def start(self) -> None:
        self._scheduled_events = []
        rate = max(self.spec.rate, 1e-9)
        outages = (
            AvailabilityModel.from_pairs(self.spec.stalls)
            if self.spec.stalls
            else None
        )
        jitter_rng = (
            random.Random(self.spec.jitter_seed) if self.spec.jitter > 0 else None
        )
        last_offset = self.spec.initial_delay
        for position, row in enumerate(self.table):
            offset = self.spec.initial_delay + (position + 1) / rate
            if self.spec.stall_at is not None and offset >= self.spec.stall_at:
                offset += self.spec.stall_duration
            if jitter_rng is not None:
                offset += jitter_rng.uniform(0.0, self.spec.jitter)
            if outages is not None:
                offset = outages.next_available(offset)
            last_offset = max(last_offset, offset)
            self._scheduled_events.append(
                self.runtime.schedule(
                    offset, self._make_delivery(row), label=self._deliver_label
                )
            )
        self._scheduled_events.append(
            self.runtime.schedule(
                last_offset + 1e-9, self._deliver_eot, label=self._eot_label
            )
        )

    def stop(self) -> None:
        for event in getattr(self, "_scheduled_events", ()):
            self.runtime.cancel(event)
        self.stats["cancelled"] += max(0, self.total - self.delivered)
        self._scheduled_events = []
        self.finished = True

    def _make_delivery(self, row):
        def deliver() -> None:
            now = self.runtime.now
            self.delivered += 1
            self.stats["delivered"] += 1
            self._last_delivery_time = now
            self.runtime.to_eddy(
                singleton_tuple(
                    self.alias, row, source=self.name, created_at=now,
                    layout=self.runtime.layout,
                ),
                self,
            )

        return deliver


class Runtime(FakeRuntime):
    """The shared fake runtime, logging every fired event as ``(time,
    sequence, label, what it delivered)``."""

    def __init__(self):
        super().__init__(layout_over("T", "t0", "t1", "t2"))
        self.sim.after_event_hook = self._after_event
        self.firings = []
        self.scans = []
        self.on_delivery = None
        self._inbox = []

    def to_eddy_all(self, items, source=None):
        for item in items:
            if isinstance(item, EOTTuple):
                self._inbox.append((source.name, "eot"))
            else:
                self._inbox.append((source.name, item.components[source.alias].values))
                if self.on_delivery is not None:
                    self.on_delivery(source)

    def _after_event(self, event):
        self.firings.append((event.time, event.sequence, event.label, self._inbox))
        self._inbox = []
        for scan in self.scans:
            pending = [
                entry
                for entry in self.sim._queue._heap
                if not entry[2].cancelled
                and getattr(entry[2].callback, "__self__", None) is scan
            ]
            assert len(pending) <= 1, f"{scan.name} holds {len(pending)} events"


#: Few distinct values, on a common grid: same-instant events are the point.
GRID = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0]

scan_shapes = st.fixed_dictionaries(
    {
        "rows": st.integers(0, 40),
        "rate": st.sampled_from([1.0, 2.0, 4.0, 10.0]),
        "initial_delay": st.sampled_from([0.0, 0.5, 1.0]),
        "stall": st.none()
        | st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.0, 0.5, 3.0])),
        "stalls": st.lists(
            st.tuples(st.sampled_from([0.25, 1.0, 2.5]), st.sampled_from([0.5, 1.0, 2.0])),
            max_size=2,
        ),
        "jitter": st.sampled_from([0.0, 0.0, 0.3, 2.0]),
        "jitter_seed": st.integers(0, 3),
        "start_at": st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
        # Retirement: never, between events at an instant, or from inside
        # the k-th delivery of some scan (possibly this one).
        "stop": st.none()
        | st.tuples(st.just("at"), st.sampled_from(GRID + [8.0, 12.0]))
        | st.tuples(st.just("inside"), st.integers(0, 2), st.integers(1, 12)),
    }
)
unrelated_events = st.lists(
    st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)), max_size=12
)


def run_scenario(scan_class, shapes, events, order):
    """Play one drawn scenario; return everything observable."""
    runtime = Runtime()
    sim = runtime.sim
    # Keeps the queue non-empty, so ``run(until=...)`` always reaches the
    # instant an action is scripted for.
    sim.schedule(1000.0, lambda: None, label="horizon")
    inside_stops = {}
    actions = []
    for index, shape in enumerate(shapes):
        stall_at, stall_duration = shape["stall"] or (None, 0.0)
        spec = ScanSpec(
            name=f"scan{index}", table="T", rate=shape["rate"],
            initial_delay=shape["initial_delay"], stall_at=stall_at,
            stall_duration=stall_duration, stalls=tuple(shape["stalls"]),
            jitter=shape["jitter"], jitter_seed=shape["jitter_seed"],
        )
        scan = scan_class(spec, make_source_t(shape["rows"], seed=index), f"t{index}")
        scan.attach(runtime)
        runtime.scans.append(scan)
        actions.append((shape["start_at"], scan.start))
        stop = shape["stop"]
        if stop is not None and stop[0] == "at":
            actions.append((stop[1], scan.stop))
        elif stop is not None:
            inside_stops[(stop[1] % len(shapes), stop[2])] = scan
    for at, delay in events:
        actions.append(
            (at, lambda delay=delay: sim.schedule(delay, lambda: None, label="unrelated"))
        )

    def on_delivery(source):
        victim = inside_stops.get((runtime.scans.index(source), source.delivered))
        if victim is not None:
            victim.stop()

    runtime.on_delivery = on_delivery
    # The drawn permutation decides the order of same-instant actions:
    # unrelated events land before, between and after the scan starts.
    actions = [actions[position] for position in order]
    for at, action in sorted(actions, key=lambda entry: entry[0]):
        sim.run(until=at)
        action()
    sim.run()
    return {
        "firings": runtime.firings,
        "scans": [
            (dict(scan.stats), scan.delivered, scan.finished)
            for scan in runtime.scans
        ],
        "events": sim.executed_events,
        "now": sim.now,
    }


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(scan_shapes, min_size=2, max_size=3),
    events=unrelated_events,
    data=st.data(),
)
def test_stream_fires_exactly_the_pre_pushed_schedule(shapes, events, data):
    count = len(shapes) + len(events) + sum(
        1 for shape in shapes if shape["stop"] is not None and shape["stop"][0] == "at"
    )
    order = data.draw(st.permutations(range(count)), label="action order")
    oracle = run_scenario(PrePushedScan, shapes, events, order)
    stream = run_scenario(ScanAMModule, shapes, events, order)
    assert stream == oracle
    sequences = [sequence for _, sequence, _, _ in stream["firings"]]
    assert len(set(sequences)) == len(sequences)  # no reserved number reissued


def test_retirement_from_inside_a_delivery_cancels_the_armed_successor():
    """The successor is armed before the row is handed over, so a ``stop()``
    reached from inside the delivery finds it — and nothing re-arms."""
    runtime = Runtime()
    scan = ScanAMModule(ScanSpec(name="s", table="T", rate=10.0), make_source_t(5), "T")
    scan.attach(runtime)
    runtime.scans.append(scan)
    runtime.on_delivery = lambda source: source.delivered == 2 and source.stop()
    scan.start()
    assert runtime.sim.pending_events == 1
    runtime.sim.run()
    assert scan.delivered == 2 and scan.finished
    assert scan.stats["cancelled"] == 3
    assert runtime.sim.pending_events == 0
    assert [label for _, _, label, _ in runtime.firings] == ["am:s:T:deliver"] * 2
