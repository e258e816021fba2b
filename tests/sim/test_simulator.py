"""Tests for the discrete-event simulation substrate."""

import gc
import math
import weakref
from heapq import heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.simulator import Event, Simulator
from repro.sim.tracing import TraceLog


def _cancel(sim, handles) -> None:
    """Cancel every handle (the loop variable dies with the call)."""
    for handle in handles:
        sim.cancel(handle)


def _collected(refs) -> int:
    """How many of the weakly referenced callbacks are still alive."""
    gc.collect()
    return sum(ref() is not None for ref in refs)


class TestEventOrder:
    def test_time_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        fired = []
        for name in "abc":
            sim.schedule(1.0, lambda name=name: fired.append(name))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep"), label="keep")
        drop = sim.schedule(0.5, lambda: fired.append("drop"), label="drop")
        sim.cancel(drop)
        assert sim.pending_events == 1
        assert [event.label for event in sim.upcoming()] == ["keep"]
        assert sim.step() and fired == ["keep"]
        assert not sim.step()

    def test_upcoming_lists_live_events_in_firing_order(self):
        sim = Simulator(start_time=1.0)
        callbacks = [lambda: None for _ in range(4)]
        for delay, callback, label in zip((2.0, 0.0, 2.0, 1.0), callbacks, "abcd"):
            sim.schedule(delay, callback, label)
        assert sim.upcoming() == [
            Event(1.0, 1, "b", callbacks[1]),
            Event(2.0, 3, "d", callbacks[3]),
            Event(3.0, 0, "a", callbacks[0]),
            Event(3.0, 2, "c", callbacks[2]),
        ]


class TestEventHeapCompaction:
    """Cancelled events are evicted once they dominate the heap: the
    callbacks of cancelled events, once their handles are dropped, are not
    kept alive for long."""

    def test_mass_cancellation_releases_the_cancelled_callbacks(self):
        sim = Simulator()
        callbacks = [lambda: None for _ in range(500)]
        refs = [weakref.ref(callback) for callback in callbacks]
        events = [sim.schedule(float(i), callback) for i, callback in enumerate(callbacks)]
        del callbacks
        # Cancel everything but the last few: without compaction the dead
        # entries would sit in the heap until popped.
        _cancel(sim, events[:-5])
        del events[:-5]
        assert sim.pending_events == 5
        assert _collected(refs[:-5]) <= Simulator._COMPACT_THRESHOLD

    def test_compaction_preserves_order_and_liveness(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i), lambda i=i: fired.append(i)) for i in range(300)]
        for i, event in enumerate(events):
            if i % 3:  # cancel two thirds, triggering compaction en route
                sim.cancel(event)
        assert [event.time for event in sim.upcoming()] == [
            float(i) for i in range(300) if not i % 3
        ]
        sim.run()
        assert fired == [i for i in range(300) if not i % 3]
        assert sim.pending_events == 0 and sim.upcoming() == []

    def test_small_heaps_are_not_compacted(self):
        sim = Simulator()
        callbacks = [lambda: None for _ in range(10)]
        refs = [weakref.ref(callback) for callback in callbacks]
        events = [sim.schedule(float(i), callback) for i, callback in enumerate(callbacks)]
        del callbacks
        _cancel(sim, events[:8])
        del events[:8]
        # Below the threshold: lazy cancellation only, no rebuild churn.
        assert _collected(refs[:8]) == 8
        assert sim.step() and sim.now == 8.0
        # The step swept the dead entries ahead of the one it ran.
        assert _collected(refs[:8]) == 0

    def test_handles_from_before_a_compaction_still_cancel_after_it(self):
        sim = Simulator()
        fired = []
        callbacks = [lambda i=i: fired.append(i) for i in range(200)]
        refs = [weakref.ref(callback) for callback in callbacks]
        events = [sim.schedule(float(i), callback) for i, callback in enumerate(callbacks)]
        del callbacks
        _cancel(sim, events[1:150])
        gone, survivor, doomed = events[1], events[150], events[151]
        del events[2:150]
        assert _collected(refs[2:150]) < 148  # at least one compaction happened
        sim.cancel(events[0])  # live across the compaction: cancels all the same
        sim.cancel(doomed)
        sim.cancel(doomed)  # idempotent
        sim.cancel(gone)  # compacted away long ago: still a no-op
        assert sim.pending_events == 49
        assert sim.step() and fired == [150]
        assert sim.step() and fired == [150, 152]
        sim.cancel(survivor)  # already fired: no-op
        assert sim.pending_events == 47

    def test_bounded_and_plain_runs_sweep_cancelled_heads(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append(1))
        second = sim.schedule(2.0, lambda: fired.append(2))
        sim.cancel(first)
        # Sweeps the cancelled head; the later event stays scheduled.
        assert sim.run(until=1.5) == 1.5
        assert sim.pending_events == 1 and fired == []
        sim.cancel(second)
        assert sim.run() == 1.5  # nothing live: the clock stays put
        assert sim.pending_events == 0 and sim.upcoming() == [] and fired == []


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        times = []
        sim.schedule(2.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        final = sim.run()
        assert times == [1.0, 2.0]
        assert final == 2.0

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(3.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 4.0]

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []
        for delay in (1.0, 2.0, 10.0):
            sim.schedule(delay, lambda d=delay: seen.append(d))
        sim.run(until=5.0)
        assert seen == [1.0, 2.0]
        assert sim.now == 5.0
        assert sim.pending_events == 1
        sim.run()
        assert seen == [1.0, 2.0, 10.0]

    def test_run_until_in_the_past_is_a_no_op(self):
        sim = Simulator()
        seen = []
        for delay in (12.0, 20.0):
            sim.schedule(delay, lambda d=delay: seen.append(d))
        sim.run(until=12.0)
        assert sim.run(until=5.0) == 12.0  # used to raise "clock backwards"
        assert sim.now == 12.0
        assert seen == [12.0]
        assert sim.pending_events == 1

    def test_clock_never_moves_backwards(self):
        sim = Simulator(start_time=10.0)
        # No public call can schedule behind the clock; a raw heap entry
        # stands in for a guard that let one through.
        heappush(sim._heap, [4.0, 0, lambda: None, "", 0])
        with pytest.raises(SimulationError, match="backwards"):
            sim.run()

    def test_step_runs_exactly_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step() and seen == [1] and sim.now == 1.0
        assert sim.step() and seen == [1, 2]
        assert not sim.step()
        assert sim.executed_events == 2

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(-5.0, lambda: None)

    def test_nan_times_are_rejected(self):
        # A NaN delay or time used to enter the heap, where it breaks the
        # order every later event is popped in.
        sim = Simulator(start_time=1.0)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_at(math.nan, lambda: None)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.reserve([0.5, math.nan])
        assert sim.pending_events == 0 and sim.upcoming() == []

    def test_cancel(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append(1))
        sim.cancel(event)
        sim.run()
        assert seen == []

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run()

    def test_trace_records_events(self):
        trace = TraceLog()
        sim = Simulator(trace=trace)
        sim.schedule(1.0, lambda: None, label="tick")
        sim.run()
        assert trace.count("event") == 1
        assert trace.filter("event")[0].detail == "tick"

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as error:
                errors.append(error)

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert len(errors) == 1 and "re-entrant" in str(errors[0])
        assert sim.executed_events == 2  # the outer run carried on

    def test_after_event_hook_sees_every_event_after_its_callback(self):
        sim = Simulator()
        order = []
        sim.after_event_hook = lambda event: order.append(("hook", event.label))
        sim.schedule(1.0, lambda: order.append(("run", "a")), label="a")
        sim.schedule(2.0, lambda: order.append(("run", "b")), label="b")
        sim.run()
        assert order == [("run", "a"), ("hook", "a"), ("run", "b"), ("hook", "b")]


class TestReservedSlots:
    """``reserve`` + ``schedule_reserved``: one armed event per series,
    heap order as if the whole series had been scheduled up front."""

    def test_reserved_slots_are_the_ones_eager_scheduling_would_take(self):
        eager, lazy = Simulator(start_time=2.0), Simulator(start_time=2.0)
        delays = [0.5, 0.25, 0.5, 0.0]
        for sim in (eager, lazy):
            sim.schedule(0.5, lambda: None, label="before")
        for delay in delays:
            eager.schedule(delay, lambda: None, label="series")
        slots = lazy.reserve(delays)
        series = [event for event in eager.upcoming() if event.label == "series"]
        assert slots == sorted(
            ((event.time, event.sequence) for event in series), key=lambda slot: slot[1]
        )
        assert lazy.pending_events == 1  # reserving schedules nothing
        # A push after the reservation draws past the reserved block.
        for sim in (eager, lazy):
            sim.schedule(0.5, lambda: None, label="after")
        after = [
            event.sequence
            for sim in (eager, lazy)
            for event in sim.upcoming()
            if event.label == "after"
        ]
        assert after == [slots[-1][1] + 1] * 2

    def test_series_fires_in_the_eager_order_with_one_event_pending(self):
        def run(streamed: bool):
            sim = Simulator()
            fired = []
            delays = [1.0, 1.0, 0.5, 2.0, 1.0]

            def note(label):
                fired.append((sim.now, label))

            sim.schedule(1.0, lambda: note("before"))
            if streamed:
                stream = sorted(zip(sim.reserve(delays), range(len(delays))))

                def fire(position=0):
                    if position + 1 < len(stream):
                        sim.schedule_reserved(
                            stream[position + 1][0], lambda: fire(position + 1)
                        )
                    # One of the series at most, beside "before" and "after".
                    assert sim.pending_events <= 3
                    note(stream[position][1])

                sim.schedule_reserved(stream[0][0], fire)
            else:
                for index, delay in enumerate(delays):
                    sim.schedule(delay, lambda index=index: note(index))
            sim.schedule(1.0, lambda: note("after"))
            sim.run()
            return fired

        assert run(streamed=True) == run(streamed=False)
        assert [label for _, label in run(streamed=True)] == [
            2, "before", 0, 1, 4, "after", 3,
        ]

    def test_reserved_number_is_used_once_and_never_reissued(self):
        sim = Simulator()
        (slot,) = sim.reserve([1.0])
        sim.schedule_reserved(slot, lambda: None, label="reserved")
        assert [(event.time, event.sequence) for event in sim.upcoming()] == [slot]
        for _ in range(3):
            sim.schedule(1.0, lambda: None, label="later")
        upcoming = sim.upcoming()
        assert [event.label for event in upcoming] == ["reserved"] + ["later"] * 3
        assert len({event.sequence for event in upcoming}) == 4

    def test_guards_still_apply_and_leave_no_claim_behind(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.reserve([0.0, -0.1])
        (slot,) = sim.reserve([1.0])
        sim.schedule(2.0, lambda: None)
        sim.run()  # the clock passes the reserved instant
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_reserved(slot, lambda: None)
        sim.schedule(0.0, lambda: None)
        assert [event.sequence for event in sim.upcoming()] != [slot[1]]

    def test_cancel_of_the_armed_event(self):
        sim = Simulator()
        fired = []
        slots = sim.reserve([1.0, 2.0])
        armed = sim.schedule_reserved(slots[0], lambda: fired.append("armed"))
        sim.schedule(3.0, lambda: fired.append("other"))
        assert sim.pending_events == 2
        sim.cancel(armed)
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["other"] and sim.now == 3.0
        sim.cancel(armed)  # and again, after the fact: a no-op
        assert sim.pending_events == 0

    def test_compaction_keeps_a_live_series_in_place(self):
        sim = Simulator()
        fired = []
        slots = sim.reserve([1.0, 1.0])
        callbacks = [lambda: fired.append("dead") for _ in range(200)]
        refs = [weakref.ref(callback) for callback in callbacks]
        doomed = [sim.schedule(1.0, callback) for callback in callbacks]
        del callbacks
        sim.schedule_reserved(slots[0], lambda: (
            fired.append("first"),
            sim.schedule_reserved(slots[1], lambda: fired.append("second")),
        ))
        sim.schedule(1.0, lambda: fired.append("tail"))
        _cancel(sim, doomed)  # crosses the compaction threshold
        del doomed
        assert sim.pending_events == 2
        assert _collected(refs) < 100  # compacted at least once
        sim.run()
        # Both reserved numbers precede the tail's, though one was armed
        # after the compaction and after the tail was pushed.
        assert fired == ["first", "second", "tail"]


class TestTracingHelpers:
    def test_disabled_trace_is_a_noop(self):
        trace = TraceLog(enabled=False)
        trace.record(1.0, "x")
        assert len(trace) == 0

    def test_filter_and_clear(self):
        trace = TraceLog()
        trace.record(1.0, "a")
        trace.record(2.0, "b")
        trace.record(3.0, "a")
        assert [record.time for record in trace.filter("a")] == [1.0, 3.0]
        trace.clear()
        assert len(trace) == 0


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_events_always_fire_in_time_order(delays):
    """Property: callbacks run in nondecreasing virtual-time order."""
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


#: push at one of a few times (so ties are common), cancel the k-th handle
#: ever returned (live, fired or already cancelled), or step.
_QUEUE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("step"), st.none()),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(operations=_QUEUE_OPERATIONS, mass_cancel=st.booleans())
def test_event_heap_matches_a_sorted_list_model(operations, mass_cancel):
    """Property: the heap behaves like a sorted list of live (time, seq)."""
    sim = Simulator()
    fired = []
    sim.after_event_hook = lambda event: fired.append((event.time, event.sequence))
    handles = []
    model = []  # live (time, sequence) pairs

    def push(time):
        # A time the steps have passed is scheduled at the clock instead.
        time = max(time, sim.now)
        handles.append((sim.schedule_at(time, lambda: None), len(handles)))
        model.append((time, len(handles) - 1))

    def cancel(handle, sequence):
        sim.cancel(handle)
        for entry in model:
            if entry[1] == sequence:
                model.remove(entry)
                break

    if mass_cancel:
        # Enough dead entries to force compactions under the operations.
        for position in range(3 * Simulator._COMPACT_THRESHOLD):
            push(float(position % 5))
        for handle in handles[: 2 * Simulator._COMPACT_THRESHOLD + 8]:
            cancel(*handle)
    for action, argument in operations:
        if action == "push":
            push(argument)
        elif action == "cancel" and handles:
            cancel(*handles[argument % len(handles)])
        elif action == "step":
            expected = min(model) if model else None
            assert sim.step() == (expected is not None)
            if expected is not None:
                assert fired[-1] == expected
                model.remove(expected)
        assert sim.pending_events == len(model)
        assert [(event.time, event.sequence) for event in sim.upcoming()] == sorted(model)
    done = len(fired)
    sim.run()
    assert fired[done:] == sorted(model)
    assert sim.pending_events == 0 and not sim.step()
