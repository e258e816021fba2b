"""Tests for the discrete-event simulation substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append("c"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(2.0, lambda: fired.append("b"))
        while queue:
            event = queue.pop()
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.push(1.0, lambda name=name: fired.append(name))
        while queue:
            queue.pop().callback()
        assert fired == ["a", "b", "c"]

    def test_cancellation(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None, label="keep")
        drop = queue.push(0.5, lambda: None, label="drop")
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop() is keep
        assert queue.pop() is None


class TestEventHeapCompaction:
    """Cancelled events are evicted once they dominate the heap."""

    def test_mass_cancellation_compacts_the_heap(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(500)]
        # Cancel everything but the last few: without compaction the dead
        # entries would sit in the heap until popped.
        for event in events[:-5]:
            queue.cancel(event)
        assert len(queue) == 5
        assert len(queue._heap) <= len(queue) + EventQueue._COMPACT_THRESHOLD

    def test_compaction_preserves_order_and_liveness(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda i=i: i) for i in range(300)]
        for i, event in enumerate(events):
            if i % 3:  # cancel two thirds, triggering compaction en route
                queue.cancel(event)
        survivors = []
        while queue:
            survivors.append(queue.pop().time)
        assert survivors == [float(i) for i in range(300) if not i % 3]
        assert queue.pop() is None  # sweeps any trailing cancelled entries
        assert queue._dead == 0 and not queue._heap

    def test_small_heaps_are_not_compacted(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events[:8]:
            queue.cancel(event)
        # Below the threshold: lazy cancellation only, no rebuild churn.
        assert len(queue._heap) == 10
        assert queue.pop().time == 8.0

    def test_handles_from_before_a_compaction_still_cancel_after_it(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            queue.cancel(event)
        assert queue._dead < 150  # at least one compaction happened
        survivor, doomed = events[150], events[151]
        queue.cancel(doomed)
        queue.cancel(doomed)  # idempotent
        queue.cancel(events[0])  # compacted away long ago: still a no-op
        assert len(queue) == 49
        assert queue.pop() is survivor
        assert queue.pop() is events[152]
        queue.cancel(survivor)  # already fired: no-op
        assert len(queue) == 47

    def test_bounded_and_plain_pops_keep_the_dead_count_exact(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        queue.cancel(first)
        # Sweeps the cancelled head; the later event stays queued.
        assert queue.pop(until=1.5) is None
        assert queue._dead == 0 and len(queue) == 1
        queue.cancel(second)
        assert queue.pop() is None
        assert queue._dead == 0


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
        sim._queue.push(4.0, lambda: None)  # bypasses schedule_at's check
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
        handles = [eager.schedule(delay, lambda: None) for delay in delays]
        slots = lazy.reserve(delays)
        assert slots == [(event.time, event.sequence) for event in handles]
        assert lazy.pending_events == 1  # reserving schedules nothing
        # A push after the reservation draws past the reserved block.
        after = [sim.schedule(0.5, lambda: None, label="after") for sim in (eager, lazy)]
        assert after[0].sequence == after[1].sequence == handles[-1].sequence + 1

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
        event = sim.schedule_reserved(slot, lambda: None)
        assert (event.time, event.sequence) == slot
        assert sim._queue.next_sequence is None  # consumed by that push
        later = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        assert slot[1] not in [other.sequence for other in later]
        assert len({event.sequence, *(other.sequence for other in later)}) == 4

    def test_guards_still_apply_and_leave_no_claim_behind(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError, match="negative delay"):
            sim.reserve([0.0, -0.1])
        (slot,) = sim.reserve([1.0])
        sim.schedule(2.0, lambda: None)
        sim.run()  # the clock passes the reserved instant
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule_reserved(slot, lambda: None)
        assert sim._queue.next_sequence is None
        assert sim.schedule(0.0, lambda: None).sequence != slot[1]

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
        doomed = [sim.schedule(1.0, lambda: fired.append("dead")) for _ in range(200)]
        sim.schedule_reserved(slots[0], lambda: (
            fired.append("first"),
            sim.schedule_reserved(slots[1], lambda: fired.append("second")),
        ))
        sim.schedule(1.0, lambda: fired.append("tail"))
        for event in doomed:
            sim.cancel(event)  # crosses the compaction threshold
        assert sim.pending_events == 2
        assert len(sim._queue._heap) < 100  # compacted at least once
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
#: ever returned (live, fired or already cancelled), or pop.
_QUEUE_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from([0.0, 1.0, 1.0, 2.5, 7.0])),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
        st.tuples(st.just("pop"), st.none()),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(operations=_QUEUE_OPERATIONS, mass_cancel=st.booleans())
def test_event_queue_matches_a_sorted_list_model(operations, mass_cancel):
    """Property: the heap behaves like a sorted list of live (time, seq)."""
    queue = EventQueue()
    handles = []
    model = []  # live (time, sequence) pairs

    def push(time):
        handles.append(queue.push(time, lambda: None))
        model.append((time, len(handles) - 1))

    def cancel(handle):
        queue.cancel(handle)
        if (handle.time, handle.sequence) in model:
            model.remove((handle.time, handle.sequence))

    if mass_cancel:
        # Enough dead entries to force compactions under the operations.
        for position in range(3 * EventQueue._COMPACT_THRESHOLD):
            push(float(position % 5))
        for handle in handles[: 2 * EventQueue._COMPACT_THRESHOLD + 8]:
            cancel(handle)
    for action, argument in operations:
        if action == "push":
            push(argument)
        elif action == "cancel" and handles:
            cancel(handles[argument % len(handles)])
        elif action == "pop":
            event = queue.pop()
            expected = min(model) if model else None
            assert (event and (event.time, event.sequence)) == expected
            if event is not None:
                model.remove(expected)
                assert event.popped and not event.cancelled
        assert len(queue) == len(model) and bool(queue) == bool(model)
        assert queue._dead == len(queue._heap) - len(model)
    drained = []
    while queue:
        event = queue.pop()
        drained.append((event.time, event.sequence))
    assert drained == sorted(model)
    assert queue.pop() is None and not queue._heap
