"""Tests for latency/availability models and bounded queues."""

import pytest

from repro.sim.latency import (
    AvailabilityModel,
    ConstantLatency,
    ExponentialLatency,
    StallWindow,
    burst_windows,
)
from repro.sim.queues import BoundedQueue


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(1.6)
        assert model.sample() == 1.6
        assert model.mean == 1.6

    def test_exponential_mean(self):
        model = ExponentialLatency(0.5, seed=2)
        samples = [model.sample() for _ in range(2000)]
        assert model.mean == 0.5
        assert 0.4 < sum(samples) / len(samples) < 0.6
        with pytest.raises(ValueError):
            ExponentialLatency(0.0)

    def test_latency_models_are_deterministic_per_seed(self):
        first = [ExponentialLatency(0.5, seed=7).sample() for _ in range(5)]
        second = [ExponentialLatency(0.5, seed=7).sample() for _ in range(5)]
        assert first == second


class TestAvailability:
    def test_stall_window_contains(self):
        window = StallWindow(10.0, 5.0)
        assert window.end == 15.0
        assert window.contains(10.0) and window.contains(14.9)
        assert not window.contains(15.0) and not window.contains(9.9)

    def test_next_available_pushes_past_stall(self):
        model = AvailabilityModel.from_pairs([(10.0, 5.0)])
        assert model.next_available(3.0) == 3.0
        assert model.next_available(12.0) == 15.0
        assert model.next_available(16.0) == 16.0

    def test_chained_stalls(self):
        model = AvailabilityModel([StallWindow(0.0, 5.0), StallWindow(5.0, 5.0)])
        assert model.next_available(1.0) == 10.0

    def test_always_available(self):
        model = AvailabilityModel.always_available()
        assert model.next_available(42.0) == 42.0

    def test_from_pairs_accepts_windows_and_sorts_them(self):
        model = AvailabilityModel.from_pairs([StallWindow(20.0, 1.0), (5.0, 2.0)])
        assert [window.start for window in model.stalls] == [5.0, 20.0]
        assert model.next_available(6.0) == 7.0

    def test_bursty_model_follows_its_schedule(self):
        model = AvailabilityModel.bursty(period=4.0, up_fraction=0.5, horizon=12.0)
        assert model.stalls == burst_windows(4.0, 0.5, 12.0)
        assert model.next_available(1.0) == 1.0  # up for the first half
        assert model.next_available(3.0) == 4.0  # down until the period ends


class TestBoundedQueue:
    def test_fifo_order(self):
        queue = BoundedQueue[int]()
        for value in range(5):
            queue.offer(value)
        assert [queue.pop() for _ in range(5)] == list(range(5))

    def test_capacity_and_rejection(self):
        queue = BoundedQueue[int](capacity=2)
        assert queue.offer(1) and queue.offer(2)
        assert queue.is_full
        assert not queue.offer(3)
        queue.pop()
        assert queue.offer(3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BoundedQueue(capacity=0)

    def test_clear_drops_everything_and_counts_it(self):
        queue = BoundedQueue[int](capacity=4, name="q")
        for value in range(3):
            queue.offer(value)
        assert list(queue) == [0, 1, 2]
        assert repr(queue) == "BoundedQueue(q, 3/4)"
        assert queue.clear() == 3
        assert len(queue) == 0 and queue.clear() == 0

    def test_peek_and_empty(self):
        queue = BoundedQueue[int]()
        assert queue.peek() is None
        assert len(queue) == 0
        queue.offer(7)
        assert queue.peek() == 7
        assert len(queue) == 1
        with pytest.raises(IndexError):
            BoundedQueue[int]().pop()
