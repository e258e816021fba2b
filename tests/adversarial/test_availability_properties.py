"""Hypothesis property suite for stall windows and availability models.

The gauntlet's burst scenario scripts outages through
:class:`AvailabilityModel`; these properties pin the semantics every
access module relies on:

* ``next_available`` never answers a time inside any window, never moves
  backwards, is idempotent, and is monotone in its argument;
* the single forward pass over start-sorted windows agrees with the naive
  fixed-point iteration even for nested and overlapping windows;
* zero-duration windows are no-ops;
* :func:`burst_windows` schedules are disjoint, periodic and respect the
  horizon.

The suite is marked ``slow``; CI runs it in the dedicated slow job.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.latency import AvailabilityModel, StallWindow, burst_windows

pytestmark = pytest.mark.slow

#: Arbitrary (possibly nested / overlapping / duplicated) stall schedules.
WINDOWS = st.lists(
    st.tuples(
        st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    max_size=8,
)
TIMES = st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False)


def brute_force_next_available(pairs, time: float) -> float:
    """Fixed-point iteration: push past windows until none contains us."""
    windows = [StallWindow(s, d) for s, d in pairs]
    adjusted = time
    moved = True
    while moved:
        moved = False
        for window in windows:
            if window.contains(adjusted):
                adjusted = window.end
                moved = True
    return adjusted


@given(pairs=WINDOWS, time=TIMES)
@settings(max_examples=200, deadline=None)
def test_next_available_is_never_inside_a_window(pairs, time):
    model = AvailabilityModel.from_pairs(pairs)
    result = model.next_available(time)
    assert result >= time
    assert not any(window.contains(result) for window in model.stalls)


@given(pairs=WINDOWS, time=TIMES)
@settings(max_examples=200, deadline=None)
def test_next_available_is_idempotent(pairs, time):
    model = AvailabilityModel.from_pairs(pairs)
    once = model.next_available(time)
    assert model.next_available(once) == once


@given(pairs=WINDOWS, first=TIMES, second=TIMES)
@settings(max_examples=200, deadline=None)
def test_next_available_is_monotone(pairs, first, second):
    model = AvailabilityModel.from_pairs(pairs)
    low, high = sorted((first, second))
    assert model.next_available(low) <= model.next_available(high)


@given(pairs=WINDOWS, time=TIMES)
@settings(max_examples=200, deadline=None)
def test_single_pass_matches_fixed_point(pairs, time):
    """Nested/overlapping windows: the sorted single pass is exact."""
    model = AvailabilityModel.from_pairs(pairs)
    assert model.next_available(time) == brute_force_next_available(pairs, time)


@given(
    starts=st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=6),
    time=TIMES,
)
@settings(max_examples=100, deadline=None)
def test_zero_duration_windows_are_noops(starts, time):
    model = AvailabilityModel.from_pairs([(start, 0.0) for start in starts])
    assert model.next_available(time) == time
    assert not any(window.contains(time) for window in model.stalls)


class TestStallWindow:
    def test_half_open_interval(self):
        window = StallWindow(2.0, 3.0)
        assert window.contains(2.0)
        assert window.contains(4.999)
        assert not window.contains(5.0)
        assert not window.contains(1.999)

    def test_zero_duration_contains_nothing(self):
        window = StallWindow(2.0, 0.0)
        assert not window.contains(2.0)


class TestBurstWindows:
    @given(
        period=st.floats(0.5, 10.0, allow_nan=False),
        up_fraction=st.floats(0.1, 1.0, allow_nan=False, exclude_min=False),
        horizon=st.floats(0.0, 50.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_windows_are_disjoint_and_inside_horizon(
        self, period, up_fraction, horizon
    ):
        windows = burst_windows(period, up_fraction, horizon)
        assert all(w.start < horizon for w in windows)
        for first, second in zip(windows, windows[1:]):
            assert first.end <= second.start
            assert second.start - first.start == pytest.approx(period)

    def test_full_up_fraction_yields_no_stalls(self):
        assert burst_windows(2.0, 1.0, 100.0) == ()

    def test_schedule_shape(self):
        windows = burst_windows(2.0, 0.5, 6.0)
        assert [(w.start, w.duration) for w in windows] == [(1.0, 1.0), (3.0, 1.0), (5.0, 1.0)]

    def test_offset_shifts_the_schedule(self):
        windows = burst_windows(2.0, 0.5, 8.0, offset=3.0)
        assert windows[0].start == pytest.approx(4.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            burst_windows(0.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            burst_windows(2.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            burst_windows(2.0, 1.5, 10.0)
