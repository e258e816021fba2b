"""Latency and availability models for simulated data sources.

The paper's testbed implements remote index lookups as "sleeps of identical
duration" and motivates adaptivity with sources whose "speeds and
availability are hard to estimate ... and could vary during query
execution".  These models capture both: deterministic or stochastic per-
operation latencies, plus stall windows during which a source is unavailable.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence


class LatencyModel(ABC):
    """Produces a (possibly random) latency for each operation."""

    @abstractmethod
    def sample(self) -> float:
        """The latency of the next operation, in virtual seconds."""

    @property
    def mean(self) -> float:
        """The expected latency (used by cost-aware routing policies)."""
        raise NotImplementedError


@dataclass
class ConstantLatency(LatencyModel):
    """Every operation takes exactly ``value`` virtual seconds."""

    value: float = 1.0

    def sample(self) -> float:
        return self.value

    @property
    def mean(self) -> float:
        return self.value


class ExponentialLatency(LatencyModel):
    """Latencies drawn from an exponential distribution (bursty sources)."""

    def __init__(self, mean: float, seed: int = 0):
        if mean <= 0:
            raise ValueError("mean must be positive")
        self._mean = mean
        self._rng = random.Random(seed)

    def sample(self) -> float:
        return self._rng.expovariate(1.0 / self._mean)

    @property
    def mean(self) -> float:
        return self._mean


def index_latency(mean: float, kind: str = "constant", seed: int = 0) -> LatencyModel:
    """The lookup latency an index's ``latency_model`` names, around ``mean``:
    exponential draws seeded by ``seed``, or constant."""
    if kind == "exponential":
        return ExponentialLatency(mean, seed=seed)
    return ConstantLatency(mean)


@dataclass(frozen=True)
class StallWindow:
    """A half-open interval of virtual time during which a source is stalled."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, time: float) -> bool:
        """True if ``time`` falls inside the stall window."""
        return self.start <= time < self.end


def burst_windows(
    period: float,
    up_fraction: float,
    horizon: float,
    offset: float = 0.0,
) -> tuple[StallWindow, ...]:
    """A scripted burst/stall schedule: up for part of each period, then down.

    The source is available for ``up_fraction`` of every ``period`` and
    stalled for the rest, repeating from ``offset`` until ``horizon``.
    Deliveries due during a down-window pile up and burst out at the
    window's end — the bursty-source behaviour of the adversarial gauntlet.

    Args:
        period: length of one up+down cycle, in virtual seconds.
        up_fraction: fraction of each period the source is available
            (0 < up_fraction <= 1; 1 yields no stalls).
        horizon: schedule windows up to this virtual time.
        offset: virtual time of the first period's start.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    if not 0.0 < up_fraction <= 1.0:
        raise ValueError(f"up_fraction must be in (0, 1], got {up_fraction}")
    windows: list[StallWindow] = []
    down = period * (1.0 - up_fraction)
    start = offset + period * up_fraction
    while start < horizon and down > 0:
        windows.append(StallWindow(start, down))
        start += period
    return tuple(windows)


class AvailabilityModel:
    """Stall behaviour of a source: a set of windows during which it is down.

    Used by access modules to delay deliveries: an operation that would
    complete inside a stall window is pushed to the window's end.
    """

    def __init__(self, stalls: Sequence[StallWindow] = ()):
        self.stalls = tuple(sorted(stalls, key=lambda window: window.start))

    @classmethod
    def always_available(cls) -> "AvailabilityModel":
        return cls(())

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[float, float]] | Sequence[StallWindow]
    ) -> "AvailabilityModel":
        """Build a model from ``(start, duration)`` pairs or StallWindows."""
        windows = [
            window if isinstance(window, StallWindow) else StallWindow(*window)
            for window in pairs
        ]
        return cls(windows)

    @classmethod
    def bursty(
        cls, period: float, up_fraction: float, horizon: float, offset: float = 0.0
    ) -> "AvailabilityModel":
        """A scripted periodic burst/stall schedule (see :func:`burst_windows`)."""
        return cls(burst_windows(period, up_fraction, horizon, offset=offset))

    def next_available(self, time: float) -> float:
        """Earliest time >= ``time`` at which the source is available."""
        adjusted = time
        for window in self.stalls:
            if window.contains(adjusted):
                adjusted = window.end
        return adjusted
