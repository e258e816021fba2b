"""Discrete-event simulation substrate: the simulator, latency models, queues."""

from repro.sim.latency import (
    AvailabilityModel,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    StallWindow,
)
from repro.sim.queues import BoundedQueue
from repro.sim.simulator import Event, Simulator
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "AvailabilityModel",
    "BoundedQueue",
    "ConstantLatency",
    "Event",
    "ExponentialLatency",
    "LatencyModel",
    "Simulator",
    "StallWindow",
    "TraceLog",
    "TraceRecord",
]
