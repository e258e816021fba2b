"""Discrete-event simulation substrate: events, latency models, queues."""

from repro.sim.events import Event, EventQueue
from repro.sim.latency import (
    AvailabilityModel,
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    StallWindow,
)
from repro.sim.queues import BoundedQueue
from repro.sim.simulator import Simulator
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "AvailabilityModel",
    "BoundedQueue",
    "ConstantLatency",
    "Event",
    "EventQueue",
    "ExponentialLatency",
    "LatencyModel",
    "Simulator",
    "StallWindow",
    "TraceLog",
    "TraceRecord",
]
