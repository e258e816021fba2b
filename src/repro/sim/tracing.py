"""Trace logs: time-stamped records of simulation activity.

Traces serve two purposes: debugging routing policies, and collecting the
time series (results produced over time, probes issued over time) that the
paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    kind: str
    detail: Any = None


class TraceLog:
    """An append-only log of :class:`TraceRecord` entries."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: list[TraceRecord] = []

    def record(self, time: float, kind: str, detail: Any = None) -> None:
        """Append a record (no-op when disabled)."""
        if self.enabled:
            self._records.append(TraceRecord(time, kind, detail))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(self, kind: str) -> list[TraceRecord]:
        """All records of the given kind."""
        return [record for record in self._records if record.kind == kind]

    def count(self, kind: str) -> int:
        """Number of records of the given kind."""
        return sum(1 for record in self._records if record.kind == kind)

    def clear(self) -> None:
        """Drop all records."""
        self._records.clear()
