"""Deterministic fault injection for the degradation paths.

Two fault families, both seeded and replayable:

* **Torn snapshot writes** — via ``SnapshotStore.write(torn_bytes=...)``
  (see :mod:`repro.recovery.snapshot`), simulating a checkpoint killed
  mid-write.
* **Index-lookup failures** — :func:`lookup_fault_model` builds the seeded
  failure predicate the access modules consult per lookup attempt, driving
  the retry/backoff/abandon machinery of
  :class:`~repro.core.modules.access.IndexAMModule`.

Crashes at event boundaries are injected by the test oracle
(``tests/reference/crash_oracle.py``: ``CrashInjector``).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import ExecutionError

__all__ = ["lookup_fault_model"]


def lookup_fault_model(
    failure_rate: float, seed: int
) -> Callable[[int], bool] | None:
    """A seeded per-attempt failure predicate for index lookups.

    Returns ``fails(attempt) -> bool`` drawing one RNG tick per call —
    deterministic given the (seeded) call order, which the single-threaded
    simulator guarantees.  ``failure_rate`` of 0 returns None: the access
    module then skips the fault branch entirely.
    """
    if failure_rate <= 0.0:
        return None
    if failure_rate > 1.0:
        raise ExecutionError(
            f"failure_rate must be within [0, 1], got {failure_rate}"
        )
    rng = random.Random(seed)

    def fails(attempt: int) -> bool:
        return rng.random() < failure_rate

    return fails
