"""Access modules (AMs): scans and asynchronous index lookups.

Paper section 2.1.3.  An AM encapsulates a single access method over a data
source.  Scans deliver every row of their table over time (at the source's
delivery rate); index AMs accept probe tuples, perform asynchronous lookups
(modelled as fixed-latency operations on the simulator, exactly like the
paper's "sleeps of identical duration"), and return the matching rows plus an
End-Of-Transmission tuple encoding the probing predicate.

Index AMs additionally de-duplicate lookups by key: a probe whose key is
already pending or answered does not trigger a second remote lookup.  This is
the behaviour of the WSQ/DSQ-style rendezvous buffer the paper builds on; it
is what makes the number of index probes in Figure 7(ii) equal for the
join-module and SteM architectures.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.core.modules.base import Module, Routable
from repro.core.tuples import EOTTuple, QTuple, singleton_maker
from repro.query.predicates import Predicate
from repro.query.probeplan import bind_key_from_sources, compile_bind_sources
from repro.sim.latency import AvailabilityModel, LatencyModel, index_latency
from repro.storage.catalog import IndexSpec, ScanSpec
from repro.storage.table import Table


class ScanAMModule(Module):
    """A scan access method delivering rows at a configurable rate."""

    kind = "scan_am"

    def __init__(
        self,
        spec: ScanSpec,
        table: Table,
        alias: str,
        name: str | None = None,
    ):
        super().__init__(name or f"am:{spec.name}:{alias}", cost=spec.cost_per_row)
        self.spec = spec
        self.table = table
        self.alias = alias
        self.delivered = 0
        self.total = len(table)
        self.finished = False
        self._last_delivery_time = 0.0
        # Static event labels, precomputed once: deliveries are scheduled
        # per row, and the labels are needed whether or not a trace exists.
        self._deliver_label = f"{self.name}:deliver"
        self._eot_label = f"{self.name}:eot"
        #: The delivery stream: ``((time, sequence), row)`` in firing order,
        #: the scan EOT last with ``None`` for its row (built by ``start``,
        #: dropped once nothing of it can fire any more).
        self._stream: list = []
        self._position = 0
        #: Handle of the one armed event, so a retiring query can cancel
        #: the rows its scan would still have streamed.
        self._armed = None
        #: The singleton template of this scan's deliveries (see ``_open_stream``).
        self._make_singleton = None
        self.stats.update({"delivered": 0, "seed_probes": 0, "cancelled": 0})

    def start(self) -> None:
        """Fix every row delivery plus the final scan EOT, and arm the first.

        Offsets are relative to the moment the module starts, so a query
        admitted mid-simulation (multi-query staggered arrivals) streams at
        its declared rate from its own admission time instead of burst-
        delivering the rows it "missed".  ``stall_at`` is likewise relative
        to the scan's start.

        Two hostile-source behaviours compose on top of the nominal rate:
        scripted ``stalls`` windows, during which due rows pile up and burst
        out at the window's end (unlike ``stall_at``, which shifts every
        later delivery), and per-row ``jitter``, which perturbs delivery
        times enough to reorder rows relative to physical storage order.

        All instants are reserved on the simulator now, as if every delivery
        were scheduled now, but only one event is ever armed: each firing
        arms its successor in that successor's reserved slot.
        """
        self._open_stream()

    def _open_stream(self, started_at: float | None = None, cursor: int = 0) -> None:
        """Derive the stream as of ``started_at`` (None: now) and arm entry
        ``cursor`` — the arithmetic is seeded, so a restored scan gets the
        very instants and order the original had."""
        assert self.runtime is not None
        self._make_singleton = singleton_maker(self.alias, self.name, self.runtime.layout)
        rate = max(self.spec.rate, 1e-9)
        outages = (
            AvailabilityModel.from_pairs(self.spec.stalls)
            if self.spec.stalls
            else None
        )
        jitter_rng = (
            random.Random(self.spec.jitter_seed) if self.spec.jitter > 0 else None
        )
        rows = list(self.table)
        offsets = []
        last_offset = self.spec.initial_delay
        for position in range(len(rows)):
            offset = self.spec.initial_delay + (position + 1) / rate
            if self.spec.stall_at is not None and offset >= self.spec.stall_at:
                offset += self.spec.stall_duration
            if jitter_rng is not None:
                offset += jitter_rng.uniform(0.0, self.spec.jitter)
            if outages is not None:
                offset = outages.next_available(offset)
            last_offset = max(last_offset, offset)
            offsets.append(offset)
        offsets.append(last_offset + 1e-9)
        rows.append(None)
        # Jitter and stall bursts make the instants non-monotone and tied:
        # firing order is the heap's, (time, sequence).
        slots = (
            self.runtime.reserve(offsets)
            if started_at is None
            else self.runtime.reserve(offsets, started_at)
        )
        self._stream = sorted(zip(slots, rows))
        self._position = cursor
        self._arm()

    def cut(self) -> dict:
        """The stream cursor; the stream itself is re-derived on restore."""
        return {**super().cut(), "state": (self._position, self.finished)}

    def restore(self, cut: dict) -> None:
        assert self.runtime is not None
        super().restore(cut)
        self._position, self.finished = cut["state"]
        self.delivered = min(self._position, self.total)
        self._last_delivery_time = self.runtime.now
        if not self.finished:
            self._open_stream(self.runtime.started_at, self._position)

    def _arm(self) -> None:
        """Arm the stream's current entry in its reserved slot."""
        assert self.runtime is not None
        slot, row = self._stream[self._position]
        if row is None:
            callback, label = self._deliver_eot, self._eot_label
        else:
            callback, label = self._deliver_next, self._deliver_label
        self._armed = self.runtime.schedule_reserved(slot, callback, label)

    def stop(self) -> None:
        """Cancel the deliveries (and EOT) this scan would still perform.

        Called on query retirement; the armed event may already have fired
        (cancellation of a popped event is a no-op).
        """
        assert self.runtime is not None
        if self._armed is not None:
            self.runtime.cancel(self._armed)
            self._stream = []  # cancelled: none of it will fire any more
        # Rows this scan will now never deliver (the EOT event is not a row).
        self.stats["cancelled"] += max(0, self.total - self.delivered)
        self._armed = None
        self.finished = True

    def _deliver_next(self) -> None:
        runtime = self.runtime
        assert runtime is not None
        row = self._stream[self._position][1]
        self._position += 1
        # Successor first: a retirement reached from inside this delivery
        # finds a live handle to cancel, and nothing re-arms a stopped scan.
        self._arm()
        now = runtime.now
        self.delivered += 1
        self.stats["delivered"] += 1
        self._last_delivery_time = now
        runtime.to_eddy(self._make_singleton(row, now), self)

    def _deliver_eot(self) -> None:
        assert self.runtime is not None
        self.finished = True
        self._stream = []
        eot = EOTTuple(table=self.table.name, alias=self.alias, am_name=self.name)
        self.runtime.to_eddy(eot, source=self)

    def process(self, item: Routable) -> list[Routable]:
        """Scans only accept seed probes; anything routed here bounces back."""
        self.stats["seed_probes"] += 1
        return [item]

    def expected_remaining_time(self) -> float:
        """Rough estimate of the time until the scan completes.

        The estimate is based on the declared delivery rate, but when the
        source has gone silent for much longer than its inter-arrival gap it
        is treated as stalled and the estimate grows with the observed
        outage — this is the "observed performance" signal adaptive policies
        react to when a source misbehaves mid-query.
        """
        if self.finished:
            return 0.0
        remaining = self.total - self.delivered
        estimate = remaining / max(self.spec.rate, 1e-9)
        if self.runtime is not None and self.delivered:
            silence = self.runtime.now - self._last_delivery_time
            expected_gap = 1.0 / max(self.spec.rate, 1e-9)
            if silence > 5 * expected_gap:
                estimate += 2.0 * silence
        return estimate


class IndexAMModule(Module):
    """An asynchronous index access method with per-key lookup de-duplication.

    Args:
        spec: the catalog index specification (bind columns, latency,
            concurrency).
        table: the underlying table answering lookups.
        alias: the query alias this AM feeds.
        predicates: all query predicates (used to derive bind values from a
            probe tuple).
        latency: optional latency model; defaults to the spec's
            (:func:`~repro.sim.latency.index_latency`).
        availability: optional stall model for the source.
        handle_cost: virtual seconds to accept a probe (the lookup itself is
            asynchronous and does not occupy the input queue).
    """

    kind = "index_am"

    def __init__(
        self,
        spec: IndexSpec,
        table: Table,
        alias: str,
        predicates: Sequence[Predicate],
        latency: LatencyModel | None = None,
        availability: AvailabilityModel | None = None,
        handle_cost: float = 1e-4,
        name: str | None = None,
    ):
        super().__init__(name or f"am:{spec.name}:{alias}", cost=handle_cost)
        self.spec = spec
        self.table = table
        self.alias = alias
        self.predicates = tuple(predicates)
        if latency is None:
            latency = index_latency(spec.latency, spec.latency_model, spec.latency_seed)
        self.latency = latency
        if availability is not None:
            self.availability = availability
        elif spec.stalls:
            self.availability = AvailabilityModel.from_pairs(spec.stalls)
        else:
            self.availability = AvailabilityModel.always_available()
        # Bind-column derivation compiled once: the predicates are static,
        # so the per-probe isinstance/column_for scan of the predicate list
        # collapses to a precomputed source walk (bind_key is also called by
        # the constraint checker for every destination resolution, so this
        # is a routing-layer hot path, not just a probe-time one).
        self._bind_sources = compile_bind_sources(
            self.predicates, alias, spec.columns
        )
        # Static event label, precomputed once (scheduled per lookup).
        self._lookup_label = f"{self.name}:lookup"
        self._retry_label = f"{self.name}:retry"
        self._pending_keys: set[tuple[Any, ...]] = set()
        self._completed_keys: set[tuple[Any, ...]] = set()
        self._lookup_queue: deque[tuple[Any, ...]] = deque()
        #: Issued, unanswered keys -> ``(next step, attempt, due time)``.
        self._in_flight: dict[tuple[Any, ...], tuple[str, int, float]] = {}
        # Flaky-source model (seeded per-attempt failure draws).  Imported
        # lazily: the fault helpers live in the recovery package, which
        # imports the engine — a module-level import would be circular.
        if spec.failure_rate > 0:
            from repro.recovery.faults import lookup_fault_model

            self._fault_model = lookup_fault_model(
                spec.failure_rate, spec.failure_seed
            )
        else:
            self._fault_model = None
        #: (virtual time, cumulative lookup count) series for Figure 7(ii).
        self.lookup_series: list[tuple[float, int]] = []
        self.stats.update(
            {
                "probes": 0,
                "lookups": 0,
                "dedup_hits": 0,
                "matches": 0,
                "unbindable": 0,
                "lookup_failures": 0,
                "lookup_retries": 0,
                "lookup_timeouts": 0,
                "lookups_abandoned": 0,
            }
        )

    # -- probe handling -----------------------------------------------------------

    def bind_key(self, probe: QTuple) -> tuple[Any, ...] | None:
        """Derive the index key from a probe tuple, or None if unbindable.

        Each bind column must be equated (by a query predicate) either to a
        column of an alias the probe spans, or to a constant.  The
        derivation runs over sources precompiled at construction (see
        :func:`~repro.query.probeplan.compile_bind_sources`).
        """
        return bind_key_from_sources(self._bind_sources, probe.components)

    def process(self, item: Routable) -> list[Routable]:
        assert self.runtime is not None
        if isinstance(item, EOTTuple):
            return []
        assert isinstance(item, QTuple)
        self.stats["probes"] += 1
        key = self.bind_key(item)
        if key is None:
            self.stats["unbindable"] += 1
            return [item]
        # The probe tuple is bounced back asynchronously (i.e. immediately):
        # its matches will reach it through its own SteM.
        item.mark_resolved(self.alias)
        if item.probe_completion_alias == self.alias:
            item.probe_completion_alias = None
        if key in self._completed_keys or key in self._pending_keys:
            self.stats["dedup_hits"] += 1
            return [item]
        self._pending_keys.add(key)
        if item.priority > 0:
            # Prioritised probes jump the lookup queue so their matches (and
            # hence the user-interesting results) surface earlier (§4.1).
            self._lookup_queue.appendleft(key)
        else:
            self._lookup_queue.append(key)
        self._start_lookups()
        return [item]

    # -- the asynchronous lookup pipeline -------------------------------------------

    def _start_lookups(self) -> None:
        assert self.runtime is not None
        while len(self._in_flight) < self.spec.concurrency and self._lookup_queue:
            key = self._lookup_queue.popleft()
            self.stats["lookups"] += 1
            self.lookup_series.append((self.runtime.now, int(self.stats["lookups"])))
            self._issue_attempt(key, 1)

    def _arm(self, step, key: tuple[Any, ...], attempt: int, delay: float) -> None:
        """Schedule the lookup's next step (one of this module's methods)
        and note it in flight: the key holds its concurrency slot until it
        completes or is abandoned, and a checkpoint reads what it is waiting
        for here."""
        assert self.runtime is not None
        self._in_flight[key] = (step.__name__, attempt, self.runtime.now + delay)
        self.runtime.schedule(
            delay,
            lambda: step(key, attempt),
            label=self._retry_label if step == self._issue_attempt else self._lookup_label,
        )

    def _issue_attempt(self, key: tuple[Any, ...], attempt: int) -> None:
        """Issue one lookup attempt; the key's concurrency slot stays held."""
        assert self.runtime is not None
        delay = self.latency.sample()
        completion = self.availability.next_available(self.runtime.now + delay)
        timeout = self.spec.lookup_timeout
        if timeout is not None and completion - self.runtime.now > timeout:
            # The attempt would land past its deadline; give up on it *at*
            # the deadline instead of waiting out the stall.
            self._arm(self._attempt_timed_out, key, attempt, timeout)
        else:
            self._arm(self._attempt_completed, key, attempt, completion - self.runtime.now)

    def _release(self, key: tuple[Any, ...]) -> None:
        """Free the key's concurrency slot; it is no longer pending."""
        del self._in_flight[key]
        self._pending_keys.discard(key)

    def _attempt_timed_out(self, key: tuple[Any, ...], attempt: int) -> None:
        assert self.runtime is not None
        if not self.runtime.live:
            self._release(key)
            return
        self.stats["lookup_timeouts"] += 1
        self._attempt_failed(key, attempt)

    def _attempt_completed(self, key: tuple[Any, ...], attempt: int) -> None:
        if self._fault_model is not None:
            assert self.runtime is not None
            if not self.runtime.live:
                self._release(key)
                return
            if self._fault_model(attempt):
                self.stats["lookup_failures"] += 1
                self._attempt_failed(key, attempt)
                return
        self._complete_lookup(key)

    def _attempt_failed(self, key: tuple[Any, ...], attempt: int) -> None:
        assert self.runtime is not None
        if attempt > self.spec.max_retries:
            self._abandon_lookup(key)
            return
        self.stats["lookup_retries"] += 1
        backoff = self.spec.retry_backoff * (2 ** (attempt - 1))
        if backoff > 0:
            self._arm(self._issue_attempt, key, attempt + 1, backoff)
        else:
            self._issue_attempt(key, attempt + 1)

    def _abandon_lookup(self, key: tuple[Any, ...]) -> None:
        """Give a key up after exhausting its retries.

        No matches and *no EOT* enter the dataflow: the key's coverage is
        left unclaimed, so the SteM never wrongly claims completeness — the
        query completes with a degraded (under-covered) result instead of
        wedging, and a later probe on the same key starts a fresh lookup
        (the key returns to neither the pending nor the completed set).
        """
        assert self.runtime is not None
        self.stats["lookups_abandoned"] += 1
        self._release(key)
        self._start_lookups()
        self.runtime.notify_idle(self)

    def stop(self) -> None:
        """Abandon queued lookups (query retirement).

        Lookups already in flight complete as scheduled but their matches
        are dropped by the dead eddy; the queue of not-yet-issued keys is
        simply forgotten.
        """
        self._lookup_queue.clear()

    def _complete_lookup(self, key: tuple[Any, ...]) -> None:
        assert self.runtime is not None
        self._release(key)
        if not self.runtime.live:
            # Retired mid-lookup: the answer has no dataflow to enter.
            return
        self._completed_keys.add(key)
        matches = self.table.lookup(self.spec.columns, key)
        if self.spec.matches_per_probe is not None:
            matches = matches[: self.spec.matches_per_probe]
        self.stats["matches"] += len(matches)
        make = singleton_maker(self.alias, self.name, self.runtime.layout)
        now = self.runtime.now
        tuples = [make(row, now) for row in matches]
        eot = EOTTuple(
            table=self.table.name,
            alias=self.alias,
            am_name=self.name,
            bound_columns=tuple(self.spec.columns),
            bound_values=key,
        )
        self.runtime.to_eddy_all([*tuples, eot], self)
        self._start_lookups()
        self.runtime.notify_idle(self)

    # -- checkpoints ------------------------------------------------------------------

    def cut(self) -> dict:
        """Answered keys, queued keys in order, and each lookup in flight as
        ``(step, key, attempt, due time)``."""
        in_flight = tuple(
            (step, key, attempt, due)
            for key, (step, attempt, due) in self._in_flight.items()
        )
        state = (
            tuple(sorted(self._completed_keys, key=repr)),
            tuple(self._lookup_queue),
            in_flight,
        )
        return {**super().cut(), "state": state}

    def restore(self, cut: dict) -> None:
        """Re-queue the queued keys and re-arm every lookup in flight at its
        saved step, attempt number and due time (latency and fault draws
        start afresh: any answer time is a legal one)."""
        assert self.runtime is not None
        super().restore(cut)
        completed, queued, in_flight = cut["state"]
        self._completed_keys.update(completed)
        for step, key, attempt, due in in_flight:
            if step not in ("_attempt_completed", "_attempt_timed_out", "_issue_attempt"):
                raise ExecutionError(f"{self.name}: unknown lookup step {step!r} in the cut")
            self._pending_keys.add(key)
            self._arm(getattr(self, step), key, attempt, max(due - self.runtime.now, 0.0))
            # now + (due - now) may be an ulp off: keep the saved instant.
            self._in_flight[key] = (step, attempt, due)
        self._pending_keys.update(queued)
        self._lookup_queue.extend(queued)
        self._start_lookups()

    # -- introspection ----------------------------------------------------------------

    @property
    def outstanding_lookups(self) -> int:
        """Lookups queued or in flight (used by cost-aware policies)."""
        return len(self._lookup_queue) + len(self._in_flight)

    def expected_lookup_delay(self) -> float:
        """Expected time for a *new* probe to be answered by this index."""
        per_lookup = self.latency.mean
        waiting = self.outstanding_lookups / max(self.spec.concurrency, 1)
        return (waiting + 1) * per_lookup
