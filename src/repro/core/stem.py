"""State Modules (SteMs): the paper's primary contribution.

A SteM is "half a join": a dictionary over the tuples of one base table that
supports *build* (insert), *probe* (lookup with concatenation), and
optionally *eviction*.  This module implements the full Table 1 / Table 2
behaviour of the paper:

* set-semantics duplicate elimination on build (section 3.2, competitive
  access methods);
* EOT tuples stored inside the SteM, so the SteM can decide whether it
  already holds *all* matches for a probe (section 2.1.3/3.3);
* the TimeStamp constraint — a probe only returns matches whose build
  timestamp is smaller than the probe's own timestamp — which makes
  decoupled build/probe routing duplicate-free (section 3.1);
* secondary in-memory indexes on every join column (section 2.1.4): per
  column, key -> an insertion-ordered ``{row: build timestamp}`` bucket, so
  a probe reads each candidate's timestamp from the bucket it iterates;
* optional bounded state with pluggable eviction policies — count-bounded
  FIFO, a time window over build timestamps, or a reference window (LRU by
  probe matches) — the hooks the continuous-query work (CACQ/PSOUP) that
  shares SteMs across queries builds on.

The SteM itself is a passive data structure; its integration with the
simulator (service costs, queues) lives in ``repro.core.modules.stem_module``.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import ExecutionError
from repro.query.predicates import Predicate
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema
from repro.core.tuples import EOTTuple, MatchRun, QTuple


class EvictionPolicy:
    """How a SteM bounds its stored state (CACQ/PSoUP sliding windows).

    A policy is consulted after every build (:meth:`on_build`) and decides
    which rows leave the window; reference-tracking policies additionally
    observe probe matches (:meth:`on_match`).  Policies are stateless over
    the SteM's own ordered row store, so one policy instance serves one SteM
    for its whole life — including across full reclamation/rebuild cycles.
    """

    name = "none"
    #: True when the policy wants :meth:`on_match` calls from the probe loop
    #: (the hook costs a list append per match, so it is opt-in).
    tracks_references = False

    def on_build(self, stem: "SteM", row: Row, timestamp: float) -> None:
        """Called after ``row`` was inserted with ``timestamp``."""

    def on_match(self, stem: "SteM", row: Row) -> None:
        """Called when a probe returned ``row`` as a match."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CountEviction(EvictionPolicy):
    """Keep at most ``max_size`` rows, evicting the oldest insertion (FIFO).

    The original ``max_size`` behaviour, now expressed as a policy.
    """

    name = "count"

    def __init__(self, max_size: int):
        if max_size < 1:
            raise ExecutionError(f"count eviction needs max_size >= 1, got {max_size}")
        self.max_size = max_size

    def on_build(self, stem: "SteM", row: Row, timestamp: float) -> None:
        while len(stem._rows) > self.max_size:
            stem._evict_oldest()

    def __repr__(self) -> str:
        return f"CountEviction(max_size={self.max_size})"


class TimeWindowEviction(EvictionPolicy):
    """Keep only rows built within ``window`` of the newest build timestamp.

    Build timestamps are the global monotone counter every eddy draws from,
    so insertion order equals timestamp order and the expired prefix sits at
    the front of the row store: each build pops rows whose timestamp is
    ``<= timestamp - window``.  With unique integer timestamps this bounds
    the stored rows to at most ``window``.
    """

    name = "time-window"

    def __init__(self, window: float):
        if window < 1:
            raise ExecutionError(f"time-window eviction needs window >= 1, got {window}")
        self.window = window

    def on_build(self, stem: "SteM", row: Row, timestamp: float) -> None:
        floor = timestamp - self.window
        rows = stem._rows
        while rows:
            oldest = next(iter(rows))
            if rows[oldest] > floor:
                break
            stem.evict(oldest)

    def __repr__(self) -> str:
        return f"TimeWindowEviction(window={self.window})"


class ReferenceWindowEviction(EvictionPolicy):
    """Keep the ``max_size`` most recently *referenced* rows (LRU).

    A reference is a build or a probe match: matched rows move to the back
    of the row store, so the front is always the least recently useful row —
    hot rows survive a bounded window that plain FIFO would rotate out.
    """

    name = "reference-window"
    tracks_references = True

    def __init__(self, max_size: int):
        if max_size < 1:
            raise ExecutionError(
                f"reference-window eviction needs max_size >= 1, got {max_size}"
            )
        self.max_size = max_size

    def on_build(self, stem: "SteM", row: Row, timestamp: float) -> None:
        while len(stem._rows) > self.max_size:
            stem._evict_oldest()

    def on_match(self, stem: "SteM", row: Row) -> None:
        stem._rows.move_to_end(row)

    def __repr__(self) -> str:
        return f"ReferenceWindowEviction(max_size={self.max_size})"


def make_eviction_policy(
    kind: str | EvictionPolicy | None,
    max_size: int | None = None,
    window: float | None = None,
) -> EvictionPolicy | None:
    """Resolve an eviction-policy spec (name / instance / None) to a policy.

    ``None`` with a ``max_size`` keeps the historical behaviour: a
    count-bounded FIFO window.  ``None`` without a bound means no eviction.
    A bound the named policy does not read (a ``window`` without
    ``"time-window"``, a ``max_size`` with it) raises
    :class:`~repro.errors.ExecutionError` instead of being dropped.
    """
    if isinstance(kind, EvictionPolicy):
        return kind
    if kind not in (None, "count", "time-window", "reference-window"):
        raise ExecutionError(
            f"unknown eviction policy {kind!r} "
            "(expected 'count', 'time-window' or 'reference-window')"
        )
    if kind == "time-window":
        if window is None:
            raise ExecutionError("time-window eviction needs window")
        if max_size is not None:
            raise ExecutionError("time-window eviction is bounded by window, not max_size")
        return TimeWindowEviction(window)
    if window is not None:
        raise ExecutionError(f"window bounds time-window eviction only, not {kind!r}")
    if max_size is None:
        if kind is None:
            return None
        raise ExecutionError(f"{kind} eviction needs max_size")
    if kind == "reference-window":
        return ReferenceWindowEviction(max_size)
    return CountEviction(max_size)


#: The bucket a probe iterates when its key is in no bucket (read-only).
_EMPTY_BUCKET: Mapping[Row, float] = MappingProxyType({})


class BuildOutcome(NamedTuple):
    """Result of building a tuple into a SteM.

    Attributes:
        duplicate: True if an identical row was already present (the build
            tuple must then *not* be bounced back — it leaves the dataflow).
        timestamp: the build timestamp assigned to the row (the existing
            row's timestamp when ``duplicate`` is True).
    """

    duplicate: bool
    timestamp: float


class ProbeOutcome:
    """Result of probing a SteM.

    Attributes:
        run: the concatenations (probe ⨝ matching stored rows) that passed
            the predicates and the TimeStamp constraint, as one
            :class:`~repro.core.tuples.MatchRun`; None without a match.
        all_matches_known: True if the SteM is certain it holds every match
            for this probe (because of a covering EOT); when False the probe
            tuple may have to be bounced back for index-AM probing.
        candidates_examined: number of stored rows inspected.
        suppressed_by_timestamp: matches filtered out by the TimeStamp
            constraint (they will be generated from the other side instead).
    """

    __slots__ = (
        "run",
        "all_matches_known",
        "candidates_examined",
        "suppressed_by_timestamp",
    )

    def __init__(
        self,
        run: MatchRun | None = None,
        all_matches_known: bool = False,
        candidates_examined: int = 0,
        suppressed_by_timestamp: int = 0,
    ):
        self.run = run
        self.all_matches_known = all_matches_known
        self.candidates_examined = candidates_examined
        self.suppressed_by_timestamp = suppressed_by_timestamp

    @property
    def results(self) -> list[QTuple]:
        """The matches as QTuples, materialised from :attr:`run` on each read
        (with the ids the run allocated)."""
        return [] if self.run is None else self.run.tuples()


class SteM:
    """A State Module over one base table.

    Args:
        table: the base table whose singleton tuples this SteM stores.
        aliases: the query aliases that refer to this table (more than one
            for self-joins; they all share this SteM, as in the paper).
        join_columns: columns involved in equi-join predicates — a secondary
            index is maintained on each.
        max_size: optional bound on the number of stored rows; without an
            explicit ``eviction`` policy this selects count-bounded FIFO
            eviction (the historical sliding-window behaviour).
        eviction: optional :class:`EvictionPolicy` (or policy name resolved
            through :func:`make_eviction_policy`) bounding the stored state.
        name: module name used in routing traces.
    """

    def __init__(
        self,
        table: str,
        aliases: Sequence[str],
        join_columns: Sequence[str] = (),
        max_size: int | None = None,
        eviction: EvictionPolicy | str | None = None,
        name: str | None = None,
    ):
        self.table = table
        self.aliases = tuple(aliases) if aliases else (table,)
        self.join_columns = tuple(join_columns)
        self.max_size = max_size
        self.name = name or f"stem:{table}"
        # Primary storage: insertion-ordered mapping row -> build timestamp.
        # Row equality is over (table, values), giving set semantics for free.
        self._rows: OrderedDict[Row, float] = OrderedDict()
        #: Secondary indexes: per join column, key -> the insertion-ordered
        #: ``{row: build timestamp}`` bucket of the stored rows with that key.
        self._indexes: dict[str, dict[Any, dict[Row, float]]] = {
            column: {} for column in self.join_columns
        }
        #: ``(position in the row schema, buckets)`` per index, resolved once
        #: the row schema is known (see :meth:`_resolve_index_slots`).
        self._index_slots: tuple[tuple[int, dict[Any, dict[Row, float]]], ...] = ()
        # EOT state: per-AM scan completion, and per-key coverage.
        self._scan_complete: set[str] = set()
        self._eot_keys: dict[tuple[str, ...], set[tuple[Any, ...]]] = {}
        #: Schema of the stored rows (every row of one base table carries
        #: the table's schema); recorded on first build, kept across
        #: evictions, and used to finish compiled probe plans.
        self._row_schema: Schema | None = None
        #: Bumped whenever the set of secondary indexes changes
        #: (``ensure_join_columns``); compiled probe plans re-resolve their
        #: indexed bindings when the epoch moves.
        self.index_epoch = 0
        #: Callbacks invoked with each evicted row.  Sharing wrappers use
        #: this to forget per-query bookkeeping about rows that left the
        #: window, so a re-delivered row re-enters the dataflow instead of
        #: being mistaken for a still-stored duplicate.
        self._evict_listeners: list = []
        #: Callbacks invoked after every :meth:`build` with
        #: ``(row, timestamp, duplicate)`` — duplicates included.  Nothing
        #: in the engine registers one; the tracing harness wraps the
        #: registration.
        self._build_listeners: list = []
        #: Callbacks invoked after every :meth:`build_eot` with the EOT.
        self._eot_listeners: list = []
        #: Readers of the pending delta (aggregate modules), each handed it
        #: by :meth:`drain`.
        self._readers: list = []
        #: The one pending delta every reader shares, consolidated as it is
        #: written (a Z-set): stored rows since the last drain (``+row``)
        #: and evicted rows (``-row``), keyed by object identity, and how
        #: many ``+``/``-`` pairs of one object cancelled.  Written only
        #: while there are readers.
        self._delta_in: dict[int, Row] = {}
        self._delta_out: dict[int, Row] = {}
        self._delta_cancelled = 0
        #: Operational statistics (every value is an int).
        self.stats: dict[str, int] = {
            "builds": 0,
            "duplicates": 0,
            "probes": 0,
            "matches": 0,
            "evictions": 0,
            "eot_builds": 0,
        }
        self.set_eviction(make_eviction_policy(eviction, max_size=max_size))

    def set_eviction(self, policy: EvictionPolicy | None) -> None:
        """Install (or swap) the eviction policy, rewiring the probe-loop
        reference hook — set only for reference-tracking policies so non-LRU
        configurations pay nothing per match.  The new bound applies on the
        next build."""
        self.eviction = policy
        self._reference_hook = (
            policy if (policy is not None and policy.tracks_references) else None
        )

    # -- sharing ----------------------------------------------------------------

    def add_alias(self, alias: str) -> None:
        """Register another query alias served by this SteM.

        Sharing hook (paper §2.1.4 / the CACQ/PSoUP continuous-query line):
        when one SteM per base table serves many concurrent queries, each
        query's alias for the table must be probe-able.
        """
        if alias not in self.aliases:
            self.aliases = self.aliases + (alias,)

    def remove_alias(self, alias: str) -> None:
        """Forget a query alias no live query probes through (retirement)."""
        if alias in self.aliases:
            self.aliases = tuple(a for a in self.aliases if a != alias)

    def ensure_join_columns(self, columns: Iterable[str]) -> None:
        """Maintain secondary indexes on additional join columns.

        A later-admitted query may join on columns the SteM was not indexing
        yet; the new index is backfilled from the rows already stored so the
        query's probes see the full shared state.
        """
        for column in columns:
            if column in self._indexes:
                continue
            buckets: dict[Any, dict[Row, float]] = {}
            if self._row_schema is not None:
                position = self._row_schema.position(column)
                for row, timestamp in self._rows.items():
                    buckets.setdefault(row.values[position], {})[row] = timestamp
            self._indexes[column] = buckets
            self._resolve_index_slots()
            self.index_epoch += 1
            if column not in self.join_columns:
                self.join_columns = self.join_columns + (column,)

    def drop_join_column(self, column: str) -> bool:
        """Drop the secondary index on ``column`` (query retirement).

        The registry calls this when the last query whose bindings needed the
        index retires.  Bumps :attr:`index_epoch` so compiled probe plans
        that resolved the index re-resolve against the surviving ones.
        """
        if column not in self._indexes:
            return False
        del self._indexes[column]
        self._resolve_index_slots()
        self.index_epoch += 1
        self.join_columns = tuple(c for c in self.join_columns if c != column)
        return True

    def _resolve_index_slots(self) -> None:
        schema = self._row_schema
        if schema is not None:
            self._index_slots = tuple(
                (schema.position(column), buckets)
                for column, buckets in self._indexes.items()
            )

    # -- build ------------------------------------------------------------------

    def build(self, row: Row, timestamp: float) -> BuildOutcome:
        """Insert a base-table row, assigning it ``timestamp``.

        Duplicate rows (identical values) are detected and *not* inserted
        again; the caller must then drop the build tuple instead of bouncing
        it back (SteM BounceBack constraint, competitive-AM case).
        """
        if row.table != self.table:
            raise ExecutionError(
                f"cannot build a {row.table!r} row into the SteM on {self.table!r}"
            )
        stats = self.stats
        stats["builds"] += 1
        rows = self._rows
        existing = rows.get(row)
        if existing is not None:
            stats["duplicates"] += 1
            for listener in self._build_listeners:
                listener(row, existing, True)
            return BuildOutcome(True, existing)
        if self._row_schema is None:
            self._row_schema = row.schema
            self._resolve_index_slots()
        rows[row] = timestamp
        values = row.values
        for position, buckets in self._index_slots:
            buckets.setdefault(values[position], {})[row] = timestamp
        if self.eviction is not None:
            self.eviction.on_build(self, row, timestamp)
        if self._readers:
            key = id(row)
            if self._delta_out.pop(key, None) is None:
                self._delta_in[key] = row
            else:
                self._delta_cancelled += 1
        for listener in self._build_listeners:
            listener(row, timestamp, False)
        return BuildOutcome(False, timestamp)

    def build_batch(
        self, rows: Sequence[Row], timestamps: Sequence[float]
    ) -> list[BuildOutcome]:
        """Build many rows in one call (one ``zip`` walk, no per-row setup).

        The batch counterpart of :meth:`build` for callers that already hold
        a delivered batch; outcomes are positionally aligned with ``rows``.
        """
        build = self.build
        return [build(row, timestamp) for row, timestamp in zip(rows, timestamps)]

    def build_eot(self, eot: EOTTuple) -> None:
        """Insert an End-Of-Transmission tuple.

        A scan EOT marks the SteM as holding the *entire* table; an index EOT
        marks one probe key as fully answered.
        """
        if eot.table != self.table:
            raise ExecutionError(
                f"EOT for table {eot.table!r} routed to the SteM on {self.table!r}"
            )
        self.stats["eot_builds"] += 1
        if eot.is_scan_eot:
            self._scan_complete.add(eot.am_name)
        else:
            self._eot_keys.setdefault(tuple(eot.bound_columns), set()).add(
                tuple(eot.bound_values)
            )
        for listener in self._eot_listeners:
            listener(eot)

    # -- probe ------------------------------------------------------------------

    def probe(
        self,
        probe: QTuple,
        target_alias: str,
        predicates: Sequence[Predicate],
    ) -> ProbeOutcome:
        """Find matches for ``probe`` among the stored rows.

        Compiles a one-off :class:`ProbePlan` for this probe situation and
        runs :meth:`probe_with_plan`; the engine's modules call
        :meth:`probe_with_plan` directly with plans memoized per situation.

        The TimeStamp constraint (§3) always applies: a stored row matches
        only if it was built before the probe was created.  The paper's
        Figure 3 duplicate anomaly without it is shown on the interpreted
        reference, ``tests/reference/interpreted_probe.py``.

        Args:
            probe: the probing tuple (must not already span ``target_alias``).
            target_alias: the query alias the stored rows will fill.
            predicates: the predicates to verify on the concatenation —
                typically every query predicate evaluable over
                ``probe.aliases | {target_alias}`` that is not yet done.

        Returns:
            A :class:`ProbeOutcome` with concatenated results and coverage.
        """
        return self.probe_with_plan(
            probe,
            ProbePlan.compile(
                predicates,
                target_alias,
                probe.components,
                target_schema=self._row_schema,
            ),
        )

    def probe_with_plan(
        self,
        probe: QTuple,
        plan: ProbePlan,
    ) -> ProbeOutcome:
        """Find matches for ``probe`` through a compiled :class:`ProbePlan`.

        The per-candidate loop resolves no column names and walks no
        predicate trees: bindings come from the plan's precompiled
        extractors, each candidate arrives with its build timestamp from the
        bucket (or the row store) it is drawn from, and each comparison is
        one positional read per side plus one operator call.  The equality
        that picked the bucket is not checked again when the bucket's key
        is neither None nor NaN: every row in it already equals the key.
        Predicates the compiler could not lower (anything that is not a
        plain comparison or IN list) run through the plan's generic
        fallback, which allocates a merged alias -> row mapping per
        candidate.  Arguments and result are as for :meth:`probe`.
        """
        target_alias = plan.target_alias
        components = probe.components
        if target_alias in components:
            raise ExecutionError(
                f"probe already spans {target_alias!r}; cannot probe {self.name}"
            )
        if target_alias not in self.aliases:
            raise ExecutionError(
                f"alias {target_alias!r} is not served by {self.name}"
            )
        if plan.cmp_checks is None and self._row_schema is not None:
            # Lazy finish: target positions need the stored rows' schema,
            # unknown while the SteM was empty at compile time.
            plan.finish(self._row_schema)
        candidates: Mapping[Row, float] = self._rows
        checks = plan.cmp_checks
        binding_values = plan.bind_values(components)
        if binding_values is not None:
            if plan.resolved_stem is not self or plan.resolved_epoch != self.index_epoch:
                plan.resolve_indexes(self)
            # The smallest bucket among the indexed bindings wins (first
            # seen wins ties); every stored row is a candidate otherwise.
            best = None
            for position, buckets in plan.indexed_bindings:
                key = binding_values[position]
                bucket = buckets.get(key, _EMPTY_BUCKET)
                if best is None or len(bucket) < len(best):
                    best, best_position, best_key = bucket, position, key
            if best is not None:
                candidates = best
                # A None or NaN key equals no stored value, so its own
                # check must still reject every row of its bucket.  (An
                # unfinished plan has no checks: its SteM holds no rows.)
                if checks and best_key is not None and best_key == best_key:
                    unkeyed = plan.unkeyed_checks[best_position]
                    if unkeyed is not None:
                        checks = unkeyed
        probe_timestamp = probe.timestamp

        matched: list[Row] = []
        stamps: list[float] = []
        suppressed = 0
        cmp_bound = plan.bind_checks(components, checks) if checks else ()
        in_bound = plan.bind_in_checks(components) if plan.in_checks else ()
        generic = plan.generic_predicates
        for row, row_timestamp in candidates.items():
            values = row.values
            passed = True
            for op, l_pos, l_val, r_pos, r_val in cmp_bound:
                left = values[l_pos] if l_pos >= 0 else l_val
                right = values[r_pos] if r_pos >= 0 else r_val
                if left is None or right is None:
                    passed = False
                    break
                try:
                    if not op(left, right):
                        passed = False
                        break
                except TypeError:
                    passed = False
                    break
            if passed and in_bound:
                for pos, bound_value, members in in_bound:
                    if (values[pos] if pos >= 0 else bound_value) not in members:
                        passed = False
                        break
            if passed and generic:
                merged = {**components, target_alias: row}
                for predicate in generic:
                    if not predicate.evaluate(merged):
                        passed = False
                        break
            if not passed:
                continue
            if not probe_timestamp > row_timestamp:
                suppressed += 1
                continue
            matched.append(row)
            stamps.append(row_timestamp)
        hook = self._reference_hook
        if hook is not None:
            # Reference hooks may reorder the row store, so they run only
            # after candidate iteration (candidates can alias ``_rows``).
            for row in matched:
                hook.on_match(self, row)
        # Stats commit only once the whole candidate loop has survived: a
        # raising generic predicate must leave the counters untouched so the
        # quarantine path can retry or drop the probe without skew.
        stats = self.stats
        stats["probes"] += 1
        stats["matches"] += len(matched)
        return ProbeOutcome(
            MatchRun(probe, target_alias, matched, stamps, plan.done_mask) if matched else None,
            bool(self._scan_complete)
            or self.covers(plan.bindings_mapping(binding_values)),
            len(candidates),
            suppressed,
        )

    def probe_batch(
        self,
        probes: Sequence[QTuple],
        plan: ProbePlan,
    ) -> list[ProbeOutcome]:
        """Probe a whole delivered batch through one compiled plan.

        All probes must share the plan's probe situation (same spanned
        aliases and pending predicates — the batched eddy's signature groups
        guarantee exactly that); the plan and its index resolution are
        acquired once for the batch instead of being re-derived per tuple.
        Outcomes are positionally aligned with ``probes``.
        """
        probe = self.probe_with_plan
        return [probe(item, plan) for item in probes]

    # -- EOT coverage -------------------------------------------------------------

    def covers(self, bindings: Mapping[str, Any] | None) -> bool:
        """True if the SteM certainly holds all matches for these bindings.

        Coverage holds when a scan over the table has completed (scan EOT),
        or when an index EOT was recorded for a subset of the binding columns
        with exactly the bound values.
        """
        if self._scan_complete:
            return True
        if not bindings:
            return False
        for columns, value_set in self._eot_keys.items():
            if all(column in bindings for column in columns):
                key = tuple(bindings[column] for column in columns)
                if key in value_set:
                    return True
        return False

    @property
    def scan_complete(self) -> bool:
        """True once a scan EOT has been built into this SteM."""
        return bool(self._scan_complete)

    # -- eviction ----------------------------------------------------------------

    def add_build_listener(self, callback) -> None:
        """Register a callback invoked after every build.

        Called as ``callback(row, timestamp, duplicate)`` — duplicates
        included.
        """
        self._build_listeners.append(callback)

    def add_eot_listener(self, callback) -> None:
        """Register a callback invoked with every EOT built into the SteM."""
        self._eot_listeners.append(callback)

    def add_evict_listener(self, callback) -> None:
        """Register a callback invoked with every evicted row."""
        self._evict_listeners.append(callback)

    def remove_evict_listener(self, callback) -> bool:
        """Unregister an evict listener (query retirement teardown).

        Returns True when the callback was registered.  Retired queries must
        come off the list, or the SteM would keep their per-query
        bookkeeping (and the modules owning it) alive forever.
        """
        try:
            self._evict_listeners.remove(callback)
        except ValueError:
            return False
        return True

    def evict(self, row: Row) -> bool:
        """Remove a row (sliding-window / memory-pressure hook)."""
        if row not in self._rows:
            return False
        del self._rows[row]
        values = row.values
        for position, buckets in self._index_slots:
            bucket = buckets[values[position]]
            del bucket[row]
            if not bucket:
                del buckets[values[position]]
        self.stats["evictions"] += 1
        # Coverage may no longer hold once data has been dropped.
        self._scan_complete.clear()
        self._eot_keys.clear()
        if self._readers:
            key = id(row)
            if self._delta_in.pop(key, None) is None:
                self._delta_out[key] = row
            else:
                self._delta_cancelled += 1
        for listener in self._evict_listeners:
            listener(row)
        return True

    def _evict_oldest(self) -> None:
        oldest = next(iter(self._rows))
        self.evict(oldest)

    # -- the pending delta ----------------------------------------------------------

    def add_reader(self, reader) -> None:
        """Attach a reader of the pending delta.

        Drains first: the reader bootstraps from the rows stored now, and
        the delta written before it attached is already in them.
        """
        self.drain()
        self._readers.append(reader)

    def remove_reader(self, reader) -> None:
        """Detach a reader, after draining so it misses no change."""
        self.drain()
        self._readers.remove(reader)

    def drain(self) -> None:
        """Hand the pending delta to every reader, then start a new one.

        Each reader is called as ``reader.apply_delta(built, evicted,
        cancelled)``: the stored rows, the evicted rows and the count of
        pairs that cancelled since the last drain.  A reader that raises
        keeps the error (``reader.error``); the others still get the delta.
        """
        built, evicted = self._delta_in, self._delta_out
        cancelled = self._delta_cancelled
        if not (built or evicted or cancelled):
            return
        self._delta_in, self._delta_out, self._delta_cancelled = {}, {}, 0
        for reader in self._readers:
            try:
                reader.apply_delta(built.values(), evicted.values(), cancelled)
            except Exception as error:  # one reader's fault is its own
                reader.error = error

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(list(self._rows))

    def timestamp_of(self, row: Row) -> float | None:
        """The build timestamp of a stored row, or None if absent."""
        return self._rows.get(row)

    # -- durability ----------------------------------------------------------------

    def state_entries(self) -> list[tuple[Row, float]]:
        """Stored ``(row, build_timestamp)`` pairs in insertion order.

        The snapshot unit for the durability layer: rebuilding an empty SteM
        by calling :meth:`build` over these entries (in order, with the
        recorded timestamps) reproduces the row store and secondary indexes
        exactly.
        """
        return list(self._rows.items())

    def coverage_state(self) -> tuple[set[str], dict[tuple[str, ...], set[tuple[Any, ...]]]]:
        """Copy of the EOT coverage state (scan completions, index EOT keys)."""
        return (
            set(self._scan_complete),
            {columns: set(values) for columns, values in self._eot_keys.items()},
        )

    def restore_coverage(
        self,
        scan_complete: Iterable[str],
        eot_keys: Mapping[tuple[str, ...], Iterable[tuple[Any, ...]]],
    ) -> None:
        """Reinstall EOT coverage from a snapshot, beside the rows it covers
        (a restore puts both back, with the lookups that were under way)."""
        self._scan_complete.update(scan_complete)
        for columns, values in eot_keys.items():
            self._eot_keys.setdefault(tuple(columns), set()).update(
                tuple(value) for value in values
            )

    @property
    def row_schema(self) -> Schema | None:
        """Schema of the stored rows (None until the first build)."""
        return self._row_schema

    def __repr__(self) -> str:
        return (
            f"SteM({self.table}, rows={len(self._rows)}, "
            f"joins={list(self.join_columns)}, scan_complete={self.scan_complete})"
        )
