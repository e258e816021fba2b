"""Hash-partitioned SteMs: shared join state scaled out across shards.

A single :class:`~repro.core.stem.SteM` serializes every build and probe
through one heap: one row store, one set of posting lists, one columnar
mirror.  :class:`PartitionedSteM` fronts N shard SteMs and routes content
by hashing the *partition column* — the SteM's first join column, the key
the PlanLayout's routing signatures already identify:

* **builds** go to exactly one shard (``shard_of(row[partition_column])``),
  so set-semantics dedup keeps working: identical rows always meet in the
  same shard;
* **probes** whose compiled plan binds the partition column by equality
  route to the single shard that can hold matches — every stored row with
  that key lives there — and scan a 1/N-sized shard instead of the whole
  store when no secondary index covers the binding (hash routing acts as a
  coarse, maintenance-free index);
* **probes whose bind key is unknown** (no equality on the partition
  column, or no bindings at all) fan out to every shard and merge.

**Determinism/merge contract.**  Build timestamps come from the engines'
global monotone counter, so each shard's matches are timestamp-ascending,
and a timestamp-ordered k-way merge (ties broken by shard id) reproduces
the single-shard candidate order exactly.  Shard workers return raw
``(row, build_timestamp)`` matches only; the TimeStamp-constraint tail and
``probe.extender`` (which allocates tuple ids from the per-run global
allocator) run on the caller's thread in merged order — results *and*
traces are byte-identical to the single-shard engine no matter how shard
work is scheduled.

**Worker pool.**  Fan-out probes and routed probe batches execute shard
collections concurrently on a process-wide
:class:`~concurrent.futures.ThreadPoolExecutor` (the columnar numpy
kernels release the GIL).  Execution falls back to serial in-order
collection for ``shards=1`` (the factory returns a plain SteM), the
python/off columnar backends, single-worker hosts, and probes that need
the generic per-element predicate path.  Either way the merge order — and
therefore every observable output — is identical.

**Eviction.**  Count and time-window policies apply *per shard*.  A
row-count bound is divided across the shards (``max_size=64`` over 4
shards bounds each at 16, so the logical SteM still holds ~64 rows); a
time window is a build-timestamp width and timestamps are global, so
each shard applies the same window to its own rows — expiry being lazy
(it runs at build time), a shard's floor trails the global floor until
its next build, which only ever *keeps extra* rows the single shard
would already have dropped, never drops rows it would keep.
Byte-identity with the single-shard engine holds for unbounded SteMs
(the acceptance bar the identity suites pin); bounded SteMs evict the
same *number* of rows per shard but in per-shard order, a different
(equally valid) choice of victims than the global order.
Reference-window (LRU) eviction reorders the row store in ways the
slot-aligned shards cannot mirror, so the factory keeps such tables on a
single shard and :meth:`PartitionedSteM.set_eviction` rejects
reference-tracking policies outright.
"""

from __future__ import annotations

import atexit
import heapq
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import ExecutionError
from repro.core.stem import (
    BuildOutcome,
    CountEviction,
    EvictionPolicy,
    ProbeOutcome,
    SteM,
    derive_probe_bindings,
    make_eviction_policy,
)
from repro.core.tuples import EOTTuple, QTuple
from repro.query.layout import done_mask_of
from repro.query.predicates import Predicate
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = [
    "PartitionedSteM",
    "configure_shard_pool",
    "default_shards",
    "partitioned_stem",
    "shard_count_bounds",
    "shard_of",
    "shard_pool",
    "shutdown_shard_pool",
]

#: 64-bit mask for the hash mixer.
_MASK64 = 0xFFFFFFFFFFFFFFFF


def default_shards() -> int:
    """The process default for ``shards=None`` engine parameters.

    Resolved from ``REPRO_SHARDS`` (the CI fast-test matrix runs a
    ``--shards 4`` leg by exporting it); anything unset/invalid means 1 —
    the plain single-shard SteM.
    """
    raw = os.environ.get("REPRO_SHARDS", "")
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value > 1 else 1


def shard_count_bounds(max_size: int, shards: int) -> list[int]:
    """Exact per-shard slices of a logical row-count bound.

    The first ``max_size % shards`` shards take one extra row, so the shard
    capacities sum to exactly ``max_size`` — a ceil division would hand every
    shard the rounded-up slice and let the logical SteM over-retain by up to
    ``shards - 1`` rows.  Count eviction needs at least one row per shard,
    so a bound smaller than the shard count cannot be honoured exactly and
    is rejected rather than silently inflated.
    """
    if max_size < shards:
        raise ExecutionError(
            f"count bound max_size={max_size} is smaller than shards={shards}; "
            "a partitioned SteM cannot hold the bound exactly with empty-only "
            "shards — lower the shard count or raise the bound"
        )
    base, extra = divmod(max_size, shards)
    return [base + 1 if index < extra else base for index in range(shards)]


def _mix(h: int) -> int:
    """splitmix64-style avalanche so ``hash % shards`` never degenerates
    (small ints hash to themselves; keys that share a residue class would
    otherwise pile onto one shard)."""
    h &= _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def shard_of(value: Any, shards: int) -> int:
    """The shard a key routes to: a pure function of ``(value, shards)``.

    Equal keys must land on the same shard or dedup and probe routing
    break, so numeric keys ride on Python's cross-type hash invariant
    (``hash(1) == hash(1.0) == hash(True)``).  Hostile keys are pinned:

    * ``NaN`` hashes by object identity on Python 3.10+, so two NaN
      payloads would scatter — any non-self-equal value routes to shard 0;
    * ``None`` routes to shard 0 (its hash is process-dependent before
      3.12);
    * ``str``/``bytes`` hashes are ``PYTHONHASHSEED``-randomized, so they
      route through CRC-32 instead — stable across processes;
    * unhashable values route to shard 0 (they can never be stored: a row
      holding one is itself unhashable and cannot enter a SteM).
    """
    if shards <= 1:
        return 0
    if value is None:
        return 0
    try:
        if value != value:  # NaN and friends: never equal to themselves.
            return 0
    except Exception:
        pass  # exotic __eq__ (e.g. array-valued): fall through to hash()
    kind = type(value)
    if kind is str:
        h = zlib.crc32(value.encode("utf-8", "surrogatepass"))
    elif kind is bytes:
        h = zlib.crc32(value)
    else:
        try:
            h = hash(value)
        except TypeError:
            return 0
    return _mix(h) % shards


# -- the shared worker pool -------------------------------------------------------

_pool: ThreadPoolExecutor | None = None
_pool_workers: int | None = None


def configure_shard_pool(workers: int | None) -> None:
    """Set the worker count of the process-wide shard pool.

    ``None`` restores the default (``min(8, cpu_count)``).  An existing
    pool with a different size is shut down and lazily rebuilt.
    """
    global _pool, _pool_workers
    if workers is not None and workers < 1:
        raise ExecutionError(f"shard pool needs >= 1 worker, got {workers}")
    if _pool is not None and workers != _pool_workers:
        _pool.shutdown(wait=True)
        _pool = None
    _pool_workers = workers


def _effective_workers() -> int:
    if _pool_workers is not None:
        return _pool_workers
    return min(8, os.cpu_count() or 1)


def shard_pool() -> ThreadPoolExecutor | None:
    """The process-wide shard executor (lazily created, shared by every
    :class:`PartitionedSteM`), or None on single-worker hosts where thread
    dispatch is pure overhead."""
    global _pool
    workers = _effective_workers()
    if workers <= 1:
        return None
    if _pool is None:
        _pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="stem-shard"
        )
    return _pool


def shutdown_shard_pool(wait: bool = True) -> bool:
    """Shut down the process-wide shard pool and release its threads.

    The pool is shared and lazily rebuilt, so this is always safe: the next
    :func:`shard_pool` call after a shutdown creates a fresh executor with
    the configured worker count.  Engines tearing down durably (service
    shutdown, test teardown) call this so worker threads don't outlive the
    work; it is also registered with :mod:`atexit` as a guard, so an
    interpreter exiting with a live pool joins the workers instead of
    leaking them past the interpreter's own executor shutdown hooks.

    Returns True when a live pool was actually shut down.
    """
    global _pool
    if _pool is None:
        return False
    _pool.shutdown(wait=wait)
    _pool = None
    return True


atexit.register(shutdown_shard_pool)


# -- the partitioned SteM ---------------------------------------------------------

class PartitionedSteM:
    """N shard SteMs behind the single-SteM interface.

    Drop-in for :class:`~repro.core.stem.SteM` wherever the engines touch
    one — :class:`~repro.core.modules.stem_module.SteMModule`, the
    registry, churn admission/retirement — with identical observable
    behaviour (see the module docstring for the routing and merge
    contract).  EOT/coverage state lives on the wrapper: a scan EOT seals
    the whole logical SteM exactly as it seals a single-shard one, and any
    shard eviction clears it again.

    Args:
        table / aliases / join_columns / index_kind / max_size / columnar /
            name: as for :class:`SteM`; each shard is constructed with the
            same configuration (``max_size`` bounds each shard).
        eviction: policy name or instance; each shard gets its own policy
            object (instances are shared — policies are stateless over the
            row store).  Reference-tracking policies are rejected.
        window: time-window width for ``eviction="time-window"``.
        shards: shard count (>= 2; use :func:`partitioned_stem` to fall
            back to a plain SteM for 1).
        partition_column: routing key; defaults to the first join column.
            Without one (no join columns), builds route by whole-row
            content hash and every probe fans out.
    """

    def __init__(
        self,
        table: str,
        aliases: Sequence[str],
        join_columns: Sequence[str] = (),
        index_kind: str = "hash",
        max_size: int | None = None,
        eviction: EvictionPolicy | str | None = None,
        window: float | None = None,
        columnar: bool | None = None,
        name: str | None = None,
        shards: int = 2,
        partition_column: str | None = None,
    ):
        if shards < 2:
            raise ExecutionError(
                f"PartitionedSteM needs shards >= 2, got {shards} "
                "(use partitioned_stem() to fall back to a plain SteM)"
            )
        self.table = table
        self.aliases = tuple(aliases) if aliases else (table,)
        self.join_columns = tuple(join_columns)
        self.index_kind = index_kind
        self.max_size = max_size
        self.name = name or f"stem:{table}"
        self.shards = shards
        self.partition_column = (
            partition_column
            if partition_column is not None
            else (self.join_columns[0] if self.join_columns else None)
        )
        #: Position of the partition column in the stored rows' schema;
        #: resolved on the first build (False = unresolved sentinel, None =
        #: no positional routing, hash the whole row).
        self._partition_pos: int | None | bool = False
        # A row-count bound is on the logical SteM's state, so each shard
        # gets its exact slice of it (the first ``max_size % shards`` shards
        # take the extra row, so the shard capacities sum to ``max_size``).
        # Time windows are build-timestamp widths — global timestamps make a
        # per-shard window mean exactly what the single-shard window means.
        shard_bounds = (
            [None] * shards
            if max_size is None
            else shard_count_bounds(max_size, shards)
        )
        self._shards: list[SteM] = []
        for index in range(shards):
            if isinstance(eviction, EvictionPolicy):
                policy = self._shard_policy(eviction, index)
            else:
                policy = make_eviction_policy(
                    eviction, max_size=shard_bounds[index], window=window
                )
            self._check_policy(policy)
            self._shards.append(
                SteM(
                    table=table,
                    aliases=self.aliases,
                    join_columns=self.join_columns,
                    index_kind=index_kind,
                    max_size=shard_bounds[index],
                    eviction=policy,
                    columnar=columnar,
                    name=f"{self.name}#{index}",
                )
            )
        self.eviction = self._shards[0].eviction
        self.columnar = self._shards[0].columnar
        # Wrapper-level EOT/coverage state: sealing semantics are a property
        # of the logical SteM, not of any one shard.
        self._scan_complete: set[str] = set()
        self._eot_keys: dict[tuple[str, ...], set[tuple[Any, ...]]] = {}
        self._evict_listeners: list = []
        # Wrapper-level build/EOT listeners: durability observers see one
        # logical SteM, not N shards (shard-level listeners would double the
        # bookkeeping and leak the shard split into the WAL).
        self._build_listeners: list = []
        self._eot_listeners: list = []
        self._row_schema: Schema | None = None
        #: Wrapper-level counters; build/duplicate/eviction counts live in
        #: the shards and are rolled up by :attr:`stats`.
        self._local_stats: dict[str, int] = {
            "probes": 0,
            "matches": 0,
            "eot_builds": 0,
        }
        for shard in self._shards:
            shard.add_evict_listener(self._on_shard_evict)

    @staticmethod
    def _check_policy(policy: EvictionPolicy | None) -> None:
        if policy is not None and policy.tracks_references:
            raise ExecutionError(
                "reference-window (LRU) eviction reorders the row store and "
                "is row-plane/single-shard only; create the SteM with "
                "shards=1 (the partitioned_stem factory does this for you)"
            )

    def _shard_policy(
        self, policy: EvictionPolicy | None, index: int
    ) -> EvictionPolicy | None:
        """The per-shard equivalent of a logical-SteM policy instance.

        A count bound is divided exactly across the shards
        (:func:`shard_count_bounds`); window policies (and anything else
        stateless) are shared as-is — build timestamps are global, so a
        per-shard time window expires exactly the rows the single shard's
        would.
        """
        if isinstance(policy, CountEviction):
            return CountEviction(
                shard_count_bounds(policy.max_size, self.shards)[index]
            )
        return policy

    # -- sharing ----------------------------------------------------------------

    def add_alias(self, alias: str) -> None:
        if alias not in self.aliases:
            self.aliases = self.aliases + (alias,)
        for shard in self._shards:
            shard.add_alias(alias)

    def remove_alias(self, alias: str) -> None:
        if alias in self.aliases:
            self.aliases = tuple(a for a in self.aliases if a != alias)
        for shard in self._shards:
            shard.remove_alias(alias)

    def ensure_join_columns(self, columns: Iterable[str]) -> None:
        columns = tuple(columns)
        for shard in self._shards:
            shard.ensure_join_columns(columns)
        for column in columns:
            if column not in self.join_columns:
                self.join_columns = self.join_columns + (column,)

    def drop_join_column(self, column: str) -> bool:
        dropped = False
        for shard in self._shards:
            dropped = shard.drop_join_column(column) or dropped
        self.join_columns = tuple(c for c in self.join_columns if c != column)
        return dropped

    @property
    def index_epoch(self) -> int:
        """Sum of the shard epochs (moves whenever any shard's index set
        changes, like the single-shard epoch)."""
        return sum(shard.index_epoch for shard in self._shards)

    # -- routing ----------------------------------------------------------------

    def shard_for_value(self, value: Any) -> int:
        """The shard a partition-key value routes to."""
        return shard_of(value, self.shards)

    def _route_row(self, row: Row) -> int:
        position = self._partition_pos
        if position is False:
            position = self._resolve_partition_position(row)
        if position is None:
            return shard_of(row, self.shards)
        return shard_of(row.values[position], self.shards)

    def _resolve_partition_position(self, row: Row) -> int | None:
        if self.partition_column is None:
            self._partition_pos = None
            return None
        try:
            position = row.schema.position(self.partition_column)
        except Exception:
            position = None
        self._partition_pos = position
        return position

    def _route_plan(self, plan: ProbePlan, binding_values) -> int | None:
        """The single shard a compiled probe routes to, or None (fan out).

        A probe routes iff its plan binds the partition column by equality
        — then every stored row it can match carries that key and lives in
        exactly one shard.
        """
        if binding_values is None or self.partition_column is None:
            return None
        try:
            position = plan.binding_columns.index(self.partition_column)
        except ValueError:
            return None
        return shard_of(binding_values[position], self.shards)

    def _route_bindings(self, bindings: Mapping[str, Any] | None) -> int | None:
        """Interpreted-path routing: derived equality bindings → shard."""
        if not bindings or self.partition_column is None:
            return None
        if self.partition_column not in bindings:
            return None
        return shard_of(bindings[self.partition_column], self.shards)

    # -- build ------------------------------------------------------------------

    def build(self, row: Row, timestamp: float) -> BuildOutcome:
        if row.table != self.table:
            raise ExecutionError(
                f"cannot build a {row.table!r} row into the SteM on {self.table!r}"
            )
        if self._row_schema is None:
            self._row_schema = row.schema
        outcome = self._shards[self._route_row(row)].build(row, timestamp)
        for listener in self._build_listeners:
            listener(row, outcome.timestamp, outcome.duplicate)
        return outcome

    def build_batch(
        self, rows: Sequence[Row], timestamps: Sequence[float]
    ) -> list[BuildOutcome]:
        build = self.build
        return [build(row, timestamp) for row, timestamp in zip(rows, timestamps)]

    def build_eot(self, eot: EOTTuple) -> None:
        if eot.table != self.table:
            raise ExecutionError(
                f"EOT for table {eot.table!r} routed to the SteM on {self.table!r}"
            )
        self._local_stats["eot_builds"] += 1
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
        enforce_timestamp: bool = True,
        update_last_match: bool = False,
    ) -> ProbeOutcome:
        """Interpreted probe over the shards (single-shard semantics)."""
        if target_alias in probe.aliases:
            raise ExecutionError(
                f"probe already spans {target_alias!r}; cannot probe {self.name}"
            )
        if target_alias not in self.aliases:
            raise ExecutionError(
                f"alias {target_alias!r} is not served by {self.name}"
            )
        self._local_stats["probes"] += 1
        bindings = derive_probe_bindings(probe, target_alias, predicates)
        floor = probe.last_match_ts.get(self.name, float("-inf"))
        shard_id = self._route_bindings(bindings)
        if shard_id is not None:
            matches, examined = self._shards[shard_id].collect_probe_matches(
                probe, target_alias, predicates, floor, bindings
            )
        else:
            collected = [
                shard.collect_probe_matches(
                    probe, target_alias, predicates, floor, bindings
                )
                for shard in self._shards
            ]
            matches = self._merge([m for m, _ in collected])
            examined = sum(count for _, count in collected)
        return self._finalize(
            probe,
            target_alias,
            matches,
            examined,
            done_mask_of(predicates),
            self.covers(bindings),
            enforce_timestamp,
            update_last_match,
            floor,
        )

    def probe_with_plan(
        self,
        probe: QTuple,
        plan: ProbePlan,
        enforce_timestamp: bool = True,
        update_last_match: bool = False,
    ) -> ProbeOutcome:
        """Compiled probe: route by the plan's partition-key binding, or
        fan out and merge (see the module docstring's contract)."""
        target_alias = plan.target_alias
        if target_alias in probe.aliases:
            raise ExecutionError(
                f"probe already spans {target_alias!r}; cannot probe {self.name}"
            )
        if target_alias not in self.aliases:
            raise ExecutionError(
                f"alias {target_alias!r} is not served by {self.name}"
            )
        self._local_stats["probes"] += 1
        self._prepare_plan(plan)
        binding_values = plan.bind_values(probe.components)
        floor = probe.last_match_ts.get(self.name, float("-inf"))
        shard_id = self._route_plan(plan, binding_values)
        if shard_id is not None:
            matches, examined = self._shards[shard_id].collect_plan_matches(
                probe, plan, floor
            )
        else:
            matches, examined = self._collect_fanout(probe, plan, floor)
        return self._finalize(
            probe,
            target_alias,
            matches,
            examined,
            plan.done_mask,
            self.covers(plan.bindings_mapping(binding_values)),
            enforce_timestamp,
            update_last_match,
            floor,
        )

    def probe_batch(
        self,
        probes: Sequence[QTuple],
        plan: ProbePlan,
        enforce_timestamp: bool = True,
        update_last_match: bool = False,
    ) -> list[ProbeOutcome]:
        """Probe a delivered batch, collecting shard groups concurrently.

        Probes are routed first (on the calling thread), grouped by
        destination shard — fan-out probes join every group — and each
        shard's group is collected in one worker task: one thread per
        shard, so shard state is never touched concurrently.  Outcomes are
        assembled on the calling thread in probe order, so results, tuple
        ids and traces are identical to the serial path.
        """
        pool = shard_pool() if self._parallel_eligible(plan) else None
        if pool is None or len(probes) == 1:
            probe = self.probe_with_plan
            return [
                probe(item, plan, enforce_timestamp, update_last_match)
                for item in probes
            ]
        self._prepare_plan(plan)
        name = self.name
        bindings: list = []
        floors: list[float] = []
        routes: list[int | None] = []
        groups: dict[int, list[int]] = {}
        for position, item in enumerate(probes):
            values = plan.bind_values(item.components)
            bindings.append(values)
            floors.append(item.last_match_ts.get(name, float("-inf")))
            route = self._route_plan(plan, values)
            routes.append(route)
            targets = range(self.shards) if route is None else (route,)
            for shard_id in targets:
                groups.setdefault(shard_id, []).append(position)

        def collect_group(shard_id: int, positions: list[int]):
            shard = self._shards[shard_id]
            return {
                position: shard.collect_plan_matches(
                    probes[position], plan, floors[position]
                )
                for position in positions
            }

        futures = {
            shard_id: pool.submit(collect_group, shard_id, positions)
            for shard_id, positions in groups.items()
        }
        collected = {shard_id: future.result() for shard_id, future in futures.items()}

        self._local_stats["probes"] += len(probes)
        outcomes: list[ProbeOutcome] = []
        for position, item in enumerate(probes):
            route = routes[position]
            if route is not None:
                matches, examined = collected[route][position]
            else:
                per_shard = [
                    collected[shard_id][position] for shard_id in range(self.shards)
                ]
                matches = self._merge([m for m, _ in per_shard])
                examined = sum(count for _, count in per_shard)
            outcomes.append(
                self._finalize(
                    item,
                    plan.target_alias,
                    matches,
                    examined,
                    plan.done_mask,
                    self.covers(plan.bindings_mapping(bindings[position])),
                    enforce_timestamp,
                    update_last_match,
                    floors[position],
                )
            )
        return outcomes

    def _parallel_eligible(self, plan: ProbePlan) -> bool:
        """Concurrent shard collection is worth it only when the shard
        kernels release the GIL (numpy columnar) and the plan has no
        generic per-element predicates (those run interpreted Python).

        A shard builds its mirror at its first kernel-sized collection; the
        pool is used only once every shard holds one, so a mirror is never
        built off the calling thread."""
        if plan.generic_predicates:
            return False
        return all(
            shard._col is not None and shard._col.backend == "numpy"
            for shard in self._shards
        )

    def _collect_fanout(
        self, probe: QTuple, plan: ProbePlan, floor: float
    ) -> tuple[list[tuple[Row, float]], int]:
        """Collect one probe's raw matches from every shard and merge."""
        pool = shard_pool() if self._parallel_eligible(plan) else None
        if pool is None:
            collected = [
                shard.collect_plan_matches(probe, plan, floor)
                for shard in self._shards
            ]
        else:
            futures = [
                pool.submit(shard.collect_plan_matches, probe, plan, floor)
                for shard in self._shards
            ]
            collected = [future.result() for future in futures]
        matches = self._merge([m for m, _ in collected])
        examined = sum(count for _, count in collected)
        return matches, examined

    @staticmethod
    def _merge(
        per_shard: Sequence[list[tuple[Row, float]]]
    ) -> list[tuple[Row, float]]:
        """Timestamp-ordered k-way merge of per-shard match lists.

        Build timestamps are globally monotone and each shard's matches
        are in its insertion order, so merging by timestamp (shard id
        breaking the ties unit tests can manufacture) reconstructs the
        exact single-shard candidate order.
        """
        live = [m for m in per_shard if m]
        if not live:
            return []
        if len(live) == 1:
            return live[0]
        return list(heapq.merge(*live, key=lambda match: match[1]))

    def _prepare_plan(self, plan: ProbePlan) -> None:
        """Finish/warm the shared plan on the calling thread so worker
        threads only read it."""
        if plan.cmp_checks is None:
            schema = self.row_schema
            if schema is not None:
                plan.finish(schema)
        plan.vector()

    def _finalize(
        self,
        probe: QTuple,
        target_alias: str,
        matches: Sequence[tuple[Row, float]],
        examined: int,
        done_mask: int,
        all_matches_known: bool,
        enforce_timestamp: bool,
        update_last_match: bool,
        floor: float,
    ) -> ProbeOutcome:
        """Apply the TimeStamp tail and extend survivors, in merged order
        on the calling thread (tuple-id allocation must be deterministic)."""
        outcome = ProbeOutcome()
        results = outcome.results
        probe_timestamp = probe.timestamp
        extend = None  # the probe's extension template, taken at the first match
        suppressed = 0
        for row, row_timestamp in matches:
            if enforce_timestamp and not probe_timestamp > row_timestamp:
                suppressed += 1
                continue
            if extend is None:
                extend = probe.extender(target_alias, done_mask)
            results.append(extend(row, row_timestamp))
        outcome.candidates_examined = examined
        outcome.suppressed_by_timestamp = suppressed
        outcome.all_matches_known = all_matches_known
        self._local_stats["matches"] += len(results)
        if update_last_match:
            max_timestamp = self.max_timestamp
            if max_timestamp is not None:
                probe.set_last_match(self.name, max(floor, max_timestamp))
        return outcome

    # -- EOT coverage -------------------------------------------------------------

    def covers(self, bindings: Mapping[str, Any] | None) -> bool:
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
        return bool(self._scan_complete)

    # -- eviction ----------------------------------------------------------------

    def set_eviction(self, policy: EvictionPolicy | None) -> None:
        """Install the per-shard equivalent of ``policy`` on every shard
        (count bounds divide across shards; window policies are stateless
        and shared).  Reference-tracking policies are rejected — they need
        the single-shard row plane."""
        self._check_policy(policy)
        self.eviction = policy
        for index, shard in enumerate(self._shards):
            shard.set_eviction(self._shard_policy(policy, index))

    def add_evict_listener(self, callback) -> None:
        self._evict_listeners.append(callback)

    def remove_evict_listener(self, callback) -> bool:
        try:
            self._evict_listeners.remove(callback)
        except ValueError:
            return False
        return True

    def add_build_listener(self, callback) -> None:
        """Register a ``(row, timestamp, duplicate)`` callback (wrapper
        level: one notification per logical build, whichever shard stored
        the row)."""
        self._build_listeners.append(callback)

    def remove_build_listener(self, callback) -> bool:
        try:
            self._build_listeners.remove(callback)
        except ValueError:
            return False
        return True

    def add_eot_listener(self, callback) -> None:
        """Register a callback invoked with every EOT built (wrapper level)."""
        self._eot_listeners.append(callback)

    def remove_eot_listener(self, callback) -> bool:
        try:
            self._eot_listeners.remove(callback)
        except ValueError:
            return False
        return True

    def _on_shard_evict(self, row: Row) -> None:
        # Coverage is a wrapper-level claim over all shards; any dropped
        # row invalidates it, exactly as on a single-shard SteM.
        self._scan_complete.clear()
        self._eot_keys.clear()
        for listener in self._evict_listeners:
            listener(row)

    def evict(self, row: Row) -> bool:
        if row.table != self.table:
            return False
        return self._shards[self._route_row(row)].evict(row)

    # -- introspection -------------------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Rolled-up counters in the single-SteM stats schema, plus the
        shard count.  Use :meth:`shard_stats` for the per-shard split."""
        totals = {
            "builds": 0,
            "duplicates": 0,
            "probes": self._local_stats["probes"],
            "matches": self._local_stats["matches"],
            "evictions": 0,
            "eot_builds": self._local_stats["eot_builds"],
            # Counted per shard collection: a fan-out probe adds one per shard.
            "row_probes": 0,
            "columnar_probes": 0,
            "mirror_builds": 0,
        }
        for shard in self._shards:
            stats = shard.stats
            for name in (
                "builds", "duplicates", "evictions",
                "row_probes", "columnar_probes", "mirror_builds",
            ):
                totals[name] += stats[name]
        totals["shards"] = self.shards
        return totals

    def shard_stats(self) -> list[dict[str, int]]:
        """Each shard's raw counter dict, in shard order."""
        return [dict(shard.stats) for shard in self._shards]

    @property
    def shard_modules(self) -> tuple[SteM, ...]:
        """The shard SteMs, in shard order (read-only introspection)."""
        return tuple(self._shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, row: object) -> bool:
        if not isinstance(row, Row) or row.table != self.table:
            return False
        return row in self._shards[self._route_row(row)]

    def __iter__(self) -> Iterator[Row]:
        entries: list[tuple[float, int, Row]] = []
        for shard_id, shard in enumerate(self._shards):
            entries.extend(
                (timestamp, shard_id, row) for row, timestamp in shard._rows.items()
            )
        entries.sort(key=lambda entry: entry[:2])
        return iter([row for _, _, row in entries])

    def timestamp_of(self, row: Row) -> float | None:
        if row.table != self.table:
            return None
        return self._shards[self._route_row(row)].timestamp_of(row)

    # -- durability ----------------------------------------------------------------

    def state_entries(self) -> list[tuple[Row, float]]:
        """Stored ``(row, build_timestamp)`` pairs in global timestamp order.

        Build timestamps are globally monotone, so the timestamp-sorted
        union of the shard stores is the logical SteM's insertion order;
        rebuilding an empty partitioned SteM by calling :meth:`build` over
        these entries reproduces every shard (routing is a pure function of
        the row), and with it any columnar mirror a shard later builds.
        """
        entries: list[tuple[float, int, Row]] = []
        for shard_id, shard in enumerate(self._shards):
            entries.extend(
                (timestamp, shard_id, row) for row, timestamp in shard._rows.items()
            )
        entries.sort(key=lambda entry: entry[:2])
        return [(row, timestamp) for timestamp, _, row in entries]

    def coverage_state(self) -> tuple[set[str], dict[tuple[str, ...], set[tuple[Any, ...]]]]:
        """Copy of the wrapper-level EOT coverage state."""
        return (
            set(self._scan_complete),
            {columns: set(values) for columns, values in self._eot_keys.items()},
        )

    def restore_coverage(
        self,
        scan_complete: Iterable[str],
        eot_keys: Mapping[tuple[str, ...], Iterable[tuple[Any, ...]]],
    ) -> None:
        """Reinstall wrapper-level EOT coverage (see
        :meth:`repro.core.stem.SteM.restore_coverage`)."""
        self._scan_complete.update(scan_complete)
        for columns, values in eot_keys.items():
            self._eot_keys.setdefault(tuple(columns), set()).update(
                tuple(value) for value in values
            )

    @property
    def row_schema(self) -> Schema | None:
        if self._row_schema is None:
            for shard in self._shards:
                schema = shard.row_schema
                if schema is not None:
                    self._row_schema = schema
                    break
        return self._row_schema

    @property
    def min_timestamp(self) -> float | None:
        values = [
            shard.min_timestamp
            for shard in self._shards
            if shard.min_timestamp is not None
        ]
        return min(values) if values else None

    @property
    def max_timestamp(self) -> float | None:
        values = [
            shard.max_timestamp
            for shard in self._shards
            if shard.max_timestamp is not None
        ]
        return max(values) if values else None

    def __repr__(self) -> str:
        return (
            f"PartitionedSteM({self.table}, shards={self.shards}, "
            f"rows={len(self)}, key={self.partition_column!r}, "
            f"scan_complete={self.scan_complete})"
        )


def partitioned_stem(
    table: str,
    aliases: Sequence[str],
    join_columns: Sequence[str] = (),
    index_kind: str = "hash",
    max_size: int | None = None,
    eviction: EvictionPolicy | str | None = None,
    window: float | None = None,
    columnar: bool | None = None,
    name: str | None = None,
    shards: int | None = None,
) -> SteM | PartitionedSteM:
    """SteM factory honouring a shard count.

    ``shards`` of None resolves through :func:`default_shards`; 1 (or a
    reference-window eviction policy, which needs the single-shard row
    plane) returns a plain :class:`SteM` with zero wrapper overhead —
    the exact PR 7 code path.
    """
    if shards is None:
        shards = default_shards()
    policy = (
        eviction
        if isinstance(eviction, EvictionPolicy)
        else make_eviction_policy(eviction, max_size=max_size, window=window)
    )
    if shards <= 1 or (policy is not None and policy.tracks_references):
        return SteM(
            table=table,
            aliases=aliases,
            join_columns=join_columns,
            index_kind=index_kind,
            max_size=max_size,
            eviction=policy,
            columnar=columnar,
            name=name,
        )
    return PartitionedSteM(
        table=table,
        aliases=aliases,
        join_columns=join_columns,
        index_kind=index_kind,
        max_size=max_size,
        eviction=policy,
        window=window,
        columnar=columnar,
        name=name,
        shards=shards,
    )
