"""A registry of SteMs shared across concurrent queries.

Paper §2.1.4: "SteMs on relations that are accessed by multiple queries can
be shared" — the property the continuous-query line the paper cites (CACQ,
PSoUP) builds on, and the reason SteMs carry the multi-alias and
eviction hooks.  The registry is the multi-query engine's source of SteMs:
one per base table, created on first use and extended (aliases, secondary
join-column indexes) as later queries are admitted.

Responsibilities:

* **get-or-create** a SteM per table (:meth:`SteMRegistry.stem_for`),
  merging every admitted query's aliases and join columns into it;
* **reference counting** — every owner-attributed acquisition records which
  tables, aliases and join columns a query depends on, and
  :meth:`SteMRegistry.release` reclaims whatever the departing query was
  the last user of: the whole SteM when its table refcount hits zero, or
  just the secondary indexes (and aliases) only that query's bindings
  needed.  This is what makes runtime query *retirement* leak-free;
* **liveness broadcast** — when a shared SteM seals (any query's scan EOT),
  *every* attached eddy's destination-signature cache must be invalidated,
  not just the eddy that routed the EOT;
* **eviction configuration** — the per-table eviction policy (count,
  time-window, reference-window; see :mod:`repro.core.stem`) lives here, so
  the window under which a table's shared state is bounded is a property of
  the *service*, not of any one query;
* **aggregate accounting** — how many builds actually inserted rows versus
  arriving as cross-query duplicates, the counter the shared-vs-private
  ablation benchmark asserts on.  Reclaimed SteMs fold their counters into
  :attr:`SteMRegistry.reclaimed_stats` so totals survive reclamation.

Self-joins stay private: a query referencing a table under two aliases needs
two timestamp-distinct copies of each row for the TimeStamp constraint to
produce the diagonal matches exactly once, so the engine gives such aliases
private SteMs and shares only single-reference tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.partition import partitioned_stem
from repro.core.stem import EvictionPolicy, SteM, make_eviction_policy


def stem_build_totals(stems: Iterable[SteM]) -> dict[str, int]:
    """Aggregate build/probe counters over a collection of SteMs.

    ``insertions`` (builds that actually stored a row and updated the
    indexes) is the work-saved metric of sharing: with N queries over one
    table it stays at one table's worth, while the private configuration
    pays it N times.
    """
    totals = {"builds": 0, "insertions": 0, "duplicates": 0, "probes": 0}
    for stem in stems:
        totals["builds"] += stem.stats["builds"]
        totals["duplicates"] += stem.stats["duplicates"]
        totals["insertions"] += stem.stats["builds"] - stem.stats["duplicates"]
        totals["probes"] += stem.stats["probes"]
    return totals


def merge_stem_totals(totals: dict[str, int], stats: Mapping[str, int]) -> None:
    """Fold one SteM's raw ``stats`` counters into a totals dict in place."""
    totals["builds"] += stats.get("builds", 0)
    totals["duplicates"] += stats.get("duplicates", 0)
    totals["insertions"] += stats.get("builds", 0) - stats.get("duplicates", 0)
    totals["probes"] += stats.get("probes", 0)


@dataclass(frozen=True)
class EvictionConfig:
    """One table's eviction configuration.

    Attributes:
        kind: policy name (``"count"``, ``"time-window"``,
            ``"reference-window"``) or None for unbounded state.
        max_size: row bound for count/reference-window policies.
        window: build-timestamp width for the time-window policy.
    """

    kind: str | None = None
    max_size: int | None = None
    window: float | None = None

    def build_policy(self) -> EvictionPolicy | None:
        """Instantiate a fresh policy for one SteM (policies hold no state
        outside the SteM's row store, but each SteM gets its own object)."""
        return make_eviction_policy(self.kind, max_size=self.max_size, window=self.window)


class SteMRegistry:
    """One shared SteM per base table, for multi-query execution.

    Args:
        index_kind: secondary-index implementation inside the SteMs.
        max_size: optional per-SteM row bound; with the default ``eviction``
            of None this selects count-bounded FIFO eviction (the historical
            CACQ/PSoUP sliding-window hook).
        eviction: default eviction-policy name applied to every table that
            has no :meth:`configure_table` override.
        window: build-timestamp window width for ``eviction="time-window"``.
        columnar: maintain the columnar mirror on every shared SteM (None
            follows the ``REPRO_COLUMNAR_BACKEND`` environment setting).
        shards: hash-partition every shared SteM across this many shard
            SteMs (:class:`~repro.core.partition.PartitionedSteM`).  None
            follows the ``REPRO_SHARDS`` environment setting; 1 keeps the
            plain single-shard SteM.  Bounded tables (any eviction policy)
            always stay single-shard.
    """

    def __init__(
        self,
        index_kind: str = "hash",
        max_size: int | None = None,
        eviction: str | None = None,
        window: float | None = None,
        columnar: bool | None = None,
        shards: int | None = None,
    ):
        self.index_kind = index_kind
        self.max_size = max_size
        self.columnar = columnar
        self.shards = shards
        self._default_eviction = EvictionConfig(eviction, max_size, window)
        self._eviction_overrides: dict[str, EvictionConfig] = {}
        self._stems: dict[str, SteM] = {}
        self._runtimes: list = []
        #: Reference counts, maintained only for owner-attributed
        #: acquisitions (:meth:`stem_for` with a non-empty ``owner``).
        self._table_refs: dict[str, int] = {}
        self._alias_refs: dict[str, dict[str, int]] = {}
        self._column_refs: dict[str, dict[str, int]] = {}
        #: owner -> list of (table, alias, columns) acquisitions to undo.
        self._owner_refs: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {}
        #: Tables acquired at least once *without* an owner: pinned forever
        #: (their anonymous users' aliases/columns were never refcounted, so
        #: neither reclamation nor index/alias dropping is safe for them).
        self._pinned: set[str] = set()
        #: Counters of SteMs torn down by :meth:`release`, keyed by SteM
        #: name, so run-level totals survive reclamation.
        self.reclaimed_stats: dict[str, dict[str, int]] = {}
        self.stats: dict[str, int] = {
            "stems": 0,
            "attachments": 0,
            "broadcasts": 0,
            "releases": 0,
            "reclaimed": 0,
            "indexes_dropped": 0,
        }

    # -- eviction configuration ---------------------------------------------------

    def configure_table(
        self,
        table: str,
        eviction: str | None = None,
        max_size: int | None = None,
        window: float | None = None,
    ) -> None:
        """Set one table's eviction policy (overriding the registry default).

        Takes effect when the table's SteM is (re)created; an already-live
        SteM swaps its policy immediately, applying the new bound on the
        next build.
        """
        config = EvictionConfig(eviction, max_size, window)
        self._eviction_overrides[table] = config
        stem = self._stems.get(table)
        if stem is not None:
            stem.set_eviction(config.build_policy())

    def eviction_config(self, table: str) -> EvictionConfig:
        """The eviction configuration a table's SteM is created with."""
        return self._eviction_overrides.get(table, self._default_eviction)

    # -- SteM management --------------------------------------------------------

    def stem_for(
        self,
        table: str,
        alias: str,
        join_columns: Iterable[str] = (),
        owner: str = "",
    ) -> SteM:
        """The shared SteM for a base table, extended for one query's view.

        The first query to touch a table creates its SteM (named after the
        table, not the alias); later queries reuse it, registering their
        alias and backfilling indexes on any new join columns.  When
        ``owner`` (the acquiring query's id) is given, the acquisition is
        reference-counted so :meth:`release` can undo it; anonymous
        acquisitions pin the SteM forever (the pre-churn behaviour).
        """
        columns = tuple(join_columns)
        config = self.eviction_config(table)
        stem = self._stems.get(table)
        if stem is None:
            stem = partitioned_stem(
                table=table,
                aliases=(alias,),
                join_columns=columns,
                index_kind=self.index_kind,
                max_size=config.max_size,
                eviction=config.build_policy(),
                window=config.window,
                columnar=self.columnar,
                name=f"stem:{table}",
                shards=self.shards,
            )
            self._stems[table] = stem
            self.stats["stems"] += 1
        else:
            stem.add_alias(alias)
            stem.ensure_join_columns(columns)
        self.stats["attachments"] += 1
        if owner:
            self._table_refs[table] = self._table_refs.get(table, 0) + 1
            alias_refs = self._alias_refs.setdefault(table, {})
            alias_refs[alias] = alias_refs.get(alias, 0) + 1
            column_refs = self._column_refs.setdefault(table, {})
            for column in columns:
                column_refs[column] = column_refs.get(column, 0) + 1
            self._owner_refs.setdefault(owner, []).append((table, alias, columns))
        else:
            self._pinned.add(table)
        return stem

    def release(self, owner: str) -> list[str]:
        """Drop every reference ``owner`` (a retiring query) acquired.

        Returns the names of the tables whose SteMs were reclaimed outright
        (refcount hit zero).  For tables that stay referenced, the aliases
        and secondary indexes only the retiring query needed are dropped —
        ``index_epoch`` moves, so surviving queries' compiled probe plans
        re-resolve against the remaining indexes.
        """
        acquisitions = self._owner_refs.pop(owner, [])
        if not acquisitions:
            return []
        self.stats["releases"] += 1
        reclaimed: list[str] = []
        for table, alias, columns in acquisitions:
            remaining = self._table_refs.get(table, 0) - 1
            self._table_refs[table] = remaining
            alias_refs = self._alias_refs.get(table, {})
            column_refs = self._column_refs.get(table, {})
            if alias in alias_refs:
                alias_refs[alias] -= 1
            for column in columns:
                if column in column_refs:
                    column_refs[column] -= 1
            stem = self._stems.get(table)
            if stem is None:
                continue
            if table in self._pinned:
                # An anonymous acquisition holds this SteM; its user's
                # aliases/columns were never refcounted, so nothing may be
                # dropped on its behalf.
                continue
            if remaining <= 0:
                # Last reference: reclaim the whole SteM (rows, indexes,
                # EOT state).  Its counters fold into the reclaimed totals.
                counters = {
                    key: value
                    for key, value in stem.stats.items()
                    if isinstance(value, int)
                }
                bucket = self.reclaimed_stats.setdefault(
                    stem.name, {key: 0 for key in counters}
                )
                for key, value in counters.items():
                    bucket[key] = bucket.get(key, 0) + value
                del self._stems[table]
                self._table_refs.pop(table, None)
                self._alias_refs.pop(table, None)
                self._column_refs.pop(table, None)
                self.stats["reclaimed"] += 1
                reclaimed.append(table)
                continue
            for column, count in list(column_refs.items()):
                if count <= 0:
                    del column_refs[column]
                    if stem.drop_join_column(column):
                        self.stats["indexes_dropped"] += 1
            for name, count in list(alias_refs.items()):
                if count <= 0:
                    del alias_refs[name]
                    stem.remove_alias(name)
        return reclaimed

    def refcount(self, table: str) -> int:
        """Owner-attributed references currently held on a table's SteM."""
        return self._table_refs.get(table, 0)

    @property
    def owners(self) -> tuple[str, ...]:
        """Owners (query ids) currently holding references."""
        return tuple(self._owner_refs)

    @property
    def stems(self) -> dict[str, SteM]:
        """The shared SteMs, keyed by table name."""
        return dict(self._stems)

    def __len__(self) -> int:
        return len(self._stems)

    def __contains__(self, table: object) -> bool:
        return table in self._stems

    # -- liveness broadcast ------------------------------------------------------

    def attach_runtime(self, runtime) -> None:
        """Register an eddy to receive cross-query liveness notifications."""
        self._runtimes.append(runtime)

    def detach_runtime(self, runtime) -> bool:
        """Unregister a retiring eddy from liveness broadcasts."""
        try:
            self._runtimes.remove(runtime)
        except ValueError:
            return False
        return True

    def broadcast_liveness_change(self) -> None:
        """A shared SteM's liveness changed: tell every attached eddy.

        A seal observed through one query's dataflow changes probe coverage
        for *all* queries on that table, so every destination-signature
        cache is dropped, not only the routing eddy's.
        """
        self.stats["broadcasts"] += 1
        for runtime in self._runtimes:
            notice = getattr(runtime, "notice_liveness_change", None)
            if notice is not None:
                notice()

    def __repr__(self) -> str:
        return f"SteMRegistry(tables={sorted(self._stems)})"
