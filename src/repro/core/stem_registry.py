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
* **reference counting** — every acquisition records which tables, aliases
  and join columns its owner (a query, or a restore in progress) depends
  on, and
  :meth:`SteMRegistry.release` reclaims whatever the departing query was
  the last user of: the whole SteM when its table refcount hits zero, or
  just the secondary indexes (and aliases) only that query's bindings
  needed.  This is what makes runtime query *retirement* leak-free;
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
class SteMBound:
    """How every SteM of a run bounds its state.  Construction runs
    :func:`~repro.core.stem.make_eviction_policy`'s spec check, so a bound
    its policy does not read fails before any SteM exists.

    Attributes:
        eviction: policy name (``"count"``, ``"time-window"``,
            ``"reference-window"``), or None: count-FIFO iff ``max_size``
            is set, unbounded state otherwise.
        max_size: row bound for count/reference-window policies.
        window: build-timestamp width for the time-window policy.
    """

    eviction: str | None = None
    max_size: int | None = None
    window: float | None = None

    def __post_init__(self) -> None:
        self.policy()

    def policy(self) -> EvictionPolicy | None:
        """A fresh policy for one SteM (policies hold no state outside the
        SteM's row store, but each SteM gets its own object)."""
        return make_eviction_policy(self.eviction, max_size=self.max_size, window=self.window)


class SteMRegistry:
    """One shared SteM per base table, for multi-query execution.

    Args:
        max_size: optional per-SteM row bound; with the default ``eviction``
            of None this selects count-bounded FIFO eviction (the historical
            CACQ/PSoUP sliding-window hook).
        eviction: eviction-policy name applied to every table's SteM.
        window: build-timestamp window width for ``eviction="time-window"``.
    """

    def __init__(
        self,
        max_size: int | None = None,
        eviction: str | None = None,
        window: float | None = None,
    ):
        self._bound = SteMBound(eviction, max_size, window)
        self._stems: dict[str, SteM] = {}
        #: Reference counts of :meth:`stem_for` acquisitions.
        self._table_refs: dict[str, int] = {}
        self._alias_refs: dict[str, dict[str, int]] = {}
        self._column_refs: dict[str, dict[str, int]] = {}
        #: owner -> list of (table, alias, columns) acquisitions to undo.
        self._owner_refs: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {}
        #: Counters of SteMs torn down by :meth:`release`, keyed by SteM
        #: name, so run-level totals survive reclamation.
        self.reclaimed_stats: dict[str, dict[str, int]] = {}
        self.stats: dict[str, int] = {
            "stems": 0,
            "attachments": 0,
            "releases": 0,
            "reclaimed": 0,
            "indexes_dropped": 0,
        }

    # -- SteM management --------------------------------------------------------

    def stem_for(
        self,
        table: str,
        alias: str,
        join_columns: Iterable[str] = (),
        *,
        owner: str,
    ) -> SteM:
        """The shared SteM for a base table, extended for one query's view.

        The first query to touch a table creates its SteM (named after the
        table, not the alias); later queries reuse it, registering their
        alias and backfilling indexes on any new join columns.  The
        acquisition is reference-counted under ``owner`` (the acquiring
        query's id) so :meth:`release` can undo it.
        """
        columns = tuple(join_columns)
        stem = self._stems.get(table)
        if stem is None:
            stem = SteM(
                table=table,
                aliases=(alias,),
                join_columns=columns,
                max_size=self._bound.max_size,
                eviction=self._bound.policy(),
                name=f"stem:{table}",
            )
            self._stems[table] = stem
            self.stats["stems"] += 1
        else:
            stem.add_alias(alias)
            stem.ensure_join_columns(columns)
        self.stats["attachments"] += 1
        self._table_refs[table] = self._table_refs.get(table, 0) + 1
        alias_refs = self._alias_refs.setdefault(table, {})
        alias_refs[alias] = alias_refs.get(alias, 0) + 1
        column_refs = self._column_refs.setdefault(table, {})
        for column in columns:
            column_refs[column] = column_refs.get(column, 0) + 1
        self._owner_refs.setdefault(owner, []).append((table, alias, columns))
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
            if remaining <= 0:
                # Last reference: reclaim the whole SteM (rows, indexes,
                # EOT state).  Its counters fold into the reclaimed totals.
                bucket = self.reclaimed_stats.setdefault(stem.name, {})
                for key, value in stem.stats.items():
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

    def __repr__(self) -> str:
        return f"SteMRegistry(tables={sorted(self._stems)})"
