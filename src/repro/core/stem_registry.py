"""The registry that owns every SteM of a run.

Paper §2.1.4: "SteMs on relations that are accessed by multiple queries can
be shared" — the property the continuous-query line the paper cites (CACQ,
PSoUP) builds on, and the reason SteMs carry the multi-alias and
eviction hooks.  Every query draws its SteMs from the registry (a single
query is a one-admission fleet): one per base table, created on first use
and extended (aliases, secondary join-column indexes) as later queries are
admitted.

Responsibilities:

* **get-or-create** a SteM (:meth:`SteMRegistry.stem_for`), merging every
  admitted query's aliases and join columns into a table's shared SteM;
* **reference counting** — every acquisition records which SteMs, aliases
  and join columns its owner (a query, or a restore in progress) depends
  on, and
  :meth:`SteMRegistry.release` reclaims whatever the departing query was
  the last user of: the whole SteM when its refcount hits zero, or
  just the secondary indexes (and aliases) only that query's bindings
  needed.  This is what makes runtime query *retirement* leak-free;
* **eviction configuration** — the run's :class:`SteMBound` (count,
  time-window, reference-window; see :mod:`repro.core.stem`) lives here, so
  the window under which a table's state is bounded is a property of the
  *service*, not of any one query;
* **aggregate accounting** — reclaimed SteMs fold their counters into
  :attr:`SteMRegistry.reclaimed_stats` so run totals survive reclamation
  (:func:`stem_build_totals` sums them with the live ones).

Self-join aliases are not shared: a query referencing a table under two
aliases needs two timestamp-distinct copies of each row for the TimeStamp
constraint to produce the diagonal matches exactly once, so each such alias
gets a registry SteM of its own, named ``{query_id}:stem:{alias}``, that
only its query uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.stem import EvictionPolicy, SteM, make_eviction_policy


def stem_build_totals(stats: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Aggregate build/probe counters over SteMs' ``stats`` dicts.

    ``insertions`` (builds that actually stored a row and updated the
    indexes) is the work-saved metric of sharing: with N queries over one
    table it stays at one table's worth, while N queries run alone pay it
    N times.
    """
    totals = {"builds": 0, "insertions": 0, "duplicates": 0, "probes": 0}
    for counters in stats:
        totals["builds"] += counters["builds"]
        totals["duplicates"] += counters["duplicates"]
        totals["probes"] += counters["probes"]
    totals["insertions"] = totals["builds"] - totals["duplicates"]
    return totals


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
    """Every SteM of a run: one shared SteM per base table, plus one per
    self-join alias.

    A table's shared SteM is named ``stem:{table}`` and keyed by its table
    (``registry.stems["R"]``); any other SteM is keyed by its name.

    Args:
        max_size: optional per-SteM row bound; with the default ``eviction``
            of None this selects count-bounded FIFO eviction (the historical
            CACQ/PSoUP sliding-window hook).
        eviction: eviction-policy name applied to every SteM.
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
        #: Reference counts of :meth:`stem_for` acquisitions, by SteM key.
        self._stem_refs: dict[str, int] = {}
        self._alias_refs: dict[str, dict[str, int]] = {}
        self._column_refs: dict[str, dict[str, int]] = {}
        #: owner -> list of (key, alias, columns) acquisitions to undo.
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
        name: str | None = None,
    ) -> SteM:
        """A SteM on a base table, extended for one query's view.

        Without ``name`` (or with ``stem:{table}``) this is the table's
        shared SteM: the first query to touch the table creates it, later
        queries reuse it, registering their alias and backfilling indexes
        on any new join columns.  Any other ``name`` is a SteM of its own
        (a self-join alias, ``{query_id}:stem:{alias}``), created on first
        use and found again by that name (a restore, then the query).
        The acquisition is reference-counted under ``owner`` (the acquiring
        query's id) so :meth:`release` can undo it.
        """
        columns = tuple(join_columns)
        shared_name = f"stem:{table}"
        name = name or shared_name
        key = table if name == shared_name else name
        stem = self._stems.get(key)
        if stem is None:
            stem = SteM(
                table=table,
                aliases=(alias,),
                join_columns=columns,
                max_size=self._bound.max_size,
                eviction=self._bound.policy(),
                name=name,
            )
            self._stems[key] = stem
            self.stats["stems"] += 1
        else:
            stem.add_alias(alias)
            stem.ensure_join_columns(columns)
        self.stats["attachments"] += 1
        self._stem_refs[key] = self._stem_refs.get(key, 0) + 1
        alias_refs = self._alias_refs.setdefault(key, {})
        alias_refs[alias] = alias_refs.get(alias, 0) + 1
        column_refs = self._column_refs.setdefault(key, {})
        for column in columns:
            column_refs[column] = column_refs.get(column, 0) + 1
        self._owner_refs.setdefault(owner, []).append((key, alias, columns))
        return stem

    def release(self, owner: str) -> list[str]:
        """Drop every reference ``owner`` (a retiring query) acquired.

        Returns the keys of the SteMs reclaimed outright (refcount hit
        zero).  For SteMs that stay referenced, the aliases and secondary
        indexes only the retiring query needed are dropped —
        ``index_epoch`` moves, so surviving queries' compiled probe plans
        re-resolve against the remaining indexes.
        """
        acquisitions = self._owner_refs.pop(owner, [])
        if not acquisitions:
            return []
        self.stats["releases"] += 1
        reclaimed: list[str] = []
        for key, alias, columns in acquisitions:
            remaining = self._stem_refs.get(key, 0) - 1
            self._stem_refs[key] = remaining
            alias_refs = self._alias_refs.get(key, {})
            column_refs = self._column_refs.get(key, {})
            if alias in alias_refs:
                alias_refs[alias] -= 1
            for column in columns:
                if column in column_refs:
                    column_refs[column] -= 1
            stem = self._stems.get(key)
            if stem is None:
                continue
            if remaining <= 0:
                # Last reference: reclaim the whole SteM (rows, indexes,
                # EOT state).  Its counters fold into the reclaimed totals.
                bucket = self.reclaimed_stats.setdefault(stem.name, {})
                for counter, value in stem.stats.items():
                    bucket[counter] = bucket.get(counter, 0) + value
                del self._stems[key]
                self._stem_refs.pop(key, None)
                self._alias_refs.pop(key, None)
                self._column_refs.pop(key, None)
                self.stats["reclaimed"] += 1
                reclaimed.append(key)
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
        """The live SteMs: a shared one keyed by its table, any other by
        its name."""
        return dict(self._stems)

    def __len__(self) -> int:
        return len(self._stems)

    def __contains__(self, key: object) -> bool:
        return key in self._stems

    def __repr__(self) -> str:
        return f"SteMRegistry(stems={sorted(self._stems)})"
