"""Encapsulated join modules — the Figure 1(b) baseline.

These modules reproduce the *pre-SteM* eddy architecture of [Avnur &
Hellerstein 2000]: the eddy routes tuples between monolithic join modules
whose internal data structures (hash tables, lookup caches) are hidden from
the router.  They share the simulator, cost model, and access modules with
the SteM architecture, so the experiments of paper section 4 compare
architectures rather than implementations.

Two operators are provided:

* :class:`SymmetricHashJoinModule` — a pipelining binary SHJ with both hash
  tables inside one module.
* :class:`IndexJoinModule` — an index join with an internal lookup cache
  (paper Figure 5).  Crucially it has a *single* input queue served
  sequentially, so cheap cache-hit probes wait behind slow index lookups:
  the head-of-line blocking problem of paper section 4.2.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.modules.base import Module, Routable
from repro.core.tuples import EOTTuple, MatchRun, QTuple
from repro.query.expressions import ColumnRef
from repro.query.layout import done_mask_of
from repro.query.predicates import Comparison, Predicate
from repro.query.probeplan import bind_key_from_sources, compile_bind_sources
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.storage.row import Row
from repro.storage.table import Table


def _merge_tuples(
    left: QTuple, right: QTuple, predicates: Sequence[Predicate]
) -> QTuple | None:
    """Concatenate two dataflow tuples if the predicates allow it."""
    if not left.aliases.isdisjoint(right._aliases):
        return None
    aliases = left._aliases + right._aliases
    components = dict(zip(aliases, left.rows + right.rows))
    done_mask = left.done_mask | right.done_mask
    pending = [
        predicate
        for predicate in predicates
        if not (done_mask >> predicate.predicate_id) & 1
    ]
    if not all(predicate.evaluate(components) for predicate in pending):
        return None
    result = QTuple(
        components,
        timestamps=dict(zip(aliases, left.build_timestamps + right.build_timestamps)),
        source=left.source or right.source,
        priority=max(left.priority, right.priority),
        created_at=min(left.created_at, right.created_at),
        layout=left.layout,
    )
    result.done_mask = done_mask | done_mask_of(pending)
    result.built_mask = left.built_mask | right.built_mask
    return result


class SymmetricHashJoinModule(Module):
    """A binary symmetric hash join encapsulated as one eddy module."""

    kind = "join"

    def __init__(
        self,
        name: str,
        predicates: Sequence[Predicate],
        left_aliases: Sequence[str],
        right_aliases: Sequence[str],
        cost_per_tuple: float = 2e-4,
        queue_capacity: int | None = None,
    ):
        super().__init__(name, cost=cost_per_tuple, queue_capacity=queue_capacity)
        self.predicates = tuple(predicates)
        self.left_aliases = frozenset(left_aliases)
        self.right_aliases = frozenset(right_aliases)
        self._left_key_columns, self._right_key_columns = self._derive_keys()
        self._left_table: dict[tuple, list[QTuple]] = {}
        self._right_table: dict[tuple, list[QTuple]] = {}
        self.stats.update({"left": 0, "right": 0, "results": 0, "unroutable": 0})

    def _derive_keys(self) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        left_columns: list[tuple[str, str]] = []
        right_columns: list[tuple[str, str]] = []
        for predicate in self.predicates:
            if (
                isinstance(predicate, Comparison)
                and predicate.op in ("=", "==")
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)
            ):
                first, second = predicate.left, predicate.right
                if first.alias in self.left_aliases and second.alias in self.right_aliases:
                    left_columns.append((first.alias, first.column))
                    right_columns.append((second.alias, second.column))
                elif first.alias in self.right_aliases and second.alias in self.left_aliases:
                    left_columns.append((second.alias, second.column))
                    right_columns.append((first.alias, first.column))
        return left_columns, right_columns

    def _key(self, item: QTuple, columns: list[tuple[str, str]]) -> tuple:
        return tuple(item.value(alias, column) for alias, column in columns)

    def accepts(self, item: QTuple) -> bool:
        """True if the tuple matches one of the module's two input shapes."""
        return item.aliases == self.left_aliases or item.aliases == self.right_aliases

    def process(self, item: Routable) -> list[Routable]:
        if isinstance(item, EOTTuple):
            return []
        assert isinstance(item, QTuple)
        if item.aliases == self.left_aliases:
            self.stats["left"] += 1
            own_table, own_key = self._left_table, self._key(item, self._left_key_columns)
            other_table = self._right_table
        elif item.aliases == self.right_aliases:
            self.stats["right"] += 1
            own_table, own_key = self._right_table, self._key(item, self._right_key_columns)
            other_table = self._left_table
        else:
            self.stats["unroutable"] += 1
            return [item]
        own_table.setdefault(own_key, []).append(item)
        results: list[Routable] = []
        for partner in other_table.get(own_key, ()):
            merged = _merge_tuples(item, partner, self.predicates)
            if merged is not None:
                self.stats["results"] += 1
                results.append(merged)
        return results


class IndexJoinModule(Module):
    """An index join with an internal lookup cache (paper Figure 5).

    The module serves its single input queue sequentially.  A probe whose key
    is cached costs ``cache_hit_cost``; a miss blocks the module for one draw
    of ``lookup_latency`` (a :class:`~repro.sim.latency.LatencyModel`, or
    seconds) — so cheap probes queued behind a miss wait for it, which is
    exactly the head-of-line blocking SteMs remove.  The index's stalls and
    failure rate are not modelled here: every lookup succeeds.
    """

    kind = "join"

    def __init__(
        self,
        name: str,
        predicates: Sequence[Predicate],
        outer_aliases: Sequence[str],
        inner_alias: str,
        inner_table: Table,
        bind_columns: Sequence[str],
        lookup_latency: float | LatencyModel = 1.0,
        cache_hit_cost: float = 2e-4,
        queue_capacity: int | None = None,
    ):
        super().__init__(name, cost=cache_hit_cost, queue_capacity=queue_capacity)
        self.predicates = tuple(predicates)
        self.outer_aliases = frozenset(outer_aliases)
        self.inner_alias = inner_alias
        self.inner_table = inner_table
        self.bind_columns = tuple(bind_columns)
        if not isinstance(lookup_latency, LatencyModel):
            lookup_latency = ConstantLatency(lookup_latency)
        self.latency = lookup_latency
        self.cache_hit_cost = cache_hit_cost
        # Bind derivation compiled once over the static predicate list
        # (bind_key also runs inside service_time, i.e. twice per probe).
        self._bind_sources = compile_bind_sources(
            self.predicates, inner_alias, self.bind_columns
        )
        self._cache: dict[tuple, list[Row]] = {}
        #: (virtual time, cumulative lookups) series for Figure 7(ii).
        self.lookup_series: list[tuple[float, int]] = []
        self.stats.update(
            {"probes": 0, "lookups": 0, "cache_hits": 0, "results": 0, "unbindable": 0}
        )

    def bind_key(self, item: QTuple) -> tuple[Any, ...] | None:
        """Derive the inner-index key from an outer tuple.

        Runs over sources precompiled at construction (see
        :func:`~repro.query.probeplan.compile_bind_sources`).
        """
        return bind_key_from_sources(self._bind_sources, item.components)

    def service_time(self, item: Routable) -> float:
        if isinstance(item, EOTTuple):
            return self.cache_hit_cost
        assert isinstance(item, QTuple)
        key = self.bind_key(item)
        if key is not None and key in self._cache:
            return self.cache_hit_cost
        return self.latency.sample()

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
        if key in self._cache:
            self.stats["cache_hits"] += 1
            rows = self._cache[key]
        else:
            self.stats["lookups"] += 1
            self.lookup_series.append((self.runtime.now, int(self.stats["lookups"])))
            rows = self.inner_table.lookup(self.bind_columns, key)
            self._cache[key] = rows
        # The pending-predicate set depends only on the outer tuple's done
        # bits and span (every lookup row fills the same inner alias), so it
        # is derived once per probe instead of once per matching row.
        available = item.aliases | {self.inner_alias}
        pending = [
            predicate
            for predicate in self.predicates
            if not item.is_done(predicate) and predicate.can_evaluate(available)
        ]
        matched = []
        components = item.components  # a fresh dict: its inner entry is rebound per row
        for row in rows:
            components[self.inner_alias] = row
            if all(predicate.evaluate(components) for predicate in pending):
                matched.append(row)
        self.stats["results"] += len(matched)
        if not matched:
            return []
        return [
            MatchRun(item, self.inner_alias, matched, [0.0] * len(matched), done_mask_of(pending))
        ]
