"""Index join with a lookup cache (the operator of paper Figure 5).

The index join streams the outer input and, for each outer composite, looks
up matches in an index on the inner table.  Because the paper targets remote
(Web-service) indexes, the operator maintains a *cache* of previous lookups:
a probe whose key has been seen before is answered from the cache without
contacting the index.  The number of actual index lookups is therefore the
number of distinct keys probed — this is the quantity plotted in paper
Figure 7(ii).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import QueryError
from repro.joins.base import BinaryJoin, Composite, singleton
from repro.storage.row import Row
from repro.storage.table import Table


class IndexJoin(BinaryJoin):
    """Index nested-loops join with per-key lookup caching.

    Args:
        predicates: predicates evaluable over the joined aliases.
        left_aliases: aliases of the outer input composites.
        inner_alias: alias under which inner rows enter the result.
        lookup: callable mapping a key tuple to the matching inner rows
            (models the index access method on the inner table).
        cache_enabled: disable to model an uncached remote index.
    """

    def __init__(
        self,
        predicates,
        left_aliases,
        inner_alias: str,
        lookup: Callable[[tuple], Sequence[Row]],
        cache_enabled: bool = True,
    ):
        super().__init__(predicates, left_aliases, {inner_alias})
        if not self.spec.has_keys:
            raise QueryError("IndexJoin requires an equi-join predicate")
        self.inner_alias = inner_alias
        self.lookup = lookup
        self.cache_enabled = cache_enabled
        self._cache: dict[tuple, list[Row]] = {}
        self.stats["index_lookups"] = 0
        self.stats["cache_hits"] = 0

    @classmethod
    def on_table(
        cls,
        predicates,
        left_aliases,
        inner_alias: str,
        table: Table,
        inner_columns: Sequence[str],
        cache_enabled: bool = True,
    ) -> "IndexJoin":
        """Build an index join that looks up a local :class:`Table` directly."""
        columns = tuple(inner_columns)

        def lookup(key: tuple) -> Sequence[Row]:
            return table.lookup(columns, key)

        return cls(predicates, left_aliases, inner_alias, lookup, cache_enabled)

    def probe(self, outer: Composite) -> list[Composite]:
        """Probe a single outer composite; return its join results."""
        self.stats["left_rows"] += 1
        key = self.spec.left_key(outer)
        if self.cache_enabled and key in self._cache:
            self.stats["cache_hits"] += 1
            matches = self._cache[key]
        else:
            self.stats["index_lookups"] += 1
            matches = list(self.lookup(key))
            if self.cache_enabled:
                self._cache[key] = matches
        results = []
        for row in matches:
            result = self._emit(outer, singleton(self.inner_alias, row))
            if result is not None:
                results.append(result)
        return results

    def join(
        self, left: Iterable[Composite], right: Iterable[Composite] = ()
    ) -> Iterator[Composite]:
        """Join the outer input against the index (``right`` is ignored)."""
        del right  # the inner side is reached through the lookup callable
        for outer in left:
            yield from self.probe(outer)
