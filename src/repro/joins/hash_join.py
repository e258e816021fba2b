"""Classic build/probe hash join."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import QueryError
from repro.joins.base import BinaryJoin, Composite


class HashJoin(BinaryJoin):
    """Textbook two-phase hash join.

    Builds an in-memory hash table on the right ("build") input keyed by the
    equi-join columns, then streams the left ("probe") input against it.
    Requires at least one equi-join column pair.  A key holding a NULL
    matches nothing, as ``Comparison`` evaluates ``NULL = x`` to false.
    """

    def __init__(self, predicates, left_aliases, right_aliases):
        super().__init__(predicates, left_aliases, right_aliases)
        if not self.spec.has_keys:
            raise QueryError("HashJoin requires an equi-join predicate")

    def join(
        self, left: Iterable[Composite], right: Iterable[Composite]
    ) -> Iterator[Composite]:
        table: dict[tuple, list[Composite]] = {}
        for right_composite in right:
            self.stats["right_rows"] += 1
            key = self.spec.right_key(right_composite)
            if None not in key:
                table.setdefault(key, []).append(right_composite)
        for left_composite in left:
            self.stats["left_rows"] += 1
            key = self.spec.left_key(left_composite)
            if None in key:
                continue
            for right_composite in table.get(key, ()):
                result = self._emit(left_composite, right_composite)
                if result is not None:
                    yield result
