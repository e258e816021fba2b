"""Nested-loops join: the simplest (and most general) join algorithm."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.joins.base import BinaryJoin, Composite, merge, satisfies


class NestedLoopsJoin(BinaryJoin):
    """Naive nested-loops join.

    Materialises the right input and, for every left composite, checks every
    right composite against all predicates.  Handles arbitrary (non-equi)
    join conditions: the static pipeline runs it for a step with no
    equi-join key.
    """

    def join(
        self, left: Iterable[Composite], right: Iterable[Composite]
    ) -> Iterator[Composite]:
        inner = list(right)
        self.stats["right_rows"] = len(inner)
        for left_composite in left:
            self.stats["left_rows"] += 1
            for right_composite in inner:
                candidate = merge(left_composite, right_composite)
                if satisfies(candidate, self.predicates):
                    self.stats["results"] += 1
                    yield candidate
