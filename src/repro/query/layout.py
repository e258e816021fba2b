"""PlanLayout: the dense integer domains a bound query is compiled into.

Paper section 2.1 describes TupleState as a block of "done bits" plus
per-alias flags.  The dataflow honours that literally: after binding, each
query is compiled once into a :class:`PlanLayout` that assigns

* every FROM-clause alias a single-bit position (FROM-clause order, so the
  assignment is deterministic across runs for the same query text), and
* every predicate a single-bit position (``1 << predicate_id``; the parser
  renumbers each query's predicates ``1..n``, so these are dense and equally
  deterministic),

and precomputes the join-graph adjacency masks, per-predicate alias-
requirement masks ("selection eligibility"), and per-span neighbour lists
that destination resolution needs.  :class:`~repro.core.tuples.QTuple` then
keeps its whole TupleState — spanned aliases, done bits, built/resolved/
exhausted flags — as machine-word integers, and the
:class:`~repro.core.constraints.ConstraintChecker` computes legal
destinations with bitwise algebra (e.g. adjacent-unspanned =
``adjacency_of(spanned) & ~spanned``) instead of frozenset algebra.

A layout is the only alias space there is: every tuple is born on its
query's layout (``QTuple(layout=...)`` and ``singleton_maker`` require one)
and keeps it for life, so masks are never re-encoded and an alias outside
the query raises :class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import QueryError
from repro.query.predicates import Predicate
from repro.query.query import Query


def bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    positions: list[int] = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def done_mask_of(predicates: Iterable[Predicate | int]) -> int:
    """The done-bit mask of predicates given as objects or raw ids."""
    mask = 0
    for predicate in predicates:
        if isinstance(predicate, int):
            mask |= 1 << predicate
        else:
            mask |= 1 << predicate.predicate_id
    return mask


class PlanLayout:
    """The compiled integer domains of one bound query.

    Args:
        query: the query to compile.

    Attributes:
        alias_order: aliases in FROM-clause order — alias ``i`` holds bit
            ``1 << i``.
        alias_bits: alias -> its bit (treat as read-only).
        all_alias_mask: the mask spanning every alias (a finished tuple's
            ``spanned_mask``).
        adjacency: per-alias join-graph neighbour mask: two aliases are
            neighbours when a join predicate references exactly those two.
        predicate_bits: predicate id -> done-bit mask (``1 << predicate_id``).
        all_predicate_mask: the done mask of a tuple that passed everything.
        module_bits: module name -> its bit in a tuple's ``visits_token``
            (``1 << i`` for the ``i``-th module any tuple of this query was
            routed to), assigned by ``QTuple.record_visit``.

    Mask decoding is memoized per mask value: the dataflow revisits the
    same handful of span masks constantly, so views stay allocation-free
    after warm-up.
    """

    def __init__(self, query: Query):
        self.query = query
        self.alias_order: tuple[str, ...] = query.alias_order
        self.alias_bits: dict[str, int] = {
            alias: 1 << position for position, alias in enumerate(self.alias_order)
        }
        self._decode_memo: dict[int, frozenset[str]] = {}
        self.all_alias_mask: int = (1 << len(self.alias_order)) - 1
        self.adjacency: dict[str, int] = dict.fromkeys(self.alias_order, 0)
        for predicate in query.join_predicates:
            ends = predicate.aliases()
            if len(ends) == 2:
                left, right = ends
                self.adjacency[left] |= self.alias_bits[right]
                self.adjacency[right] |= self.alias_bits[left]
        self._adjacency_by_position: tuple[int, ...] = tuple(
            self.adjacency[alias] for alias in self.alias_order
        )
        self.predicate_bits: dict[int, int] = {
            predicate.predicate_id: 1 << predicate.predicate_id
            for predicate in query.predicates
        }
        all_predicates = 0
        for bit in self.predicate_bits.values():
            all_predicates |= bit
        self.all_predicate_mask: int = all_predicates
        #: Memo: spanned mask -> lexicographically sorted adjacent-unspanned
        #: alias names.  Bounded by 2^|aliases| entries, but in practice only
        #: the spans the dataflow actually produces are ever materialised.
        self._adjacent_unspanned_memo: dict[int, tuple[str, ...]] = {}
        #: Compiled-probe-plan cache: ``(module name, spanned_mask,
        #: done_mask)`` -> :class:`~repro.query.probeplan.ProbePlan`.  Lives
        #: on the layout because the masks only mean anything over *this*
        #: query's alias/predicate bit assignment — so when several queries
        #: share one SteM, each keeps one plan cache per query layout and
        #: never reads another query's plans.  Populated lazily by
        #: :meth:`~repro.core.modules.stem_module.SteMModule.probe_plan_for`.
        self.probe_plans: dict[tuple, object] = {}
        self.module_bits: dict[str, int] = {}

    # -- encoding ---------------------------------------------------------------

    def bit_of(self, alias: str) -> int:
        """The single-bit mask assigned to an alias (QueryError if unknown)."""
        bit = self.alias_bits.get(alias)
        if bit is None:
            raise QueryError(
                f"alias {alias!r} is not part of query {self.query.name!r} "
                f"(layout aliases: {list(self.alias_order)})"
            )
        return bit

    def peek_bit(self, alias: str) -> int:
        """Like :meth:`bit_of`, but 0 for unknown aliases (read-side tests)."""
        return self.alias_bits.get(alias, 0)

    def mask_of(self, aliases: Iterable[str]) -> int:
        """The OR of the bits of every alias given."""
        bits = self.alias_bits
        mask = 0
        for alias in aliases:
            bit = bits.get(alias)
            mask |= bit if bit is not None else self.bit_of(alias)
        return mask

    # -- decoding ---------------------------------------------------------------

    def aliases_of_mask(self, mask: int) -> frozenset[str]:
        """The alias names encoded by ``mask`` (memoized per mask)."""
        cached = self._decode_memo.get(mask)
        if cached is None:
            names = self.alias_order
            cached = frozenset(names[position] for position in bit_positions(mask))
            self._decode_memo[mask] = cached
        return cached

    # -- adjacency --------------------------------------------------------------

    def adjacency_of(self, spanned_mask: int) -> int:
        """The union of the neighbour masks of every spanned alias."""
        adjacency = 0
        by_position = self._adjacency_by_position
        mask = spanned_mask
        while mask:
            low = mask & -mask
            adjacency |= by_position[low.bit_length() - 1]
            mask ^= low
        return adjacency

    def adjacent_unspanned(self, spanned_mask: int) -> tuple[str, ...]:
        """Join-graph neighbours of the span that the span does not cover.

        Returned as lexicographically sorted alias names (the iteration
        order destination resolution has always used), memoized per span.
        """
        cached = self._adjacent_unspanned_memo.get(spanned_mask)
        if cached is None:
            mask = self.adjacency_of(spanned_mask) & ~spanned_mask & self.all_alias_mask
            cached = tuple(sorted(self.aliases_of_mask(mask)))
            self._adjacent_unspanned_memo[spanned_mask] = cached
        return cached

    # -- predicates -------------------------------------------------------------

    def selection_entries(self, modules) -> tuple[tuple[object, int, int], ...]:
        """Bitwise evaluation rows ``(module, done_bit, requirement_mask)``.

        One row per selection module: the module's predicate is eligible on a
        tuple iff its done bit is clear in the tuple's ``done_mask`` and its
        alias-requirement mask is a subset of the tuple's ``spanned_mask``.
        Shared by the :class:`~repro.core.constraints.ConstraintChecker` and
        the Fig. 1(b) :class:`~repro.engine.joins_engine.JoinPlanResolver` so
        the eligibility encoding lives in exactly one place.
        """
        return tuple(
            (
                module,
                1 << module.predicate.predicate_id,
                self.mask_of(module.predicate.aliases()),
            )
            for module in modules
        )

    def is_complete(self, spanned_mask: int, done_mask: int) -> bool:
        """Output readiness: all aliases spanned and all predicates done."""
        return (
            spanned_mask == self.all_alias_mask
            and (done_mask & self.all_predicate_mask) == self.all_predicate_mask
        )

    # -- introspection ----------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PlanLayout({self.query.name!r}, aliases={list(self.alias_order)}, "
            f"predicates={len(self.predicate_bits)})"
        )
