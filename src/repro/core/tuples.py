"""Tuples in the eddy's dataflow and the state they carry (TupleState).

Paper section 2.1: "Each tuple also carries some state with it, called its
TupleState, to track the work it has done in furthering query progress."  In
this implementation the data and the state are two layers of one type.  A
:class:`Result` is what a tuple *is* — its id, query, priority and its
base-table components — and is all an engine keeps of an output tuple.  The
dataflow tuple (:class:`QTuple`) is a :class:`Result` plus the TupleState:

* the tables/aliases it spans (definition 1 of the paper);
* the predicates it has passed (the "done bits");
* per-component build timestamps, used by the TimeStamp constraint (kept
  beside the components, in the :class:`Result` layer);
* bookkeeping for the BoundedRepetition and ProbeCompletion constraints;
* resolution state — for every join-graph neighbour, whether this tuple's
  matches from that side are already guaranteed (so the eddy knows when the
  tuple can be retired from the dataflow).

The TupleState is stored the way the paper describes it — as bits.  Spanned
aliases, done bits, built/resolved/exhausted flags and the per-module visit
bits are all machine-word integers over the query's compiled
:class:`~repro.query.layout.PlanLayout`, so :meth:`QTuple.routing_signature`
(the batched eddy's grouping key) is a memoized tuple of ints that allocates
no containers per call, and the
:class:`~repro.core.constraints.ConstraintChecker` resolves destinations
with bitwise algebra.  Frozenset-view properties (:attr:`QTuple.done`,
:attr:`QTuple.built`, :attr:`QTuple.resolved`, :attr:`QTuple.exhausted`)
keep traces, tests and introspecting policies readable.

End-of-transmission markers (:class:`EOTTuple`) are also dataflow tuples, as
the paper prescribes, so that they can be built into SteMs alongside data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import ExecutionError
from repro.query.layout import PlanLayout, bit_positions, done_mask_of
from repro.query.predicates import Predicate
from repro.storage.row import Row

#: Timestamp of a singleton tuple that has not yet been built into a SteM.
#: The paper defines it as infinity so that an un-built probe tuple receives
#: every match already present in a SteM.
UNBUILT = math.inf

class TupleIdAllocator:
    """Allocates the monotonically increasing ``tuple_id`` of each QTuple.

    Tuple ids exist for tracing and debugging; they must be *reproducible*:
    two identical runs in the same process have to assign identical ids, or
    traces stop being comparable.  A process-global counter breaks that, so
    every engine installs a fresh allocator at the start of each run (see
    :func:`install_id_allocator`); code that creates tuples outside any
    engine (unit tests, notebooks) falls back to the ambient allocator.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1):
        self._next = start

    def allocate(self, count: int = 1) -> int:
        """The next tuple id, or the first of ``count`` consecutive ones."""
        value = self._next
        self._next += count
        return value


_id_allocator = TupleIdAllocator()


def install_id_allocator(
    allocator: TupleIdAllocator | None = None,
) -> TupleIdAllocator:
    """Install (and return) the allocator new QTuples draw their ids from.

    Engines call this with no argument at the start of each run, so repeated
    runs of the same query number their tuples identically — the trace-
    determinism guarantee regression-tested in
    ``tests/engine/test_determinism.py``.
    """
    global _id_allocator
    _id_allocator = allocator or TupleIdAllocator()
    return _id_allocator


class Result:
    """A query result: what a (possibly composite) tuple *is*, without the
    TupleState that routed it.

    The eddy keeps one per emitted tuple (:attr:`Eddy.output_tuples
    <repro.core.eddy.Eddy.output_tuples>`).  It holds the tuple id, the query id, the
    components factorised and the priority, and has no mutator: once a
    tuple is output the work its TupleState tracked is finished.

    Args:
        components: mapping from alias to the base-table :class:`Row` for
            that alias, in derivation order.  A singleton has exactly one
            entry.
        timestamps: per-alias build timestamps; missing aliases default to
            :data:`UNBUILT`.  An alias ``components`` lacks raises
            :class:`~repro.errors.ExecutionError`.
        priority: user-interest priority (paper section 4.1).
        query_id: the query the result belongs to.
    """

    __slots__ = (
        "tuple_id",
        "query_id",
        "_aliases",
        "_head",
        "_row",
        "_head_ts",
        "_row_ts",
        "_priority",
    )

    def __init__(
        self,
        components: Mapping[str, Row],
        timestamps: Mapping[str, float] | None = None,
        priority: float = 0.0,
        query_id: str = "",
    ):
        if not components:
            raise ExecutionError(f"a {type(self).__name__} needs at least one component")
        self.tuple_id = _id_allocator.allocate()
        #: The query this tuple belongs to.  Empty in single-query execution;
        #: the multi-query engine stamps it on entry into each query's eddy
        #: so outputs, traces and shared-SteM bookkeeping stay per-query.
        self.query_id = query_id
        aliases = tuple(components)
        ts = (UNBUILT,) * len(aliases)
        if timestamps:
            unknown = sorted(timestamps.keys() - components.keys())
            if unknown:
                raise ExecutionError(
                    f"timestamps name aliases the tuple does not span: {unknown}"
                )
            ts = tuple(timestamps.get(alias, UNBUILT) for alias in aliases)
        rows = tuple(components.values())
        #: The components, factorised: the aliases in derivation order, the
        #: parent's rows and build timestamps (``_head``, ``_head_ts``; one
        #: tuple each, shared by every extension of one probe) and this
        #: tuple's own last row and its build timestamp.
        self._aliases: tuple[str, ...] = aliases
        self._head: tuple[Row, ...] = rows[:-1]
        self._row: Row = rows[-1]
        self._head_ts: tuple[float, ...] = ts[:-1]
        self._row_ts: float = ts[-1]
        self._priority = priority

    # -- span and identity -----------------------------------------------------

    @property
    def aliases(self) -> frozenset[str]:
        """The aliases this tuple spans (paper definition 1)."""
        return frozenset(self._aliases)

    @property
    def components(self) -> dict[str, Row]:
        """Alias -> base-table row, in derivation order (a fresh dict on every read)."""
        return dict(zip(self._aliases, self.rows))

    @property
    def rows(self) -> tuple[Row, ...]:
        """The base-table rows, in derivation order."""
        return (*self._head, self._row)

    @property
    def is_singleton(self) -> bool:
        """True if the tuple has exactly one base-table component."""
        return not self._head

    @property
    def single_alias(self) -> str:
        """The alias of a singleton tuple."""
        if self._head:
            raise ExecutionError(f"tuple {self} spans {len(self._aliases)} aliases")
        return self._aliases[0]

    @property
    def timestamp(self) -> float:
        """The tuple's timestamp: that of its last-arriving component.

        For singleton tuples that have not yet been built this is
        :data:`UNBUILT` (infinity).
        """
        head = self._head_ts
        return max(*head, self._row_ts) if head else self._row_ts

    @property
    def build_timestamps(self) -> tuple[float, ...]:
        """Build timestamps, in derivation order."""
        return (*self._head_ts, self._row_ts)

    @property
    def timestamps(self) -> dict[str, float]:
        """Per-alias build timestamps (a fresh dict on every read)."""
        return dict(zip(self._aliases, self.build_timestamps))

    @property
    def priority(self) -> float:
        """User-interest priority (paper §4.1)."""
        return self._priority

    def component(self, alias: str) -> Row:
        """The base-table component for an alias (KeyError if not spanned)."""
        aliases = self._aliases
        if alias == aliases[-1]:
            return self._row
        if alias not in aliases:
            raise KeyError(alias)
        return self._head[aliases.index(alias)]

    def value(self, alias: str, column: str) -> Any:
        """Shorthand for ``self.component(alias)[column]``."""
        return self.component(alias)[column]

    def spans(self, aliases: Iterable[str]) -> bool:
        """True if the tuple spans every alias given."""
        return frozenset(aliases) <= self.aliases

    def identity(self) -> tuple:
        """A hashable identity over (alias, table, values) of all components.

        Used by tests and by duplicate detection at the output.
        """
        return tuple(
            sorted((alias, row.table, row.values) for alias, row in zip(self._aliases, self.rows))
        )

    def __repr__(self) -> str:
        span = ",".join(sorted(self._aliases))
        return f"{type(self).__name__}#{self.tuple_id}[{span}]"


class QTuple(Result):
    """A (possibly composite) tuple flowing through the eddy: a
    :class:`Result` plus the TupleState that routes it.

    Args:
        components: mapping from alias to the base-table :class:`Row` for
            that alias.  A singleton tuple has exactly one entry.
        timestamps: per-alias build timestamps; missing aliases default to
            :data:`UNBUILT`.  An alias ``components`` lacks raises
            :class:`~repro.errors.ExecutionError`.
        done: predicate ids already verified on this tuple.
        source: name of the access module that produced the (first) base
            component — used for provenance and competitive-AM statistics.
        priority: user-interest priority inherited from prioritised
            predicates (paper section 4.1).
        layout: the query's compiled :class:`~repro.query.layout.PlanLayout`,
            which the tuple's alias masks are encoded over for its whole life
            (required, keyword-only).
    """

    __slots__ = (
        "done_mask",
        "source",
        "visits_token",
        "layout",
        "spanned_mask",
        "built_mask",
        "resolved_mask",
        "exhausted_mask",
        "_stop_stem_probes",
        "_probe_completion_alias",
        "created_at",
        "failed",
        "_signature",
    )

    def __init__(
        self,
        components: Mapping[str, Row],
        timestamps: Mapping[str, float] | None = None,
        done: Iterable[int] = (),
        source: str = "",
        priority: float = 0.0,
        created_at: float = 0.0,
        query_id: str = "",
        *,
        layout: PlanLayout,
    ):
        super().__init__(components, timestamps, priority, query_id)
        #: The query layout the masks below are encoded over.
        self.layout: PlanLayout = layout
        #: Bit per spanned alias (paper definition 1).
        self.spanned_mask: int = self.layout.mask_of(self._aliases)
        #: The done bits: bit ``predicate_id`` set once verified (§2.1).
        self.done_mask: int = done_mask_of(done)
        self.source = source
        #: Bit per module this tuple has been routed to (BoundedRepetition),
        #: over the layout's :attr:`~repro.query.layout.PlanLayout.module_bits`;
        #: also an element of the routing signature.  :attr:`visits` decodes it.
        self.visits_token: int = 0
        #: Bit per alias whose component has been built into its SteM.
        self.built_mask: int = 0
        #: Bits of unspanned neighbour aliases whose matches are guaranteed
        #: to be produced without further routing of *this* tuple.
        self.resolved_mask: int = 0
        #: Bits of unspanned neighbour aliases for which a SteM probe
        #: returned *all* matches (EOT-covered) — probing an AM on them
        #: cannot yield more.
        self.exhausted_mask: int = 0
        #: Set once a SteM probe produced concatenated results: from then on
        #: only the *extensions* keep probing SteMs (the n-ary SHJ discipline
        #: of paper section 2.3), which keeps derivations tree-shaped and
        #: therefore duplicate-free in multi-way joins.
        self._stop_stem_probes = False
        #: When this tuple is a "prior prober" (paper definition 3), the
        #: alias of its probe completion table; None otherwise.
        self._probe_completion_alias: str | None = None
        self.created_at = created_at
        #: Set when a predicate evaluated to false; the tuple is then dropped.
        self.failed = False
        #: Memoized routing signature; every state mutation clears it.
        self._signature: tuple | None = None

    # -- routing signature -------------------------------------------------------

    def routing_signature(self) -> tuple:
        """The tuple's routing signature: the grouping key of the batched eddy.

        Two tuples with equal signatures are indistinguishable to the
        destination resolver and to the shipped routing policies: they have
        the *same* legal-destination list and receive the same (batch)
        routing decision.  The signature therefore captures every TupleState
        field that legal-destination computation and policy scoring consult —
        but *not* the component values: destination legality is
        value-independent, because index bindability only depends on which
        aliases the tuple spans (a bind column is either equated to a column
        of a spanned alias or to a constant).

        Every element is an int (or the bool/str scalars at the tail), the
        masks being the TupleState itself, and the result is memoized on the
        tuple until the next state mutation — repeated calls return the very
        same object and allocate nothing.

        The last element is the tuple's *priority class* (prioritised or
        not): policy scores scale multiplicatively with the priority value,
        so the argmax over destinations only depends on the class.
        """
        signature = self._signature
        if signature is None:
            signature = self._signature = (
                self.spanned_mask,
                self.done_mask,
                self.visits_token,
                self.built_mask,
                self.resolved_mask,
                self.exhausted_mask,
                self._stop_stem_probes,
                self._probe_completion_alias,
                self._priority > 0.0,
            )
        return signature

    # -- frozenset views over the masks ------------------------------------------

    @property
    def done(self) -> frozenset[int]:
        """The predicate ids already verified (view over :attr:`done_mask`)."""
        return frozenset(bit_positions(self.done_mask))

    @property
    def built(self) -> frozenset[str]:
        """Aliases built into their SteM (view over :attr:`built_mask`)."""
        return self.layout.aliases_of_mask(self.built_mask)

    @property
    def resolved(self) -> frozenset[str]:
        """Resolved neighbour aliases (view over :attr:`resolved_mask`)."""
        return self.layout.aliases_of_mask(self.resolved_mask)

    @property
    def exhausted(self) -> frozenset[str]:
        """EOT-covered neighbour aliases (view over :attr:`exhausted_mask`)."""
        return self.layout.aliases_of_mask(self.exhausted_mask)

    # -- guarded scalar state (mutations invalidate the signature memo) ----------

    @Result.priority.setter
    def priority(self, value: float) -> None:
        self._priority = value
        self._signature = None

    @property
    def stop_stem_probes(self) -> bool:
        """True once a SteM probe produced results (n-ary SHJ discipline)."""
        return self._stop_stem_probes

    @stop_stem_probes.setter
    def stop_stem_probes(self, value: bool) -> None:
        self._stop_stem_probes = value
        self._signature = None

    @property
    def probe_completion_alias(self) -> str | None:
        """The probe completion table of a "prior prober" (definition 3)."""
        return self._probe_completion_alias

    @probe_completion_alias.setter
    def probe_completion_alias(self, value: str | None) -> None:
        self._probe_completion_alias = value
        self._signature = None

    # -- TupleState updates ----------------------------------------------------

    def mark_done(self, predicates: Iterable[Predicate | int]) -> None:
        """Record that predicates have been verified on this tuple."""
        mask = self.done_mask | done_mask_of(predicates)
        if mask != self.done_mask:
            self.done_mask = mask
            self._signature = None

    def is_done(self, predicate: Predicate) -> bool:
        """True if the predicate has already been verified."""
        return (self.done_mask >> predicate.predicate_id) & 1 == 1

    def record_visit(self, module_name: str) -> None:
        """Record a routing of this tuple to a module (BoundedRepetition)."""
        bits = self.layout.module_bits
        bit = bits.get(module_name)
        if bit is None:
            bit = bits[module_name] = 1 << len(bits)
        self.visits_token |= bit
        self._signature = None

    def visited(self, module_name: str) -> bool:
        """True once this tuple has been routed to the module."""
        return bool(self.visits_token & self.layout.module_bits.get(module_name, 0))

    @property
    def visits(self) -> frozenset[str]:
        """The modules this tuple has been routed to (view over :attr:`visits_token`)."""
        token = self.visits_token
        return frozenset(name for name, bit in self.layout.module_bits.items() if token & bit)

    def mark_built(self, alias: str, timestamp: float) -> None:
        """Record that the component for ``alias`` was built at ``timestamp``."""
        aliases = self._aliases
        if alias == aliases[-1]:
            self._row_ts = timestamp
        elif alias in aliases:
            position = aliases.index(alias)
            head_ts = self._head_ts
            self._head_ts = head_ts[:position] + (timestamp,) + head_ts[position + 1 :]
        else:
            raise ExecutionError(f"tuple {self} does not span alias {alias!r}")
        self.built_mask |= self.layout.bit_of(alias)
        self._signature = None

    def has_built(self, alias: str) -> bool:
        """True if the alias's component has been built into its SteM."""
        return bool(self.built_mask & self.layout.peek_bit(alias))

    def mark_resolved(self, alias: str) -> None:
        """Record that matches from ``alias`` no longer need this tuple's help."""
        self.resolved_mask |= self.layout.bit_of(alias)
        self._signature = None

    def is_resolved(self, alias: str) -> bool:
        """True if the neighbour alias has been resolved for this tuple."""
        return bool(self.resolved_mask & self.layout.peek_bit(alias))

    def mark_exhausted(self, alias: str) -> None:
        """Record that a SteM probe on ``alias`` was EOT-covered."""
        self.exhausted_mask |= self.layout.bit_of(alias)
        self._signature = None

    # -- derivation -------------------------------------------------------------

    def extended(
        self,
        alias: str,
        row: Row,
        row_timestamp: float,
        extra_done: int = 0,
        created_at: float | None = None,
    ) -> "QTuple":
        """A new tuple with one more base-table component: the one match of
        a :class:`MatchRun`."""
        return MatchRun(self, alias, [row], [row_timestamp], extra_done, created_at).first()


class MatchRun:
    """One probe's matches as one dataflow entry (paper §2.1.2: a probe
    returns the *set* of its matches).

    A run is the probe's extension template — the aliases, head rows and
    head build timestamps every match shares, the child masks and routing
    signature, query id, source, priority and ``created_at`` — plus the
    matched rows, their build timestamps and :attr:`tuple_id`, the first
    of a block of consecutive ids allocated with the run: match ``i`` is
    tuple ``tuple_id + i``, the id sequential extension would have drawn.
    Done bits (plus ``extra_done``), priority, source and layout are
    inherited from the probe; visit bits and resolution state start fresh
    (a new unit of routing work).  :meth:`tuples` materialises the run into
    the QTuples its matches stand for.
    """

    __slots__ = (
        "tuple_id", "query_id", "_aliases", "_head", "_head_ts", "_priority", "done_mask",
        "source", "layout", "spanned_mask", "built_mask", "created_at", "_signature",
        "rows", "row_ts",
    )

    #: Matches passed the probe's predicates: a run never failed one.
    failed = False

    def __init__(
        self,
        probe: QTuple,
        alias: str,
        rows: list[Row],
        row_ts: list[float],
        extra_done: int = 0,
        created_at: float | None = None,
    ):
        if alias in probe._aliases:
            raise ExecutionError(f"tuple already spans alias {alias!r}")
        bit = probe.layout.bit_of(alias)
        self.query_id = probe.query_id
        self._aliases = (*probe._aliases, alias)
        self._head = probe.rows
        self._head_ts = probe.build_timestamps
        self._priority = probe._priority
        self.done_mask = probe.done_mask | extra_done
        self.source = probe.source
        self.layout = probe.layout
        self.spanned_mask = probe.spanned_mask | bit
        self.built_mask = probe.built_mask | bit
        self.created_at = probe.created_at if created_at is None else created_at
        #: As :meth:`QTuple.routing_signature` builds it, shared by the matches.
        self._signature = (
            self.spanned_mask, self.done_mask, 0, self.built_mask, 0, 0, False, None,
            self._priority > 0.0,
        )
        self.rows, self.row_ts = rows, row_ts
        self.tuple_id = _id_allocator.allocate(len(rows))

    def routing_signature(self) -> tuple:
        """The routing signature every match of the run has."""
        return self._signature

    def extension(self, row: Row, row_timestamp: float, tuple_id: int) -> QTuple:
        """One match as a QTuple: every slot set here, no container
        allocated, ``__init__`` never run."""
        result = object.__new__(QTuple)
        result.tuple_id = tuple_id
        result.query_id = self.query_id
        result._aliases = self._aliases
        result._head = self._head
        result._row = row
        result._head_ts = self._head_ts
        result._row_ts = row_timestamp
        result.done_mask = self.done_mask
        result.source = self.source
        result._priority = self._priority
        result.visits_token = 0
        result.layout = self.layout
        result.spanned_mask = self.spanned_mask
        result.built_mask = self.built_mask
        result.resolved_mask = 0
        result.exhausted_mask = 0
        result._stop_stem_probes = False
        result._probe_completion_alias = None
        result.created_at = self.created_at
        result.failed = False
        result._signature = self._signature
        return result

    def first(self) -> QTuple:
        """The first match as a QTuple: an exemplar of the run's signature."""
        return self.extension(self.rows[0], self.row_ts[0], self.tuple_id)

    def tuples(self) -> list[QTuple]:
        """Every match as a QTuple, in match order."""
        extension, first = self.extension, self.tuple_id
        return [
            extension(row, row_timestamp, first + offset)
            for offset, (row, row_timestamp) in enumerate(zip(self.rows, self.row_ts))
        ]

    def take(self, count: int) -> "MatchRun":
        """Split off the first ``count`` matches as a run of their own; this
        run keeps the rest (and the ids after them)."""
        head = object.__new__(MatchRun)
        head.tuple_id, head.query_id, head._aliases = self.tuple_id, self.query_id, self._aliases
        head._head, head._head_ts, head._priority = self._head, self._head_ts, self._priority
        head.done_mask, head.source, head.layout = self.done_mask, self.source, self.layout
        head.spanned_mask, head.built_mask = self.spanned_mask, self.built_mask
        head.created_at, head._signature = self.created_at, self._signature
        head.rows, self.rows = self.rows[:count], self.rows[count:]
        head.row_ts, self.row_ts = self.row_ts[:count], self.row_ts[count:]
        self.tuple_id += count
        return head

    def __repr__(self) -> str:
        return f"MatchRun#{self.tuple_id}+{len(self.rows)}[{','.join(sorted(self._aliases))}]"


@dataclass(frozen=True)
class EOTTuple:
    """An End-Of-Transmission marker, encoded as a dataflow tuple.

    Paper section 2.1.3: when an AM has returned all matches for a probe it
    sends an EOT tuple encoding the probing predicate; for a scan the
    predicate is simply "true".  EOT tuples are built into SteMs so that the
    SteM can decide whether it holds *all* matches for a future probe.

    Attributes:
        table: the base table the AM reads.
        alias: the query alias the EOT applies to (equal to ``table`` unless
            the query uses explicit aliases).
        am_name: name of the access module that emitted the EOT.
        bound_columns: the bind columns of the probe; empty for a scan EOT.
        bound_values: the values the probe bound them to; empty for a scan EOT.
    """

    table: str
    alias: str
    am_name: str
    bound_columns: tuple[str, ...] = ()
    bound_values: tuple[Any, ...] = ()

    @property
    def is_scan_eot(self) -> bool:
        """True for the "predicate = true" EOT emitted by a completed scan."""
        return not self.bound_columns

    def __repr__(self) -> str:
        if self.is_scan_eot:
            return f"EOT({self.alias}: scan complete)"
        bindings = ", ".join(
            f"{column}={value!r}"
            for column, value in zip(self.bound_columns, self.bound_values)
        )
        return f"EOT({self.alias}: {bindings})"


def singleton_maker(alias: str, source: str, layout: PlanLayout):
    """The delivery template of one access method: ``make(row, created_at)``.

    Every row an access method delivers becomes a singleton on the same
    alias, source and layout, so the alias bit is worked out once.  Like
    :meth:`MatchRun.extension`, ``make`` sets every slot itself, to exactly
    what ``QTuple({alias: row}, source=..., created_at=..., layout=...)``
    gives, and allocates the tuple id first.
    """
    spanned_mask = layout.bit_of(alias)
    aliases = (alias,)
    new = object.__new__

    def make(row: Row, created_at: float = 0.0) -> QTuple:
        result = new(QTuple)
        result.tuple_id = _id_allocator.allocate()
        result.query_id = ""
        result._aliases = aliases
        result._head = ()
        result._row = row
        result._head_ts = ()
        result._row_ts = UNBUILT
        result.done_mask = 0
        result.source = source
        result._priority = 0.0
        result.visits_token = 0
        result.layout = layout
        result.spanned_mask = spanned_mask
        result.built_mask = 0
        result.resolved_mask = 0
        result.exhausted_mask = 0
        result._stop_stem_probes = False
        result._probe_completion_alias = None
        result.created_at = created_at
        result.failed = False
        result._signature = None
        return result

    return make
