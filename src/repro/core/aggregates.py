"""Incremental GROUP BY aggregates maintained off a SteM's pending delta.

ROADMAP item 2, the CACQ/PSoUP dashboard setting (paper §2.1.4): a
continuous aggregate query over a windowed stream is exactly a ``GROUP BY``
over the rows *currently held* by one SteM — the SteM's eviction policy
(count FIFO, build-timestamp window, reference window) IS the sliding
window.  The SteM records every state transition once, in the one pending
delta its readers share, which is the insertion/retraction substrate of
DBSP-style incremental view maintenance:

* a build (non-duplicate) that passes the query's WHERE predicates applies
  a **+delta** to its group;
* an eviction of a row that passed applies a **−delta**, retracting exactly
  what the insertion contributed;
* a group whose last row retracts disappears;
* deltas are consolidated as the SteM writes them (a Z-set): a build and
  the eviction of the same row cancel, and what is left reaches every
  reader's state once, at the next readout (:class:`AggregateModule`).

Deltas must be *exact* under retraction or incremental state drifts from
the window (the differential suites pin byte-identity against
recompute-from-scratch):

* ``SUM``/``AVG`` keep the finite part of the sum exactly — ints in a Python
  ``int``, finite floats in a :class:`~fractions.Fraction` (float arithmetic
  is not associative; exact arithmetic makes insert-then-retract a true
  identity) — plus counters for NaN/±inf occurrences so hostile values are
  representable and retractable;
* ``MIN``/``MAX`` keep a per-group counter multiset over the value domain:
  retracting the current extreme marks the cached extreme dirty and the
  next read recomputes it over the surviving distinct values — a bounded
  recompute mirroring the SteM's own lazy min/max-timestamp maintenance;
* group keys and multiset keys are *type-tagged* (``1``, ``1.0`` and
  ``True`` land in distinct groups; all NaNs collapse into one), so the
  grouping is deterministic under Python's cross-type equality and
  CPython's identity-based ``hash(nan)``.

Sharing: :class:`AggregateRegistry` deduplicates modules across queries
with the same *grouping signature* (table, group columns, aggregate specs,
canonical predicate set) with ``SteMRegistry``-style owner refcounts; a
query's retirement releases its references and the last release detaches
the module from the SteM's readers.

Recovery: the module bootstraps its state from the SteM's current contents
at attach time.  ``restore_engine`` rebuilds shared SteMs row by row
*before* re-admitting queries, so a restored admission's aggregate module
reconstructs exactly the pre-crash state with no aggregate-specific replay
machinery; checkpoints additionally carry the result rows for
observability and restore-time verification.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef, Literal
from repro.query.predicates import Comparison, InList, Predicate
from repro.query.query import AggregateSpec, Query
from repro.storage.row import Row
from repro.storage.schema import Schema

__all__ = [
    "AggregateModule",
    "AggregateRegistry",
    "AggregateState",
    "aggregate_signature",
]


# -- deterministic value ordering and keying ---------------------------------------

#: Multiset/group key for one value: type-tagged and hashable, collapsing
#: every NaN into one key while keeping 1 / 1.0 / True distinct (their
#: Python hashes collide, which would otherwise merge groups whose encoded
#: outputs differ byte-wise).
def _value_key(value: Any) -> tuple:
    if value is None:
        return ("n",)
    kind = type(value)
    if kind is bool:
        return ("B", value)
    if kind is int:
        return ("i", value)
    if kind is float:
        if math.isnan(value):
            return ("f", "nan")
        return ("f", value.hex())
    if kind is str:
        return ("s", value)
    if kind is bytes:
        return ("y", value)
    if kind is tuple:
        return ("t", tuple(_value_key(item) for item in value))
    raise ExecutionError(
        f"cannot group or order a value of type {kind.__name__!r}: {value!r}"
    )


def _canonical_value(value: Any) -> Any:
    """The representative stored for a value key (NaN payload/sign erased)."""
    if type(value) is float and math.isnan(value):
        return math.nan
    return value


def _order_key(value: Any) -> tuple:
    """A total order over every storable value, for MIN/MAX and row sorting.

    Numerics (bool/int/float) compare numerically and exactly; NaN sorts
    above every numeric; distinct types otherwise sort by rank.  Ties
    (``1`` vs ``1.0`` vs ``True``) break on the type name then the repr, so
    the order is deterministic down to the byte.
    """
    if value is None:
        return (0, 0, "", "")
    kind = type(value)
    if kind is bool or kind is int:
        return (1, value, kind.__name__, repr(value))
    if kind is float:
        if math.isnan(value):
            return (2, 0, "float", "nan")
        return (1, value, "float", repr(value))
    if kind is str:
        return (3, value, "str", repr(value))
    if kind is bytes:
        return (4, value, "bytes", repr(value))
    if kind is tuple:
        return (5, tuple(_order_key(item) for item in value), "tuple", repr(value))
    raise ExecutionError(
        f"cannot group or order a value of type {kind.__name__!r}: {value!r}"
    )


# -- per-aggregate incremental states ----------------------------------------------


class _CountState:
    """COUNT(col): non-null occurrences."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def insert(self, value: Any) -> None:
        if value is not None:
            self.n += 1

    def retract(self, value: Any) -> None:
        if value is not None:
            self.n -= 1

    def value(self) -> int:
        return self.n


def _nearest_double(total: Fraction) -> float:
    """Round an exact rational to the nearest double.

    Past the double range that is ±inf (IEEE round-to-nearest overflow),
    where ``float(Fraction)`` raises instead — and one such group would
    take ``result_rows()`` down for every group.
    """
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


class _SumState:
    """SUM/AVG(col): exact sum of the finite part + hostile counters.

    Floating addition is not associative, so ``(s + x) - x`` drifts; the
    finite part is carried exactly instead, making retraction a true
    inverse: ints and bools in the Python int ``ints``, finite floats (which
    convert exactly) in the :class:`Fraction` ``exact``.  Readouts round the
    one rational ``exact + ints``.  NaN and ±inf are not representable as
    rationals and are counted — the readout projects the counters back onto
    IEEE semantics (any NaN poisons the sum; opposing infinities are NaN;
    one-sided infinities win).
    """

    __slots__ = ("ints", "exact", "floats", "nans", "pos_inf", "neg_inf", "nonnull")

    def __init__(self) -> None:
        self.ints = 0
        self.exact = Fraction(0)
        self.floats = 0
        self.nans = 0
        self.pos_inf = 0
        self.neg_inf = 0
        self.nonnull = 0

    def _apply(self, value: Any, sign: int) -> None:
        if value is None:
            return
        kind = type(value)
        if kind is int or kind is bool:
            self.ints += sign * value
        elif kind is float:
            if math.isnan(value):
                self.nans += sign
            elif value == math.inf:
                self.pos_inf += sign
            elif value == -math.inf:
                self.neg_inf += sign
            else:
                self.exact += sign * Fraction(value)
                self.floats += sign
        else:
            raise ExecutionError(
                f"sum/avg needs numeric values, got {kind.__name__!r}: {value!r}"
            )
        self.nonnull += sign

    def insert(self, value: Any) -> None:
        self._apply(value, 1)

    def retract(self, value: Any) -> None:
        self._apply(value, -1)

    def _special(self) -> float | None:
        if self.nans:
            return math.nan
        if self.pos_inf and self.neg_inf:
            return math.nan
        if self.pos_inf:
            return math.inf
        if self.neg_inf:
            return -math.inf
        return None

    def sum_value(self) -> Any:
        if not self.nonnull:
            return None
        special = self._special()
        if special is not None:
            return special
        if self.floats:
            return _nearest_double(self.exact + self.ints)
        return int(self.exact + self.ints)

    def avg_value(self) -> Any:
        if not self.nonnull:
            return None
        special = self._special()
        if special is not None:
            return special
        return _nearest_double((self.exact + self.ints) / self.nonnull)


class _AvgState(_SumState):
    __slots__ = ()

    def value(self) -> Any:
        return self.avg_value()


class _TotalState(_SumState):
    __slots__ = ()

    def value(self) -> Any:
        return self.sum_value()


class _MinMaxState:
    """MIN/MAX(col): counter multiset with a lazily recomputed extreme.

    Insertions keep the cached extreme current in O(1).  Retracting the
    last occurrence of the cached extreme marks it dirty; the next read
    recomputes over the surviving *distinct* values — bounded work, the
    same trade the SteM makes for its min/max build timestamps.
    """

    __slots__ = ("largest", "counts", "values", "best", "dirty", "recomputes")

    def __init__(self, largest: bool) -> None:
        self.largest = largest
        self.counts: dict[tuple, int] = {}
        self.values: dict[tuple, Any] = {}
        self.best: tuple | None = None
        self.dirty = False
        self.recomputes = 0

    def insert(self, value: Any) -> None:
        if value is None:
            return
        key = _value_key(value)
        count = self.counts.get(key, 0)
        self.counts[key] = count + 1
        if count == 0:
            self.values[key] = _canonical_value(value)
            if not self.dirty:
                if self.best is None:
                    self.best = key
                else:
                    order = _order_key(self.values[key])
                    incumbent = _order_key(self.values[self.best])
                    if (order > incumbent) == self.largest and order != incumbent:
                        self.best = key

    def retract(self, value: Any) -> None:
        if value is None:
            return
        key = _value_key(value)
        count = self.counts.get(key, 0)
        if count <= 0:
            raise ExecutionError(
                f"retraction of {value!r} without a matching insertion "
                "(build/evict delta out of sync)"
            )
        if count == 1:
            del self.counts[key]
            del self.values[key]
            if key == self.best:
                self.best = None
                self.dirty = True
        else:
            self.counts[key] = count - 1

    def value(self) -> Any:
        if not self.counts:
            self.dirty = False
            self.best = None
            return None
        if self.dirty or self.best is None:
            chooser = max if self.largest else min
            self.best = chooser(
                self.counts, key=lambda key: _order_key(self.values[key])
            )
            self.dirty = False
            self.recomputes += 1
        return self.values[self.best]


def _make_state(spec: AggregateSpec):
    if spec.func == "count":
        return _CountState() if spec.column is not None else None
    if spec.func == "sum":
        return _TotalState()
    if spec.func == "avg":
        return _AvgState()
    return _MinMaxState(largest=spec.func == "max")


class _GroupState:
    __slots__ = ("rep_values", "count_star", "states")

    def __init__(self, rep_values: tuple, specs: Sequence[AggregateSpec]):
        self.rep_values = rep_values
        self.count_star = 0
        self.states = [_make_state(spec) for spec in specs]


# -- the grouped incremental state -------------------------------------------------


class AggregateState:
    """Incremental GROUP BY state over one alias's rows.

    Feed :meth:`insert` with every surviving (predicate-passing) window
    arrival and :meth:`retract` with every departure; :meth:`result_rows`
    is then byte-identical to recomputing the aggregates from scratch over
    the surviving rows — the property the hypothesis differential suite
    pins.

    Args:
        group_by: grouping columns (all on the one alias).
        aggregates: the SELECT-list aggregate specs.
    """

    def __init__(
        self,
        group_by: Sequence[ColumnRef],
        aggregates: Sequence[AggregateSpec],
    ):
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self._group_columns = tuple(column.column for column in self.group_by)
        self._agg_columns = tuple(
            spec.column.column if spec.column is not None else None
            for spec in self.aggregates
        )
        #: Column positions of the grouping / aggregated columns in rows of
        #: ``_schema`` (resolved on the first row of each schema).
        self._schema: Schema | None = None
        self._group_positions: tuple[int, ...] = ()
        self._agg_positions: tuple[int | None, ...] = ()
        self._groups: dict[tuple, _GroupState] = {}
        self.inserts = 0
        self.retractions = 0

    def _resolve(self, schema: Schema) -> None:
        """Resolve column names to positions; an unknown column raises here."""
        if schema != self._schema:
            position = schema.position
            self._group_positions, self._agg_positions = (
                tuple(position(column) for column in self._group_columns),
                tuple(
                    None if column is None else position(column)
                    for column in self._agg_columns
                ),
            )
        # Equal schemas share positions (restored rows carry a decoded copy
        # of the catalog's schema); remember the latest for the identity test.
        self._schema = schema

    def insert(self, row: Row) -> None:
        if row.schema is not self._schema:
            self._resolve(row.schema)
        values = row.values
        key = tuple([_value_key(values[p]) for p in self._group_positions])
        group = self._groups.get(key)
        if group is None:
            rep_values = tuple(
                _canonical_value(values[p]) for p in self._group_positions
            )
            group = self._groups[key] = _GroupState(rep_values, self.aggregates)
        group.count_star += 1
        for state, position in zip(group.states, self._agg_positions):
            if state is not None:
                state.insert(values[position])
        self.inserts += 1

    def retract(self, row: Row) -> None:
        if row.schema is not self._schema:
            self._resolve(row.schema)
        values = row.values
        key = tuple([_value_key(values[p]) for p in self._group_positions])
        group = self._groups.get(key)
        if group is None or group.count_star <= 0:
            raise ExecutionError(
                f"retraction for unknown group {key!r} "
                "(build/evict delta out of sync)"
            )
        group.count_star -= 1
        for state, position in zip(group.states, self._agg_positions):
            if state is not None:
                state.retract(values[position])
        if group.count_star == 0:
            del self._groups[key]
        self.retractions += 1

    # -- readout ---------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def minmax_recomputes(self) -> int:
        """Total bounded extreme recomputes triggered by retractions."""
        return sum(
            state.recomputes
            for group in self._groups.values()
            for state in group.states
            if isinstance(state, _MinMaxState)
        )

    def result_rows(self) -> list[tuple]:
        """One output tuple per live group: group values, then aggregates.

        Sorted by the deterministic total order over the group key, so two
        states holding the same groups render identical lists.
        """
        rows = []
        for key in sorted(
            self._groups,
            key=lambda key: tuple(
                _order_key(value) for value in self._groups[key].rep_values
            ),
        ):
            group = self._groups[key]
            values = list(group.rep_values)
            for spec, state in zip(self.aggregates, group.states):
                if state is None:
                    values.append(group.count_star)
                else:
                    values.append(state.value())
            rows.append(tuple(values))
        return rows


# -- the module wired onto a SteM --------------------------------------------------


class AggregateModule:
    """One grouping signature's aggregates, reading one SteM's delta.

    Not an eddy module: aggregate maintenance happens *above* the eddy, on
    the SteM's own pending delta, so it costs no routing steps and is
    independent of policy and batching.  On attach the module becomes a
    reader of the SteM and bootstraps from its current contents — which
    makes late admissions see the shared window, and makes crash recovery
    free (the restore path rebuilds SteMs before re-admitting queries).

    Between readouts the module does nothing: the SteM writes each build
    and eviction once into one delta all its readers share, keyed by
    object identity, where a ``+row`` and a ``-row`` of one object cancel.
    A readout drains it (:meth:`SteM.drain <repro.core.stem.SteM.drain>`)
    and :meth:`apply_delta` applies what is left.  Identity, not ``Row``
    equality (``1 == 1.0 == True``), pairs them, as the SteM records the
    object it stored; group state is order-free, so the bytes are a
    per-event apply's.  A state error (a non-numeric SUM, or the
    retraction out of sync that a direct ``SteM.evict`` with an equal but
    distinct row can cause) leaves the state half-applied: the module
    keeps the error and every later :meth:`result_rows` raises it, until
    a fresh :meth:`attach`.

    Args:
        name: report name (``aggregate:<table>…``).
        stem: the (possibly shared) SteM to read.
        alias: the alias predicates are evaluated under.
        group_by / aggregates: the grouping signature.
        predicates: the query's WHERE predicates; rows failing them never
            enter the aggregate state (and are re-checked symmetrically on
            eviction).  A predicate that *raises* on a row excludes it —
            deterministically, on both edges — matching the routing layer's
            quarantine of poison rows.
    """

    kind = "aggregate"

    def __init__(
        self,
        name: str,
        stem,
        alias: str,
        group_by: Sequence[ColumnRef],
        aggregates: Sequence[AggregateSpec],
        predicates: Sequence[Predicate] = (),
    ):
        self.name = name
        self.stem = stem
        self.alias = alias
        self._spec = (tuple(group_by), tuple(aggregates))
        self.predicates = tuple(predicates)
        self.stats: dict[str, int] = {
            "inserted": 0,
            "retracted": 0,
            "filtered": 0,
            "bootstrapped": 0,
            "cancelled": 0,
        }
        self._attached = False
        self.attach()

    # -- reader plumbing -------------------------------------------------------

    def attach(self) -> None:
        """Read the SteM and bootstrap from its current contents.

        Every attach starts from a fresh state and no error: after a
        :meth:`detach` the old state missed the SteM's changes since.  A
        bootstrap that raises is kept as the module's error.
        """
        if self._attached:
            return
        self.state = AggregateState(*self._spec)
        #: The state error that stopped this module, re-raised at readout.
        self.error: Exception | None = None
        self.stem.add_reader(self)
        self._attached = True
        try:
            for row, _timestamp in self.stem.state_entries():
                if self._passes(row):
                    self.state.insert(row)
                    self.stats["bootstrapped"] += 1
        except Exception as error:  # kept like an apply's, for the readout
            self.error = error

    def detach(self) -> bool:
        """Stop reading the SteM, after applying its pending delta
        (idempotent; True when detached now)."""
        if not self._attached:
            return False
        self.stem.remove_reader(self)
        self._attached = False
        return True

    @property
    def attached(self) -> bool:
        return self._attached

    def _passes(self, row: Row) -> bool:
        if not self.predicates:
            return True
        components = {self.alias: row}
        for predicate in self.predicates:
            try:
                if not predicate.evaluate(components):
                    return False
            except Exception:
                # Poison row: the routing layer quarantines it; here the only
                # requirement is symmetry — exclude it on insert AND evict.
                return False
        return True

    def apply_delta(self, built, evicted, cancelled: int) -> None:
        """Apply a drained delta; insertions first, so retractions find theirs."""
        if self.error is not None:
            return
        stats, state = self.stats, self.state
        stats["cancelled"] += cancelled
        for row in built:
            if self._passes(row):
                state.insert(row)
                stats["inserted"] += 1
            else:
                stats["filtered"] += 1
        for row in evicted:
            if self._passes(row):
                state.retract(row)
                stats["retracted"] += 1

    # -- readout ---------------------------------------------------------------

    def result_rows(self) -> list[tuple]:
        if self._attached:
            self.stem.drain()
        if self.error is not None:
            raise ExecutionError(
                f"{self.name} stopped at a state error: {self.error}"
            ) from self.error
        return self.state.result_rows()

    def stats_snapshot(self) -> dict[str, int]:
        """The counters, with the live group count; never raises, so a
        module stopped by a state error can still be reported and released."""
        if self._attached:
            self.stem.drain()
        snapshot = dict(self.stats)
        snapshot["groups"] = self.state.group_count
        snapshot["minmax_recomputes"] = self.state.minmax_recomputes
        return snapshot

    def __repr__(self) -> str:
        # Read-only: a readout would drain every reader of the SteM.
        return (
            f"AggregateModule({self.name}, {self.state.group_count} groups, "
            f"{'attached' if self._attached else 'detached'})"
        )


# -- cross-query sharing -----------------------------------------------------------


def _canonical_expression(expression, alias: str) -> str:
    if isinstance(expression, ColumnRef):
        if expression.alias == alias:
            return f"@.{expression.column}"
        return str(expression)
    if isinstance(expression, Literal):
        value = expression.value
        return f"{type(value).__name__}:{value!r}"
    return repr(expression)


_CANONICAL_OPS = {"==": "=", "<>": "!="}


def _canonical_predicate(predicate: Predicate, alias: str) -> str:
    """Alias-independent text of one predicate, for signature equality.

    Two queries grouping the same table identically but under different
    aliases (``FROM R`` vs ``FROM R AS x``) must land on one shared module;
    the query's own alias is normalised to ``@``.  Anything unrecognised
    renders as its repr — unique per instance, so unknown predicate types
    simply never share (conservative, not wrong).
    """
    if isinstance(predicate, Comparison):
        op = _CANONICAL_OPS.get(predicate.op, predicate.op)
        return (
            f"{_canonical_expression(predicate.left, alias)} {op} "
            f"{_canonical_expression(predicate.right, alias)}"
        )
    if isinstance(predicate, InList):
        values = ", ".join(
            f"{type(value).__name__}:{value!r}"
            for value in sorted(predicate.values, key=lambda v: (type(v).__name__, repr(v)))
        )
        return f"{_canonical_expression(predicate.column, alias)} IN ({values})"
    return repr(predicate)


def aggregate_signature(query: Query) -> tuple:
    """The grouping signature sharable aggregate modules are keyed by.

    Table, group columns, aggregate specs and the (sorted) canonical
    predicate set — exactly the inputs that determine the module's state.
    The alias is normalised away: it names the stream, not the table.
    """
    alias = query.aggregate_alias
    return (
        query.tables[0].table,
        tuple(column.column for column in query.group_by),
        tuple(
            (spec.func, spec.column.column if spec.column is not None else None)
            for spec in query.aggregates
        ),
        tuple(
            sorted(
                _canonical_predicate(predicate, alias)
                for predicate in query.predicates
            )
        ),
    )


class _RegistryEntry:
    __slots__ = ("module", "owners")

    def __init__(self, module: AggregateModule):
        self.module = module
        self.owners: set[str] = set()


class AggregateRegistry:
    """Shared aggregate modules with owner-attributed refcounts.

    The aggregate analogue of :class:`~repro.core.stem_registry.SteMRegistry`:
    queries with the same :func:`aggregate_signature` maintain **one**
    module (one reader, one state) no matter how many of them are
    admitted; :meth:`release` drops one owner's references and the last
    release detaches the module from its SteM.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, _RegistryEntry] = {}
        self._owned: dict[str, set[tuple]] = {}
        self.stats: dict[str, int] = {"created": 0, "shared": 0, "reclaimed": 0}

    def module_for(
        self,
        query: Query,
        stem,
        owner: str,
    ) -> AggregateModule:
        """The shared module for this query's signature, creating on demand.

        A new module is an :class:`AggregateModule` named after the
        signature's table and reading ``stem``.
        """
        signature = aggregate_signature(query)
        entry = self._entries.get(signature)
        if entry is None:
            module = AggregateModule(
                # ``created`` never falls, so a reclaimed module's name is
                # never reused by a live one.
                name=f"aggregate:{query.tables[0].table}#{self.stats['created']}",
                stem=stem,
                alias=query.aggregate_alias,
                group_by=query.group_by,
                aggregates=query.aggregates,
                predicates=query.predicates,
            )
            entry = self._entries[signature] = _RegistryEntry(module)
            self.stats["created"] += 1
        else:
            self.stats["shared"] += 1
        entry.owners.add(owner)
        self._owned.setdefault(owner, set()).add(signature)
        return entry.module

    def release(self, owner: str) -> int:
        """Drop every reference ``owner`` holds; returns modules reclaimed."""
        reclaimed = 0
        for signature in self._owned.pop(owner, ()):
            entry = self._entries.get(signature)
            if entry is None:
                continue
            entry.owners.discard(owner)
            if not entry.owners:
                entry.module.detach()
                del self._entries[signature]
                self.stats["reclaimed"] += 1
                reclaimed += 1
        return reclaimed

    @property
    def modules(self) -> dict[tuple, AggregateModule]:
        """Live modules by signature (read-only view for reports/snapshots)."""
        return {
            signature: entry.module
            for signature, entry in self._entries.items()
        }

    def __repr__(self) -> str:
        return (
            f"AggregateRegistry({len(self._entries)} modules, "
            f"{self.stats})"
        )
