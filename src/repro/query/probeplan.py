"""ProbePlans: SteM probe situations compiled to positional evaluation.

Every result tuple the system emits is born inside a SteM probe, and the
interpreted probe loop paid Python-object tax on every candidate row: a
fresh ``dict(probe.components)`` per candidate, predicate-tree walks that
resolve column names through ``Schema.position`` on every access, and
equality bindings re-derived per probe through isinstance dispatch.  A
:class:`ProbePlan` does all of that resolution **once per probe situation**
— a situation being "tuples with this spanned/done state probing this
target alias", exactly the granularity of the batched eddy's routing
signature — and lowers it to integer positions over the rows' value tuples:

* **binding extractors** — for each equality predicate that equates a
  column of the target alias with something the probe carries, a
  precompiled getter (source alias + column position, or a constant) whose
  values key the SteM's secondary indexes;
* **candidate checks** — comparison predicates lowered to
  ``op(row.values[i], bound_value)`` / ``op(row.values[i], row.values[j])``
  tuples consumed by an allocation-free loop in
  :meth:`repro.core.stem.SteM.probe_with_plan` (``IN`` lists become
  membership tests against their frozenset); anything that is not a plain
  comparison keeps a **generic fallback** through ``Predicate.evaluate``;
* the precomputed ``done_mask`` the concatenated results are stamped with.

NULL semantics match the interpreted path exactly: a comparison with a
``None`` operand (or a ``TypeError`` from the operator) is false, and ``IN``
is plain membership.

Plans are compiled lazily, memoized per ``(spanned_mask, done_mask)`` on
each SteM module — one cache per query layout, so queries sharing a SteM
never see each other's plans — and hold no references into the SteM's
index table: index choice is re-resolved against the live indexes whenever
the SteM's ``index_epoch`` moves (``ensure_join_columns`` backfilling a new
index bumps it).  Column positions are resolved through the schemas of the
compile-time probe's component rows (and, for the target side, the schema
of the SteM's stored rows), relying on the engine invariant that every row
bound to one alias carries its base table's schema.

The escape hatch back to interpreted evaluation is the environment variable
``REPRO_INTERPRETED_PROBES=1`` (or ``compiled_probes=False`` on the engines
and SteM modules).
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from repro.query.expressions import ColumnRef, Expression, Literal
from repro.query.layout import done_mask_of
from repro.query.predicates import (
    _OPERATORS as COMPARISON_OPS,
    Comparison,
    InList,
    Predicate,
    TruePredicate,
)
from repro.storage.columns import (
    FLOAT_EXACT_INT,
    KIND_INT,
    KIND_OBJ,
    _INT64_SAFE,
    numpy_module,
)
from repro.storage.row import Row
from repro.storage.schema import Schema

#: Source-spec kind tags (first element of a source spec tuple).
_SRC_PROBE = 0   # (kind, alias, position) — probe component value
_SRC_CONST = 1   # (kind, value, None)    — literal constant
_SRC_EXPR = 2    # (kind, expression, None) — generic expression over the probe


def compiled_probes_enabled() -> bool:
    """The process default for the compiled probe path (env escape hatch)."""
    return os.environ.get("REPRO_INTERPRETED_PROBES", "") not in ("1", "true", "yes")


def _resolve_source(spec: tuple, components: Mapping[str, Row]) -> Any:
    """Evaluate a probe-side source spec against a probe's components."""
    kind, a, b = spec
    if kind == _SRC_PROBE:
        return components[a].values[b]
    if kind == _SRC_CONST:
        return a
    return a.evaluate(components)


def _source_spec(
    expression: Expression, probe_components: Mapping[str, Row]
) -> tuple | None:
    """Compile a probe-side expression, or None when it cannot be bound.

    Mirrors the interpreted binding derivation: a column of a spanned alias
    becomes a positional read, a literal folds to a constant, and any other
    expression is kept for evaluation against the probe's components.  A
    column of an *unspanned* alias yields None (no binding derivable) —
    exactly the interpreted path's ``continue``.
    """
    if isinstance(expression, ColumnRef):
        row = probe_components.get(expression.alias)
        if row is None:
            return None
        return (_SRC_PROBE, expression.alias, row.schema.position(expression.column))
    if isinstance(expression, Literal):
        return (_SRC_CONST, expression.value, None)
    return (_SRC_EXPR, expression, None)


class ProbePlan:
    """One probe situation, compiled.

    Built by :meth:`compile`; consumed by
    :meth:`repro.core.stem.SteM.probe_with_plan`.  Target-side column
    positions need the stored rows' schema, which may be unknown while the
    SteM is still empty — they are resolved lazily by :meth:`finish` (an
    empty SteM has no candidates, so unfinished checks are never consulted).
    """

    __slots__ = (
        "target_alias",
        "predicates",
        "done_mask",
        "binding_columns",
        "binding_getters",
        "generic_predicates",
        "cmp_checks",
        "in_checks",
        "_cmp_symbolic",
        "_in_symbolic",
        "_resolved_stem",
        "_resolved_epoch",
        "indexed_bindings",
        "_vector",
    )

    def __init__(self, target_alias: str, predicates: Sequence[Predicate]):
        self.target_alias = target_alias
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        #: Done bits of the plan's predicates, OR-ed into every result.
        self.done_mask: int = done_mask_of(self.predicates)
        #: Equality-binding extractors: target column names (first-occurrence
        #: order) and, aligned, their probe-side getters (last write wins,
        #: like the interpreted bindings dict).
        self.binding_columns: tuple[str, ...] = ()
        self.binding_getters: tuple[tuple, ...] = ()
        #: Predicates that could not be lowered; evaluated per candidate via
        #: the interpreted ``Predicate.evaluate`` (allocates a merged dict).
        self.generic_predicates: tuple[Predicate, ...] = ()
        #: Compiled checks (positions resolved); None until :meth:`finish`.
        self.cmp_checks: tuple[tuple, ...] | None = None
        self.in_checks: tuple[tuple, ...] | None = None
        self._cmp_symbolic: list[tuple] = []
        self._in_symbolic: list[tuple] = []
        #: Index resolution memo (see :meth:`resolve_indexes`).
        self._resolved_stem: object | None = None
        self._resolved_epoch: int = -1
        self.indexed_bindings: tuple[tuple[int, object], ...] = ()
        self._vector: "VectorProbePlan | None" = None

    # -- compilation ------------------------------------------------------------

    @classmethod
    def compile(
        cls,
        predicates: Sequence[Predicate],
        target_alias: str,
        probe_components: Mapping[str, Row],
        target_schema: Schema | None = None,
    ) -> "ProbePlan":
        """Compile the probe situation of one exemplar probe tuple.

        Args:
            predicates: the not-yet-done predicates evaluable over
                ``probe aliases | {target_alias}`` (the exact subset the
                interpreted path would evaluate).
            target_alias: the alias the stored rows will fill.
            probe_components: the exemplar probe's components; only the
                *schemas* of the rows are consulted, so any probe with the
                same spanned aliases compiles to the same plan.
            target_schema: schema of the stored rows when already known;
                otherwise target positions resolve on :meth:`finish`.
        """
        plan = cls(target_alias, predicates)
        columns: list[str] = []
        getters: dict[str, tuple] = {}
        generic: list[Predicate] = []
        for predicate in predicates:
            # Binding extraction mirrors the interpreted derivation
            # (isinstance, so Comparison subclasses bind identically on both
            # paths); *lowering* below requires the exact type, because a
            # subclass may override ``evaluate`` and must stay generic.
            if isinstance(predicate, Comparison) and predicate.op in ("=", "=="):
                target_ref = predicate.column_for(target_alias)
                if target_ref is not None and target_ref.alias == target_alias:
                    getter = _source_spec(
                        predicate.other_side(target_alias), probe_components
                    )
                    if getter is not None:
                        if target_ref.column not in getters:
                            columns.append(target_ref.column)
                        getters[target_ref.column] = getter
            if type(predicate) is Comparison:
                left = plan._check_side(predicate.left, probe_components)
                right = plan._check_side(predicate.right, probe_components)
                if left is not None and right is not None:
                    plan._cmp_symbolic.append(
                        (COMPARISON_OPS[predicate.op], left, right)
                    )
                    continue
            elif type(predicate) is InList:
                side = plan._check_side(predicate.column, probe_components)
                if side is not None:
                    plan._in_symbolic.append((side, predicate.values))
                    continue
            elif type(predicate) is TruePredicate:
                continue
            generic.append(predicate)
        plan.binding_columns = tuple(columns)
        plan.binding_getters = tuple(getters[column] for column in columns)
        plan.generic_predicates = tuple(generic)
        if target_schema is not None:
            plan.finish(target_schema)
        return plan

    def _check_side(
        self, expression: Expression, probe_components: Mapping[str, Row]
    ) -> tuple | None:
        """Compile one comparison side, or None to force the generic path.

        Target columns stay symbolic (``("t", column)``) until
        :meth:`finish` resolves them to positions.
        """
        if isinstance(expression, ColumnRef) and expression.alias == self.target_alias:
            return ("t", expression.column)
        return _source_spec(expression, probe_components)

    def finish(self, target_schema: Schema) -> None:
        """Resolve target-side columns to positions in the stored rows.

        Compiled checks are 5-tuples ``(op, l_pos, l_src, r_pos, r_src)``:
        a position >= 0 reads the candidate row's value tuple, -1 means the
        side is probe-bound and its per-probe value comes from the source
        spec (see :meth:`bind_checks`).
        """
        cmp_checks = []
        for op, left, right in self._cmp_symbolic:
            l_pos, l_src = self._finish_side(left, target_schema)
            r_pos, r_src = self._finish_side(right, target_schema)
            cmp_checks.append((op, l_pos, l_src, r_pos, r_src))
        in_checks = []
        for side, values in self._in_symbolic:
            pos, src = self._finish_side(side, target_schema)
            in_checks.append((pos, src, values))
        self.cmp_checks = tuple(cmp_checks)
        self.in_checks = tuple(in_checks)

    @staticmethod
    def _finish_side(spec: tuple, target_schema: Schema) -> tuple[int, tuple | None]:
        if spec[0] == "t":
            return target_schema.position(spec[1]), None
        return -1, spec

    # -- per-probe binding ------------------------------------------------------

    def bind_values(self, components: Mapping[str, Row]) -> list[Any] | None:
        """The equality-binding values of one probe (aligned with
        :attr:`binding_columns`), or None when the plan derives none."""
        getters = self.binding_getters
        if not getters:
            return None
        return [_resolve_source(getter, components) for getter in getters]

    def bindings_mapping(self, values: Sequence[Any] | None) -> dict[str, Any] | None:
        """The ``{target column: value}`` mapping coverage checks consume."""
        if values is None:
            return None
        return dict(zip(self.binding_columns, values))

    def bind_checks(self, components: Mapping[str, Row]) -> tuple[tuple, ...]:
        """Bind the compiled comparisons to one probe's component values."""
        return tuple(
            (
                op,
                l_pos,
                None if l_pos >= 0 else _resolve_source(l_src, components),
                r_pos,
                None if r_pos >= 0 else _resolve_source(r_src, components),
            )
            for op, l_pos, l_src, r_pos, r_src in self.cmp_checks
        )

    def bind_in_checks(self, components: Mapping[str, Row]) -> tuple[tuple, ...]:
        """Bind the compiled IN-list checks to one probe's component values."""
        return tuple(
            (pos, None if pos >= 0 else _resolve_source(src, components), values)
            for pos, src, values in self.in_checks
        )

    # -- index resolution -------------------------------------------------------

    def resolve_indexes(self, stem) -> None:
        """Re-resolve which binding columns are indexed on ``stem``.

        Memoized on ``(stem, stem.index_epoch)``: the plan holds no live
        index references across :meth:`~repro.core.stem.SteM.ensure_join_columns`,
        which bumps the epoch when it backfills a new index.
        """
        self.indexed_bindings = tuple(
            (position, stem._indexes[column])
            for position, column in enumerate(self.binding_columns)
            if column in stem._indexes
        )
        self._resolved_stem = stem
        self._resolved_epoch = stem.index_epoch

    def indexes_stale(self, stem) -> bool:
        """True when :meth:`resolve_indexes` must run for this SteM."""
        return (
            self._resolved_stem is not stem
            or self._resolved_epoch != stem.index_epoch
        )

    def vector(self) -> "VectorProbePlan":
        """This plan's (lazily built) columnar evaluator."""
        evaluator = self._vector
        if evaluator is None:
            evaluator = self._vector = VectorProbePlan(self)
        return evaluator

    def __repr__(self) -> str:
        return (
            f"ProbePlan(target={self.target_alias!r}, "
            f"bindings={list(self.binding_columns)}, "
            f"cmp={len(self._cmp_symbolic)}, in={len(self._in_symbolic)}, "
            f"generic={len(self.generic_predicates)})"
        )


#: :meth:`VectorProbePlan` kernel sentinel: the check is false for every
#: candidate, so the whole probe's selection vector is empty.
_ALL_FALSE = "all-false"

#: Candidate sets smaller than this stay on the per-element baseline even
#: on the numpy backend: array construction, fancy indexing, and ufunc
#: dispatch cost more than a handful of scalar comparisons, so tiny
#: posting-list buckets (the common case in build-heavy workloads) would
#: pay a fixed kernel tax for no win.  It is also the candidate count at
#: which a SteM builds its columnar mirror and below which a probe runs
#: the compiled row loop (``SteM.probe_with_plan``): a SteM no probe of
#: this size ever reaches keeps no mirror at all.  Both paths are
#: semantically identical; tests pin this to 0 to force the mirror and
#: the kernels onto small fixtures.
KERNEL_MIN_CANDIDATES = 32


class VectorProbePlan:
    """A compiled plan's checks lowered to whole-batch columnar kernels.

    The bridge between a finished :class:`ProbePlan` and a SteM's
    :class:`~repro.storage.columns.ColumnStore`: :meth:`select` consumes
    the plan's per-probe bound checks and returns the **selection vector**
    — the candidate slots that survive every comparison and IN check, in
    candidate order.  The caller (``SteM._columnar_survivors``) applies the
    remaining row-plane semantics (floor skip before, generic predicates
    and the TimeStamp constraint after) around it.

    Kernel dispatch is per check, per probe: a check runs as a whole-array
    numpy kernel only when the store's column kinds and the probe-bound
    value provably evaluate identically to the row plane's per-element
    semantics (``None`` operand → false, ``TypeError`` → false, exact
    int/float comparison); everything else — object columns, out-of-range
    integers, inexact int→float64 promotions, non-numeric operands —
    drops to the per-element python baseline, which is also the whole
    evaluator when the store's backend is ``"python"``.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: ProbePlan):
        self.plan = plan

    def select(self, store, slots, index_array, cmp_bound, in_bound):
        """The surviving candidate slots, in candidate order.

        Args:
            store: the SteM's :class:`~repro.storage.columns.ColumnStore`.
            slots: candidate slots (a ``range`` when scanning a dense
                store, else a list — e.g. a posting-list bucket).
            index_array: the slots as an ``intp`` fancy-index array, or
                None when ``slots`` is the whole dense store.
            cmp_bound: :meth:`ProbePlan.bind_checks` output for this probe.
            in_bound: :meth:`ProbePlan.bind_in_checks` output.
        """
        if not cmp_bound and not in_bound:
            return slots
        if store.backend == "numpy" and len(slots) >= KERNEL_MIN_CANDIDATES:
            return self._select_numpy(store, slots, index_array, cmp_bound, in_bound)
        return self._filter_python(store, slots, cmp_bound, in_bound)

    # -- numpy kernels ----------------------------------------------------------

    def _select_numpy(self, store, slots, index_array, cmp_bound, in_bound):
        np_ = numpy_module()
        mask = None
        residual_cmp: list[tuple] = []
        residual_in: list[tuple] = []
        for check in cmp_bound:
            op, l_pos, l_val, r_pos, r_val = check
            if l_pos < 0 and r_pos < 0:
                # Probe-only comparison: constant across candidates (the
                # row plane evaluates it per candidate with the same result).
                if l_val is None or r_val is None:
                    return ()
                try:
                    if not op(l_val, r_val):
                        return ()
                except TypeError:
                    return ()
                continue
            kernel = self._cmp_kernel(store, index_array, op, l_pos, l_val, r_pos, r_val)
            if kernel is None:
                residual_cmp.append(check)
            elif kernel is _ALL_FALSE:
                return ()
            else:
                mask = kernel if mask is None else mask & kernel
        for check in in_bound:
            pos, bound, members = check
            if pos < 0:
                if bound not in members:
                    return ()
                continue
            kernel = self._in_kernel(store, np_, index_array, pos, members)
            if kernel is None:
                residual_in.append(check)
            elif kernel is _ALL_FALSE:
                return ()
            else:
                mask = kernel if mask is None else mask & kernel
        if mask is None:
            survivors = slots
        elif index_array is None:
            survivors = np_.nonzero(mask)[0].tolist()
        else:
            survivors = index_array[mask].tolist()
        if residual_cmp or residual_in:
            survivors = self._filter_python(store, survivors, residual_cmp, residual_in)
        return survivors

    @staticmethod
    def _cmp_kernel(store, index_array, op, l_pos, l_val, r_pos, r_val):
        """One comparison as a boolean mask, ``_ALL_FALSE``, or None.

        None means the check is not kernel-eligible and must run on the
        per-element baseline.  Eligibility is exactly the set of cases
        where int64/float64 array semantics equal Python's arbitrary
        precision comparison: no object columns, no ``None`` operands
        (those fold to ``_ALL_FALSE``), no integers beyond ``±2**62``, and
        no int→float64 promotion unless every promoted value is exactly
        representable (the store's ``exact_float`` flag / ``2**53`` bound).
        """
        kinds = store.kinds
        if l_pos >= 0 and r_pos >= 0:
            l_kind, r_kind = kinds[l_pos], kinds[r_pos]
            if l_kind == KIND_OBJ or r_kind == KIND_OBJ:
                return None
            if l_kind != r_kind:
                int_pos = l_pos if l_kind == KIND_INT else r_pos
                if not store.exact_float[int_pos]:
                    return None
            left = store.np_column(l_pos)
            right = store.np_column(r_pos)
            if index_array is not None:
                left = left[index_array]
                right = right[index_array]
            return op(left, right)
        if l_pos >= 0:
            pos, bound, column_is_left = l_pos, r_val, True
        else:
            pos, bound, column_is_left = r_pos, l_val, False
        if bound is None:
            return _ALL_FALSE
        kind = kinds[pos]
        if kind == KIND_OBJ:
            return None
        if isinstance(bound, bool) or type(bound) is int:
            if not -_INT64_SAFE <= bound <= _INT64_SAFE:
                return None
            if kind != KIND_INT and abs(bound) > FLOAT_EXACT_INT:
                return None
        elif type(bound) is float:
            if kind == KIND_INT and not store.exact_float[pos] and bound == bound:
                # Inexact int→float64 promotion could flip the verdict
                # (NaN bounds compare the same either way, so they pass).
                return None
        else:
            return None
        column = store.np_column(pos)
        if index_array is not None:
            column = column[index_array]
        return op(column, bound) if column_is_left else op(bound, column)

    @staticmethod
    def _in_kernel(store, np_, index_array, pos, members):
        """One IN check as a boolean mask, ``_ALL_FALSE``, or None.

        Only int64 columns are lowered (``np.isin``); members that can
        never equal an int64-held value (strings, out-of-range integers)
        are dropped, float members require the column's values to be
        exactly float64-representable, and anything with nontrivial
        cross-type equality (NaN, Decimal, …) forces the baseline.
        """
        if store.kinds[pos] != KIND_INT:
            return None
        ints: list = []
        floats: list = []
        for member in members:
            if isinstance(member, bool) or type(member) is int:
                if -_INT64_SAFE <= member <= _INT64_SAFE:
                    ints.append(member)
                # else: the column cannot hold a matching value; drop it.
            elif type(member) is float:
                if member != member:
                    return None
                floats.append(member)
            elif type(member) in (str, bytes):
                continue  # never equal to an int
            else:
                return None
        if floats:
            # Mixed member list promotes to float64: the column must be
            # exactly representable, and int members beyond 2**53 (which
            # would *round onto* representable values) cannot match a
            # <= 2**53 column value anyway, so they drop out.
            if not store.exact_float[pos]:
                return None
            values = [
                m for m in ints if -FLOAT_EXACT_INT <= m <= FLOAT_EXACT_INT
            ] + floats
        else:
            values = ints
        if not values:
            return _ALL_FALSE
        column = store.np_column(pos)
        if index_array is not None:
            column = column[index_array]
        return np_.isin(column, values)

    # -- per-element baseline ---------------------------------------------------

    @staticmethod
    def _filter_python(store, slots, cmp_bound, in_bound):
        """The baseline evaluator: row-plane semantics over column lists."""
        cols = store.cols
        out = []
        for slot in slots:
            passed = True
            for op, l_pos, l_val, r_pos, r_val in cmp_bound:
                left = cols[l_pos][slot] if l_pos >= 0 else l_val
                right = cols[r_pos][slot] if r_pos >= 0 else r_val
                if left is None or right is None:
                    passed = False
                    break
                try:
                    if not op(left, right):
                        passed = False
                        break
                except TypeError:
                    passed = False
                    break
            if passed and in_bound:
                for pos, bound, members in in_bound:
                    if (cols[pos][slot] if pos >= 0 else bound) not in members:
                        passed = False
                        break
            if passed:
                out.append(slot)
        return out

    def __repr__(self) -> str:
        return f"VectorProbePlan({self.plan!r})"


def compile_bind_sources(
    predicates: Sequence[Predicate],
    alias: str,
    columns: Sequence[str],
) -> tuple[tuple[tuple, ...], ...]:
    """Precompile an access method's bind-column derivation.

    For each bind column of an index on ``alias``, the ordered candidate
    sources an equality predicate offers: a column of some other alias
    (taken when the probe spans it), a folded constant, or a generic
    expression.  Replaces the per-probe isinstance/``column_for`` scan of
    the predicate list in :meth:`IndexAMModule.bind_key` and
    :meth:`IndexJoinModule.bind_key` with a precomputed walk, preserving
    the predicate-order-first semantics of the interpreted derivation.
    """
    per_column: list[tuple[tuple, ...]] = []
    for column in columns:
        entries: list[tuple] = []
        for predicate in predicates:
            if not isinstance(predicate, Comparison) or predicate.op not in ("=", "=="):
                continue
            own = predicate.column_for(alias)
            if own is None or own.column != column:
                continue
            other = predicate.other_side(alias)
            if isinstance(other, ColumnRef):
                entries.append((_SRC_PROBE, other.alias, other.column))
            elif isinstance(other, Literal):
                # A constant source always binds: later entries are dead.
                entries.append((_SRC_CONST, other.value, None))
                break
            else:
                entries.append((_SRC_EXPR, other, None))
                break
        per_column.append(tuple(entries))
    return tuple(per_column)


def bind_key_from_sources(
    sources: Sequence[Sequence[tuple]],
    components: Mapping[str, Row],
) -> tuple[Any, ...] | None:
    """Derive an index key from precompiled sources, or None if unbindable."""
    values: list[Any] = []
    for entries in sources:
        for kind, a, b in entries:
            if kind == _SRC_PROBE:
                row = components.get(a)
                if row is not None:
                    values.append(row[b])
                    break
            elif kind == _SRC_CONST:
                values.append(a)
                break
            else:
                values.append(a.evaluate(components))
                break
        else:
            return None
    return tuple(values)
