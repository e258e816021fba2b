"""ProbePlans: SteM probe situations compiled to positional evaluation.

Every result tuple the system emits is born inside a SteM probe.  Walking
the predicate trees per candidate row would pay Python-object tax on every
row: a fresh ``dict(probe.components)`` per candidate, column names
resolved through ``Schema.position`` on every access, and equality bindings
re-derived per probe through isinstance dispatch.  A :class:`ProbePlan`
does all of that resolution **once per probe situation**
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

NULL semantics match ``Predicate.evaluate`` exactly: a comparison with a
``None`` operand (or a ``TypeError`` from the operator) is false, and ``IN``
is plain membership.

Plans are compiled lazily, memoized per ``(spanned_mask, done_mask)`` on
each SteM module — one cache per query layout, so queries sharing a SteM
never see each other's plans — and keep no index choice across an index
change: the indexed bindings are re-resolved against the live indexes
whenever the SteM's ``index_epoch`` moves (``ensure_join_columns``
backfilling a new index bumps it).  Column positions are resolved through
the schemas of the compile-time probe's component rows (and, for the
target side, the schema of the SteM's stored rows), relying on the engine
invariant that every row bound to one alias carries its base table's
schema.

This is the only probe path.  Its oracle, the interpreted predicate walk
it replaced, lives with the tests (``tests/reference/interpreted_probe.py``).
"""

from __future__ import annotations

import operator
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
from repro.storage.row import Row
from repro.storage.schema import Schema

#: Source-spec kind tags (first element of a source spec tuple).
_SRC_PROBE = 0   # (kind, alias, position) — probe component value
_SRC_CONST = 1   # (kind, value, None)    — literal constant
_SRC_EXPR = 2    # (kind, expression, None) — generic expression over the probe


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

    Mirrors the interpreted oracle's binding derivation: a column of a
    spanned alias becomes a positional read, a literal folds to a constant,
    and any other expression is kept for evaluation against the probe's
    components.  A column of an *unspanned* alias yields None (no binding
    derivable) — exactly the interpreted oracle's ``continue``.
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
        "unkeyed_checks",
        "in_checks",
        "_cmp_symbolic",
        "_in_symbolic",
        "resolved_stem",
        "resolved_epoch",
        "indexed_bindings",
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
        #: ``Predicate.evaluate`` (allocates a merged dict).
        self.generic_predicates: tuple[Predicate, ...] = ()
        #: Compiled checks (positions resolved); None until :meth:`finish`.
        self.cmp_checks: tuple[tuple, ...] | None = None
        #: Per binding (aligned with :attr:`binding_columns`): the compiled
        #: checks minus the ``=`` that the binding's own bucket satisfies,
        #: or None when no compiled check is exactly that equality.
        self.unkeyed_checks: tuple[tuple[tuple, ...] | None, ...] = ()
        self.in_checks: tuple[tuple, ...] | None = None
        self._cmp_symbolic: list[tuple] = []
        self._in_symbolic: list[tuple] = []
        #: Index resolution memo (see :meth:`resolve_indexes`).
        self.resolved_stem: object | None = None
        self.resolved_epoch: int = -1
        self.indexed_bindings: tuple[tuple[int, object], ...] = ()

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
                interpreted oracle evaluates).
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
            # Binding extraction mirrors the interpreted oracle's derivation
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
        spec (see :meth:`bind_checks`).  Also records, per binding, the
        checks without the ``=`` whose target column and probe-side source
        spec are exactly that binding's (the last such check; a second
        equality on the column with another source stays in).
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
        unkeyed = []
        for column, getter in zip(self.binding_columns, self.binding_getters):
            key_side = ("t", column)
            match = None
            for index, (op, left, right) in enumerate(self._cmp_symbolic):
                if op is operator.eq and (
                    (left == key_side and right == getter)
                    or (right == key_side and left == getter)
                ):
                    match = index
            unkeyed.append(
                None
                if match is None
                else self.cmp_checks[:match] + self.cmp_checks[match + 1 :]
            )
        self.unkeyed_checks = tuple(unkeyed)

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

    def bind_checks(
        self, components: Mapping[str, Row], checks: Sequence[tuple]
    ) -> tuple[tuple, ...]:
        """Bind compiled comparisons (:attr:`cmp_checks` or one of
        :attr:`unkeyed_checks`) to one probe's component values."""
        return tuple(
            (
                op,
                l_pos,
                None if l_pos >= 0 else _resolve_source(l_src, components),
                r_pos,
                None if r_pos >= 0 else _resolve_source(r_src, components),
            )
            for op, l_pos, l_src, r_pos, r_src in checks
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
        self.resolved_stem = stem
        self.resolved_epoch = stem.index_epoch

    def __repr__(self) -> str:
        return (
            f"ProbePlan(target={self.target_alias!r}, "
            f"bindings={list(self.binding_columns)}, "
            f"cmp={len(self._cmp_symbolic)}, in={len(self._in_symbolic)}, "
            f"generic={len(self.generic_predicates)})"
        )


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
