"""The interpreted SteM probe: the reference oracle for the compiled path.

The engine probes a SteM through one path,
:meth:`repro.core.stem.SteM.probe_with_plan`, which evaluates a compiled
:class:`~repro.query.probeplan.ProbePlan` over positional row values.  This
module keeps the straightforward predicate walk that path replaced: per
candidate row it merges the probe's components with the row into a fresh
alias -> row mapping and calls ``Predicate.evaluate`` on every predicate,
deriving the equality bindings and the candidate bucket from the predicate
trees on every call.  It is slow and obviously right, which is what a test
oracle should be.

:func:`interpreted_probe` must agree with ``probe_with_plan`` on the
results (identity, order, done mask, timestamps), the coverage verdict, the
``candidates_examined``/``suppressed_by_timestamp`` accounting, the SteM's
stats and reference-window reordering.
Differential tests call it directly, or substitute it for
``SteM.probe_with_plan`` to run a whole engine on it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.stem import ProbeOutcome, SteM
from repro.core.tuples import MatchRun, QTuple
from repro.errors import ExecutionError
from repro.query.expressions import ColumnRef
from repro.query.layout import done_mask_of
from repro.query.predicates import Comparison, Predicate
from repro.storage.row import Row


def interpreted_probe(
    stem: SteM,
    probe: QTuple,
    target_alias: str,
    predicates: Sequence[Predicate],
    enforce_timestamp: bool = True,
) -> ProbeOutcome:
    """Find matches for ``probe`` among ``stem``'s stored rows.

    Args:
        stem: the SteM probed (its stats and reference hook are updated
            exactly as the engine's path updates them).
        probe: the probing tuple (must not already span ``target_alias``).
        target_alias: the query alias the stored rows will fill.
        predicates: the predicates to verify on the concatenation —
            typically every query predicate evaluable over
            ``probe.aliases | {target_alias}`` that is not yet done.
        enforce_timestamp: apply the TimeStamp constraint (on by default,
            as the engine's probe always does; off only to demonstrate the
            duplicate anomaly of paper Figure 3).

    Returns:
        A :class:`ProbeOutcome` with concatenated results and coverage.
    """
    if target_alias in probe.aliases:
        raise ExecutionError(
            f"probe already spans {target_alias!r}; cannot probe {stem.name}"
        )
    if target_alias not in stem.aliases:
        raise ExecutionError(
            f"alias {target_alias!r} is not served by {stem.name}"
        )
    outcome = ProbeOutcome()

    bindings = _probe_bindings(probe, target_alias, predicates)
    candidates = _candidate_rows(stem, bindings)
    probe_timestamp = probe.timestamp

    matched: list[Row] = []
    stamps: list[float] = []
    for row in candidates:
        outcome.candidates_examined += 1
        row_timestamp = stem._rows[row]
        merged = dict(probe.components)
        merged[target_alias] = row
        if not all(predicate.evaluate(merged) for predicate in predicates):
            continue
        if enforce_timestamp and not probe_timestamp > row_timestamp:
            outcome.suppressed_by_timestamp += 1
            continue
        matched.append(row)
        stamps.append(row_timestamp)
    hook = stem._reference_hook
    if hook is not None:
        # Reference hooks may reorder the row store, so they run only
        # after candidate iteration (candidates can alias ``_rows``).
        for row in matched:
            hook.on_match(stem, row)
    # Stats commit only once the whole candidate loop has survived: a
    # raising generic predicate must leave the counters untouched so the
    # quarantine path can retry or drop the probe without skew.
    stem.stats["probes"] += 1
    stem.stats["matches"] += len(matched)
    if matched:
        outcome.run = MatchRun(
            probe, target_alias, matched, stamps, done_mask_of(predicates)
        )
    outcome.all_matches_known = stem.covers(bindings)
    return outcome


def _probe_bindings(
    probe: QTuple,
    target_alias: str,
    predicates: Sequence[Predicate],
) -> dict[str, Any] | None:
    """Equality bindings (target column -> value) implied by the probe.

    Returns None when no equality binding can be derived, in which case
    candidate enumeration falls back to a full scan of the SteM.
    """
    bindings: dict[str, Any] = {}
    for predicate in predicates:
        if not isinstance(predicate, Comparison) or predicate.op not in ("=", "=="):
            continue
        target_ref = predicate.column_for(target_alias)
        if target_ref is None or target_ref.alias != target_alias:
            continue
        other = predicate.other_side(target_alias)
        if isinstance(other, ColumnRef):
            if other.alias not in probe.components:
                continue
            bindings[target_ref.column] = probe.value(other.alias, other.column)
        else:
            bindings[target_ref.column] = other.evaluate(probe.components)
    return bindings or None


def _candidate_rows(stem: SteM, bindings: Mapping[str, Any] | None) -> Iterable[Row]:
    """Rows worth examining for a probe with the given bindings.

    When several bindings are indexed, the smallest posting list (the
    most selective index for *this* probe's values) wins — every index
    is exact on its column, so any one bucket is a superset of the
    matches and the cheapest superset minimises candidates examined.
    Buckets (``{row: build timestamp}`` dicts) are only iterated.
    """
    if bindings:
        best = None
        for column, value in bindings.items():
            buckets = stem._indexes.get(column)
            if buckets is None:
                continue
            bucket = buckets.get(value, {})
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
    return stem._rows
