"""Output verification: an independent recompute, not the engine's own code.

The reference reads only ``Table.rows``, the *structure* of the parsed
query (tables, comparison sides, GROUP BY and aggregate specs) and Python's
own operators — no predicate evaluation, SteM, eddy or aggregate state of
the engine is involved, so a bug in any of them shows as a mismatch.

What "correct" means depends on whether the workload bounds its SteMs:

* unbounded (``fleet_join``, ``fanout_join``, ``durable_crash``): every
  query's results — for the durable run the results acknowledged before the
  crash plus those emitted after the restore — equal the reference join as
  a multiset: nothing lost, nothing twice.
* bounded (``agg_window``, ``churn_window``): answers depend on eviction
  and admission timing, so a join query must emit only results the
  reference join contains, an aggregate panel's final rows must equal a
  recompute over the rows resident in its SteM at quiesce, and every query
  must agree — as a multiset — with one run in the oracle configuration
  (:data:`ORACLE_OPTIONS`).  Exactly-once is *not* checked here: a row
  evicted from a bounded SteM and delivered again (by another query's scan
  or an index lookup) is built anew and joins its old partners a second
  time.  The repeats are counted (``duplicate_results``) instead, so a
  change to that behaviour shows.
"""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .workloads import Outcome, Prepared

#: The slowest, simplest data plane: row store, interpreted probes, one shard.
ORACLE_OPTIONS = {"columnar": False, "compiled_probes": False, "shards": 1}

_OPERATORS = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class Verdict:
    """The outcome of verifying one repetition."""

    attempted: int
    failures: dict[str, str] = field(default_factory=dict)
    result_rows: int = 0
    #: Results a query delivered more than once (bounded SteMs only; on an
    #: unbounded workload a repeat is a failure).
    duplicate_results: int = 0
    digest: str = ""

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures


def _side(expression, components):
    """One side of a comparison: a column of a bound row, or a constant."""
    if hasattr(expression, "column"):
        return components[expression.alias][expression.column]
    return expression.value


def _holds(predicate, components) -> bool:
    left = _side(predicate.left, components)
    right = _side(predicate.right, components)
    if left is None or right is None:
        return False
    return _OPERATORS[predicate.op](left, right)


def _identity(components) -> str:
    """Same shape as ``QTuple.identity()``, rendered to a string."""
    return repr(
        tuple(
            (alias, row.table, row.values) for alias, row in sorted(components.items())
        )
    )


def reference_join(query, catalog) -> Counter:
    """Hash join + filters over the base tables: identity -> multiplicity."""
    (left, right) = query.tables
    equi = next(
        p for p in query.predicates
        if p.op in ("=", "==")
        and hasattr(p.left, "column")
        and hasattr(p.right, "column")
        and {p.left.alias, p.right.alias} == {left.alias, right.alias}
    )
    sides = {equi.left.alias: equi.left.column, equi.right.alias: equi.right.column}
    buckets: dict = {}
    for row in catalog.table(right.table).rows:
        buckets.setdefault(row[sides[right.alias]], []).append(row)
    rest = [p for p in query.predicates if p is not equi]
    found: Counter = Counter()
    for row in catalog.table(left.table).rows:
        key = row[sides[left.alias]]
        if key is None:
            continue
        for match in buckets.get(key, ()):
            components = {left.alias: row, right.alias: match}
            if all(_holds(p, components) for p in rest):
                found[_identity(components)] += 1
    return found


def reference_aggregate(query, rows) -> tuple:
    """GROUP BY over ``rows`` from scratch, in the engine's output shape."""
    alias = query.tables[0].alias
    groups: dict = {}
    for row in rows:
        if all(_holds(p, {alias: row}) for p in query.predicates):
            key = tuple(row[column.column] for column in query.group_by)
            groups.setdefault(key, []).append(row)
    output = []
    for key in sorted(groups):
        values = list(key)
        for spec in query.aggregates:
            if spec.column is None:
                values.append(len(groups[key]))
                continue
            column = [
                row[spec.column.column]
                for row in groups[key]
                if row[spec.column.column] is not None
            ]
            if spec.func == "count":
                values.append(len(column))
            elif not column:
                values.append(None)
            elif spec.func == "sum":
                values.append(sum(column))
            elif spec.func == "avg":
                values.append(float(Fraction(sum(column), len(column))))
            else:
                values.append(min(column) if spec.func == "min" else max(column))
        output.append(tuple(values))
    return tuple(output)


def delivered(outcome: Outcome) -> dict[str, Counter]:
    """The join results a user saw, per query: acked before a crash + emitted.

    Empty for an aggregate query: its result is the readout, not the rows
    that passed through the eddy on their way into the window.
    """
    seen = {}
    for query_id, result in outcome.result.items():
        found = Counter(outcome.acked.get(query_id, {}))
        if not result.is_aggregate:
            found.update(repr(tuple_.identity()) for tuple_ in result.tuples)
        seen[query_id] = found
    return seen


def result_digest(outcome: Outcome, seen: dict[str, Counter] | None = None) -> str:
    """sha256 over every query's canonical identities and aggregate rows."""
    if seen is None:
        seen = delivered(outcome)
    digest = hashlib.sha256()
    for query_id, found in seen.items():
        digest.update(query_id.encode())
        for identity, count in sorted(found.items()):
            digest.update(f"{identity}*{count}".encode())
        digest.update(repr(outcome.result[query_id].aggregate_rows).encode())
    return digest.hexdigest()


def _check_query(prepared, outcome, query_id, query, found) -> str | None:
    """Why one query's output is wrong, or None when it is right."""
    result = outcome.result[query_id]
    if query.aggregates:
        stem = outcome.engines[-1].registry.stems[query.tables[0].table]
        expected = reference_aggregate(query, list(stem))
        if tuple(result.aggregate_rows) != expected:
            return "aggregate rows differ from a recompute over the resident rows"
        return None
    expected = reference_join(query, prepared.catalog)
    if "stem_eviction" in prepared.options:
        if found.keys() - expected.keys():
            return "emitted a result the reference join does not contain"
    elif found != expected:
        extra = sum((found - expected).values())
        missing = sum((expected - found).values())
        return f"{extra} results too many, {missing} missing against the reference"
    return None


def verify(
    prepared: Prepared, outcome: Outcome, oracle: Outcome | None = None
) -> Verdict:
    """Check one repetition's outputs; ``oracle`` is the differential run."""
    verdict = Verdict(attempted=len(prepared.queries))
    seen = delivered(outcome)
    oracle_seen = delivered(oracle) if oracle is not None else None
    for query_id, query in prepared.queries.items():
        if query_id not in seen:
            verdict.failures[query_id] = "admitted but absent from the result"
            continue
        reason = _check_query(prepared, outcome, query_id, query, seen[query_id])
        if reason is None and oracle is not None and (
            seen[query_id] != oracle_seen.get(query_id)
            or outcome.result[query_id].aggregate_rows
            != oracle.result[query_id].aggregate_rows
        ):
            reason = "differs from the oracle-configuration run"
        if reason is not None:
            verdict.failures[query_id] = reason
    verdict.result_rows = sum(
        sum(found.values()) + len(outcome.result[query_id].aggregate_rows or ())
        for query_id, found in seen.items()
    )
    verdict.duplicate_results = sum(
        sum(found.values()) - len(found) for found in seen.values()
    )
    verdict.digest = result_digest(outcome, seen)
    return verdict
