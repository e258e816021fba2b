"""Execution results and the online metrics the paper's figures plot."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.tuples import Result


class Series:
    """A cumulative time series: (virtual time, cumulative count) pairs.

    Only the times are stored when the counts are 1..n (``counts`` is None),
    which is the case for the output and partial-result series: a kept
    result costs its time, not a pair.  :meth:`from_points` keeps explicit
    counts.  Iteration yields the pairs one at a time; :attr:`points` builds
    a fresh tuple of them on every read.  Equality and hashing compare the
    content, so a series equals :meth:`from_points` of its own pairs.
    """

    __slots__ = ("times", "counts", "name")

    def __init__(
        self,
        times: Iterable[float] = (),
        counts: Iterable[int] | None = None,
        name: str = "",
    ):
        self.times: tuple[float, ...] = tuple(times)
        self.counts: tuple[int, ...] | None = None if counts is None else tuple(counts)
        if self.counts is not None and len(self.counts) != len(self.times):
            raise ValueError("a series needs one count per time")
        self.name = name

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, int]], name: str = "") -> "Series":
        pairs = tuple(points)
        return cls([time for time, _ in pairs], [count for _, count in pairs], name=name)

    @property
    def points(self) -> tuple[tuple[float, int], ...]:
        """The ``(time, count)`` pairs, built afresh on every read."""
        return tuple(self)

    @property
    def final_count(self) -> int:
        """The last cumulative count (0 for an empty series)."""
        if self.counts is None:
            return len(self.times)
        return self.counts[-1] if self.counts else 0

    @property
    def final_time(self) -> float:
        """The time of the last point (0.0 for an empty series)."""
        return self.times[-1] if self.times else 0.0

    def count_at(self, time: float) -> int:
        """Cumulative count at a given virtual time."""
        position = bisect.bisect_right(self.times, time)
        if self.counts is None:
            return position
        return self.counts[position - 1] if position else 0

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, int]]:
        counts = range(1, len(self.times) + 1) if self.counts is None else self.counts
        return zip(self.times, counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.points, self.name))

    def __repr__(self) -> str:
        return f"Series(name={self.name!r}, points={len(self.times)})"


def span_series(entries: Mapping[Iterable[str], Sequence[float]]) -> dict[str, Series]:
    """An eddy's partial-result entry times as cumulative series, keyed by
    span (``"A+B"``).  Entry times are appended under the simulator's
    monotone clock, so each list is already sorted."""
    series: dict[str, Series] = {}
    for span, times in entries.items():
        key = "+".join(sorted(span))
        series[key] = Series(times, name=key)
    return series


@dataclass
class ExecutionResult:
    """Everything an engine reports about one query execution.

    Attributes:
        engine: name of the engine that ran the query.
        query_name: the query's name.
        query_id: the id of the query's admission; ``"q0"`` for a single
            query on the ``stems`` engine, empty on the baseline engines.
        tuples: the results, as :class:`~repro.core.tuples.Result` objects:
            each tuple's id, query, priority and components, without the
            TupleState that routed it.
        output_series: cumulative results over virtual time (Figures 7(i)/8).
        completion_time: virtual time of the last result (None if no results).
        final_time: virtual time when the whole execution quiesced.
        index_probe_series: per access-method cumulative index lookups over
            time (Figure 7(ii)), keyed by module name.
        partial_series: cumulative counts of composite (partial-result)
            tuples entering the dataflow, keyed by their span (e.g.
            ``"A+B"``) — the interactive "partial results" of section 3.4.
        module_stats: per-module operational statistics.
        eddy_stats: the eddy's own statistics (routings, retirements...).
        retired_at: virtual time the query was retired from a continuous
            multi-query run (None when it ran to quiescence); the result
            set is everything emitted up to that instant.
        aggregate_rows: for GROUP BY queries, the incremental aggregate
            output at collection time — one tuple per live group, group
            values then aggregate values, in the deterministic group order
            (None for non-aggregate queries).
        aggregate_labels: the output-column labels of ``aggregate_rows``.
    """

    engine: str
    query_name: str
    query_id: str = ""
    tuples: list[Result] = field(default_factory=list)
    output_series: Series = field(default_factory=Series)
    completion_time: float | None = None
    final_time: float = 0.0
    index_probe_series: dict[str, Series] = field(default_factory=dict)
    partial_series: dict[str, Series] = field(default_factory=dict)
    module_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    eddy_stats: dict[str, int] = field(default_factory=dict)
    retired_at: float | None = None
    aggregate_rows: tuple[tuple, ...] | None = None
    aggregate_labels: tuple[str, ...] = ()

    @property
    def is_aggregate(self) -> bool:
        """True when this result carries GROUP BY aggregate output."""
        return self.aggregate_rows is not None

    @property
    def row_count(self) -> int:
        """Number of result tuples."""
        return len(self.tuples)

    def rows(self) -> list[dict[str, Any]]:
        """Results as flat ``{"alias.column": value}`` dictionaries."""
        flattened = []
        for tuple_ in self.tuples:
            row: dict[str, Any] = {}
            for alias, component in sorted(zip(tuple_._aliases, tuple_.rows)):
                for column, value in component.as_dict().items():
                    row[f"{alias}.{column}"] = value
            flattened.append(row)
        return flattened

    def identities(self) -> list[tuple]:
        """Hashable identities of the results (for set comparisons in tests)."""
        return [tuple_.identity() for tuple_ in self.tuples]

    def canonical_identities(self) -> list[tuple]:
        """The result identities, sorted: the order-insensitive canonical
        form used when comparing result *sets* across configurations."""
        return sorted(self.identities())

    def total_index_lookups(self) -> int:
        """Total index lookups across all access methods / join modules."""
        return sum(series.final_count for series in self.index_probe_series.values())

    def results_at(self, time: float) -> int:
        """Cumulative results produced by the given virtual time."""
        return self.output_series.count_at(time)

    def partials_at(self, span: Iterable[str], time: float) -> int:
        """Cumulative partial results spanning exactly ``span`` by ``time``."""
        key = "+".join(sorted(span))
        series = self.partial_series.get(key)
        return series.count_at(time) if series is not None else 0

    def summary(self) -> str:
        """A short human-readable summary line."""
        completion = (
            f"{self.completion_time:.1f}s" if self.completion_time is not None else "n/a"
        )
        groups = (
            f"{len(self.aggregate_rows)} groups, "
            if self.aggregate_rows is not None
            else ""
        )
        return (
            f"[{self.engine}] {self.query_name}: {groups}{self.row_count} rows, "
            f"last result at {completion}, quiesced at {self.final_time:.1f}s, "
            f"{self.total_index_lookups()} index lookups"
        )


@dataclass
class MultiQueryResult:
    """Everything a multi-query run reports: one result per admitted query.

    Attributes:
        results: per-query :class:`ExecutionResult`, keyed by the query id
            each admission was given (tuples of query ``q`` carry
            ``query_id == q`` — the id threads from admission through the
            eddy and the trace to the outputs collected here).
        final_time: virtual time at which the whole simulation quiesced.
        shared_stems: whether SteMs were shared per base table.
        stem_totals: aggregate build/probe counters over every distinct SteM
            that existed in the run (shared SteMs counted once).  The
            ``insertions`` entry is the shared-vs-private ablation metric.
        stem_stats: per-SteM counters, keyed by SteM name (shared SteMs are
            named after their table, private ones after their alias,
            prefixed by the owning query id).
        registry_stats: the shared registry's own counters (empty when
            running with private SteMs).
        retired: query ids that were retired before the run ended, in
            admission order (their results are retirement-time snapshots).
    """

    results: dict[str, ExecutionResult] = field(default_factory=dict)
    final_time: float = 0.0
    shared_stems: bool = True
    stem_totals: dict[str, int] = field(default_factory=dict)
    stem_stats: dict[str, dict[str, int]] = field(default_factory=dict)
    registry_stats: dict[str, int] = field(default_factory=dict)
    retired: tuple[str, ...] = ()

    def __getitem__(self, query_id: str) -> ExecutionResult:
        return self.results[query_id]

    def __contains__(self, query_id: object) -> bool:
        return query_id in self.results

    def __iter__(self):
        """Iterate query ids in admission order (mapping convention)."""
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def items(self):
        """``(query_id, result)`` pairs, in admission order."""
        return self.results.items()

    def same_results(self, other: "MultiQueryResult") -> bool:
        """True when both runs produced identical per-query result sets.

        The comparison is order-insensitive within each query (via
        :meth:`ExecutionResult.canonical_identities`) — the oracle the
        shared-vs-private SteM ablation is stated in.
        """
        if self.query_ids != other.query_ids:
            return False
        return all(
            self[query_id].canonical_identities()
            == other[query_id].canonical_identities()
            for query_id in self.query_ids
        )

    @property
    def query_ids(self) -> tuple[str, ...]:
        """The admitted query ids, in admission order."""
        return tuple(self.results)

    @property
    def total_rows(self) -> int:
        """Result rows across all queries."""
        return sum(result.row_count for result in self.results.values())

    def summary(self) -> str:
        """A short human-readable multi-line summary."""
        mode = "shared" if self.shared_stems else "private"
        churn = f", {len(self.retired)} retired" if self.retired else ""
        lines = [
            f"[multi/{mode}-stems] {len(self.results)} queries{churn}, "
            f"{self.total_rows} rows, quiesced at {self.final_time:.1f}s, "
            f"{self.stem_totals.get('insertions', 0)} stem insertions "
            f"({self.stem_totals.get('duplicates', 0)} duplicate builds "
            f"coalesced), {self.stem_totals.get('probes', 0)} probes"
        ]
        for query_id, result in self.results.items():
            flag = (
                f" [retired at {result.retired_at:.1f}s]"
                if result.retired_at is not None
                else ""
            )
            lines.append(f"  {query_id}: {result.summary()}{flag}")
        return "\n".join(lines)
