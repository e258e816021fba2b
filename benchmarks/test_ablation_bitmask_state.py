"""Ablation: bitmask TupleState and the allocation-free routing signature.

Paper §2.1 stores TupleState as "done bits" plus per-alias flags.  Before
the PlanLayout refactor this reproduction modelled those bits as Python
``set`` objects and rebuilt **six frozensets per tuple per routing round**
inside ``QTuple.routing_signature()`` — the hottest allocation site once
batched routing made the signature the grouping key of every batch.  Now
each query compiles to a :class:`~repro.query.layout.PlanLayout`, the
TupleState fields are machine-word integers, and the signature is a
memoized tuple of those ints.

Claims checked here:

* **No per-call containers.**  Repeated signature calls return the very
  same tuple object (memoized until the next state mutation), and every
  element is a scalar — there is nothing left to allocate per call.
* **Measured wall-clock speedup.**  On TupleStates sampled from the
  heavy-traffic multi-query workload (the staggered fleet of
  ``bench.workloads``), computing the bitmask signature from scratch is
  at least 1.3x faster than rebuilding the legacy frozenset signature
  from the equivalent set-based state (in practice far more).
* **Byte-identical execution.**  The heavy-traffic fleet produces
  identical per-query result sets with batch_size=1 and batch_size=16
  under the bitmask signatures, shared SteMs included.
"""

from __future__ import annotations

import time

from repro.bench.workloads import staggered_fleet_workload
from repro.core.tuples import QTuple
from repro.engine.multi import MultiQueryEngine, run_multi

#: Heavy-traffic fleet: 6 staggered R⨝T queries over one pair of shared
#: SteMs, arrivals 2 virtual seconds apart.
FLEET_PARAMS = dict(n_queries=6, stagger=2.0, rows=200, policy="naive")


class _LegacyTupleState:
    """The pre-refactor TupleState storage: one Python set per field.

    Used to time what ``routing_signature()`` used to do — copy each set
    into a frozenset, every call — against the same states the bitmask
    implementation handles, without charging the legacy side for the view
    decoding the new representation would add.
    """

    __slots__ = (
        "components", "done", "visits", "built", "resolved", "exhausted",
        "stop_stem_probes", "probe_completion_alias", "priority",
    )

    def __init__(self, tuple_: QTuple):
        self.components = dict(tuple_.components)
        self.done = set(tuple_.done)
        self.visits = dict.fromkeys(tuple_.visits, 1)
        self.built = set(tuple_.built)
        self.resolved = set(tuple_.resolved)
        self.exhausted = set(tuple_.exhausted)
        self.stop_stem_probes = tuple_.stop_stem_probes
        self.probe_completion_alias = tuple_.probe_completion_alias
        self.priority = tuple_.priority

    def routing_signature(self) -> tuple:
        # Verbatim shape of the pre-refactor implementation.
        return (
            frozenset(self.components),
            frozenset(self.done),
            frozenset(self.visits.items()),
            frozenset(self.built),
            frozenset(self.resolved),
            frozenset(self.exhausted),
            self.stop_stem_probes,
            self.probe_completion_alias,
            self.priority > 0.0,
        )


def _run_fleet(batch_size: int):
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    return run_multi(list(workload.admissions), workload.catalog, batch_size=batch_size)


def _result_identity(result):
    return {
        query_id: sorted(t.identity() for t in result[query_id].tuples)
        for query_id in result.results
    }


def _sample_states(limit: int = 256) -> list[QTuple]:
    """Routed dataflow tuples in end-of-run TupleState, across all fleet
    queries.

    Every tuple a module hands back to an eddy passes through the eddy's
    ``to_eddy_all``; a recording wrapper there keeps each distinct QTuple
    once (EOTs are not routed by signature).  Emitted tuples alone would
    sample only output states, whose visits and resolved sets are empty.
    """
    workload = staggered_fleet_workload(**FLEET_PARAMS)
    engine = MultiQueryEngine(list(workload.admissions), workload.catalog, batch_size=16)
    seen: dict[int, QTuple] = {}
    for query_id in engine.admitted:
        eddy = engine.eddy_of(query_id)

        def recording(items, source=None, deliver=eddy.to_eddy_all):
            for item in items:
                if isinstance(item, QTuple):
                    seen.setdefault(id(item), item)
            deliver(items, source)

        eddy.to_eddy_all = recording
    engine.run()
    pool = list(seen.values())
    assert pool, "the fleet routed no tuples to sample states from"
    return pool[:limit]


def test_bitmask_signature_allocates_no_per_call_containers():
    for tuple_ in _sample_states():
        first = tuple_.routing_signature()
        # Memoized: the same object comes back until a state mutation...
        assert tuple_.routing_signature() is first
        # ...and it contains only scalars — masks, flags, one alias name.
        assert all(
            isinstance(part, (int, bool, str, type(None))) for part in first
        )
        # A mutation invalidates the memo; the fresh signature differs.
        tuple_.record_visit("bench:probe")
        fresh = tuple_.routing_signature()
        assert fresh is not first and fresh != first


def test_bitmask_signature_wall_clock_speedup(benchmark):
    """>= 1.3x over the legacy frozenset signature on fleet TupleStates."""
    pool = _sample_states()
    legacy_pool = [_LegacyTupleState(t) for t in pool]
    rounds = 200

    def bitmask_pass() -> int:
        total = 0
        for tuple_ in pool:
            tuple_._signature = None  # force a fresh computation, no memo hits
            total += len(tuple_.routing_signature())
        return total

    def legacy_pass() -> int:
        total = 0
        for state in legacy_pool:
            total += len(state.routing_signature())
        return total

    # Warm up both paths, then measure the same number of passes each.
    bitmask_pass(), legacy_pass()
    start = time.perf_counter()
    for _ in range(rounds):
        legacy_pass()
    legacy_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(rounds):
        bitmask_pass()
    bitmask_elapsed = time.perf_counter() - start

    speedup = legacy_elapsed / bitmask_elapsed
    assert speedup >= 1.3, (
        f"bitmask signature only {speedup:.2f}x faster than the legacy "
        f"frozenset signature ({bitmask_elapsed:.4f}s vs {legacy_elapsed:.4f}s)"
    )

    # Memo-hit path (what repeated consultations within a routing round pay).
    start = time.perf_counter()
    for _ in range(rounds):
        for tuple_ in pool:
            tuple_.routing_signature()
    memo_elapsed = time.perf_counter() - start

    benchmark.pedantic(bitmask_pass, rounds=5, iterations=10)
    benchmark.extra_info["sampled_states"] = len(pool)
    benchmark.extra_info["speedup_vs_legacy"] = round(speedup, 2)
    benchmark.extra_info["memo_hit_speedup_vs_legacy"] = round(
        legacy_elapsed / max(memo_elapsed, 1e-9), 2
    )


def test_fleet_results_identical_across_batch_sizes(benchmark):
    """Heavy-traffic fleet: batch 16 == per-tuple routing, per query."""
    per_tuple = _run_fleet(batch_size=1)
    batched = benchmark.pedantic(
        _run_fleet, kwargs=dict(batch_size=16), rounds=1, iterations=1
    )
    assert _result_identity(batched) == _result_identity(per_tuple)
    # Batching still amortises: strictly fewer routing events fleet-wide.
    events_per_tuple = sum(
        per_tuple[q].eddy_stats["route_events"] for q in per_tuple.results
    )
    events_batched = sum(
        batched[q].eddy_stats["route_events"] for q in batched.results
    )
    assert events_batched < events_per_tuple
    benchmark.extra_info["route_events_batch1"] = events_per_tuple
    benchmark.extra_info["route_events_batch16"] = events_batched