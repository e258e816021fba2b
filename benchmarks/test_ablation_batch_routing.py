"""Ablation: batched eddy routing with the destination-signature cache.

The eddy of this reproduction normally routes one tuple per simulator event
and recomputes the legal-destination set from scratch each time — the
per-tuple routing overhead the adaptive-query-processing literature names as
the tax for adaptivity.  With ``batch_size > 1`` each ``eddy:route`` event
drains up to ``batch_size`` ready tuples, groups them by routing signature,
resolves destinations once per signature (memoized for the query's life),
and asks the policy once per routed tuple.

Claims checked here:

* **Correctness is untouched.**  On the paper-scale Figure 7 and Figure 8
  workloads, batch routing produces byte-identical result tuples to
  per-tuple routing, for both the SteM architecture and the encapsulated
  join-module baseline, at identical completion times.
* **Routing amortises under load.**  At paper scale the router is mostly
  idle between arrivals (there is little to batch), yet simultaneous
  deliveries (probe results, lookup match+EOT pairs) already cut simulator
  events measurably.  On a heavy-traffic variant of the Figure 7 workload
  (same query, hardware-speed scan) chains overlap, the ready queue deepens,
  and ``batch_size=16`` needs over 2x fewer ``eddy:route`` events — the
  amortisation the ROADMAP's heavy-traffic north star asks for.
* **The cache carries the batching win.**  Destination resolution hits the
  signature cache far more often than it misses.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_figure7, run_figure8

#: Paper-scale parameters (Table 3 / section 4.2).
FIG7_PARAMS = dict(r_rows=1000, distinct_a=250, r_scan_rate=50.0, s_index_latency=1.6)
#: The same workload with a hardware-speed scan: inter-arrival time is
#: comparable to the routing chain latency, so routing work overlaps and
#: batches actually fill.
FIG7_HEAVY_PARAMS = dict(**{**FIG7_PARAMS, "r_scan_rate": 5000.0})


def result_identity(result):
    """Canonical identity of the result set (order-insensitive)."""
    return sorted(tuple_.identity() for tuple_ in result.tuples)


def test_fig7_batch_routing_is_byte_identical(benchmark):
    """Figure 7, both architectures: batch 16 == per-tuple, fewer events."""
    per_tuple = run_figure7(**FIG7_PARAMS, batch_size=1)
    batched = benchmark.pedantic(
        run_figure7, kwargs=dict(**FIG7_PARAMS, batch_size=16), rounds=1, iterations=1
    )
    for approach in ("index-join", "stems"):
        base = per_tuple.results[approach]
        fast = batched.results[approach]
        assert result_identity(base) == result_identity(fast)
        assert fast.completion_time == pytest.approx(base.completion_time)
        assert fast.eddy_stats["route_events"] <= base.eddy_stats["route_events"]
        # Every tuple is still individually routed and accounted for.
        assert fast.eddy_stats["routings"] == base.eddy_stats["routings"]
    # The SteM architecture has simultaneous deliveries (probe results,
    # match+EOT pairs) to coalesce even at paper scale.
    stems_ratio = (
        per_tuple.results["stems"].eddy_stats["route_events"]
        / batched.results["stems"].eddy_stats["route_events"]
    )
    assert stems_ratio >= 1.2
    benchmark.extra_info["route_events_per_tuple"] = per_tuple.results["stems"].eddy_stats[
        "route_events"
    ]
    benchmark.extra_info["route_events_batch16"] = batched.results["stems"].eddy_stats[
        "route_events"
    ]
    benchmark.extra_info["stems_event_ratio"] = round(stems_ratio, 2)


def test_fig7_heavy_traffic_batching_halves_route_events(benchmark):
    """Heavy-traffic Figure 7: >= 2x fewer eddy:route events at batch 16."""
    per_tuple = run_figure7(**FIG7_HEAVY_PARAMS, batch_size=1)
    batched = benchmark.pedantic(
        run_figure7,
        kwargs=dict(**FIG7_HEAVY_PARAMS, batch_size=16),
        rounds=1,
        iterations=1,
    )
    base = per_tuple.results["stems"]
    fast = batched.results["stems"]
    assert result_identity(base) == result_identity(fast)
    ratio = base.eddy_stats["route_events"] / fast.eddy_stats["route_events"]
    assert ratio >= 2.0
    # The amortisation also shows in virtual time charged for routing: one
    # route_cost per decision, and decisions < routings once groups form.
    assert fast.eddy_stats["route_decisions"] < fast.eddy_stats["routings"]
    # The destination-signature cache does the heavy lifting.
    cache = fast.module_stats["destination-cache"]
    assert cache["hits"] > cache["misses"]
    benchmark.extra_info["event_ratio_batch16"] = round(ratio, 2)
    benchmark.extra_info["cache_hits"] = int(cache["hits"])
    benchmark.extra_info["cache_misses"] = int(cache["misses"])


@pytest.mark.parametrize("batch_size", [4, 16, 64], ids=lambda b: f"batch={b}")
def test_fig7_heavy_traffic_event_reduction_grows_with_batch(benchmark, batch_size):
    """Larger batches never route more events, and outputs never change."""
    per_tuple = run_figure7(**FIG7_HEAVY_PARAMS, batch_size=1)
    batched = benchmark.pedantic(
        run_figure7,
        kwargs=dict(**FIG7_HEAVY_PARAMS, batch_size=batch_size),
        rounds=1,
        iterations=1,
    )
    base = per_tuple.results["stems"]
    fast = batched.results["stems"]
    assert result_identity(base) == result_identity(fast)
    assert fast.eddy_stats["route_events"] < base.eddy_stats["route_events"]
    benchmark.extra_info["route_events"] = fast.eddy_stats["route_events"]


def test_fig8_batch_routing_is_byte_identical(benchmark):
    """Figure 8, all three approaches: batch 16 == per-tuple routing."""
    per_tuple = run_figure8(batch_size=1)
    batched = benchmark.pedantic(
        run_figure8, kwargs=dict(batch_size=16), rounds=1, iterations=1
    )
    for approach in ("index-join", "hash-join", "hybrid"):
        base = per_tuple.results[approach]
        fast = batched.results[approach]
        assert result_identity(base) == result_identity(fast)
        assert fast.eddy_stats["route_events"] <= base.eddy_stats["route_events"]
    hybrid_ratio = (
        per_tuple.results["hybrid"].eddy_stats["route_events"]
        / batched.results["hybrid"].eddy_stats["route_events"]
    )
    assert hybrid_ratio >= 1.15
    benchmark.extra_info["hybrid_event_ratio"] = round(hybrid_ratio, 2)
