"""The adversarial workload gauntlet: hostile inputs, oracles, scorecards.

Every benign workload in :mod:`repro.bench.workloads` shows eddies+SteMs in
their comfort zone — uniform keys, well-behaved sources, one query shape.
The gauntlet is the opposite: each scenario family is *built* to punish a
non-adaptive router, and each run is held to two standards at once:

* **Correctness under hostility** — a differential oracle: the adaptive
  result set must equal the static/recompute reference.
* **Adaptivity** — a per-policy routing-share time series (who got the
  tuples, when) and a *regret* metric: how much slower the policy finished
  than the best static selection order, run on the same engine with the
  same costs.  An adaptive policy that has actually learned the workload
  shows lower regret than syntactic-order routing; on shifting workloads it
  can beat every static order (negative regret).

Scenario families
-----------------

========  ==============================================================
Family    Hostility
========  ==============================================================
skew      Zipf-skewed join keys + a mis-ordered selection pair: the weak
          predicate is listed first, the strong one (Zipf tail) second.
shift     Correlated predicates whose selectivities *swap* between
          physical blocks, defeating lifetime-average estimates.
burst     Scripted source outages (rows burst out at recovery), jittered
          out-of-order delivery, exponential index latency.
shapes    A fleet of star / chain / self-join / cycle queries sharing
          one catalog (and, for chain+cycle, the same SteMs).
========  ==============================================================

The CLI front-end is ``repro gauntlet``; the pytest-benchmark ablation in
``benchmarks/test_gauntlet_adversarial.py`` emits ``BENCH_gauntlet.json``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.bench.workloads import (
    MultiQueryWorkload,
    Workload,
    bursty_join_workload,
    heterogeneous_shapes_workload,
    phase_shift_workload,
    skewed_join_workload,
)
from repro.core.policies import StaticOrderPolicy
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine
from repro.query.query import Query
from repro.sim.tracing import TraceLog

#: The adaptive policies the gauntlet scores (plus the static baselines it
#: computes internally for the regret metric).
GAUNTLET_POLICIES = ("naive", "lottery", "benefit")

#: Routing batch sizes every differential check runs under.
GAUNTLET_BATCH_SIZES = (1, 8)


@dataclass(frozen=True)
class GauntletScenario:
    """One gauntlet scenario: a family label and a fresh-workload factory.

    ``build()`` must return a *new* workload (fresh catalog, fresh tables)
    on every call, so runs never share mutable state.
    """

    name: str
    family: str
    build: Callable[[], Workload | MultiQueryWorkload]
    description: str = ""


def gauntlet_scenarios(smoke: bool = False) -> dict[str, GauntletScenario]:
    """The scenario registry, one entry per hostile family.

    Args:
        smoke: shrink every scenario to CI-smoke sizes (a few hundred
            routed tuples instead of a few thousand).
    """
    if smoke:
        sizes = dict(skew_rows=150, shift_rows=240, burst_rows=80, fleet_rows=40)
    else:
        sizes = dict(skew_rows=600, shift_rows=600, burst_rows=400, fleet_rows=150)
    return {
        "skew": GauntletScenario(
            name="skew",
            family="skew",
            build=lambda: skewed_join_workload(fact_rows=sizes["skew_rows"]),
            description="Zipf-skewed join keys, weak-then-strong filter order",
        ),
        "shift": GauntletScenario(
            name="shift",
            family="shift",
            # The scan is paced *below* the pipeline's service rate: with a
            # faster scan, module queues grow deep, routing decisions are
            # made long before their feedback arrives, and no policy can
            # react to the mid-run selectivity flip in time.
            build=lambda: phase_shift_workload(
                rows=sizes["shift_rows"], scan_rate=150.0
            ),
            description="correlated predicates whose selectivities swap mid-run",
        ),
        "burst": GauntletScenario(
            name="burst",
            family="burst",
            build=lambda: bursty_join_workload(rows=sizes["burst_rows"]),
            description="scripted outages, out-of-order delivery, bursty index",
        ),
        "shapes": GauntletScenario(
            name="shapes",
            family="shapes",
            build=lambda: heterogeneous_shapes_workload(
                rows=sizes["fleet_rows"],
                nodes=max(10, sizes["fleet_rows"] // 5),
                edges=max(30, sizes["fleet_rows"]),
            ),
            description="star / chain / self-join / cycle fleet on shared SteMs",
        ),
    }


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def differential_check(
    scenario: GauntletScenario, policy: str, batch_size: int
) -> dict:
    """Adaptive run vs. the static/recompute reference, on fresh catalogs.

    Returns a record with the adaptive row count and whether the canonical
    identity multiset matches the reference exactly.
    """
    workload = scenario.build()
    if isinstance(workload, MultiQueryWorkload):
        return _differential_check_fleet(workload, policy, batch_size)
    result = execute(
        workload.query,
        workload.catalog,
        policy=policy,
        cost_model=workload.cost_model,
        batch_size=batch_size,
    )
    reference = execute(workload.query, scenario.build().catalog, engine="static")
    return {
        "policy": policy,
        "batch_size": batch_size,
        "rows": result.row_count,
        "ok": sorted(result.canonical_identities())
        == sorted(reference.canonical_identities()),
    }


def _differential_check_fleet(
    workload: MultiQueryWorkload, policy: str, batch_size: int
) -> dict:
    """Every fleet member's result set vs. its isolated static reference."""
    admissions = tuple(
        type(admission)(
            query=admission.query,
            query_id=admission.query_id,
            policy=policy,
            arrival_time=admission.arrival_time,
        )
        for admission in workload.admissions
    )
    fleet = MultiQueryEngine(
        admissions, workload.catalog, batch_size=batch_size
    ).run()
    per_query: dict[str, bool] = {}
    for admission in admissions:
        reference = execute(admission.query, workload.catalog, engine="static")
        per_query[admission.query_id] = sorted(
            fleet[admission.query_id].canonical_identities()
        ) == sorted(reference.canonical_identities())
    return {
        "policy": policy,
        "batch_size": batch_size,
        "rows": fleet.total_rows,
        "per_query": per_query,
        "ok": all(per_query.values()),
    }


# ---------------------------------------------------------------------------
# Adaptivity scorecard.
# ---------------------------------------------------------------------------

def routing_share_series(
    trace: TraceLog, bins: int = 12
) -> list[dict]:
    """Per-module routing shares over time, from a run's ``route`` records.

    Splits the run into ``bins`` equal spans of virtual time and reports,
    for each span, the fraction of routing decisions that went to each
    module — the time series that makes "the policy moved its tuples from
    the weak filter to the strong one at t≈12s" visible.
    """
    routes = trace.filter("route")
    if not routes:
        return []
    horizon = max(record.time for record in routes) or 1.0
    width = horizon / bins
    buckets: list[dict[str, int]] = [dict() for _ in range(bins)]
    for record in routes:
        index = min(int(record.time / width), bins - 1)
        _, module_name = record.detail
        buckets[index][module_name] = buckets[index].get(module_name, 0) + 1
    series = []
    for index, counts in enumerate(buckets):
        total = sum(counts.values())
        if not total:
            continue
        series.append(
            {
                "time": round((index + 1) * width, 4),
                "decisions": total,
                "shares": {
                    name: round(count / total, 4)
                    for name, count in sorted(counts.items())
                },
            }
        )
    return series


def static_order_candidates(query: Query) -> list[tuple[str, ...]]:
    """The static selection orders a plan could have fixed up front.

    The degree of freedom a classic optimizer has inside this engine is the
    order of the selection modules (builds and probes are constrained by
    the Table 2 rules); each permutation of the selection modules is one
    candidate static plan.
    """
    names = [
        f"select:{predicate.name}" for predicate in query.selection_predicates
    ]
    if not names:
        return [()]
    return [tuple(p) for p in itertools.permutations(names)]


def best_static_plan(
    scenario: GauntletScenario, batch_size: int = 1
) -> dict | None:
    """Run every candidate static order; return the fastest (the oracle plan).

    Returns None for fleet scenarios (a fleet has no single static order).
    """
    workload = scenario.build()
    if isinstance(workload, MultiQueryWorkload):
        return None
    best: dict | None = None
    for order in static_order_candidates(workload.query):
        fresh = scenario.build()
        result = execute(
            fresh.query,
            fresh.catalog,
            policy=StaticOrderPolicy(order),
            cost_model=fresh.cost_model,
            batch_size=batch_size,
        )
        completion = result.completion_time
        if completion is None:
            continue
        if best is None or completion < best["completion"]:
            best = {"order": list(order), "completion": round(completion, 4)}
    return best


def score_policy(
    scenario: GauntletScenario,
    policy: str,
    batch_size: int = 1,
    bins: int = 12,
    best_static: dict | None = None,
) -> dict:
    """One policy's adaptivity scorecard entry for one scenario.

    ``regret`` is ``completion / best_static_completion - 1``: 0 means the
    policy matched the best static plan, positive means it paid that
    fraction extra, negative means it beat every static order (possible on
    shifting workloads, where no fixed order is right for the whole run).
    """
    workload = scenario.build()
    if isinstance(workload, MultiQueryWorkload):
        admissions = tuple(
            type(admission)(
                query=admission.query,
                query_id=admission.query_id,
                policy=policy,
                arrival_time=admission.arrival_time,
            )
            for admission in workload.admissions
        )
        fleet = MultiQueryEngine(
            admissions, workload.catalog, batch_size=batch_size
        ).run()
        completions = [
            result.completion_time
            for _, result in fleet.items()
            if result.completion_time is not None
        ]
        return {
            "policy": policy,
            "completion": round(max(completions), 4) if completions else None,
            "rows": fleet.total_rows,
            "regret": None,
            "routing_shares": [],
        }
    trace = TraceLog()
    result = execute(
        workload.query,
        workload.catalog,
        policy=policy,
        cost_model=workload.cost_model,
        batch_size=batch_size,
        trace=trace,
    )
    completion = result.completion_time
    regret = None
    if best_static is not None and completion is not None:
        regret = round(completion / best_static["completion"] - 1.0, 4)
    return {
        "policy": policy,
        "completion": round(completion, 4) if completion is not None else None,
        "rows": result.row_count,
        "regret": regret,
        "routing_shares": routing_share_series(trace, bins=bins),
    }


# ---------------------------------------------------------------------------
# The gauntlet runner.
# ---------------------------------------------------------------------------

def run_scenario(
    scenario: GauntletScenario,
    policies: Sequence[str] = GAUNTLET_POLICIES,
    batch_sizes: Sequence[int] = GAUNTLET_BATCH_SIZES,
    bins: int = 12,
) -> dict:
    """Run one scenario's full program: oracles first, then the scorecard."""
    sample = scenario.build()
    record: dict = {
        "family": scenario.family,
        "description": scenario.description,
        "parameters": dict(sample.parameters),
        "differential": [],
        "policies": {},
    }
    for policy in policies:
        for batch_size in batch_sizes:
            record["differential"].append(
                differential_check(scenario, policy, batch_size)
            )
    best_static = best_static_plan(scenario)
    record["best_static"] = best_static
    for policy in policies:
        record["policies"][policy] = score_policy(
            scenario, policy, bins=bins, best_static=best_static
        )
    record["all_correct"] = all(check["ok"] for check in record["differential"])
    return record


def run_gauntlet(
    names: Sequence[str] | None = None,
    smoke: bool = False,
    policies: Sequence[str] = GAUNTLET_POLICIES,
    batch_sizes: Sequence[int] = GAUNTLET_BATCH_SIZES,
    bins: int = 12,
) -> dict:
    """Run the gauntlet and return the ``BENCH_gauntlet.json`` payload."""
    registry = gauntlet_scenarios(smoke=smoke)
    selected = list(names) if names else list(registry)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown gauntlet scenario(s) {unknown}; "
            f"expected a subset of {sorted(registry)}"
        )
    scenarios = {
        name: run_scenario(
            registry[name], policies=policies, batch_sizes=batch_sizes, bins=bins
        )
        for name in selected
    }
    return {
        "smoke": smoke,
        "policies": list(policies),
        "batch_sizes": list(batch_sizes),
        "scenarios": scenarios,
        "all_correct": all(record["all_correct"] for record in scenarios.values()),
    }


def gauntlet_summary(payload: Mapping) -> str:
    """A plain-text scorecard for the CLI."""
    lines = ["Adversarial gauntlet" + (" (smoke)" if payload.get("smoke") else "")]
    for name, record in payload["scenarios"].items():
        status = "OK " if record["all_correct"] else "FAIL"
        lines.append(f"[{status}] {name:<8} {record['description']}")
        best = record.get("best_static")
        if best:
            lines.append(
                f"       best static order {best['order']} "
                f"finishes at {best['completion']}s"
            )
        for policy, score in record["policies"].items():
            regret = score["regret"]
            regret_text = f"regret {regret:+.2%}" if regret is not None else "regret n/a"
            lines.append(
                f"       {policy:<8} completion {score['completion']}s  "
                f"{regret_text}  ({score['rows']} rows)"
            )
    return "\n".join(lines)
