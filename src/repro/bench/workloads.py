"""Benchmark workloads: the paper's Table 3 sources and experiment queries.

Each experiment gets a builder returning a fresh catalog plus the query, so
benchmark runs never share mutable state.  The virtual-time parameters are
chosen to land in the paper's regime:

* **Q1 / Figure 7** — R(1000 rows, 250 distinct ``a``) scanned quickly; S
  reachable only through an asynchronous index on ``x`` with a 1.6 virtual-
  second lookup latency, so the ~250 distinct lookups dominate and the whole
  query takes ≈400 virtual seconds (as in the paper's plot).
* **Q4 / Figure 8** — R(1000 rows) scanned over ≈59 virtual seconds (the
  paper notes the R scan ends at ~59 s); T(1000 rows) has both a scan
  (≈6.7 rows/s, finishing ≈150 s) and an index on ``key`` with a 0.2 s
  lookup latency (1000 sequential lookups ≈ 200 s) — so the scan is the
  faster access method overall but the index wins early, exactly the
  crossover the experiment is about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.costs import CostModel
from repro.engine.multi import ChurnEvent, QueryAdmission
from repro.query.parser import parse_query
from repro.query.predicates import selection
from repro.query.query import Query
from repro.sim.latency import burst_windows
from repro.storage.catalog import Catalog
from repro.storage.datagen import (
    make_cyclic_triple,
    make_edges_table,
    make_phase_shift_table,
    make_skewed_pair,
    make_source_r,
    make_source_s,
    make_source_t,
    make_string_dimension,
)


@dataclass(frozen=True)
class Workload:
    """A benchmark workload: a catalog, a query, and descriptive parameters.

    Attributes:
        preferences: optional user-interest predicates (not filters) handed
            to the adaptive engines; tuples satisfying them get a priority
            boost (paper section 4.1's online metric).
        cost_model: optional cost model the workload is calibrated against
            (adversarial scenarios scale CPU costs up so routing-order
            mistakes are measurable); None keeps the engine default.
    """

    name: str
    catalog: Catalog
    query: Query
    parameters: dict
    preferences: tuple = ()
    cost_model: CostModel | None = None

    def __repr__(self) -> str:
        return f"Workload({self.name}, {self.parameters})"


# ---------------------------------------------------------------------------
# Q1 / Figure 7: R join S on R.a = S.x, S reachable only through an index.
# ---------------------------------------------------------------------------

def q1_workload(
    r_rows: int = 1000,
    distinct_a: int = 250,
    r_scan_rate: float = 50.0,
    s_index_latency: float = 1.6,
    seed: int = 0,
) -> Workload:
    """The paper's query Q1 with the Table 3 sources R and S."""
    catalog = Catalog()
    catalog.add_table(make_source_r(r_rows, distinct_a, seed=seed))
    catalog.add_table(make_source_s(max(distinct_a, 1)))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_index("S", ["x"], latency=s_index_latency)
    query = parse_query("SELECT * FROM R, S WHERE R.a = S.x", name="Q1")
    return Workload(
        name="q1",
        catalog=catalog,
        query=query,
        parameters={
            "r_rows": r_rows,
            "distinct_a": distinct_a,
            "r_scan_rate": r_scan_rate,
            "s_index_latency": s_index_latency,
        },
    )


# ---------------------------------------------------------------------------
# Q4 / Figure 8: R join T on key; T has both a scan and an index.
# ---------------------------------------------------------------------------

def q4_workload(
    rows: int = 1000,
    r_scan_rate: float = 17.0,
    t_scan_rate: float = 6.7,
    t_index_latency: float = 0.2,
    seed: int = 0,
) -> Workload:
    """The paper's query Q4 with the Table 3 sources R and T.

    The equi-join is between the key columns of R and T (every R row has
    exactly one T match), so lookup caching plays no role — the experiment
    isolates the access-method / join-algorithm choice.
    """
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, distinct_a=max(rows // 4, 1), seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_scan("T", rate=t_scan_rate)
    catalog.add_index("T", ["key"], latency=t_index_latency)
    query = parse_query("SELECT * FROM R, T WHERE R.key = T.key", name="Q4")
    return Workload(
        name="q4",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "r_scan_rate": r_scan_rate,
            "t_scan_rate": t_scan_rate,
            "t_index_latency": t_index_latency,
        },
    )


# ---------------------------------------------------------------------------
# Extension experiments (the paper's other "salient points").
# ---------------------------------------------------------------------------

def competitive_ams_workload(
    rows: int = 600,
    fast_rate: float = 50.0,
    slow_rate: float = 50.0,
    slow_stall_at: float = 2.0,
    slow_stall_duration: float = 30.0,
    join_rows: int = 600,
    seed: int = 0,
) -> Workload:
    """Two competing scan AMs on the same table, one of which stalls.

    Reproduces salient point 2 of section 4: the eddy runs both access
    methods, the SteM absorbs their duplicates, and the query finishes at the
    speed of the healthy AM with almost no redundant work surviving the SteM.
    """
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, distinct_a=max(rows // 4, 1), seed=seed))
    catalog.add_table(make_source_t(join_rows, seed=seed + 1))
    catalog.add_scan("R", name="R_scan_flaky", rate=slow_rate,
                     stall_at=slow_stall_at, stall_duration=slow_stall_duration)
    catalog.add_scan("R", name="R_scan_healthy", rate=fast_rate, initial_delay=0.5)
    catalog.add_scan("T", rate=100.0)
    query = parse_query("SELECT * FROM R, T WHERE R.key = T.key", name="competitive-AMs")
    return Workload(
        name="competitive_ams",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "slow_stall_at": slow_stall_at,
            "slow_stall_duration": slow_stall_duration,
        },
    )


def cyclic_workload(
    rows: int = 200,
    match_fraction: float = 0.4,
    stalled_source: str | None = "C",
    stall_at: float = 0.5,
    stall_duration: float = 20.0,
    seed: int = 0,
) -> Workload:
    """A cyclic three-way join with one delayed source.

    Reproduces salient point 3: with SteMs no spanning tree is fixed up
    front, so when one source stalls the other two keep joining and results
    flow as soon as the stalled source recovers; a static spanning tree that
    routes everything through the stalled table blocks instead.
    """
    table_a, table_b, table_c = make_cyclic_triple(rows, seed=seed,
                                                   match_fraction=match_fraction)
    catalog = Catalog()
    catalog.add_table(table_a)
    catalog.add_table(table_b)
    catalog.add_table(table_c)
    for name in ("A", "B", "C"):
        if name == stalled_source:
            catalog.add_scan(name, rate=100.0, stall_at=stall_at,
                             stall_duration=stall_duration)
        else:
            catalog.add_scan(name, rate=100.0)
    query = parse_query(
        "SELECT * FROM A, B, C "
        "WHERE A.ab = B.ab AND B.bc = C.bc AND C.ca = A.ca",
        name="cyclic-triangle",
    )
    return Workload(
        name="cyclic",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "match_fraction": match_fraction,
            "stalled_source": stalled_source,
            "stall_duration": stall_duration,
        },
    )


def prioritized_workload(
    rows: int = 500,
    priority_fraction: float = 0.1,
    r_scan_rate: float = 25.0,
    t_scan_rate: float = 5.0,
    t_index_latency: float = 0.25,
    seed: int = 0,
) -> Workload:
    """A Q4-style join where the user prioritises part of R.

    Reproduces salient point 5: a *preference* predicate (not a filter)
    raises the priority of matching tuples; the benefit policy then spends
    the scarce index budget on them, so prioritised results arrive earlier
    than the rest even though the query result is unchanged.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_scan("T", rate=t_scan_rate)
    catalog.add_index("T", ["key"], latency=t_index_latency)
    threshold = max(1, int(distinct_a * priority_fraction))
    preference = selection("R.a", "<", threshold, priority=5.0)
    query = parse_query("SELECT * FROM R, T WHERE R.key = T.key", name="prioritized")
    return Workload(
        name="prioritized",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "priority_threshold": threshold,
            "t_index_latency": t_index_latency,
        },
        preferences=(preference,),
    )


# ---------------------------------------------------------------------------
# Multi-query workloads (paper §2.1.4: SteM sharing across concurrent queries).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiQueryWorkload:
    """A multi-query workload: one catalog, N staggered query admissions.

    Attributes:
        name: workload name.
        catalog: the shared catalog (all admissions read from it).
        admissions: the :class:`~repro.engine.multi.QueryAdmission` list, in
            admission order with increasing ``arrival_time``.
        parameters: descriptive parameters for reports.
    """

    name: str
    catalog: Catalog
    admissions: tuple[QueryAdmission, ...]
    parameters: dict

    def __repr__(self) -> str:
        return (
            f"MultiQueryWorkload({self.name}, {len(self.admissions)} queries, "
            f"{self.parameters})"
        )


def staggered_fleet_workload(
    n_queries: int = 8,
    stagger: float = 4.0,
    rows: int = 250,
    r_scan_rate: float = 40.0,
    t_scan_rate: float = 25.0,
    t_index_latency: float = 0.2,
    policy: str = "naive",
    seed: int = 0,
) -> MultiQueryWorkload:
    """N staggered R⨝T queries over one catalog, with varied selections.

    The continuous-query scenario of the paper's §2.1.4 sharing argument:
    queries arrive ``stagger`` virtual seconds apart, all join R and T on
    ``key``, and each applies its own selectivity cutoff on ``R.a`` (the
    earlier the query, the tighter the cut), so per-query result sets
    differ while every query's builds populate the same pair of SteMs.
    The last admission has no selection at all — it reads both tables in
    full, the best case for arriving onto already-sealed shared SteMs.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_scan("T", rate=t_scan_rate)
    catalog.add_index("T", ["key"], latency=t_index_latency)
    admissions = []
    for position in range(n_queries):
        if position == n_queries - 1:
            sql = "SELECT * FROM R, T WHERE R.key = T.key"
        else:
            cutoff = max(1, (distinct_a * (position + 1)) // n_queries)
            sql = f"SELECT * FROM R, T WHERE R.key = T.key AND R.a < {cutoff}"
        admissions.append(
            QueryAdmission(
                query=parse_query(sql, name=f"fleet-{position}"),
                query_id=f"q{position}",
                policy=policy,
                arrival_time=stagger * position,
            )
        )
    return MultiQueryWorkload(
        name="staggered_fleet",
        catalog=catalog,
        admissions=tuple(admissions),
        parameters={
            "n_queries": n_queries,
            "stagger": stagger,
            "rows": rows,
            "policy": policy,
        },
    )


# ---------------------------------------------------------------------------
# Continuous-query churn (dynamic admission/retirement over shared SteMs).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChurnWorkload:
    """A continuous-query churn workload: Poisson arrivals and lifetimes.

    Attributes:
        name: workload name.
        catalog: the shared catalog every admitted query reads from.
        events: the admission/retirement timeline
            (:class:`~repro.engine.multi.ChurnEvent`), time-ordered.
        parameters: descriptive parameters for reports.
    """

    name: str
    catalog: Catalog
    events: tuple[ChurnEvent, ...]
    parameters: dict

    @property
    def admissions(self) -> tuple[QueryAdmission, ...]:
        """The admissions of the timeline, in arrival order.

        Useful for building the static-fleet baseline (same queries, same
        arrival times, no retirement) and isolated-run references.
        """
        return tuple(
            event.admission for event in self.events if event.action == "admit"
        )

    def __repr__(self) -> str:
        return (
            f"ChurnWorkload({self.name}, {len(self.admissions)} admissions, "
            f"{self.parameters})"
        )


def churn_workload(
    duration: float = 40.0,
    arrival_rate: float = 0.25,
    mean_lifetime: float = 15.0,
    min_lifetime: float = 0.0,
    rows: int = 200,
    r_scan_rate: float = 40.0,
    t_scan_rate: float = 25.0,
    t_index_latency: float = 0.2,
    policy: str = "naive",
    seed: int = 0,
) -> ChurnWorkload:
    """A Poisson admission/retirement timeline over one R⨝T catalog.

    Queries arrive as a Poisson process of rate ``arrival_rate`` over
    ``duration`` virtual seconds and live for ``min_lifetime`` plus an
    exponential of mean ``mean_lifetime``; each applies its own selectivity
    cutoff on ``R.a`` (cycled over a small pool, with every fourth query
    unfiltered) so per-query result sets differ while every query's builds
    populate the same pair of shared SteMs.  The timeline is deterministic
    in ``seed`` — and, importantly, the *queries and arrival times* depend
    only on the arrival draws, so rebuilding the workload with a larger
    ``min_lifetime`` (e.g. one derived from isolated completion times)
    keeps the same fleet.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    catalog.add_scan("R", rate=r_scan_rate)
    catalog.add_scan("T", rate=t_scan_rate)
    catalog.add_index("T", ["key"], latency=t_index_latency)
    rng = random.Random(seed)
    events: list[ChurnEvent] = []
    time = 0.0
    position = 0
    while True:
        time += rng.expovariate(arrival_rate)
        if time >= duration:
            break
        lifetime = min_lifetime + rng.expovariate(1.0 / mean_lifetime)
        if position % 4 == 3:
            sql = "SELECT * FROM R, T WHERE R.key = T.key"
        else:
            cutoff = max(1, (distinct_a * ((position % 4) + 1)) // 4)
            sql = f"SELECT * FROM R, T WHERE R.key = T.key AND R.a < {cutoff}"
        query_id = f"churn{position}"
        admission = QueryAdmission(
            query=parse_query(sql, name=f"churn-{position}"),
            query_id=query_id,
            policy=policy,
            arrival_time=time,
        )
        events.append(ChurnEvent(time=time, action="admit", admission=admission))
        events.append(
            ChurnEvent(time=time + lifetime, action="retire", query_id=query_id)
        )
        position += 1
    events.sort(key=lambda event: event.time)
    return ChurnWorkload(
        name="churn",
        catalog=catalog,
        events=tuple(events),
        parameters={
            "duration": duration,
            "arrival_rate": arrival_rate,
            "mean_lifetime": mean_lifetime,
            "min_lifetime": min_lifetime,
            "rows": rows,
            "policy": policy,
            "queries": position,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# Adversarial gauntlet workloads (hostile inputs; see repro.bench.adversarial).
# ---------------------------------------------------------------------------

#: CPU-cost scaling used by the gauntlet's single-query scenarios: with the
#: default microscopic costs, routing-order mistakes are invisible next to
#: source delivery times; scaling routing/selection/probe costs up makes a
#: misordered selection pipeline *cost* something, which is exactly what the
#: regret metric measures.
GAUNTLET_COST_SCALE = 50.0


def skewed_join_workload(
    fact_rows: int = 600,
    dim_rows: int = 100,
    skew: float = 1.2,
    hot_range: int = 1000,
    strong_cutoff: int = 300,
    weak_fraction: float = 0.9,
    scan_rate: float = 400.0,
    cost_scale: float = GAUNTLET_COST_SCALE,
    seed: int = 0,
) -> Workload:
    """A fact/dimension join with Zipf-skewed keys and a mis-ordered filter.

    ``F(id, fk, hot, cold)`` joins ``D(id, tag)`` on the Zipf-skewed ``fk``.
    The SQL lists the *weak* predicate first (``cold < 90% of the range``,
    passes ~90%) and the *strong* one second (``hot > strong_cutoff``,
    passes only the Zipf tail, ~8%), so a policy that routes in syntactic
    order pays the weak selection for every fact row before the strong one
    drops it.  Adaptive policies should learn to reverse the order.
    """
    fact, dim = make_skewed_pair(
        fact_rows=fact_rows,
        dim_rows=dim_rows,
        skew=skew,
        hot_range=hot_range,
        seed=seed,
    )
    catalog = Catalog()
    catalog.add_table(fact)
    catalog.add_table(dim)
    catalog.add_scan("F", rate=scan_rate)
    catalog.add_scan("D", rate=scan_rate)
    weak_cutoff = int(hot_range * weak_fraction)
    query = parse_query(
        "SELECT * FROM F, D WHERE F.fk = D.id "
        f"AND F.cold < {weak_cutoff} AND F.hot > {strong_cutoff}",
        name="gauntlet-skew",
    )
    return Workload(
        name="skewed_join",
        catalog=catalog,
        query=query,
        parameters={
            "fact_rows": fact_rows,
            "dim_rows": dim_rows,
            "skew": skew,
            "strong_cutoff": strong_cutoff,
            "weak_cutoff": weak_cutoff,
            "cost_scale": cost_scale,
            "seed": seed,
        },
        cost_model=CostModel().scaled(cost_scale),
    )


def phase_shift_workload(
    rows: int = 600,
    phases: int = 2,
    wide_range: int = 1000,
    narrow_range: int = 60,
    scan_rate: float = 400.0,
    cost_scale: float = GAUNTLET_COST_SCALE,
    seed: int = 0,
) -> Workload:
    """Correlated predicates whose selectivities *swap* mid-run.

    ``P`` is generated in contiguous blocks (see
    :func:`~repro.storage.datagen.make_phase_shift_table`): in even blocks
    ``a < narrow_range`` is highly selective and ``b < narrow_range`` passes
    everything, in odd blocks the two swap.  Scans deliver in physical
    order, so any fixed selection order is wrong for half the rows — the
    workload that defeats lifetime-average selectivity estimates and
    rewards policies that track *recent* behaviour.
    """
    table = make_phase_shift_table(
        "P",
        rows,
        phases=phases,
        wide_range=wide_range,
        narrow_range=narrow_range,
        seed=seed,
    )
    dim = make_string_dimension("D", narrow_range, seed=seed + 1)
    catalog = Catalog()
    catalog.add_table(table)
    catalog.add_table(dim)
    catalog.add_scan("P", rate=scan_rate)
    catalog.add_scan("D", rate=scan_rate)
    query = parse_query(
        "SELECT * FROM P, D WHERE P.fk = D.id "
        f"AND P.a < {narrow_range} AND P.b < {narrow_range}",
        name="gauntlet-shift",
    )
    return Workload(
        name="phase_shift",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "phases": phases,
            "wide_range": wide_range,
            "narrow_range": narrow_range,
            "cost_scale": cost_scale,
            "seed": seed,
        },
        cost_model=CostModel().scaled(cost_scale),
    )


def bursty_join_workload(
    rows: int = 400,
    scan_rate: float = 100.0,
    burst_period: float = 2.0,
    up_fraction: float = 0.5,
    jitter: float = 0.5,
    index_latency: float = 0.05,
    strong_fraction: float = 0.125,
    cost_scale: float = 20.0,
    seed: int = 0,
) -> Workload:
    """A join whose sources stall, burst, and deliver out of order.

    The R scan follows a scripted periodic outage schedule — rows due
    during a down-window burst out at recovery — while the T scan's
    deliveries are jittered enough to arrive out of physical order, and the
    T index answers with exponentially distributed latencies.  Correctness
    must survive all three; the selection pair (weak listed first) keeps
    the routing-order question alive for the adaptivity scorecard.
    """
    distinct_a = max(rows // 4, 1)
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    horizon = 2.0 * rows / scan_rate + burst_period
    stalls = tuple(
        (window.start, window.duration)
        for window in burst_windows(burst_period, up_fraction, horizon)
    )
    catalog.add_scan("R", rate=scan_rate, stalls=stalls)
    catalog.add_scan(
        "T", rate=scan_rate, jitter=jitter, jitter_seed=seed + 2
    )
    catalog.add_index(
        "T",
        ["key"],
        latency=index_latency,
        latency_model="exponential",
        latency_seed=seed + 3,
    )
    strong_cutoff = max(1, int(distinct_a * strong_fraction))
    query = parse_query(
        "SELECT * FROM R, T WHERE R.key = T.key "
        f"AND R.a < {distinct_a} AND R.a < {strong_cutoff}",
        name="gauntlet-burst",
    )
    return Workload(
        name="bursty_join",
        catalog=catalog,
        query=query,
        parameters={
            "rows": rows,
            "burst_period": burst_period,
            "up_fraction": up_fraction,
            "jitter": jitter,
            "index_latency": index_latency,
            "strong_cutoff": strong_cutoff,
            "cost_scale": cost_scale,
            "seed": seed,
        },
        cost_model=CostModel().scaled(cost_scale),
    )


def heterogeneous_shapes_workload(
    rows: int = 150,
    nodes: int = 30,
    edges: int = 120,
    stagger: float = 2.0,
    policy: str = "naive",
    seed: int = 0,
) -> MultiQueryWorkload:
    """A fleet of star, chain, self-join, and cyclic queries on one catalog.

    The chain and the cycle read the same three tables (A, B, C), so their
    SteMs are shared; the self-join reads one table under two aliases (one
    registry SteM of its own per alias); the star joins through a single hub.  A shape
    mix none of the homogeneous fleets exercise.
    """
    catalog = Catalog()
    distinct_a = max(rows // 4, 1)
    catalog.add_table(make_source_r(rows, distinct_a=distinct_a, seed=seed))
    catalog.add_table(make_source_s(distinct_a))
    catalog.add_table(make_source_t(rows, seed=seed + 1))
    for table in make_cyclic_triple(rows, seed=seed + 2, match_fraction=0.4):
        catalog.add_table(table)
    catalog.add_table(make_edges_table("E", nodes=nodes, edges=edges, seed=seed + 3))
    for name in ("R", "S", "T", "A", "B", "C", "E"):
        catalog.add_scan(name, rate=200.0)
    shapes = (
        (
            "star",
            "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key",
        ),
        (
            "chain",
            "SELECT * FROM A, B, C WHERE A.ab = B.ab AND B.bc = C.bc",
        ),
        (
            "selfjoin",
            f"SELECT * FROM E e1, E e2 WHERE e1.dst = e2.src AND e1.src < {nodes // 2}",
        ),
        (
            "cycle",
            "SELECT * FROM A, B, C "
            "WHERE A.ab = B.ab AND B.bc = C.bc AND C.ca = A.ca",
        ),
    )
    admissions = tuple(
        QueryAdmission(
            query=parse_query(sql, name=f"shape-{shape}"),
            query_id=shape,
            policy=policy,
            arrival_time=stagger * position,
        )
        for position, (shape, sql) in enumerate(shapes)
    )
    return MultiQueryWorkload(
        name="heterogeneous_shapes",
        catalog=catalog,
        admissions=admissions,
        parameters={
            "rows": rows,
            "nodes": nodes,
            "edges": edges,
            "stagger": stagger,
            "policy": policy,
            "seed": seed,
        },
    )
