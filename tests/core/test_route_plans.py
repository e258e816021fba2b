"""Route plans: one output test, destination list and fixed choice per
routing signature.

Covers the three things the plan cache rests on:

* a policy's ``fixed_choice`` is either None or exactly what ``choose``
  returns for every tuple, in both priority classes, and neither call
  records anything — the property that lets the eddy skip the policy;
* the plan path changes nothing observable: every workload shape under
  every shipped policy and batch size yields the same results and the same
  full trace as a policy whose ``fixed_choice`` always declines (which
  forces a per-decision ``choose_batch``);
* the cache's rules: a scan finishing or a SteM sealing drops every plan
  with its choice, a failed exemplar is never cached, and every signature
  resolution counts as exactly one hit or one miss.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.core.constraints import UNCHOSEN, Destination
from repro.core.policies import (
    BenefitPolicy,
    LotteryPolicy,
    NaivePolicy,
    RandomPolicy,
    StaticOrderPolicy,
)
from repro.core.tuples import EOTTuple, singleton_tuple
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.engine.stems_engine import StemsEngine
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t

THREE_WAY_SQL = "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key AND R.a < 8"
STATIC_ORDER = ("stem:T", "stem:S", "stem:R")


def three_way_catalog(rows: int = 40) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(rows, 10, seed=11))
    catalog.add_table(make_source_s(10, seed=12))
    catalog.add_table(make_source_t(rows, seed=13))
    catalog.add_scan("R", rate=200.0)
    catalog.add_scan("S", rate=150.0)
    catalog.add_scan("T", rate=60.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


POLICIES = {
    "naive": NaivePolicy,
    "benefit": BenefitPolicy,
    "lottery": LotteryPolicy,
    "random": RandomPolicy,
    "static": StaticOrderPolicy,
}


def make(name: str, **kwargs):
    cls = POLICIES[name]
    return cls(STATIC_ORDER, **kwargs) if name == "static" else cls(**kwargs)


# -- (a) fixed choices are pure ------------------------------------------------


@pytest.fixture(scope="module")
def half_run_engine():
    """A 3-way engine stopped mid-run: modules with statistics, scans left."""
    engine = StemsEngine(THREE_WAY_SQL, three_way_catalog(), policy="naive")
    engine.run(until=0.15)
    return engine


def _module_pool(engine):
    """``(module, target alias)`` candidates per action."""
    eddy = engine.eddy
    stems = [(module, alias) for alias, module in eddy.stems.items()]
    return {
        "build": stems,
        "probe": stems,
        "select": [(module, None) for module in eddy.selections],
        "am_probe": [(am, alias) for alias, ams in eddy.index_ams.items() for am in ams],
    }


destination_specs = st.lists(
    st.tuples(
        st.sampled_from(["build", "probe", "select", "am_probe"]),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def _policy_state(policy) -> bytes:
    return pickle.dumps(vars(policy))


class TestFixedChoiceIsPure:
    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("naive", {}),
            ("naive", {"greedy_optional": False}),
            ("benefit", {"seed": 3}),
            ("benefit", {"seed": 4, "exploration": 0.5}),
            ("lottery", {"seed": 5}),
            ("random", {"seed": 6}),
            ("static", {}),
            ("static", {"take_optional": False}),
        ],
    )
    @settings(max_examples=150, deadline=None)
    @given(specs=destination_specs, seed=st.integers(0, 2**16))
    def test_fixed_choice_equals_choose_and_records_nothing(
        self, half_run_engine, name, kwargs, specs, seed
    ):
        eddy = half_run_engine.eddy
        pool = _module_pool(half_run_engine)
        destinations = []
        for action, index, required in specs:
            module, alias = pool[action][index % len(pool[action])]
            destinations.append(Destination(module, action, alias, required=required))
        policy = make(name, **kwargs)
        if isinstance(policy, LotteryPolicy):
            for destination in destinations:  # uneven tickets: a real draw
                policy.credit(destination.module.name, random.Random(seed).random() * 5)
        row = half_run_engine.catalog.table("R").rows[seed % 40]
        plain, preferred = singleton_tuple("R", row), singleton_tuple("R", row)
        preferred.priority = 3.0
        random.seed(seed)
        before, global_before = _policy_state(policy), random.getstate()

        fixed = policy.fixed_choice(tuple(destinations))
        assert _policy_state(policy) == before
        assert random.getstate() == global_before
        if fixed is None:
            return
        assert fixed in destinations
        for tuple_ in (plain, preferred):
            # Nothing to record: choosing is as silent as the fixed choice.
            assert policy.choose(tuple_, list(destinations), eddy) is fixed
            assert _policy_state(policy) == before
            assert random.getstate() == global_before

    def test_which_policies_opt_in(self, half_run_engine):
        stem = half_run_engine.eddy.stems["R"]
        sole = (Destination(stem, "build", "R"),)
        assert make("naive").fixed_choice(sole) is sole[0]
        assert make("static").fixed_choice(sole) is sole[0]
        assert make("benefit").fixed_choice(sole) is sole[0]
        assert make("lottery").fixed_choice(sole) is None
        assert make("random").fixed_choice(sole) is None
        two = (Destination(stem, "probe", "R"), Destination(half_run_engine.eddy.stems["S"], "probe", "S"))
        assert make("benefit").fixed_choice(two) is None


# -- (b) the plan path is invisible ---------------------------------------------


def _decline(self, destinations):
    return None


#: The oracle: each shipped policy with a fixed choice that always declines,
#: so every group goes through ``choose_batch``.
DECLINING = {
    name: type(f"Declining{cls.__name__}", (cls,), {"fixed_choice": _decline})
    for name, cls in POLICIES.items()
}


def declining(name: str):
    cls = DECLINING[name]
    return cls(STATIC_ORDER) if name == "static" else cls()


def _fleet():
    workload = staggered_fleet_workload(n_queries=3, rows=40, seed=3, stagger=0.3)
    return workload.catalog, list(workload.admissions), []


def _churn():
    workload = churn_workload(duration=12.0, arrival_rate=0.5, mean_lifetime=4.0, rows=30, seed=5)
    return workload.catalog, [], list(workload.events)


def _three_way():
    return three_way_catalog(30), [QueryAdmission(THREE_WAY_SQL, query_id="3way")], []


def _self_join():
    workload = staggered_fleet_workload(n_queries=1, rows=30, seed=3)
    admission = QueryAdmission(
        "SELECT * FROM R r1, R r2 WHERE r1.a = r2.a AND r1.key < 12", query_id="self"
    )
    return workload.catalog, [*workload.admissions, admission], []


def _aggregate():
    workload = staggered_fleet_workload(n_queries=1, rows=40, seed=3)
    panel = QueryAdmission(
        "SELECT a, count(*), sum(key) FROM R WHERE R.key < 30 GROUP BY a",
        query_id="panel",
        arrival_time=0.2,
    )
    return workload.catalog, [*workload.admissions, panel], []


SHAPES = {
    "fleet": _fleet,
    "churn": _churn,
    "three_way": _three_way,
    "self_join": _self_join,
    "aggregate": _aggregate,
}


def _run(shape: str, policy: str, batch_size: int, oracle: bool):
    catalog, admissions, events = SHAPES[shape]()
    factory = declining if oracle else make
    traces: dict[str, TraceLog] = {}

    def wired(admission, position):
        query_id = admission.query_id or f"q{position}"
        traces[query_id] = TraceLog()
        return dataclasses.replace(
            admission, query_id=query_id, policy=factory(policy), trace=traces[query_id]
        )

    engine = MultiQueryEngine(
        [wired(admission, i) for i, admission in enumerate(admissions)],
        catalog,
        continuous=True,
        batch_size=batch_size,
    )
    engine.schedule_churn(
        [
            dataclasses.replace(event, admission=wired(event.admission, i))
            if event.admission is not None
            else event
            for i, event in enumerate(events)
        ]
    )
    result = engine.run()
    return {
        query_id: (
            res.identities(),
            res.output_series.points,
            res.aggregate_rows,
            [(record.time, record.kind, record.detail) for record in traces[query_id]],
            res.eddy_stats,
        )
        for query_id, res in result.results.items()
    }


class TestPlansChangeNothing:
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_same_results_and_traces_as_per_decision_choices(self, shape, policy, batch_size):
        planned = _run(shape, policy, batch_size, oracle=False)
        per_decision = _run(shape, policy, batch_size, oracle=True)
        assert planned.keys() == per_decision.keys()
        for query_id, observed in planned.items():
            assert observed == per_decision[query_id], query_id
        assert any(observed[3] for observed in planned.values())


# -- (c) the cache's rules ----------------------------------------------------------


def _engine(**kwargs) -> StemsEngine:
    return StemsEngine(THREE_WAY_SQL, three_way_catalog(), policy="naive", **kwargs)


def _planned(engine):
    """A built R singleton's plan, with the eddy's choice filled in."""
    checker = engine.eddy.resolver
    tuple_ = singleton_tuple("R", engine.catalog.table("R").rows[0])
    tuple_.mark_built("R", 1.0)
    plan = checker.route_plan(tuple_.routing_signature(), tuple_)
    plan.choice = engine.eddy.policy.fixed_choice(plan.destinations)
    assert plan.choice is not None
    return checker, tuple_, plan


class TestPlanCacheRules:
    @pytest.mark.parametrize("event", ["scan finish", "stem seal"])
    def test_liveness_change_drops_plans_and_choices(self, event):
        engine = _engine()
        checker, tuple_, plan = _planned(engine)
        assert checker.route_plan(tuple_.routing_signature(), tuple_) is plan
        if event == "scan finish":
            engine.eddy.scan_ams["R"][0]._deliver_eot()
        else:
            engine.eddy.stems["R"].process(EOTTuple(table="R", alias="R", am_name="am:scan:R"))
        assert checker.cache_stats["invalidations"] == 1
        misses = checker.cache_stats["misses"]
        fresh = checker.route_plan(tuple_.routing_signature(), tuple_)
        assert fresh is not plan and fresh.choice is UNCHOSEN
        assert checker.cache_stats["misses"] == misses + 1

    def test_failed_exemplar_is_never_cached(self):
        engine = _engine()
        checker = engine.eddy.resolver
        row = engine.catalog.table("R").rows[0]
        failed, live = singleton_tuple("R", row), singleton_tuple("R", row)
        failed.failed = True
        signature = failed.routing_signature()
        assert signature == live.routing_signature()
        plan = checker.route_plan(signature, failed)
        assert not plan.output and plan.destinations == ()
        assert checker.cache_stats == {"hits": 0, "misses": 0, "invalidations": 0}
        assert checker.route_plan(signature, live).destinations
        assert checker.cache_stats["misses"] == 1

    def test_destinations_for_signature_reads_the_plan(self):
        engine = _engine()
        checker, tuple_, plan = _planned(engine)
        copy = checker.destinations_for_signature(tuple_.routing_signature(), tuple_)
        assert copy == list(plan.destinations) == checker.destinations(tuple_)
        copy.clear()  # a caller's copy: the plan keeps its tuple
        assert plan.destinations

    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_every_resolution_is_one_hit_or_one_miss(self, batch_size):
        engine = _engine(batch_size=batch_size)
        checker = engine.eddy.resolver
        resolve = checker.route_plan
        calls = []

        def counted(signature, exemplar):
            calls.append(exemplar.failed)
            return resolve(signature, exemplar)

        checker.route_plan = counted
        engine.run()
        stats, eddy_stats = checker.cache_stats, engine.eddy.stats
        assert not any(calls)
        assert stats["hits"] + stats["misses"] == len(calls)
        assert len(calls) == eddy_stats["route_decisions"] - eddy_stats["eots_routed"]
        assert stats["hits"] > stats["misses"] > 0
