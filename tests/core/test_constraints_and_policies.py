"""Tests for the routing constraints (paper Table 2) and routing policies."""

from __future__ import annotations

import pytest

from repro.errors import RoutingViolationError
from repro.core.constraints import Destination
from repro.core.policies import (
    BenefitPolicy,
    LotteryPolicy,
    NaivePolicy,
    RandomPolicy,
    StaticOrderPolicy,
    make_policy,
)
from repro.core.policies.base import order_by_action, split_required
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from tests.conftest import single_query_engine
from tests.helpers import singleton_tuple


def build_engine(with_t_scan=True, with_selection=False, policy="naive", **options):
    """A 3-way R-S-T engine whose eddy/checker we inspect without running."""
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=2))
    catalog.add_table(make_source_s(15))
    catalog.add_table(make_source_t(40, seed=3))
    catalog.add_scan("R", rate=100.0)
    catalog.add_index("S", ["x"], latency=0.1)
    if with_t_scan:
        catalog.add_scan("T", rate=100.0)
    catalog.add_index("T", ["key"], latency=0.1)
    sql = "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key"
    if with_selection:
        sql += " AND R.a < 5"
    return single_query_engine(sql, catalog, policy=policy, **options)


def r_singleton(engine, key=1, a=3):
    row = engine.catalog.table("R").rows[0]
    # Build a synthetic row with chosen values so bindability is predictable.
    from repro.storage.row import Row

    return singleton_tuple("R", Row("R", row.schema, (key, a)), layout=engine.eddy_of("q0").layout)


class TestConstraintChecker:
    def test_build_first_is_the_only_destination(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        destinations = checker.destinations(tuple_)
        assert len(destinations) == 1
        assert destinations[0].action == "build"
        assert destinations[0].module.name == "stem:R"

    def test_after_build_probes_become_available(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        actions = {(d.action, d.target_alias) for d in checker.destinations(tuple_)}
        assert ("probe", "S") in actions
        assert ("probe", "T") in actions
        # Index AMs are offered only after the (cheap) SteM has been consulted.
        assert not any(action == "am_probe" for action, _ in actions)

    def test_am_probe_offered_after_stem_probe(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        destinations = checker.destinations(tuple_)
        am_probes = [d for d in destinations if d.action == "am_probe"]
        assert any(d.target_alias == "S" for d in am_probes)

    def test_failed_tuple_has_no_destinations(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.failed = True
        assert checker.destinations(tuple_) == []

    def test_bounded_repetition_excludes_visited_modules(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        tuple_.record_visit("stem:T")
        tuple_.record_visit("am:S_idx_x:S")
        tuple_.record_visit("am:T_idx_key:T")
        destinations = checker.destinations(tuple_)
        assert all(d.action == "select" for d in destinations) or destinations == []

    def test_visited_stem_is_not_offered_again(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        probes = {d.target_alias for d in checker.destinations(tuple_) if d.action == "probe"}
        assert probes == {"T"}

    def test_visited_index_am_is_not_offered_again(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        am = engine.eddy_of("q0").index_ams["S"][0]
        assert any(d.module is am for d in checker.destinations(tuple_))
        tuple_.record_visit(am.name)
        assert all(d.module is not am for d in checker.destinations(tuple_))

    def test_visited_selection_is_not_offered_again(self):
        engine = build_engine(with_selection=True)
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        selection_module = engine.eddy_of("q0").selections[0]
        assert any(d.module is selection_module for d in checker.destinations(tuple_))
        tuple_.record_visit(selection_module.name)
        assert all(d.action != "select" for d in checker.destinations(tuple_))

    def test_stop_stem_probes_blocks_further_stem_probes(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.stop_stem_probes = True
        assert all(d.action != "probe" for d in checker.destinations(tuple_))

    def test_prior_prober_restricted_to_completion_table(self):
        engine = build_engine(with_t_scan=False)
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        tuple_.probe_completion_alias = "S"
        destinations = checker.destinations(tuple_)
        # ProbeCompletion: the tuple must stay for an AM probe on S — no
        # SteM probes on T, and the S probe is required.
        assert destinations
        assert all(d.target_alias == "S" for d in destinations)
        assert all(d.action == "am_probe" for d in destinations)
        assert all(d.required for d in destinations)

    def test_optional_vs_required_am_probe(self):
        engine = build_engine(with_t_scan=True)
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:T")
        tuple_.mark_resolved("T")  # T has a scan: the probe is opportunistic
        destinations = [d for d in checker.destinations(tuple_) if d.target_alias == "T"]
        assert destinations and all(not d.required for d in destinations)

    def test_exhausted_alias_gets_no_am_probe(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.record_visit("stem:S")
        tuple_.mark_exhausted("S")
        assert all(d.target_alias != "S" for d in checker.destinations(tuple_))

    def test_selection_destinations(self):
        engine = build_engine(with_selection=True)
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        actions = {d.action for d in checker.destinations(tuple_)}
        assert "select" in actions

    def test_ready_for_output_requires_all_predicates(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        query = engine.eddy_of("q0").layout.query
        r_row = engine.catalog.table("R").rows[0]
        s_row = engine.catalog.table("S").rows[0]
        t_row = engine.catalog.table("T").rows[0]
        from repro.core.tuples import QTuple

        full = QTuple({"R": r_row, "S": s_row, "T": t_row}, layout=checker.layout)
        assert not checker.ready_for_output(full)
        full.mark_done(query.predicates)
        assert checker.ready_for_output(full)
        full.failed = True
        assert not checker.ready_for_output(full)

    def test_validate_raises_on_illegal_routing(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        illegal = Destination(engine.eddy_of("q0").stems["S"], "probe", "S", required=True)
        with pytest.raises(RoutingViolationError):
            checker.validate(tuple_, illegal)  # must build into stem:R first
        legal = checker.destinations(tuple_)[0]
        checker.validate(tuple_, legal)  # does not raise


class TestPolicyHelpers:
    def test_split_and_order(self):
        engine = build_engine()
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        destinations = checker.destinations(tuple_)
        required, optional = split_required(destinations)
        assert required and not optional
        ordered = order_by_action(destinations)
        assert ordered[0].action in ("build", "select", "probe")

    def test_make_policy_factory(self):
        assert isinstance(make_policy("naive"), NaivePolicy)
        assert isinstance(make_policy("benefit"), BenefitPolicy)
        assert isinstance(make_policy("lottery"), LotteryPolicy)
        assert isinstance(make_policy("random"), RandomPolicy)
        assert isinstance(make_policy("static", order=["stem:R"]), StaticOrderPolicy)
        with pytest.raises(ValueError):
            make_policy("optimal")


class TestPolicyChoices:
    def _destinations(self, engine):
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        return tuple_, checker.destinations(tuple_)

    def test_naive_prefers_probes_over_am(self):
        engine = build_engine()
        tuple_, destinations = self._destinations(engine)
        choice = NaivePolicy().choose(tuple_, destinations, engine.eddy_of("q0"))
        assert choice is not None and choice.action == "probe"

    def test_naive_optional_handling(self):
        engine = build_engine()
        eddy = engine.eddy_of("q0")
        optional = [Destination(eddy.index_ams["T"][0], "am_probe", "T", required=False)]
        tuple_, _ = self._destinations(engine)
        assert NaivePolicy(greedy_optional=True).choose(tuple_, optional, eddy) is not None
        assert NaivePolicy(greedy_optional=False).choose(tuple_, optional, eddy) is None

    def test_random_policy_is_deterministic_per_seed(self):
        engine = build_engine()
        tuple_, destinations = self._destinations(engine)
        first = RandomPolicy(seed=3).choose(tuple_, destinations, engine.eddy_of("q0"))
        second = RandomPolicy(seed=3).choose(tuple_, destinations, engine.eddy_of("q0"))
        assert first.module.name == second.module.name

    def test_static_order_policy_follows_order(self):
        engine = build_engine()
        tuple_, destinations = self._destinations(engine)
        policy = StaticOrderPolicy(order=["stem:T", "stem:S"])
        choice = policy.choose(tuple_, destinations, engine.eddy_of("q0"))
        assert choice.module.name == "stem:T"

    def test_lottery_policy_rewards_and_decays(self):
        policy = LotteryPolicy(seed=1, exploration=1.0)
        policy.credit("stem:S", 10.0)
        assert policy.tickets_of("stem:S") == 11.0
        policy.debit("stem:S", 100.0)
        assert policy.tickets_of("stem:S") == 1.0  # floored at the exploration mass

    def test_lottery_policy_chooses_heavier_module(self):
        engine = build_engine()
        tuple_, destinations = self._destinations(engine)
        policy = LotteryPolicy(seed=5)
        policy.credit("stem:S", 1000.0)
        eddy = engine.eddy_of("q0")
        picks = [policy.choose(tuple_, destinations, eddy).module.name for _ in range(10)]
        assert picks.count("stem:S") >= 8

    def test_benefit_policy_prefers_selection_with_high_drop_rate(self):
        engine = build_engine(with_selection=True)
        checker = engine.eddy_of("q0").resolver
        tuple_ = r_singleton(engine, a=3)
        tuple_.mark_built("R", 1.0)
        # Teach the selection module that it drops a lot.
        selection_module = engine.eddy_of("q0").selections[0]
        selection_module.stats["passed"] = 5
        selection_module.stats["dropped"] = 95
        destinations = checker.destinations(tuple_)
        choice = BenefitPolicy().choose(tuple_, destinations, engine.eddy_of("q0"))
        assert choice.action == "select"

    def test_benefit_policy_declines_expensive_optional_probe(self):
        engine = build_engine()
        am = engine.eddy_of("q0").index_ams["T"][0]
        # Make the index look very backed up.
        am._lookup_queue.extend([(i,) for i in range(500)])
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        optional = [Destination(am, "am_probe", "T", required=False)]
        policy = BenefitPolicy(seed=1, exploration=0.0)
        assert policy.choose(tuple_, optional, engine.eddy_of("q0")) is None

    def test_benefit_policy_accepts_cheap_optional_probe(self):
        engine = build_engine()
        am = engine.eddy_of("q0").index_ams["T"][0]
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        optional = [Destination(am, "am_probe", "T", required=False)]
        policy = BenefitPolicy(seed=1, exploration=0.0)
        # Scans have not started (no progress), so the scan wait is long and
        # the 0.1 s index lookup is clearly worth it.
        assert policy.choose(tuple_, optional, engine.eddy_of("q0")) is not None

    def test_benefit_policy_always_chases_prioritised_tuples(self):
        engine = build_engine()
        am = engine.eddy_of("q0").index_ams["T"][0]
        am._lookup_queue.extend([(i,) for i in range(500)])
        tuple_ = r_singleton(engine)
        tuple_.mark_built("R", 1.0)
        tuple_.priority = 5.0
        optional = [Destination(am, "am_probe", "T", required=False)]
        policy = BenefitPolicy(seed=1, exploration=0.0)
        assert policy.choose(tuple_, optional, engine.eddy_of("q0")) is not None


def counting(policy):
    """Record every ``choose`` call the eddy makes on ``policy``."""
    calls = []
    original = policy.choose

    def choose(tuple_, destinations, eddy):
        choice = original(tuple_, destinations, eddy)
        calls.append((tuple_.tuple_id, None if choice is None else choice.module.name))
        return choice

    policy.choose = choose
    return calls


class TestPerTupleDecisions:
    """One policy decision per routed tuple, also inside a signature group."""

    def _group(self, engine, size, built=True):
        tuples = []
        for position in range(size):
            tuple_ = r_singleton(engine, key=position)
            if built:
                tuple_.mark_built("R", 1.0)
            tuples.append(tuple_)
        signature = tuples[0].routing_signature()
        assert all(tuple_.routing_signature() == signature for tuple_ in tuples)
        return signature, tuples

    def test_group_asks_choose_once_per_tuple(self):
        policy = LotteryPolicy(seed=9)
        engine = build_engine(policy=policy)
        calls = counting(policy)
        signature, group = self._group(engine, size=7)
        engine.eddy_of("q0")._route_group(signature, group)
        assert [tuple_id for tuple_id, _ in calls] == [t.tuple_id for t in group]

    def test_group_routing_equals_sequential_draws(self):
        """A routed group makes exactly the draws of its tuples one by one."""
        grouped = LotteryPolicy(seed=3)
        engine = build_engine(policy=grouped)
        signature, group = self._group(engine, size=12)
        eddy = engine.eddy_of("q0")
        destinations = eddy.resolver.destinations(group[0])
        eddy._route_group(signature, group)
        routed = [
            next(iter(t.visits)) for t in group
        ]

        sequential = LotteryPolicy(seed=3)
        expected = [sequential.choose(t, destinations, eddy).module.name for t in group]
        assert routed == expected
        assert len(set(routed)) > 1  # members follow their own winners
        for name in {d.module.name for d in destinations}:
            assert grouped.tickets_of(name) == sequential.tickets_of(name)

    def test_group_credits_one_ticket_per_routed_tuple(self):
        policy = LotteryPolicy(seed=9, decay=1.0)
        engine = build_engine(policy=policy)
        signature, group = self._group(engine, size=7)
        eddy = engine.eddy_of("q0")
        names = [d.module.name for d in eddy.resolver.destinations(group[0])]
        before = {name: policy.tickets_of(name) for name in names}
        eddy._route_group(signature, group)
        for name in names:
            routed_here = sum(1 for t in group if t.visited(name))
            assert policy.tickets_of(name) == before[name] + routed_here

    def test_group_decays_once_per_routed_tuple(self):
        policy = LotteryPolicy(seed=4)
        engine = build_engine(policy=policy)
        decays = []
        original = policy._decay_all
        policy._decay_all = lambda: (decays.append(1), original())[1]
        signature, group = self._group(engine, size=10)
        engine.eddy_of("q0")._route_group(signature, group)
        assert len(decays) == len(group)

    def test_benefit_scores_every_group_member(self):
        policy = BenefitPolicy(seed=2)
        engine = build_engine(policy=policy)
        calls = counting(policy)
        signature, group = self._group(engine, size=5)
        engine.eddy_of("q0")._route_group(signature, group)
        assert len(calls) == len(group)

    def test_fixed_choice_is_never_asked_per_tuple(self):
        """BuildFirst leaves one destination: benefit fixes it, no scoring."""
        policy = BenefitPolicy(seed=2)
        engine = build_engine(policy=policy)
        calls = counting(policy)
        signature, group = self._group(engine, size=6, built=False)
        engine.eddy_of("q0")._route_group(signature, group)
        assert calls == []
        assert all(t.visits == {"stem:R"} for t in group)

    def test_every_group_member_records_one_visit(self):
        policy = LotteryPolicy(seed=5)
        engine = build_engine(policy=policy)
        signature, group = self._group(engine, size=8)
        engine.eddy_of("q0")._route_group(signature, group)
        for tuple_ in group:
            assert len(tuple_.visits) == 1

    def test_whole_run_draws_once_per_lottery_route(self):
        policy = LotteryPolicy(seed=6)
        trace = TraceLog()
        catalog = Catalog()
        catalog.add_table(make_source_r(40, 10, seed=2))
        catalog.add_table(make_source_s(15))
        catalog.add_table(make_source_t(40, seed=3))
        catalog.add_scan("R", rate=100.0)
        catalog.add_scan("S", rate=100.0)
        catalog.add_scan("T", rate=100.0)
        engine = single_query_engine(
            "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key",
            catalog, policy=policy, trace=trace, batch_size=8,
        )
        calls = counting(policy)
        result = engine.run()
        # The lottery has no fixed choice: every route is one draw, in order,
        # and a declined draw (optional work only) routes nothing.
        routes = [tuple(record.detail) for record in trace.filter("route")]
        assert [call for call in calls if call[1] is not None] == routes
        stats = result.results["q0"].eddy_stats
        assert stats["route_events"] < stats["routings"]  # batches were drained
