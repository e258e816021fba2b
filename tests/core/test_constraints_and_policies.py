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
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from tests.conftest import single_query_engine
from tests.helpers import singleton_tuple


def build_engine(with_t_scan=True, with_selection=False):
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
    return single_query_engine(sql, catalog, policy="naive")


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


class TestLotteryBatchDecisions:
    """The lottery's one-draw-per-signature-group amortisation (choose_batch)."""

    def _group(self, engine, size):
        tuples = []
        for position in range(size):
            tuple_ = r_singleton(engine, key=position)
            tuple_.mark_built("R", 1.0)
            tuples.append(tuple_)
        destinations = engine.eddy_of("q0").resolver.destinations(tuples[0])
        return tuples, destinations

    def test_batch_ticket_mass_matches_per_tuple_draws(self):
        """One group decision credits the same total ticket mass as N draws."""
        engine = build_engine()
        tuples, destinations = self._group(engine, size=7)
        module_names = [d.module.name for d in destinations]

        batch_policy = LotteryPolicy(seed=9, decay=1.0)
        base_mass = sum(batch_policy.tickets_of(name) for name in module_names)
        choices = batch_policy.choose_batch(tuples, destinations, engine.eddy_of("q0"))
        assert len(choices) == len(tuples)
        assert len({choice.module.name for choice in choices}) == 1  # one winner
        batch_mass = sum(batch_policy.tickets_of(name) for name in module_names)

        per_tuple_policy = LotteryPolicy(seed=9, decay=1.0)
        for tuple_ in tuples:
            per_tuple_policy.choose(tuple_, destinations, engine.eddy_of("q0"))
        per_tuple_mass = sum(per_tuple_policy.tickets_of(name) for name in module_names)

        # The group top-up (1 from choose + N-1 extra) keeps the feedback
        # signal at one ticket per consumed tuple, exactly like N draws —
        # the winner may differ, but the credited mass may not.
        assert batch_mass - base_mass == len(tuples)
        assert per_tuple_mass - base_mass == len(tuples)

    def test_batch_winner_gets_full_group_credit(self):
        engine = build_engine()
        tuples, destinations = self._group(engine, size=5)
        policy = LotteryPolicy(seed=2, decay=1.0)
        before = {d.module.name: policy.tickets_of(d.module.name) for d in destinations}
        choices = policy.choose_batch(tuples, destinations, engine.eddy_of("q0"))
        winner = choices[0].module.name
        assert policy.tickets_of(winner) == before[winner] + len(tuples)

    def test_batch_decays_once_per_decision_not_per_tuple(self):
        """Decay cadence: one _decay_all per group decision."""
        engine = build_engine()
        tuples, destinations = self._group(engine, size=10)
        policy = LotteryPolicy(seed=4)
        calls = []
        original = policy._decay_all
        policy._decay_all = lambda: (calls.append(1), original())[1]
        policy.choose_batch(tuples, destinations, engine.eddy_of("q0"))
        assert len(calls) == 1

        per_tuple = LotteryPolicy(seed=4)
        calls.clear()
        original_per_tuple = per_tuple._decay_all
        per_tuple._decay_all = lambda: (calls.append(1), original_per_tuple())[1]
        for tuple_ in tuples:
            per_tuple.choose(tuple_, destinations, engine.eddy_of("q0"))
        assert len(calls) == len(tuples)

    def test_batch_of_one_equals_single_choose(self):
        engine = build_engine()
        tuples, destinations = self._group(engine, size=1)
        batch = LotteryPolicy(seed=11).choose_batch(tuples, destinations, engine.eddy_of("q0"))
        single = LotteryPolicy(seed=11).choose(tuples[0], destinations, engine.eddy_of("q0"))
        assert batch == [single]
