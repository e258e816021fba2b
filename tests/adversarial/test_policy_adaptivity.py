"""Adaptivity feedback: escrow tickets, recent selectivity, probe signatures.

Unit tests pin the three feedback channels the gauntlet exercises —
lottery ticket escrow on producer outputs, the selection modules'
recent-selectivity EMA, and per-signature SteM match rates — and an
integration test shows the observable consequence: on a two-predicate
skewed workload the adaptive policies move their routing share toward the
selective predicate as evidence accumulates.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bench.adversarial import routing_share_series
from repro.bench.workloads import skewed_join_workload
from repro.core.policies.lottery import LotteryPolicy
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.stem import SteM
from repro.core.tuples import QTuple
from repro.engine.api import execute
from repro.query.predicates import selection
from repro.sim.tracing import TraceLog
from repro.storage.datagen import make_skewed_pair, make_source_r, make_source_s
from tests.helpers import FakeRuntime, equi_join, layout_over


#: The alias space of the hand-built tuples below.
LAYOUT = layout_over("F", "R", "S")


def make_fact_tuple(row) -> QTuple:
    return QTuple({"F": row}, layout=LAYOUT)


class TestLotteryEscrow:
    """Tickets: credit on consume, debit on live output, never on drops."""

    def test_live_output_debits_one_ticket(self):
        policy = LotteryPolicy()
        policy.credit("select:p", 5.0)
        module = SimpleNamespace(kind="selection", name="select:p")
        fact, _ = make_skewed_pair(fact_rows=1, seed=0)
        item = make_fact_tuple(fact.rows[0])
        policy.on_producer_output(module, item, eddy=None)
        assert policy.tickets_of("select:p") == pytest.approx(5.0)  # 6 credited - 1

    def test_failed_tuple_does_not_debit(self):
        """A drop is the *useful* outcome: the module keeps its ticket."""
        policy = LotteryPolicy()
        policy.credit("select:p", 5.0)
        module = SimpleNamespace(kind="selection", name="select:p")
        fact, _ = make_skewed_pair(fact_rows=1, seed=0)
        item = make_fact_tuple(fact.rows[0])
        item.failed = True
        policy.on_producer_output(module, item, eddy=None)
        assert policy.tickets_of("select:p") == pytest.approx(6.0)

    def test_scan_outputs_are_not_escrowed(self):
        """Sources deliver new work — they never held a routed tuple."""
        policy = LotteryPolicy()
        policy.credit("scan:F", 5.0)
        module = SimpleNamespace(kind="scan_am", name="scan:F")
        fact, _ = make_skewed_pair(fact_rows=1, seed=0)
        policy.on_producer_output(module, make_fact_tuple(fact.rows[0]), eddy=None)
        assert policy.tickets_of("scan:F") == pytest.approx(6.0)

    def test_debit_clamps_at_exploration_floor(self):
        policy = LotteryPolicy(exploration=1.0)
        module = SimpleNamespace(kind="stem", name="stem:F")
        fact, _ = make_skewed_pair(fact_rows=1, seed=0)
        item = make_fact_tuple(fact.rows[0])
        for _ in range(10):
            policy.on_producer_output(module, item, eddy=None)
        assert policy.tickets_of("stem:F") == pytest.approx(1.0)

    def test_selective_module_runs_a_ticket_surplus(self):
        """Classic escrow: the high-drop-rate module ends up richer."""
        policy = LotteryPolicy()
        strong = SimpleNamespace(kind="selection", name="select:strong")
        weak = SimpleNamespace(kind="selection", name="select:weak")
        fact, _ = make_skewed_pair(fact_rows=1, seed=0)
        for iteration in range(50):
            # Both consume one tuple...
            policy.credit(strong.name)
            policy.credit(weak.name)
            # ...the weak filter passes it back live; the strong one drops
            # 80% of its input.
            live = make_fact_tuple(fact.rows[0])
            policy.on_producer_output(weak, live, eddy=None)
            outcome = make_fact_tuple(fact.rows[0])
            outcome.failed = iteration % 5 != 0  # 80% drops
            policy.on_producer_output(strong, outcome, eddy=None)
        assert policy.tickets_of(strong.name) > policy.tickets_of(weak.name)


class TestRecentSelectivity:
    def test_defaults_to_half_before_evidence(self):
        module = SelectionModule(selection("F.hot", ">", 300))
        assert module.recent_selectivity == pytest.approx(0.5)

    def test_tracks_a_mid_run_shift(self):
        """The EMA forgets the old phase; the lifetime average does not."""
        module = SelectionModule(selection("F.hot", ">", 10))
        # Drive the module through its public path: 60 passing rows, then
        # 60 failing ones (fresh QTuples each time — processed tuples carry
        # done-marks).
        for _ in range(60):
            module.process(make_fact_tuple(_make_row(hot=100)))
        assert module.recent_selectivity > 0.9
        for _ in range(60):
            module.process(make_fact_tuple(_make_row(hot=0)))
        assert module.recent_selectivity < 0.15
        lifetime = module.stats["passed"] / (
            module.stats["passed"] + module.stats["dropped"]
        )
        assert lifetime == pytest.approx(0.5)


def _make_row(hot: int):
    fact, _ = make_skewed_pair(fact_rows=1, seed=0)
    table = fact
    table.insert((len(table), 0, hot, 0))
    return table.rows[-1]


class TestSignatureStats:
    def _module(self) -> SteMModule:
        r_table = make_source_r(cardinality=24, distinct_a=6, seed=13)
        stem = SteM("R", aliases=("R",), join_columns=("a",))
        module = SteMModule(stem, predicates=(equi_join("R.a", "S.x"),))
        module.attach(FakeRuntime(LAYOUT, scan_aliases=("R", "S")))
        for row in r_table:
            module.process(QTuple({"R": row}, layout=LAYOUT))
        return module

    def test_probe_signatures_are_recorded(self):
        module = self._module()
        s_table = make_source_s(8)
        probes = [QTuple({"S": row}, layout=LAYOUT) for row in s_table]
        for probe in probes:
            module.process(probe)
        signature = (probes[0].spanned_mask, probes[0].done_mask)
        assert module.signature_stats[signature][0] == len(probes)
        assert module.signature_stats[signature][1] == module.stats["results"]

    def test_match_rate_needs_minimum_evidence(self):
        module = self._module()
        s_table = make_source_s(8)
        probes = [QTuple({"S": row}, layout=LAYOUT) for row in s_table]
        signature = (probes[0].spanned_mask, probes[0].done_mask)
        for probe in probes[:4]:
            module.process(probe)
        assert module.signature_match_rate(*signature) is None  # < min_probes
        for probe in probes[4:]:
            module.process(probe)
        rate = module.signature_match_rate(*signature)
        assert rate == pytest.approx(module.stats["results"] / len(probes))

    def test_unknown_signature_returns_none(self):
        module = self._module()
        assert module.signature_match_rate(0b1010, 0) is None


# ---------------------------------------------------------------------------
# Integration: routing shares shift toward the selective predicate.
# ---------------------------------------------------------------------------

def _strong_selection_share(policy: str) -> tuple[float, float]:
    """(overall, late) share of the *strong* filter among selection routes.

    A policy that learned the right order sends tuples to the strong
    (Zipf-tail, ~90%-drop) filter first, so few survivors ever visit the
    weak one and the strong filter's share of selection routes approaches
    1; weak-first routing (the SQL order) caps it near 0.5 because almost
    every tuple visits both.
    """
    workload = skewed_join_workload(fact_rows=250)
    strong = next(
        p for p in workload.query.selection_predicates if "hot" in str(p)
    )
    weak = next(
        p for p in workload.query.selection_predicates if "cold" in str(p)
    )
    trace = TraceLog()
    execute(
        workload.query,
        workload.catalog,
        policy=policy,
        cost_model=workload.cost_model,
        trace=trace,
    )
    series = routing_share_series(trace, bins=6)
    assert series, "expected routing decisions in the trace"

    strong_name, weak_name = f"select:{strong.name}", f"select:{weak.name}"
    strong_total = weak_total = 0.0
    fractions = []
    for entry in series:
        strong_routes = entry["shares"].get(strong_name, 0.0) * entry["decisions"]
        weak_routes = entry["shares"].get(weak_name, 0.0) * entry["decisions"]
        strong_total += strong_routes
        weak_total += weak_routes
        if strong_routes + weak_routes:
            fractions.append(strong_routes / (strong_routes + weak_routes))
    overall = strong_total / (strong_total + weak_total)
    half = len(fractions) // 2
    late = sum(fractions[half:]) / (len(fractions) - half)
    return overall, late


@pytest.mark.parametrize("policy", ["lottery", "benefit"])
def test_adaptive_policies_prefer_the_selective_filter(policy):
    """Routing shares concentrate on the strong filter, and stay there."""
    overall, late = _strong_selection_share(policy)
    assert overall > 0.65, (
        f"{policy}: strong filter got only {overall:.2f} of selection routes"
    )
    assert late > 0.65, (
        f"{policy}: strong-filter share decayed to {late:.2f} late in the run"
    )


def test_naive_policy_keeps_the_sql_order():
    """The control: precedence routing visits the weak filter first, so the
    strong filter never exceeds ~half of the selection routes."""
    overall, _ = _strong_selection_share("naive")
    assert overall < 0.55
