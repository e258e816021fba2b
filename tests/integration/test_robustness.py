"""Robustness and stress tests: odd routings, stalls, strict constraint mode.

These tests exercise paths the paper's correctness argument must survive:
arbitrary (random) routing choices, delayed sources, constrained SteM memory,
and the strict constraint checker auditing every decision.
"""

from __future__ import annotations

import pytest

from repro.core.costs import CostModel
from repro.core.policies import RandomPolicy
from repro.engine.api import execute
from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from tests.conftest import oracle_identities
from tests.helpers import has_duplicates


def catalog_with_stall(stall_duration: float = 10.0) -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(60, 15, seed=21))
    catalog.add_table(make_source_t(60, seed=22))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=100.0, stall_at=0.2, stall_duration=stall_duration)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


class TestRandomRoutingUnderStrictConstraints:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_policy_is_always_correct(self, seed):
        catalog = Catalog()
        catalog.add_table(make_source_r(50, 12, seed=seed))
        catalog.add_table(make_source_s(20))
        catalog.add_table(make_source_t(50, seed=seed + 50))
        catalog.add_scan("R", rate=200.0)
        catalog.add_index("S", ["x"], latency=0.02)
        catalog.add_scan("T", rate=150.0)
        catalog.add_index("T", ["key"], latency=0.02)
        query = parse_query("SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key")
        result = execute(
            query, catalog, policy=RandomPolicy(seed=seed), strict_constraints=True
        )
        assert not has_duplicates(result)
        assert sorted(result.identities()) == oracle_identities(query, catalog)


class TestSourceStalls:
    def test_stalled_scan_delays_but_does_not_lose_results(self):
        catalog = catalog_with_stall(stall_duration=10.0)
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        result = execute(query, catalog, policy="benefit")
        assert result.row_count == 60
        assert sorted(result.identities()) == oracle_identities(query, catalog)

    def test_benefit_policy_exploits_the_index_during_the_stall(self):
        """While the T scan is stalled, the index is the only way forward, so
        an adaptive policy should keep producing results during the outage
        where an index-averse policy is stuck with whatever the scan managed
        to deliver before stalling."""
        from repro.core.policies import NaivePolicy

        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        adaptive = execute(
            query,
            catalog_with_stall(stall_duration=30.0),
            policy="benefit",
        )
        scan_only = execute(
            query,
            catalog_with_stall(stall_duration=30.0),
            policy=NaivePolicy(greedy_optional=False),
        )
        during_stall = 25.0
        assert adaptive.total_index_lookups() > 10
        assert adaptive.results_at(during_stall) > scan_only.results_at(during_stall)
        # Both eventually produce the full answer.
        assert adaptive.row_count == scan_only.row_count == 60

    def test_eddy_joins_with_stalled_source_still_correct(self):
        catalog = catalog_with_stall(stall_duration=5.0)
        query = parse_query("SELECT * FROM R, T WHERE R.key = T.key")
        result = execute(query, catalog, engine="eddy-joins")
        assert result.row_count == 60


class TestMemoryBoundedSteMs:
    def test_unbounded_stems_by_default(self, small_rt_catalog, q4_query):
        result = execute(q4_query, small_rt_catalog, policy="naive")
        assert result.row_count == 60

    def test_window_eviction_degrades_gracefully(self, small_rt_catalog, q4_query):
        """With tiny SteMs some results can be missed or (when an index AM
        re-delivers evicted rows) repeated — windowed semantics — but every
        emitted tuple must still be a genuine query result and the engine
        must terminate."""
        result = execute(q4_query, small_rt_catalog, policy="naive", stem_max_size=5)
        expected = set(oracle_identities(q4_query, small_rt_catalog))
        assert set(result.identities()) <= expected
        assert result.final_time > 0

    def test_window_eviction_without_redelivery_has_no_duplicates(self, q4_query):
        """With scans only (no index AM to re-deliver evicted rows), bounded
        SteMs never cause duplicates — only missed (expired) results."""
        catalog = Catalog()
        catalog.add_table(make_source_r(60, 15, seed=11))
        catalog.add_table(make_source_t(90, seed=12))
        catalog.add_scan("R", rate=150.0)
        catalog.add_scan("T", rate=100.0)
        result = execute(q4_query, catalog, policy="naive", stem_max_size=5)
        expected = set(oracle_identities(q4_query, catalog))
        assert not has_duplicates(result)
        assert set(result.identities()) <= expected


class TestCostModelScaling:
    def test_scaled_cpu_costs_preserve_results(self, small_rt_catalog, q4_query):
        slow_cpu = CostModel().scaled(50.0)
        result = execute(q4_query, small_rt_catalog, policy="naive", cost_model=slow_cpu)
        assert result.row_count == 60

    def test_scaled_keeps_index_latency(self):
        model = CostModel(index_lookup_latency=2.0).scaled(10.0)
        assert model.index_lookup_latency == 2.0
        assert model.route_cost == CostModel().route_cost * 10.0
