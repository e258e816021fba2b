"""Tests for the destination-signature cache and batched routing.

Covers the three guarantees the batching layer rests on:

* the :class:`ConstraintChecker` memoizes legal destinations per routing
  signature for the query's life;
* batched routing (``batch_size > 1``) produces the same result set as
  per-tuple routing on a 3-way join, for every shipped policy, including
  under strict constraint validation.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.core.eddy import Eddy
from repro.core.policies import NaivePolicy
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine
from repro.query.parser import parse_query
from repro.sim.simulator import Simulator
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t
from tests.conftest import oracle_identities, single_query_engine
from tests.helpers import has_duplicates, layout_over, singleton_tuple

THREE_WAY_SQL = "SELECT * FROM R, S, T WHERE R.a = S.x AND R.key = T.key"


def three_way_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(60, 15, seed=11))
    catalog.add_table(make_source_s(15, seed=12))
    catalog.add_table(make_source_t(60, seed=13))
    catalog.add_scan("R", rate=200.0)
    catalog.add_scan("S", rate=150.0)
    catalog.add_scan("T", rate=100.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def three_way_engine(**kwargs) -> MultiQueryEngine:
    return single_query_engine(THREE_WAY_SQL, three_way_catalog(), **kwargs)


def result_identity(result):
    return sorted(tuple_.identity() for tuple_ in result.tuples)


class TestSignatureCache:
    def test_hit_and_miss(self):
        engine = three_way_engine(policy="naive")
        checker = engine.eddy_of("q0").resolver
        row = next(iter(engine.catalog.table("R")))
        tuple_ = singleton_tuple("R", row, layout=engine.eddy_of("q0").layout)
        signature = tuple_.routing_signature()

        first = checker.destinations_for_signature(signature, tuple_)
        second = checker.destinations_for_signature(signature, tuple_)
        assert first == second == checker.destinations(tuple_)
        assert checker.cache_stats == {"hits": 1, "misses": 1}

    def test_cached_list_is_a_private_copy(self):
        engine = three_way_engine(policy="naive")
        checker = engine.eddy_of("q0").resolver
        row = next(iter(engine.catalog.table("R")))
        tuple_ = singleton_tuple("R", row, layout=engine.eddy_of("q0").layout)
        signature = tuple_.routing_signature()
        first = checker.destinations_for_signature(signature, tuple_)
        first.clear()  # a caller mutating its copy must not poison the cache
        assert checker.destinations_for_signature(signature, tuple_)

    def test_signature_distinguishes_tuple_state(self):
        engine = three_way_engine(policy="naive")
        row = next(iter(engine.catalog.table("R")))
        fresh = singleton_tuple("R", row, layout=engine.eddy_of("q0").layout)
        built = singleton_tuple("R", row, layout=engine.eddy_of("q0").layout)
        built.mark_built("R", 1.0)
        assert fresh.routing_signature() != built.routing_signature()
        visited = singleton_tuple("R", row, layout=engine.eddy_of("q0").layout)
        visited.record_visit("stem:S")
        assert fresh.routing_signature() != visited.routing_signature()

    def test_full_run_hits_cache(self):
        result = three_way_engine(policy="naive", batch_size=8).run()["q0"]
        cache = result.module_stats["destination-cache"]
        assert cache["hits"] > 0 and cache["misses"] > 0


class TestBatchedRouting:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ExecutionError):
            Eddy(Simulator(), NaivePolicy(), batch_size=0, layout=layout_over("R"))

    @pytest.mark.parametrize("policy", ["naive", "random", "lottery", "benefit"])
    def test_three_way_join_batch_equals_per_tuple(self, policy):
        reference = oracle_identities(
            parse_query(THREE_WAY_SQL), three_way_catalog()
        )
        per_tuple = execute(THREE_WAY_SQL, three_way_catalog(), policy=policy)
        batched = execute(
            THREE_WAY_SQL, three_way_catalog(), policy=policy, batch_size=16
        )
        assert result_identity(per_tuple) == reference
        assert result_identity(batched) == reference
        assert (
            batched.eddy_stats["route_events"] <= per_tuple.eddy_stats["route_events"]
        )
        if policy == "naive":
            # Deterministic policy: the batched eddy routes exactly the same
            # tuples (stochastic policies draw their RNG per group instead of
            # per tuple, so their routing paths — not their results — differ).
            assert batched.eddy_stats["routings"] == per_tuple.eddy_stats["routings"]

    def test_batch_routing_obeys_strict_constraints(self):
        result = execute(
            THREE_WAY_SQL,
            three_way_catalog(),
            policy="naive",
            batch_size=16,
            strict_constraints=True,
        )
        assert result.row_count > 0
        assert not has_duplicates(result)

    def test_batch_size_one_matches_legacy_event_accounting(self):
        result = execute(THREE_WAY_SQL, three_way_catalog(), policy="naive")
        stats = result.eddy_stats
        assert stats["route_events"] == stats["routings"] == stats["route_decisions"]
