"""Retirement leak regression: a retired query leaves no references behind.

``MultiQueryEngine.retire`` must sever every hook a query planted in shared
state, or a long-running continuous-query service leaks one query's worth
of modules, plan caches and listener closures per retirement:

* the registry's refcount maps and owner table drop the query;
* the shared SteMs' ``_evict_listeners`` no longer reference the query's
  modules (the listener closure is what used to pin module → eddy → the
  whole dataflow);
* the query's ``PlanLayout.probe_plans`` memo is emptied (the snapshotted
  result tuples keep the layout itself alive by design — but not the
  compiled plans, whose index resolutions point into the shared SteMs);
* with the engine's own snapshot as the only survivor, ``gc`` can collect
  the eddy and all its modules (verified via ``weakref``);
* a subsequent *identical* admission rebuilds cleanly and produces the
  same results.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.stem import SteM
from repro.engine.multi import MultiQueryEngine, QueryAdmission
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.helpers import refcount

SQL = "SELECT * FROM R, T WHERE R.key = T.key"


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=7))
    catalog.add_table(make_source_t(40, seed=8))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def build_engine() -> MultiQueryEngine:
    return MultiQueryEngine(
        [
            QueryAdmission(SQL, query_id="keep", policy="naive"),
            QueryAdmission(SQL, query_id="churned", policy="naive", arrival_time=0.4),
        ],
        build_catalog(),
    )


class TestRetirementLeavesNoReferences:
    def test_registry_refcounts_forget_the_query(self):
        engine = build_engine()
        engine.run()
        registry = engine.registry
        assert set(registry.owners) == {"keep", "churned"}
        assert refcount(registry, "R") == 2 and refcount(registry, "T") == 2
        engine.retire("churned")
        assert set(registry.owners) == {"keep"}
        assert refcount(registry, "R") == 1 and refcount(registry, "T") == 1
        # Internal ref maps hold nothing keyed by the retired query.
        assert "churned" not in registry._owner_refs

    def test_evict_listeners_drop_the_retired_modules(self):
        engine = build_engine()
        engine.run()
        stems = list(engine.registry.stems.values())
        retired_modules = list(engine.eddy_of("churned").stems.values())
        before = {stem.name: len(stem._evict_listeners) for stem in stems}
        engine.retire("churned")
        for stem in stems:
            assert len(stem._evict_listeners) == before[stem.name] - 1
            for listener in stem._evict_listeners:
                owner = getattr(listener, "__self__", None)
                assert owner is None or all(
                    owner is not module._carried for module in retired_modules
                )

    def test_probe_plan_memo_is_emptied(self):
        engine = build_engine()
        layout = engine.eddy_of("churned").layout
        engine.run()
        assert layout.probe_plans, "run should have populated the plan memo"
        engine.retire("churned")
        assert layout.probe_plans == {}

    def test_eddy_and_modules_become_collectable(self):
        engine = build_engine()
        engine.run()
        eddy = engine.eddy_of("churned")
        refs = [weakref.ref(eddy)]
        refs.extend(weakref.ref(module) for module in eddy.modules.values())
        refs.append(weakref.ref(eddy.policy))
        refs.append(weakref.ref(eddy.resolver))
        engine.retire("churned")
        del eddy
        gc.collect()
        dead = [ref for ref in refs if ref() is None]
        assert len(dead) == len(refs), (
            f"{len(refs) - len(dead)} retired objects still alive: "
            f"{[ref() for ref in refs if ref() is not None]}"
        )

    def test_identical_readmission_rebuilds_cleanly(self):
        engine = build_engine()
        first = engine.run()["churned"]
        engine.retire("churned")
        engine.admit(QueryAdmission(SQL, query_id="churned2", policy="naive"))
        result = engine.run()
        assert (
            result["churned2"].canonical_identities()
            == first.canonical_identities()
        )
        assert refcount(engine.registry, "R") == 2  # keep + churned2

    def test_stems_rebuilt_after_the_last_owner_left_are_collected(self):
        # Once every owner has retired the registry reclaims its SteMs; a
        # re-admission builds fresh ones, and retiring it again must leave
        # nothing pinning them.
        engine = build_engine()
        engine.run()
        engine.retire("churned")
        engine.retire("keep")
        assert len(engine.registry) == 0
        engine.admit(QueryAdmission(SQL, query_id="again", policy="naive"))
        engine.run()
        stems = list(engine.registry.stems.values())
        assert stems and all(type(stem) is SteM for stem in stems)
        refs = [weakref.ref(stem) for stem in stems]
        engine.retire("again")
        del stems
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_churned_result_snapshot_survives_collection(self):
        engine = build_engine()
        engine.run()
        engine.retire("churned")
        gc.collect()
        final = engine.run()  # continue (nothing pending) and collect
        assert final["churned"].row_count == final["keep"].row_count
        assert final.retired == ("churned",)
