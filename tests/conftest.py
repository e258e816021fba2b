"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from _repro_bootstrap import ensure_src_on_path

ensure_src_on_path()

from repro.query.parser import parse_query
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_s, make_source_t


@pytest.fixture
def small_rs_catalog() -> Catalog:
    """A small R/S catalog mirroring the paper's Q1 setup (scan R, index S)."""
    catalog = Catalog()
    catalog.add_table(make_source_r(cardinality=80, distinct_a=20, seed=7))
    catalog.add_table(make_source_s(cardinality=25))
    catalog.add_scan("R", rate=200.0)
    catalog.add_index("S", ["x"], latency=0.05)
    return catalog


@pytest.fixture
def small_rt_catalog() -> Catalog:
    """A small R/T catalog mirroring the paper's Q4 setup (scan+index on T)."""
    catalog = Catalog()
    catalog.add_table(make_source_r(cardinality=60, distinct_a=15, seed=11))
    catalog.add_table(make_source_t(cardinality=90, seed=12))
    catalog.add_scan("R", rate=150.0)
    catalog.add_scan("T", rate=100.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


@pytest.fixture
def q1_query():
    """The paper's Q1."""
    return parse_query("SELECT * FROM R, S WHERE R.a = S.x", name="Q1")


@pytest.fixture
def q4_query():
    """The paper's Q4."""
    return parse_query("SELECT * FROM R, T WHERE R.key = T.key", name="Q4")


def oracle_identities(query, catalog) -> list[tuple]:
    """Ground-truth result identities computed by brute force."""
    from tests.reference.oracle import evaluate_query_oracle

    results = []
    for composite in evaluate_query_oracle(query, catalog):
        results.append(
            tuple(sorted((alias, row.table, row.values) for alias, row in composite.items()))
        )
    return sorted(results)


def single_query_engine(query, catalog, policy="benefit", trace=None, preferences=(), **options):
    """The engine ``execute(engine="stems")`` runs, built but not run.

    A one-admission :class:`~repro.engine.multi.MultiQueryEngine` on private
    SteMs; its query id is ``"q0"``.  For tests that read the eddy
    (``eddy_of("q0")``), the layout or the simulator.
    """
    from repro.engine.multi import MultiQueryEngine, QueryAdmission

    admission = QueryAdmission(query, policy=policy, trace=trace, preferences=tuple(preferences))
    return MultiQueryEngine([admission], catalog, shared_stems=False, **options)
