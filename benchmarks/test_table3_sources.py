"""Table 3: the synthetic data sources R, S, T.

Benchmarks the generators and asserts the properties the paper's Table 3
specifies (cardinalities, distinct counts, key structure, access methods).
"""

from __future__ import annotations

from repro.bench.workloads import q1_workload, q4_workload
from repro.storage.datagen import make_source_r, make_source_s, make_source_t


def test_table3_source_r(benchmark):
    table = benchmark(make_source_r, 1000, 250)
    assert len(table) == 1000
    assert len({row["a"] for row in table}) == 250
    assert table.schema.key == ("key",)
    benchmark.extra_info["rows"] = len(table)
    benchmark.extra_info["distinct_a"] = len({row["a"] for row in table})


def test_table3_source_s(benchmark):
    table = benchmark(make_source_s, 250)
    assert all(row["x"] == row["y"] for row in table)
    benchmark.extra_info["rows"] = len(table)


def test_table3_source_t(benchmark):
    table = benchmark(make_source_t, 1000)
    assert sorted(row["key"] for row in table) == list(range(1000))
    benchmark.extra_info["rows"] = len(table)


def test_table3_q1_catalog_assembly(benchmark):
    """Q1's catalog: R has a scan AM, S only an asynchronous index on x."""
    workload = benchmark(q1_workload)
    catalog = workload.catalog
    assert catalog.has_scan("R")
    assert not catalog.has_scan("S")
    assert [spec.bind_columns for spec in catalog.indexes("S")] == [("x",)]
    benchmark.extra_info["s_index_latency"] = workload.parameters["s_index_latency"]


def test_table3_q4_catalog_assembly(benchmark):
    """Q4's catalog: T has both a scan AM and an index AM on its key."""
    workload = benchmark(q4_workload)
    catalog = workload.catalog
    assert catalog.has_scan("T")
    assert len(catalog.indexes("T")) == 1
    benchmark.extra_info["t_index_latency"] = workload.parameters["t_index_latency"]
