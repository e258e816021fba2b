"""Tests for the synthetic data generators (paper Table 3) and statistics."""

import pytest

from repro.storage.datagen import (
    ZipfDraw,
    make_cyclic_triple,
    make_edges_table,
    make_phase_shift_table,
    make_skewed_pair,
    make_source_r,
    make_source_s,
    make_source_t,
    make_string_dimension,
)
from repro.storage.statistics import (
    analyze_column,
    analyze_table,
    estimate_join_cardinality,
    estimate_join_selectivity,
)
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import DataType
from tests.helpers import make_foreign_key_table, make_uniform_table, make_zipfian_table


class TestPaperSources:
    """Paper Table 3: the properties the experiments rely on."""

    def test_source_r_shape(self):
        table = make_source_r()
        assert len(table) == 1000
        assert table.schema.key == ("key",)
        assert len({row["a"] for row in table}) == 250

    def test_source_r_every_value_present_when_possible(self):
        table = make_source_r(cardinality=500, distinct_a=100, seed=3)
        assert {row["a"] for row in table} == set(range(100))

    def test_source_r_small_cardinality(self):
        table = make_source_r(cardinality=10, distinct_a=50, seed=1)
        assert len(table) == 10

    def test_source_r_deterministic_per_seed(self):
        first = [row.values for row in make_source_r(seed=5)]
        second = [row.values for row in make_source_r(seed=5)]
        third = [row.values for row in make_source_r(seed=6)]
        assert first == second
        assert first != third

    def test_source_s_x_equals_y(self):
        table = make_source_s(cardinality=100)
        assert len(table) == 100
        assert all(row["x"] == row["y"] for row in table)
        assert len({row["x"] for row in table}) == 100

    def test_source_t_keys_are_a_permutation(self):
        table = make_source_t(cardinality=300, seed=2)
        assert sorted(row["key"] for row in table) == list(range(300))
        # Physical order is shuffled, so a scan is not in key order.
        assert [row["key"] for row in table][:10] != list(range(10))

    def test_q1_join_fanout(self):
        """Every R.a value has exactly one S match, ~4 R rows per value."""
        r_table = make_source_r()
        s_table = make_source_s(250)
        s_keys = {row["x"] for row in s_table}
        assert {row["a"] for row in r_table} <= s_keys


class TestGenericGenerators:
    def test_uniform_table(self):
        table = make_uniform_table("U", 50, value_range=10, seed=1)
        assert len(table) == 50
        assert all(0 <= row["value"] < 10 for row in table)

    def test_zipfian_table_is_skewed(self):
        table = make_zipfian_table("Z", 2000, distinct=50, skew=1.2, seed=4)
        stats = analyze_column(table, "value")
        top_value, top_count = stats.most_common[0]
        assert top_count > 2000 / 50  # far above the uniform share
        assert stats.distinct <= 50

    def test_foreign_key_table_referential_integrity(self):
        parent = make_uniform_table("P", 40, seed=2)
        child = make_foreign_key_table("C", 200, parent, "id", seed=3)
        parent_ids = {row["id"] for row in parent}
        assert all(row["fk"] in parent_ids for row in child)

    def test_foreign_key_table_requires_nonempty_parent(self):
        from repro.storage.schema import Schema
        from repro.storage.table import Table

        empty = Table("E", Schema.of("id:int"))
        with pytest.raises(ValueError):
            make_foreign_key_table("C", 10, empty, "id")

    def test_string_dimension(self):
        table = make_string_dimension("D", 20, label_length=6, seed=0)
        assert len(table) == 20
        assert all(len(row["label"]) == 6 for row in table)

    def test_cyclic_triple_closes_requested_fraction(self):
        table_a, table_b, table_c = make_cyclic_triple(100, seed=1, match_fraction=0.3)
        closed = sum(
            1
            for a_row, c_row in zip(table_a, table_c)
            if a_row["ca"] == c_row["ca"]
        )
        assert 10 <= closed <= 60  # around 30 for match_fraction=0.3


#: Every generator, as a zero-argument factory taking only a seed.  The
#: determinism regression below covers them all: identical seeds must
#: reproduce identical rows (the gauntlet's differential oracles and the
#: benchmark artifacts both depend on it), and a different seed must
#: actually change the data.
GENERATOR_FACTORIES = {
    "source_r": lambda seed: [make_source_r(100, 25, seed=seed)],
    "source_s": lambda seed: [make_source_s(50, seed=seed)],
    "source_t": lambda seed: [make_source_t(80, seed=seed)],
    "uniform": lambda seed: [make_uniform_table("U", 60, seed=seed)],
    "zipfian": lambda seed: [make_zipfian_table("Z", 60, distinct=20, seed=seed)],
    "foreign_key": lambda seed: [
        make_foreign_key_table(
            "C", 60, make_uniform_table("P", 20, seed=0), "id", seed=seed
        )
    ],
    "string_dimension": lambda seed: [make_string_dimension("D", 30, seed=seed)],
    "cyclic_triple": lambda seed: list(make_cyclic_triple(40, seed=seed)),
    "skewed_pair": lambda seed: list(make_skewed_pair(80, 20, seed=seed)),
    "phase_shift": lambda seed: [make_phase_shift_table("P", 60, seed=seed)],
    "edges": lambda seed: [make_edges_table("E", nodes=15, edges=40, seed=seed)],
}


class TestSeededDeterminism:
    @pytest.mark.parametrize("name", sorted(GENERATOR_FACTORIES))
    def test_same_seed_reproduces_identical_rows(self, name):
        factory = GENERATOR_FACTORIES[name]
        first = [[row.values for row in t] for t in factory(5)]
        second = [[row.values for row in t] for t in factory(5)]
        assert first == second

    # make_source_s is deterministic by construction (x = y = id): no RNG.
    @pytest.mark.parametrize(
        "name", sorted(set(GENERATOR_FACTORIES) - {"source_s"})
    )
    def test_different_seed_changes_the_data(self, name):
        factory = GENERATOR_FACTORIES[name]
        first = [[row.values for row in t] for t in factory(5)]
        other = [[row.values for row in t] for t in factory(6)]
        assert first != other

    def test_zipf_draw_sequence_is_seed_deterministic(self):
        first = ZipfDraw(30, skew=1.2, seed=4)
        second = ZipfDraw(30, skew=1.2, seed=4)
        assert [first() for _ in range(100)] == [second() for _ in range(100)]
        assert first.cdf == second.cdf


class TestStatistics:
    def test_analyze_table(self):
        table = make_source_r(200, 40, seed=9)
        stats = analyze_table(table)
        assert stats.cardinality == 200
        assert stats.column("a").distinct == len({row["a"] for row in table})
        assert stats.column("key").min_value == 0
        assert stats.column("key").max_value == 199

    def test_null_counting(self):
        table = Table("N", Schema.of("a:int"))
        table.insert((None,))
        table.insert((1,))
        stats = analyze_column(table, "a")
        assert stats.null_count == 1
        assert stats.count == 2

    def test_empty_column(self):
        stats = analyze_column(Table("E", Schema.of("a:int")), "a")
        assert (stats.count, stats.distinct, stats.null_count) == (0, 0, 0)
        assert stats.min_value is None and stats.max_value is None
        assert stats.most_common == ()

    def test_mixed_type_column_ranks_only_the_first_type(self):
        table = Table("M", Schema([Column("v", DataType.STRING)]))
        for value in ("b", "a", "c"):
            table.insert((value,))
        table.insert(Row("M", table.schema, (5,)))  # unvalidated: a stray int
        stats = analyze_column(table, "v")
        assert stats.distinct == 4
        assert (stats.min_value, stats.max_value) == ("a", "c")

    def test_most_common_is_capped_at_top_k(self):
        table = make_source_r(100, 25, seed=1)
        stats = analyze_column(table, "a", top_k=3)
        assert len(stats.most_common) == 3
        counts = [count for _, count in stats.most_common]
        assert counts == sorted(counts, reverse=True)

    def test_distinct_count(self):
        table = make_source_r(100, 25, seed=1)
        stats = analyze_table(table)
        assert stats.column("a").distinct == 25

    def test_join_estimates(self):
        r_stats = analyze_table(make_source_r(400, 100, seed=2))
        t_stats = analyze_table(make_source_t(400, seed=3))
        selectivity = estimate_join_selectivity(r_stats, "key", t_stats, "key")
        assert selectivity == pytest.approx(1 / 400)
        cardinality = estimate_join_cardinality(r_stats, "key", t_stats, "key")
        assert cardinality == pytest.approx(400)

    def test_join_estimate_over_empty_columns_is_zero(self):
        empty = analyze_table(Table("E", Schema.of("k:int")))
        assert estimate_join_selectivity(empty, "k", empty, "k") == 0.0
        assert estimate_join_cardinality(empty, "k", empty, "k") == 0.0
