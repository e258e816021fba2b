"""Hostile-generator properties the gauntlet scenarios lean on.

Each generator here feeds an adversarial scenario; these tests pin the
*hostility* itself — the skew really is skewed, the phases really flip,
the edge table really deduplicates — so a regression in a generator does
not silently turn a gauntlet scenario benign.
"""

from __future__ import annotations

import pytest

from repro.storage.datagen import (
    ZipfDraw,
    make_edges_table,
    make_phase_shift_table,
    make_skewed_pair,
)
from tests.helpers import make_zipfian_table


class TestZipfDraw:
    def test_cdf_is_monotone_and_ends_at_one(self):
        draw = ZipfDraw(50, skew=1.2, seed=0)
        assert all(a <= b for a, b in zip(draw.cdf, draw.cdf[1:]))
        assert draw.cdf[-1] == 1.0

    def test_draws_stay_in_range(self):
        draw = ZipfDraw(10, skew=2.0, seed=1)
        values = [draw() for _ in range(500)]
        assert all(0 <= value < 10 for value in values)

    def test_rank_zero_is_most_frequent(self):
        draw = ZipfDraw(40, skew=1.2, seed=2)
        counts: dict[int, int] = {}
        for _ in range(4000):
            value = draw()
            counts[value] = counts.get(value, 0) + 1
        top = max(counts, key=counts.get)
        assert top == 0
        # Far above the uniform share of 100 draws per value.
        assert counts[0] > 400

    def test_zero_skew_is_uniform(self):
        draw = ZipfDraw(4, skew=0.0, seed=3)
        counts = [0, 0, 0, 0]
        for _ in range(4000):
            counts[draw()] += 1
        assert min(counts) > 800  # each value ~1000 +/- noise

    def test_matches_zipfian_table(self):
        """make_zipfian_table is exactly ZipfDraw applied row by row."""
        table = make_zipfian_table("Z", 200, distinct=30, skew=1.1, seed=9)
        draw = ZipfDraw(30, skew=1.1, seed=9)
        assert [row["value"] for row in table] == [draw() for _ in range(200)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ZipfDraw(0)
        with pytest.raises(ValueError):
            ZipfDraw(10, skew=-0.1)


class TestSkewedPair:
    def test_referential_integrity(self):
        fact, dim = make_skewed_pair(fact_rows=300, dim_rows=50, seed=4)
        dim_ids = {row["id"] for row in dim}
        assert all(row["fk"] in dim_ids for row in fact)

    def test_join_keys_are_skewed(self):
        fact, _ = make_skewed_pair(fact_rows=600, dim_rows=100, skew=1.2, seed=5)
        counts: dict[int, int] = {}
        for row in fact:
            counts[row["fk"]] = counts.get(row["fk"], 0) + 1
        # The hottest dimension row receives far more than the uniform
        # 6 references — the locality the eviction sanity check exploits.
        assert max(counts.values()) > 30

    def test_hot_column_is_more_selective_than_cold(self):
        fact, _ = make_skewed_pair(fact_rows=600, hot_range=1000, seed=6)
        cutoff = 300
        hot_pass = sum(1 for row in fact if row["hot"] > cutoff)
        cold_pass = sum(1 for row in fact if row["cold"] > cutoff)
        # Zipf mass concentrates on small values, so ``hot > cutoff`` drops
        # most rows while the uniform ``cold > cutoff`` keeps ~70%.
        assert hot_pass < 0.25 * len(fact)
        assert cold_pass > 0.5 * len(fact)


class TestPhaseShift:
    def test_distributions_swap_between_blocks(self):
        rows = 400
        narrow = 60
        table = make_phase_shift_table(
            "P", rows, phases=2, wide_range=1000, narrow_range=narrow, seed=7
        )
        first = [row for row in table if row["id"] < rows // 2]
        second = [row for row in table if row["id"] >= rows // 2]
        # Phase 0: ``b`` narrow (always < narrow), ``a`` wide (mostly >=).
        assert all(row["b"] < narrow for row in first)
        assert sum(1 for row in first if row["a"] < narrow) < 0.2 * len(first)
        # Phase 1: swapped.
        assert all(row["a"] < narrow for row in second)
        assert sum(1 for row in second if row["b"] < narrow) < 0.2 * len(second)

    def test_fk_joins_without_loss(self):
        table = make_phase_shift_table("P", 100, narrow_range=30, seed=8)
        assert all(0 <= row["fk"] < 30 for row in table)

    def test_rejects_zero_phases(self):
        with pytest.raises(ValueError):
            make_phase_shift_table("P", 10, phases=0)


class TestEdgesTable:
    def test_edges_are_deduplicated_and_in_range(self):
        table = make_edges_table("E", nodes=20, edges=100, seed=10)
        pairs = [(row["src"], row["dst"]) for row in table]
        assert len(pairs) == len(set(pairs))
        assert all(0 <= s < 20 and 0 <= d < 20 for s, d in pairs)

    def test_impossible_edge_count_is_capped(self):
        # Only 4 distinct pairs exist over 2 nodes; the generator must
        # terminate rather than spin forever looking for a fifth.
        table = make_edges_table("E", nodes=2, edges=50, seed=11)
        assert len(table) <= 4
