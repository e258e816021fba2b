"""Trace-determinism regression tests.

Tuple ids used to come from a process-global counter, so repeated
``execute()`` calls in one process numbered identical runs differently —
breaking trace comparisons and any id-keyed analysis.  Ids are now allocated
per run, and these tests pin the guarantee: two identical runs in one
process emit byte-identical traces, tuple ids included.
"""

from __future__ import annotations

import pytest

from repro.core.tuples import QTuple
from repro.engine.api import execute
from repro.engine.multi import QueryAdmission, run_multi
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r, make_source_t
from tests.conftest import single_query_engine

SQL = "SELECT * FROM R, T WHERE R.key = T.key AND R.a < 6"


def build_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(make_source_r(40, 10, seed=7))
    catalog.add_table(make_source_t(40, seed=8))
    catalog.add_scan("R", rate=100.0)
    catalog.add_scan("T", rate=80.0)
    catalog.add_index("T", ["key"], latency=0.05)
    return catalog


def records(trace: TraceLog) -> list[tuple]:
    return [(record.time, record.kind, record.detail) for record in trace]


class TestSingleQueryDeterminism:
    @pytest.mark.parametrize("policy", ["naive", "benefit", "lottery"])
    @pytest.mark.parametrize("batch_size", [1, 8], ids=lambda b: f"batch={b}")
    def test_identical_runs_emit_identical_traces(self, policy, batch_size):
        first_trace, second_trace = TraceLog(), TraceLog()
        first = execute(
            SQL, build_catalog(), engine="stems", policy=policy,
            batch_size=batch_size, trace=first_trace,
        )
        second = execute(
            SQL, build_catalog(), engine="stems", policy=policy,
            batch_size=batch_size, trace=second_trace,
        )
        assert records(first_trace) == records(second_trace)
        assert len(first_trace) > 0
        # Output tuples carry the same ids in the same order.
        assert [t.tuple_id for t in first.tuples] == [t.tuple_id for t in second.tuples]

    def test_ids_restart_at_one_each_run(self):
        execute(SQL, build_catalog(), engine="stems", policy="naive")
        result = execute(SQL, build_catalog(), engine="stems", policy="naive")
        assert min(t.tuple_id for t in result.tuples) < 50  # not process-cumulative

    def test_eddy_joins_engine_is_trace_deterministic(self):
        first_trace, second_trace = TraceLog(), TraceLog()
        execute(SQL, build_catalog(), engine="eddy-joins", trace=first_trace)
        execute(SQL, build_catalog(), engine="eddy-joins", trace=second_trace)
        assert len(first_trace) > 0
        assert records(first_trace) == records(second_trace)


class TestMultiQueryDeterminism:
    def _admissions(self):
        return [
            QueryAdmission(SQL, query_id="a", policy="naive", trace=TraceLog()),
            QueryAdmission(
                "SELECT * FROM R, T WHERE R.key = T.key",
                query_id="b",
                policy="naive",
                arrival_time=0.2,
                trace=TraceLog(),
            ),
        ]

    def test_identical_multi_runs_emit_identical_per_query_traces(self):
        first_admissions = self._admissions()
        second_admissions = self._admissions()
        first = run_multi(first_admissions, build_catalog(), shared_stems=True)
        second = run_multi(second_admissions, build_catalog(), shared_stems=True)
        for first_admission, second_admission in zip(first_admissions, second_admissions):
            assert len(first_admission.trace) > 0
            assert records(first_admission.trace) == records(second_admission.trace)
        for query_id in ("a", "b"):
            assert [t.tuple_id for t in first[query_id].tuples] == [
                t.tuple_id for t in second[query_id].tuples
            ]


class TestVisitTokens:
    def test_two_engines_give_equal_tokens_for_the_same_routing(self):
        # Visit bits belong to each query's layout, assigned in the order
        # its tuples first reach a module; no name table is shared across
        # engines.  The second engine's SteMs and index AM carry other names
        # (aliases x, y), so a process-wide table would give them other bits.
        def routed_tokens(sql):
            engine = single_query_engine(sql, build_catalog(), policy="naive")
            eddy = engine.eddy_of("q0")
            tokens, names, deliver = [], [], eddy._deliver

            def recording(module, item):
                if isinstance(item, QTuple):
                    tokens.append(item.visits_token)
                    names.append(module.name)
                deliver(module, item)

            eddy._deliver = recording
            engine.run()
            return tokens, names

        tokens, names = routed_tokens(SQL)
        renamed_tokens, renamed_names = routed_tokens(
            "SELECT * FROM R AS x, T AS y WHERE x.key = y.key AND x.a < 6"
        )
        rename = {"stem:R": "stem:x", "stem:T": "stem:y", "am:T_idx_key:T": "am:T_idx_key:y"}
        assert [rename.get(name, name) for name in names] == renamed_names  # same routing
        assert len(set(tokens)) > 2
        assert renamed_tokens == tokens
