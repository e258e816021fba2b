"""Ablation: compiled ProbePlans vs the interpreted SteM probe loop.

Every result tuple the system emits is born inside a SteM probe, and the
interpreted loop (kept as the test oracle in
``tests/reference/interpreted_probe.py``) pays Python-object tax per
candidate row: a fresh
``dict(probe.components)``, predicate trees resolving column names through
``Schema.position`` per access, and equality bindings re-derived per probe
via isinstance dispatch.  The compiled path
(:class:`~repro.query.probeplan.ProbePlan` +
:meth:`~repro.core.stem.SteM.probe_with_plan`) does that resolution once
per probe situation and runs the candidate loop over positional tuple
reads.

Claims checked here:

* **Zero per-candidate dict allocations.**  With the ``dict`` name in
  ``repro.core.stem`` and in the reference module shadowed by a counting
  subclass, an interpreted probe over N candidates constructs N dicts; the
  compiled probe constructs none.
* **Measured wall-clock speedup.**  On a probe-dominated situation (large
  skewed posting lists, an equality binding plus an inequality residual),
  the compiled ``probe_batch`` is at least 1.5x faster than the interpreted
  loop.

``tests/engine/test_probe_path_identity.py`` checks that whole engines run
byte-identically on either loop.

The measured trajectory is emitted as ``BENCH_probe.json`` under
``$REPRO_BENCH_OUT`` (CI sets it; unset, nothing is written).
"""

from __future__ import annotations

import time

import repro.core.stem as stem_module
import tests.reference.interpreted_probe as reference_module
from conftest import emit_artifact
from repro.core.stem import SteM
from repro.query.predicates import Comparison
from repro.query.probeplan import ProbePlan
from repro.storage.row import Row
from repro.storage.schema import Schema
from tests.reference.interpreted_probe import interpreted_probe
from tests.helpers import equi_join, layout_over, singleton_tuple

ARTIFACT = "BENCH_probe.json"

R_SCHEMA = Schema.of("key:int", "a:int", "b:int")
S_SCHEMA = Schema.of("x:int", "y:int")

#: Probe-dominated microbenchmark: every probe lands in a posting list of
#: ``ROWS_PER_KEY`` candidates and must run the residual inequality on each.
DISTINCT_KEYS = 4
ROWS_PER_KEY = 500
PROBES = 64


def build_probe_situation():
    """A SteM with fat posting lists plus the probes and predicates."""
    stem = SteM("S", aliases=("S",), join_columns=("x",))
    total = DISTINCT_KEYS * ROWS_PER_KEY
    timestamp = 0.0
    for position in range(total):
        timestamp += 1.0
        # Distinct (x, y) pairs: every bucket keeps ROWS_PER_KEY rows.
        stem.build(Row("S", S_SCHEMA, (position % DISTINCT_KEYS, position)), timestamp)
    predicates = [equi_join("R.a", "S.x"), Comparison("R.b", "<", "S.y")]
    layout = layout_over("R", "S")
    probes = []
    for position in range(PROBES):
        # The residual inequality keeps ~2 of the ROWS_PER_KEY candidates,
        # so the candidate loop (not result construction) dominates.
        probe = singleton_tuple(
            "R",
            Row("R", R_SCHEMA, (position, position % DISTINCT_KEYS, total - 8)),
            layout=layout,
        )
        probe.mark_built("R", timestamp + position + 1.0)
        probes.append(probe)
    plan = ProbePlan.compile(
        predicates, "S", probes[0].components, target_schema=stem.row_schema
    )
    return stem, probes, predicates, plan


class _CountingDict(dict):
    """dict subclass counting constructions (installed over the module-global
    ``dict`` name of stem.py and of the reference module, shadowing the
    builtin)."""

    constructions = 0

    def __init__(self, *args, **kwargs):
        _CountingDict.constructions += 1
        super().__init__(*args, **kwargs)


def _count_dict_constructions(run) -> int:
    _CountingDict.constructions = 0
    stem_module.dict = reference_module.dict = _CountingDict
    try:
        run()
    finally:
        del stem_module.dict, reference_module.dict
    return _CountingDict.constructions


def test_compiled_loop_allocates_no_per_candidate_dicts():
    stem, probes, predicates, plan = build_probe_situation()
    probe = probes[0]
    candidates = ROWS_PER_KEY

    interpreted = _count_dict_constructions(
        lambda: interpreted_probe(stem, probe, "S", predicates)
    )
    # The interpreted loop merges the probe's components once per candidate.
    assert interpreted >= candidates

    compiled = _count_dict_constructions(
        lambda: stem.probe_with_plan(probe, plan)
    )
    assert compiled == 0, (
        f"compiled probe loop constructed {compiled} dicts; "
        "the per-candidate path must be allocation-free"
    )
    # The bench situation compiles fully: no generic fallback in play.
    assert plan.generic_predicates == ()


def test_compiled_probe_loop_speedup(benchmark):
    """>= 1.5x wall-clock over the interpreted loop, probe-batch path."""
    stem, probes, predicates, plan = build_probe_situation()
    rounds = 5

    def interpreted_pass() -> int:
        total = 0
        for probe in probes:
            total += len(interpreted_probe(stem, probe, "S", predicates).results)
        return total

    def compiled_pass() -> int:
        total = 0
        for outcome in stem.probe_batch(probes, plan):
            total += len(outcome.results)
        return total

    # Identical matches, then identical warmed-up passes get timed.
    assert compiled_pass() == interpreted_pass()
    trajectory = []
    interpreted_elapsed = compiled_elapsed = 0.0
    for round_index in range(rounds):
        start = time.perf_counter()
        interpreted_pass()
        interpreted_round = time.perf_counter() - start
        start = time.perf_counter()
        compiled_pass()
        compiled_round = time.perf_counter() - start
        interpreted_elapsed += interpreted_round
        compiled_elapsed += compiled_round
        trajectory.append(
            {
                "round": round_index,
                "interpreted_s": interpreted_round,
                "compiled_s": compiled_round,
                "speedup": interpreted_round / max(compiled_round, 1e-12),
            }
        )

    speedup = interpreted_elapsed / max(compiled_elapsed, 1e-12)
    emit_artifact(
        ARTIFACT,
        {
            "benchmark": "compiled_probe_ablation",
            "candidates_per_probe": ROWS_PER_KEY,
            "probes_per_pass": PROBES,
            "rounds": rounds,
            "interpreted_total_s": interpreted_elapsed,
            "compiled_total_s": compiled_elapsed,
            "speedup": speedup,
            "trajectory": trajectory,
        },
    )
    assert speedup >= 1.5, (
        f"compiled probe loop only {speedup:.2f}x faster than interpreted "
        f"({compiled_elapsed:.4f}s vs {interpreted_elapsed:.4f}s)"
    )

    benchmark.pedantic(compiled_pass, rounds=5, iterations=2)
    benchmark.extra_info["speedup_vs_interpreted"] = round(speedup, 2)
    benchmark.extra_info["candidates_per_probe"] = ROWS_PER_KEY
    benchmark.extra_info["artifact"] = ARTIFACT
