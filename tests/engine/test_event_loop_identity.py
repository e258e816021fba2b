"""Golden virtual-time identity of the event loop, pinned across commits.

The other identity suites compare configurations *within* one commit, so
they cannot notice every configuration shifting together.  The fleet and
churn digests were captured on the commit before the event loop was
flattened (heap of ``(time, sequence, event)`` tuples, inlined run loop,
straight-line route → service path) and must never move: they cover every
executed event's virtual time, label and order, every routing, output and
retirement, and every query's results.

The single-query digests pin :func:`~repro.engine.api.execute` on the
``stems`` engine over the single-query builders of
:mod:`repro.bench.workloads`: every output's time, tuple id, identity and
build timestamps, the final time, the eddy's and the modules' statistics,
the partial and index series, the aggregate rows and the eddy trace.  They
leave out the simulator's own event list and the query id, so they hold
for any engine that runs one query the same way.

To re-capture after a change that is *meant* to move virtual time:
``PYTHONPATH=src python tests/engine/test_event_loop_identity.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import partial

import pytest

from repro.bench import workloads
from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.engine.api import execute
from repro.engine.multi import MultiQueryEngine
from repro.sim.tracing import TraceLog
from repro.storage.catalog import Catalog
from repro.storage.datagen import make_source_r

POLICIES = ("naive", "lottery", "benefit")
BATCH_SIZES = (1, 8)

#: (workload, policy, batch_size) -> (outputs digest, trace digest).
GOLDEN: dict[tuple[str, str, int], tuple[str, str]] = {
    ('fleet', 'naive', 1): (
        '995d00f500137a3bd89a2d1de62497313980cd033fb80d80e5504a1fe22f777b',
        '78026b48234570cc1b7f3dcc06ce8458ef38c124c37a97a5b784d36e529bf7f7',
    ),
    ('fleet', 'naive', 8): (
        '809cd04912727b2510fb1a4828fc9865932640c6a24ee93bd04e83be07767148',
        '80646e7808843da103ef4c0e56b828bc3b781305750133319928e84d2bd37bf3',
    ),
    ('fleet', 'lottery', 1): (
        '523f3e65c4d0d7c42b34f3ba3e9d0f58ba3e34d4cd63f41a72389084e8d63828',
        '1b52494ad4a451a053fc89b827471786e3d35917cd90fe07e91a48b80fdd620a',
    ),
    ('fleet', 'lottery', 8): (
        '4a106a4170e29b5c4aad07641cf1688902eea005efd4a9e4d1874bbd3d29ed32',
        'a18f4512156b4d531b49eef6f4f2b87008a037564ba353c13310959fb96efd32',
    ),
    ('fleet', 'benefit', 1): (
        '551f0a97339ca86b3e7fbee50936e1b2b69c95e1552c596ac6571d5f4e0c0814',
        'f46faff663258d935f42dd5aa5b3591299edf4a29b908ba4a5aee071d97c900b',
    ),
    ('fleet', 'benefit', 8): (
        '2ed77ea4e7286475af357e71dd8e7bf7caf52854b375e5b306e1794ec724cf95',
        '34c44ec31e75e74e7adb5f1eb166df26722a097f522e7276377cc87d0c29b89c',
    ),
    ('churn', 'naive', 1): (
        '003c8487b3369045adb7dd370d184fdefedaf73f81447ea964f519c14c6408da',
        '10aa5a07b261348d2c7516b5a467b46a09b9e2fa0b37903bc0e9c610f25c0555',
    ),
    ('churn', 'naive', 8): (
        '003c8487b3369045adb7dd370d184fdefedaf73f81447ea964f519c14c6408da',
        'bff355803cc556fb0ba762e9646895cff502c7330aa50ec73b0cbcfc126b9d0d',
    ),
    ('churn', 'lottery', 1): (
        '709f465b674dc23ec6ebb15b61ed2c3b82580a69609c09e53750d6bddd2bd726',
        '217d527501844109195b4fb3551c4d8530dcd5fa66fa1f269222eea63523d309',
    ),
    ('churn', 'lottery', 8): (
        '709f465b674dc23ec6ebb15b61ed2c3b82580a69609c09e53750d6bddd2bd726',
        'fc9b12e180f84935dc28ec4472cb2900936f55f1afb5770fa616f4cf9308ff77',
    ),
    ('churn', 'benefit', 1): (
        '74515139feca7bde49ea79aed8d0c05c6ee98199cebfdd9b4288f7bec82472b0',
        'e17ba6c6f9e520ef7605f9f26ada8fa22a306fa876f40fcfe79c2c16689d936c',
    ),
    ('churn', 'benefit', 8): (
        '74515139feca7bde49ea79aed8d0c05c6ee98199cebfdd9b4288f7bec82472b0',
        '9aa7f9d0d08b34fb353ef62f582b4a0a2e4665134da7bb7d193f97f1a2faf608',
    ),
}


def _digest(parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _run(workload: str, policy: str, batch_size: int):
    """One traced run: a single TraceLog shared by the simulator and every
    eddy, so its records are the run's whole history in execution order."""
    log = TraceLog()
    if workload == "fleet":
        fleet = staggered_fleet_workload(n_queries=6, rows=120, policy=policy, seed=0)
        admissions = [replace(admission, trace=log) for admission in fleet.admissions]
        engine = MultiQueryEngine(admissions, fleet.catalog, batch_size=batch_size)
    else:
        churn = churn_workload(duration=20.0, rows=60, policy=policy, seed=3)
        engine = MultiQueryEngine(
            [], churn.catalog, continuous=True, batch_size=batch_size,
            stem_eviction="time-window", stem_window=2.0,
        )
        engine.schedule_churn(
            [
                replace(event, admission=replace(event.admission, trace=log))
                if event.action == "admit" else event
                for event in churn.events
            ]
        )
    engine.simulator.trace = log
    return engine.run(), log


def digests(workload: str, policy: str, batch_size: int) -> tuple[str, str]:
    result, log = _run(workload, policy, batch_size)
    outputs = [
        (query_id, repr(time), tuple_.identity())
        for query_id, query in result.results.items()
        for (time, _), tuple_ in zip(query.output_series, query.tuples)
    ]
    outputs.append(("final_time", repr(result.final_time)))
    trace = [(repr(record.time), record.kind, record.detail) for record in log]
    assert outputs and len(trace) > 1000
    return _digest(outputs), _digest(trace)


#: The single-query builders of :mod:`repro.bench.workloads` (Q1 and Q4 at
#: half their default size, to keep the 26 runs within ~4 s of CPU).
SINGLE_BUILDERS = {
    "q1": partial(workloads.q1_workload, r_rows=500),
    "q4": partial(workloads.q4_workload, rows=500),
    "competitive": workloads.competitive_ams_workload,
    "cyclic": workloads.cyclic_workload,
    "prioritized": workloads.prioritized_workload,
    "skewed": workloads.skewed_join_workload,
    "phase_shift": workloads.phase_shift_workload,
    "bursty": workloads.bursty_join_workload,
}
#: (policy, batch size) pairs each single-query builder runs under.
SINGLE_CONFIGS = (("naive", 1), ("lottery", 8), ("benefit", 1))
AGGREGATE_SQL = (
    "SELECT a, count(*), sum(key), min(key), max(key) FROM R "
    "WHERE R.key < 90 GROUP BY a"
)

#: case id -> digest of one ``execute(engine="stems")`` run.
SINGLE_GOLDEN: dict[str, str] = {
    'q1-naive-1': 'b0330c6ce2cc0fd517507fb3b07c60bdcb95970850657053e717e6d09edd7ec1',
    'q1-lottery-8': '7070c90976e824f7fb9ce160b9a75db27cc27ea5d419b34be2fea0df8ea49dca',
    'q1-benefit-1': 'b0330c6ce2cc0fd517507fb3b07c60bdcb95970850657053e717e6d09edd7ec1',
    'q4-naive-1': '1683138321722d350b81df2f422f5bdb57084cd8da0754432a7e8600d92fcb6b',
    'q4-lottery-8': '8a1dc28ce71237db60d3ec946602db6a6b3b4bcbbc6e18716a6512d3fd73a10d',
    'q4-benefit-1': '00fff8a06e40ab7f65b99c48b82117b1a154817afee70f67707d0428829dcf32',
    'competitive-naive-1': 'fcea0a82dad8dd86d8d22cb6b0df18b97133ec644fcc08bad251c08be2cddcb6',
    'competitive-lottery-8': '93f7cbe58df89dccdca8ade7134a26a590082cfef2e3eb78ba4e8941138e7b02',
    'competitive-benefit-1': 'fcea0a82dad8dd86d8d22cb6b0df18b97133ec644fcc08bad251c08be2cddcb6',
    'cyclic-naive-1': '4c688c65144acf5d2c276714db6c216f195575c7848fd74e371fdea062ac920f',
    'cyclic-lottery-8': 'd3f22b301a57034e922f25e3fa9584f23dec25f6f624eb4a2da7943750cdf8af',
    'cyclic-benefit-1': 'e0c82a04c8fba2321687c5ac6583d03b00bbbcbf647dae7bd6b6a3c565bc76cf',
    'prioritized-naive-1': 'f0d3ed3aefb1d56e03be426e9ea70f942b2b7f13ae51d2c8eb2b8702895bb9b3',
    'prioritized-lottery-8': 'b707297d9f619f2bc2352689411a8121a5febfaa1f4636fab19988f5d0649398',
    'prioritized-benefit-1': '8fbebc712fffbb89336357ebf57976b1553f0df7703511b7704b601dfa03d817',
    'skewed-naive-1': 'f2fa0db660ab6875f07c1e7f95b38c1bc314c8210085c95279a496cc0eda7426',
    'skewed-lottery-8': 'e1e6b6207bf6fefcc5e59d746a5b75f8814dbc86285b865fb127e00f851f8a7d',
    'skewed-benefit-1': 'c3ace44c295988797783a70f58ba6f79cd94c336f4bb66c93c35c80568e98bb7',
    'phase_shift-naive-1': '54a3c95bb47f16614b5b07b81902f043a9d3af03f91bb1395ced78373da4527b',
    'phase_shift-lottery-8': '4e40114e3105e478d7807992d9e037cd1096abf8205b51eb7cfb3721f801e048',
    'phase_shift-benefit-1': 'e380140601d6bdbb1acb1bdd7a979d62b788c97187c4b10b18832304c601c264',
    'bursty-naive-1': 'cdcbfa5f80049b63c9a8ff01922920e6ac0fa2a42714a8df6b00c9ce48f93c11',
    'bursty-lottery-8': '443d704026d5e48ba0dff94e39b018fad5060eb8d487f278d5f0505a6e7fc306',
    'bursty-benefit-1': '9eabe86c41970a7603588c8053e77991b37f0613223e2e8c1396a9b9ead5fd7f',
    'group-by': '4140358c8c2dd7d92bb3dc879fd192674a6a6d20bffa63f3c2f076efeab9d7b3',
    'q4-bounded': '71f20237a13be4b010c14c02ede1d3d9b62df6633be68e564ccdfbbf8f58d1db',
}


def _single_run(case: str):
    """One traced ``execute`` run; returns its result and eddy trace."""
    log = TraceLog()
    if case == "group-by":
        catalog = Catalog()
        catalog.add_table(make_source_r(200, 20, seed=5))
        catalog.add_scan("R", rate=50.0)
        result = execute(
            AGGREGATE_SQL, catalog, policy="lottery", batch_size=8, trace=log
        )
        return result, log
    if case == "q4-bounded":
        workload = workloads.q4_workload(rows=400)
        result = execute(
            workload.query, workload.catalog, policy="lottery", batch_size=8,
            stem_max_size=50, trace=log,
        )
        return result, log
    name, policy, batch = case.split("-")
    workload = SINGLE_BUILDERS[name]()
    result = execute(
        workload.query,
        workload.catalog,
        policy=policy,
        cost_model=workload.cost_model,
        batch_size=int(batch),
        trace=log,
    )
    return result, log


SINGLE_CASES = [
    f"{name}-{policy}-{batch}"
    for name in SINGLE_BUILDERS
    for policy, batch in SINGLE_CONFIGS
] + ["group-by", "q4-bounded"]


def single_digest(case: str) -> str:
    result, log = _single_run(case)
    parts: list = [
        (repr(time), tuple_.tuple_id, tuple_.identity(), sorted(tuple_.timestamps.items()))
        for (time, _), tuple_ in zip(result.output_series, result.tuples)
    ]
    parts.append(("final_time", repr(result.final_time)))
    parts.append(("eddy_stats", sorted(result.eddy_stats.items())))
    parts.append(
        ("module_stats", [
            (name, sorted(stats.items()))
            for name, stats in sorted(result.module_stats.items())
        ])
    )
    for label, series_map in (
        ("partial", result.partial_series),
        ("index", result.index_probe_series),
    ):
        parts.append(
            (label, [(key, series.points) for key, series in sorted(series_map.items())])
        )
    parts.append(("aggregate", result.aggregate_labels, result.aggregate_rows))
    parts.extend((repr(record.time), record.kind, record.detail) for record in log)
    assert result.tuples or result.aggregate_rows
    return _digest(parts)


@pytest.mark.parametrize("case", SINGLE_CASES)
def test_single_query_run_matches_the_golden_capture(case):
    assert single_digest(case) == SINGLE_GOLDEN[case]


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=lambda b: f"batch={b}")
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", ["fleet", "churn"])
def test_virtual_time_and_trace_match_the_golden_capture(workload, policy, batch_size):
    assert digests(workload, policy, batch_size) == GOLDEN[workload, policy, batch_size]


if __name__ == "__main__":
    print("SINGLE_GOLDEN = {")
    for case in SINGLE_CASES:
        print(f"    {case!r}: {single_digest(case)!r},")
    print("}")
    for workload in ("fleet", "churn"):
        for policy in POLICIES:
            for batch_size in BATCH_SIZES:
                outputs, trace = digests(workload, policy, batch_size)
                print(f"    ({workload!r}, {policy!r}, {batch_size}): (")
                print(f"        {outputs!r},")
                print(f"        {trace!r},")
                print("    ),")
