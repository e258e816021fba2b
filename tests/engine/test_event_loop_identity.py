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
    'q1-naive-1': '81d4adbdc4db642095854fc75f476dc390f6f75c8ed496e606df3b7abe6bb527',
    'q1-lottery-8': 'd2fafac41acf27cad90b7c57e5fa13c12de09af0b03a8a58304fb32599cde44f',
    'q1-benefit-1': '81d4adbdc4db642095854fc75f476dc390f6f75c8ed496e606df3b7abe6bb527',
    'q4-naive-1': 'c1f38ca4cc8dfefbb92b4d2886a34d82d51770e8793c018029d39eb2ad1a7279',
    'q4-lottery-8': '6d900d806281d69fbf329eeb720b270685f14d8321c62f6b04511031ad80ee29',
    'q4-benefit-1': 'a9a95ff3d423c229b196ed9f342d631d7df667b85c329dc8a5073e559d7d6b4a',
    'competitive-naive-1': 'f01b0725f3c951bbe31210d16fa9e0197527f938537f1bc10eb93cb540be2b39',
    'competitive-lottery-8': '5aa6e0eed82848b9e3520e1b0adce9bf31a2f9f58e816b4938e13d8d9f2f3b71',
    'competitive-benefit-1': 'f01b0725f3c951bbe31210d16fa9e0197527f938537f1bc10eb93cb540be2b39',
    'cyclic-naive-1': '41cb93d386add0dcafa3d53d7d31a9ebf8f6eaf4006b80ebec0c561c5c9d2eb6',
    'cyclic-lottery-8': 'b0e9b64ca4ee58b00572e48962878c96e7d0fd20574bce53ffdc6a04f52bfd65',
    'cyclic-benefit-1': '06a80dbc0df081d79c01dbeebe4e33be4c3efc53e37bfda2a6ac9ceae4329583',
    'prioritized-naive-1': '557b910e8f851da716bdd129b89eeb97b9916f7b5a62fad2ff87cdbdda6873f0',
    'prioritized-lottery-8': '624455579e93ea8568137b790f8d7635e9d4ca0db76402a4f7f0a6022bf16510',
    'prioritized-benefit-1': 'a93cee0257f3a644bcfdd95ea6b38e58d9c5a33b860a09fc9183e45be412e124',
    'skewed-naive-1': 'e8a9746246c989e95d6ce27a5f2cb023f545aa3de0fa4a19990372675a41c4e8',
    'skewed-lottery-8': '53e7d253fb124454471afbd0a33ecc16f8c82977c38b17429ac2b822bcce75b7',
    'skewed-benefit-1': '47e24edfa8a1fb711cb3b3929256bbf2dac66e0b4375155323295b61bad655b0',
    'phase_shift-naive-1': '0968b6c32e78cc005a1525a97e4bbcd962379e8bed1bd90bae275017cafe2157',
    'phase_shift-lottery-8': '6101bd13693a6aa621df1472ba32fee3dc1b5c115871df4744c69c749a84a3a5',
    'phase_shift-benefit-1': '154cf806b4aa11a5da234c260dea01e57fb3265faea427a14b4d0506d26411b2',
    'bursty-naive-1': '88942246955d01afdcaed012f13c1a9e0f5a1160ebe97411eee098ee6f4f39ef',
    'bursty-lottery-8': 'd6b84cf2ab66b6f0a94eeb8e377698922940d0009741b5e9e69aaec41d1efc8a',
    'bursty-benefit-1': '4f59f5f1fb6b7fd68304879b0c072e5a2ae4b0b5d7042da848ef758ece0d7ab6',
    'group-by': 'bdde97e5bb353649dfc804156745b650b79ff876d70bebdef3b2f9a4f2933eee',
    'q4-bounded': '3810b4df6d31801a07b9eca7f525d52c54eaa3b0395e2b73182287a7d8e78b9d',
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
