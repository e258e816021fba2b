"""Golden virtual-time identity of the event loop, pinned across commits.

The other identity suites compare configurations *within* one commit, so
they cannot notice every configuration shifting together.  These digests
were captured on the commit before the event loop was flattened (heap of
``(time, sequence, event)`` tuples, inlined run loop, straight-line
route → service path) and must never move: they cover every executed
event's virtual time, label and order, every routing, output and
retirement, and every query's results.

To re-capture after a change that is *meant* to move virtual time:
``PYTHONPATH=src python tests/engine/test_event_loop_identity.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.bench.workloads import churn_workload, staggered_fleet_workload
from repro.engine.multi import MultiQueryEngine
from repro.sim.tracing import TraceLog

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


@pytest.mark.parametrize("batch_size", BATCH_SIZES, ids=lambda b: f"batch={b}")
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("workload", ["fleet", "churn"])
def test_virtual_time_and_trace_match_the_golden_capture(workload, policy, batch_size):
    assert digests(workload, policy, batch_size) == GOLDEN[workload, policy, batch_size]


if __name__ == "__main__":
    for workload in ("fleet", "churn"):
        for policy in POLICIES:
            for batch_size in BATCH_SIZES:
                outputs, trace = digests(workload, policy, batch_size)
                print(f"    ({workload!r}, {policy!r}, {batch_size}): (")
                print(f"        {outputs!r},")
                print(f"        {trace!r},")
                print("    ),")
