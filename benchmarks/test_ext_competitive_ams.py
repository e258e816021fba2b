"""Extension experiment A (salient point 2): competitive access methods.

Two scan access methods exist for R; one stalls shortly after the query
starts.  With SteMs both AMs run concurrently, the SteM on R absorbs the
duplicate deliveries, and the query finishes at the healthy AM's pace —
"the eddy efficiently learns between competitive access methods, while doing
almost no redundant work".
"""

from __future__ import annotations

from repro.bench.experiments import run_competitive_ams
from tests.helpers import has_duplicates

PARAMS = dict(rows=600, slow_stall_at=2.0, slow_stall_duration=60.0)


def test_competitive_access_methods(benchmark):
    report = benchmark.pedantic(run_competitive_ams, kwargs=PARAMS, rounds=1, iterations=1)
    flaky_only = report.results["single-am-flaky"]
    competitive = report.results["competitive"]

    # Same answers either way.
    assert sorted(flaky_only.identities()) == sorted(competitive.identities())

    # With only the stalling AM the query waits out the outage; with a
    # competing healthy AM it finishes long before the outage ends.
    assert flaky_only.completion_time > PARAMS["slow_stall_duration"]
    assert competitive.completion_time < 0.5 * flaky_only.completion_time

    # The redundant deliveries of the second AM die at the SteM build:
    # the dataflow beyond the SteM never sees them.
    duplicates = int(report.notes["duplicates_absorbed_by_stems"])
    assert duplicates >= PARAMS["rows"] // 2
    assert not has_duplicates(competitive)

    print()
    print(
        f"completion: flaky-only={flaky_only.completion_time:.1f}s, "
        f"competitive={competitive.completion_time:.1f}s, "
        f"duplicates absorbed by SteM={duplicates}"
    )
    benchmark.extra_info["completion_flaky_only_s"] = round(flaky_only.completion_time, 1)
    benchmark.extra_info["completion_competitive_s"] = round(competitive.completion_time, 1)
    benchmark.extra_info["duplicates_absorbed"] = duplicates
