"""Medians, quartiles and the A-against-B table a performance PR pastes.

A pair (workload, end-to-end metric) is labelled

* ``unresolved`` — the quartile spread of either side is wider than the
  metric's bound, so the bound cannot be checked (unless every sample of B
  reads better than every sample of A);
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than A's own spread;
* ``same`` — anything else.

Bounds, units and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

#: ``setup_s`` is a few tenths of a second; a relative bound alone would flag
#: scheduler noise, so it may also worsen by this much in absolute terms.
SETUP_FLOOR_S = 0.1


def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {
        "value": median,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def label(a: dict, b: dict, higher_is_better: bool, bound: float, floor: float) -> str:
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (b["value"] - a["value"])
    allowed = max(bound * abs(a["value"]), floor)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if spread > allowed:
        separated = min(sign * s for s in b["samples"]) > max(
            sign * s for s in a["samples"]
        )
        if not separated:
            return "unresolved"
    if gain < -allowed:
        return "regressed"
    if gain > a["q3"] - a["q1"] and gain > 0:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both results."""
    rows = []
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in in_a["metrics"] or name not in in_b["metrics"]:
                continue
            ma, mb = in_a["metrics"][name], in_b["metrics"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": ma,
                    "b": mb,
                    "delta": (mb["value"] - ma["value"]) / ma["value"],
                    "bound": metric["bound"],
                    "label": label(
                        ma,
                        mb,
                        metric["better"] == "higher",
                        metric["bound"],
                        SETUP_FLOOR_S if name == "setup_s" else 0.0,
                    ),
                }
            )
        fa, fb = in_a["failed_share"], in_b["failed_share"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "unit": "ratio",
                "a": {"value": fa, "q1": fa, "q3": fa},
                "b": {"value": fb, "q1": fb, "q3": fb},
                "delta": fb - fa,
                "bound": 0.0,
                "label": "regressed" if fb > fa else "same",
            }
        )
    return rows


def exact_differences(a: dict, b: dict) -> list[str]:
    """What must repeat exactly between two runs of one seed, and does not."""
    differences = []
    for workload, in_a in a["workloads"].items():
        in_b = b["workloads"].get(workload)
        if in_b is None:
            continue
        if in_a["result_digest"] != in_b["result_digest"]:
            differences.append(f"{workload}: result_digest differs")
        for name in ("virtual_completion_s", "virtual_half_results_s"):
            if in_a["metrics"][name]["value"] != in_b["metrics"][name]["value"]:
                differences.append(f"{workload}: {name} differs")
        for name, value in in_a.get("counts", {}).items():
            if in_b.get("counts", {}).get(name) != value:
                differences.append(f"{workload}: count {name} differs")
    return differences


def format_table(rows: list[dict]) -> str:
    header = (
        f"{'workload':<14} {'metric':<24} {'unit':<10} "
        f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
        f"{'delta':>8} {'bound':>6}  label"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<14} {row['metric']:<24} {row['unit']:<10} "
            f"{_cell(a):>34} {_cell(b):>34} "
            f"{row['delta']:>+8.1%} {row['bound']:>6.0%}  {row['label']}"
        )
    return "\n".join(lines)


def _cell(summary: dict) -> str:
    return f"{summary['value']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"
