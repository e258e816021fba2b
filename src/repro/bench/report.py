"""Plain-text reporting helpers for benchmark output.

The paper presents its results as line plots; a terminal benchmark run
renders the same data as sampled tables and coarse ASCII sparklines so the
curve shapes (convex vs linear, crossovers, completion times) are visible in
``pytest benchmarks/ --benchmark-only`` output and in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.engine.results import Series

_SPARK_CHARS = " .:-=+*#%@"


def sampled_table(
    series_by_name: Mapping[str, Series],
    times: Sequence[float],
    header: str = "time(s)",
) -> str:
    """Render cumulative counts of several series at sample times as a table."""
    names = list(series_by_name)
    widths = [max(len(name), 8) for name in names]
    lines = []
    title_cells = [f"{header:>8}"] + [
        f"{name:>{width}}" for name, width in zip(names, widths)
    ]
    lines.append(" | ".join(title_cells))
    lines.append("-+-".join("-" * len(cell) for cell in title_cells))
    for time in times:
        cells = [f"{time:>8.1f}"]
        for name, width in zip(names, widths):
            cells.append(f"{series_by_name[name].count_at(time):>{width}d}")
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def sparkline(series: Series, times: Sequence[float], height: int = 1) -> str:
    """A one-line ASCII sparkline of a cumulative series at sample times."""
    del height
    values = [series.count_at(time) for time in times]
    peak = max(values) if values else 0
    if peak == 0:
        return " " * len(values)
    chars = []
    for value in values:
        index = round((value / peak) * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[index])
    return "".join(chars)


def comparison_summary(
    series_by_name: Mapping[str, Series],
    times: Sequence[float],
) -> str:
    """Sampled table plus per-approach sparklines and completion counts."""
    lines = [sampled_table(series_by_name, times)]
    lines.append("")
    for name, series in series_by_name.items():
        lines.append(
            f"{name:>12}: [{sparkline(series, times)}] "
            f"final={series.final_count} at t={series.final_time:.1f}s"
        )
    return "\n".join(lines)
