"""Shared engine-option validation for the public entry points.

:func:`~repro.engine.api.execute`, :func:`~repro.engine.multi.run_multi`
and :func:`~repro.engine.multi.run_churn` accept one common engine keyword
set (cost model, strict constraints, batching, SteM configuration — size
bound, eviction policy/window).  A SteM's secondary indexes have one shape
(hash buckets that carry each row's build timestamp), so no option picks
an index kind.  Historically each wrapper named a different subset, so an
option that worked on one entry point died as a bare ``TypeError`` (or was
silently impossible to reach, as with ``multi --churn``) on the next.  Now
every wrapper funnels its ``**kwargs`` remainder through
:func:`reject_unknown_options`, which fails with the accepted names spelled
out.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import ExecutionError

#: The engine keyword set shared by ``execute``/``run_multi``/``run_churn``
#: (each entry point also keeps a few point-specific keywords, e.g.
#: ``engine``/``plan`` on ``execute`` or ``shared_stems`` on the
#: multi-query wrappers).
SHARED_ENGINE_OPTIONS: tuple[str, ...] = (
    "cost_model",
    "strict_constraints",
    "batch_size",
    "stem_max_size",
    "stem_eviction",
    "stem_window",
)

#: Durability keywords accepted by the multi-query entry points
#: (``run_multi``/``run_churn`` and the CLI's ``multi`` subcommand): a
#: checkpoint directory enables the write-ahead log + snapshot layer of
#: :mod:`repro.recovery`, and the interval paces periodic checkpoints in
#: virtual time.
DURABILITY_OPTIONS: tuple[str, ...] = (
    "checkpoint_dir",
    "checkpoint_interval",
)


def reject_unknown_options(
    context: str,
    options: Mapping[str, Any],
    accepted: Iterable[str],
) -> None:
    """Raise a clear :class:`ExecutionError` when ``options`` is non-empty.

    Args:
        context: the entry point's name for the message (``"run_churn"``).
        options: the unconsumed ``**kwargs`` remainder.
        accepted: every keyword the entry point does accept.
    """
    if not options:
        return
    unknown = ", ".join(sorted(options))
    expected = ", ".join(sorted(accepted))
    raise ExecutionError(
        f"{context}() got unknown option(s): {unknown}; "
        f"accepted options are: {expected}"
    )
