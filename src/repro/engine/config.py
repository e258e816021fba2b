"""The engine configuration: one frozen value, built once per entry point.

``execute``, ``run_multi``, ``run_churn`` and ``MultiQueryEngine`` take the
same six engine keywords (:data:`EngineConfig.OPTIONS`) and build one
:class:`EngineConfig` from them before virtual time 0; the engines read it
and check nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Iterable, Mapping

from repro.core.costs import CostModel
from repro.core.stem_registry import SteMBound
from repro.errors import ExecutionError


@dataclass(frozen=True)
class EngineConfig:
    """What every query of a run is executed with.

    Attributes:
        cost_model: virtual-time cost model (adaptive engines).
        strict_constraints: validate every routing decision against the
            paper's Table 2 constraints (``stems`` engine only).
        batch_size: ready tuples an eddy drains per routing event (adaptive
            engines; 1 = the paper's per-tuple routing, >1 enables
            signature-batched routing with the destination cache).
        stem_bound: the bound on every SteM's state (``stems`` engine
            only), from the keywords ``stem_eviction`` (a policy name),
            ``stem_max_size`` (rows) and ``stem_window`` (build-timestamp
            width, time-window eviction only).
    """

    OPTIONS: ClassVar[tuple[str, ...]] = (
        "cost_model", "strict_constraints", "batch_size",
        "stem_max_size", "stem_eviction", "stem_window",
    )

    cost_model: CostModel = CostModel()
    strict_constraints: bool = False
    batch_size: int = 1
    stem_bound: SteMBound = SteMBound()

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ExecutionError(f"batch_size must be >= 1, got {self.batch_size}")

    @classmethod
    def from_options(
        cls, entry: str, options: Mapping[str, Any], accepted: Iterable[str] = ()
    ) -> "EngineConfig":
        """The config the engine keywords ``options`` name.

        ``entry`` (the entry point's name) and ``accepted`` (its own
        keywords) word the :class:`ExecutionError` an unknown keyword or a
        SteM bound its policy does not read raises.
        """
        unknown = sorted(set(options) - set(cls.OPTIONS))
        if unknown:
            raise ExecutionError(
                f"{entry}() got unknown option(s): {', '.join(unknown)}; "
                f"accepted options are: {', '.join(sorted({*accepted, *cls.OPTIONS}))}"
            )
        try:
            stem_bound = SteMBound(
                eviction=options.get("stem_eviction"),
                max_size=options.get("stem_max_size"),
                window=options.get("stem_window"),
            )
        except ExecutionError as error:
            given = ", ".join(f"{name}={value!r}" for name, value in sorted(options.items())
                              if name.startswith("stem_"))
            raise ExecutionError(f"{entry}(): {given}: {error}") from None
        return cls(
            cost_model=options.get("cost_model") or CostModel(),
            strict_constraints=options.get("strict_constraints", False),
            batch_size=options.get("batch_size", 1),
            stem_bound=stem_bound,
        )
