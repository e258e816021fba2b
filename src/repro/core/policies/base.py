"""Routing policy interface.

A routing policy answers one question, over and over: *given this tuple and
these legal destinations, where should it go next?*  Policies never see
illegal destinations — the :class:`~repro.core.constraints.ConstraintChecker`
filters those out first — so a policy can be arbitrarily simple or
arbitrarily clever without endangering correctness, which is exactly the
division of labour the paper argues for.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.core.constraints import Destination
from repro.core.tuples import MatchRun, QTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.eddy import Eddy

#: Precedence used by simple policies when ordering destination kinds.
DEFAULT_ACTION_ORDER = ("build", "select", "probe", "am_probe")


class RoutingPolicy(ABC):
    """Base class for eddy routing policies."""

    name = "policy"

    @abstractmethod
    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy: "Eddy"
    ) -> Destination | None:
        """Pick the next destination for a tuple.

        Args:
            tuple_: the tuple being routed.
            destinations: the legal destinations (never empty).
            eddy: the running eddy, exposing module state (SteM sizes, scan
                progress, index queue lengths) for cost/benefit reasoning.

        Returns:
            The chosen destination, or None to decline the *optional*
            destinations — the eddy then retires the tuple if nothing
            required remains (it never drops required work on a None).
        """

    def fixed_choice(self, destinations: Sequence[Destination]) -> Destination | None:
        """What :meth:`choose` returns for *every* tuple with these legal
        destinations, whatever its priority class and the module state, with
        nothing to record (no RNG draw, no module read, no ticket) — or None
        to be asked per tuple.  The eddy asks once per route plan.  A
        subclass that overrides :meth:`choose` must override this too."""
        return None

    def on_output(self, tuple_: QTuple | MatchRun, eddy: "Eddy") -> None:
        """Hook called once per emitted result (for learning policies), with
        the routed entry it came from: a QTuple, or the :class:`MatchRun`
        whose match it is (called once for each of its matches)."""

    def on_producer_output(self, module, item, eddy: "Eddy") -> None:
        """Hook called for every item a module hands back to the eddy.

        This is the "return a tuple, escrow a ticket" half of lottery
        scheduling [Avnur & Hellerstein 2000]: :meth:`choose` observes
        consumption, this hook observes production, and the difference is
        the selectivity signal adaptive policies learn from.  ``module`` is
        the producing :class:`~repro.core.modules.base.Module`; ``item`` may
        be a QTuple, an EOT, or a :class:`~repro.core.tuples.MatchRun` — a
        probe's matches, handed over once for the whole run.  Default:
        no-op.
        """

    def on_retire(self, tuple_: QTuple, eddy: "Eddy") -> None:
        """Hook called when a tuple leaves the dataflow without being output."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def split_required(
    destinations: Sequence[Destination],
) -> tuple[list[Destination], list[Destination]]:
    """Partition destinations into (required, optional)."""
    required = [d for d in destinations if d.required]
    optional = [d for d in destinations if not d.required]
    return required, optional


_ACTION_RANK = {action: rank for rank, action in enumerate(DEFAULT_ACTION_ORDER)}


def order_by_action(destinations: Sequence[Destination]) -> list[Destination]:
    """Stable-sort destinations by :data:`DEFAULT_ACTION_ORDER`."""
    return sorted(
        destinations, key=lambda d: _ACTION_RANK.get(d.action, len(_ACTION_RANK))
    )
