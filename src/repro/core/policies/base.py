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
from repro.core.tuples import QTuple

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

    def choose_batch(
        self,
        tuples: Sequence[QTuple],
        destinations: Sequence[Destination],
        eddy: "Eddy",
    ) -> list[Destination | None]:
        """Pick destinations for a whole signature group of tuples.

        All tuples in the group share one routing signature, and therefore
        one legal-destination list.  The default implementation falls back
        to one :meth:`choose` call per tuple, so existing policies work
        unchanged under the batched eddy; policies that can amortise their
        decision (one lottery draw, one benefit/cost ranking) override this.

        Args:
            tuples: the signature group (never empty).
            destinations: the group's legal destinations (never empty).
            eddy: the running eddy.

        Returns:
            One destination (or None, declining the optional work) per
            tuple, in order.
        """
        return [self.choose(tuple_, destinations, eddy) for tuple_ in tuples]

    def fixed_choice(self, destinations: Sequence[Destination]) -> Destination | None:
        """What :meth:`choose` returns for *every* tuple with these legal
        destinations, whatever its priority class and the module state, with
        nothing to record (no RNG draw, no module read, no ticket) — or None
        to be asked per group.  The eddy asks once per route plan.  A
        subclass that overrides :meth:`choose` must override this too."""
        return None

    def on_output(self, tuple_: QTuple, eddy: "Eddy") -> None:
        """Hook called when a result tuple is emitted (for learning policies)."""

    def on_producer_output(self, module, item, eddy: "Eddy") -> None:
        """Hook called for every item a module hands back to the eddy.

        This is the "return a tuple, escrow a ticket" half of lottery
        scheduling [Avnur & Hellerstein 2000]: :meth:`choose` observes
        consumption, this hook observes production, and the difference is
        the selectivity signal adaptive policies learn from.  ``module`` is
        the producing :class:`~repro.core.modules.base.Module` (or None for
        items injected without a producer); ``item`` may be a QTuple or an
        EOT.  Default: no-op.
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


def order_by_action(
    destinations: Sequence[Destination],
    action_order: Sequence[str] = DEFAULT_ACTION_ORDER,
) -> list[Destination]:
    """Stable-sort destinations by an action precedence list."""
    ranking = {action: rank for rank, action in enumerate(action_order)}
    return sorted(
        destinations, key=lambda d: ranking.get(d.action, len(ranking))
    )
