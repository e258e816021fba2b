"""Lottery-scheduling routing policy, after the original eddy paper.

[Avnur & Hellerstein 2000] route tuples by holding a *lottery*: each module
holds tickets, a module gains a ticket when it consumes a tuple and loses one
(escrows it) when it returns tuples, so low-selectivity / fast modules
accumulate tickets and win more often.  This implementation keeps per-module
ticket counts with exponential decay, which is enough to reproduce the
adaptive-ordering behaviour inside the SteM architecture.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.constraints import Destination
from repro.core.policies.base import RoutingPolicy, split_required
from repro.core.tuples import MatchRun, QTuple

#: Module kinds whose outputs escrow tickets: the routed operators.  Scans
#: are sources — their deliveries are new work, not returned work.
_ESCROW_KINDS = frozenset({"selection", "stem", "index_am"})

#: Chance of accepting optional destinations when no required ones remain.
_TAKE_OPTIONAL_PROBABILITY = 0.25


class LotteryPolicy(RoutingPolicy):
    """Ticket-based routing with exploration.

    Args:
        seed: RNG seed for the lottery draws.
        decay: multiplicative decay applied to ticket counts each draw,
            keeping the policy responsive to changing module behaviour.
        exploration: minimum ticket mass every module keeps, so that no
            destination is starved entirely.
    """

    name = "lottery"

    def __init__(
        self,
        seed: int = 0,
        decay: float = 0.999,
        exploration: float = 1.0,
    ):
        self._rng = random.Random(seed)
        self.decay = decay
        self.exploration = exploration
        self._tickets: dict[str, float] = {}

    # -- ticket bookkeeping (fed by the eddy's feedback hooks) --------------------

    def tickets_of(self, module_name: str) -> float:
        """Current ticket count of a module."""
        return self._tickets.get(module_name, self.exploration)

    def credit(self, module_name: str, amount: float = 1.0) -> None:
        """Give tickets to a module (it consumed a tuple)."""
        self._tickets[module_name] = self.tickets_of(module_name) + amount

    def debit(self, module_name: str, amount: float = 1.0) -> None:
        """Take tickets from a module (it produced output back into the eddy)."""
        self._tickets[module_name] = max(
            self.exploration, self.tickets_of(module_name) - amount
        )

    def _decay_all(self) -> None:
        for name in list(self._tickets):
            decayed = self._tickets[name] * self.decay
            self._tickets[name] = max(self.exploration, decayed)

    # -- choice ---------------------------------------------------------------------

    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy
    ) -> Destination | None:
        required, optional = split_required(destinations)
        pool = required
        if not pool:
            if not optional:
                return None
            if self._rng.random() >= _TAKE_OPTIONAL_PROBABILITY:
                return None
            pool = optional
        self._decay_all()
        weights = [self.tickets_of(destination.module.name) for destination in pool]
        total = sum(weights)
        draw = self._rng.uniform(0.0, total)
        accumulated = 0.0
        for destination, weight in zip(pool, weights):
            accumulated += weight
            if draw <= accumulated:
                self.credit(destination.module.name)
                return destination
        self.credit(pool[-1].module.name)
        return pool[-1]

    def on_output(self, tuple_: QTuple | MatchRun, eddy) -> None:
        # Producing final results is good: reward the source module lightly.
        if tuple_.source:
            self.credit(tuple_.source, 0.1)

    def on_producer_output(self, module, item, eddy) -> None:
        """Escrow a ticket when an operator returns a live tuple.

        This is the second half of lottery scheduling: ``choose`` credits a
        ticket on consumption, and every live tuple the module hands back
        debits one — a probe's :class:`MatchRun` one per match, in match
        order.  A failed tuple (a selection drop) does *not* debit — the
        drop is exactly the win the lottery rewards — so selective modules
        run a ticket surplus proportional to their drop rate and win more
        draws, while productive probes (many matches per input) run a
        deficit and are deferred.
        """
        if module.kind not in _ESCROW_KINDS:
            return
        if item.__class__ is MatchRun:
            for _ in item.rows:
                self.debit(module.name, 1.0)
        elif isinstance(item, QTuple) and not item.failed:
            self.debit(module.name, 1.0)
