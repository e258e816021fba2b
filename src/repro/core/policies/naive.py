"""Baseline routing policies: fixed precedence and random choice."""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.constraints import Destination
from repro.core.policies.base import (
    DEFAULT_ACTION_ORDER,
    RoutingPolicy,
    order_by_action,
    split_required,
)
from repro.core.tuples import QTuple


class NaivePolicy(RoutingPolicy):
    """Route by a fixed action precedence: build, select, SteM probe, AM probe.

    Optional AM probes are always taken (``greedy_optional=True``) or never
    taken, making this policy the non-adaptive extreme the adaptive policies
    are compared against.
    """

    name = "naive"

    def __init__(self, greedy_optional: bool = True):
        self.greedy_optional = greedy_optional

    def _pick(self, destinations: Sequence[Destination]) -> Destination | None:
        """The choice: a pure function of the legal-destination list."""
        pool = [d for d in destinations if d.required]
        if not pool and self.greedy_optional:
            pool = destinations  # nothing required: every destination is optional
        if len(pool) > 1:
            return order_by_action(pool)[0]
        return pool[0] if pool else None

    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy
    ) -> Destination | None:
        return self._pick(destinations)

    fixed_choice = _pick


class RandomPolicy(RoutingPolicy):
    """Choose uniformly at random among the legal destinations.

    Useful as a stress test of the correctness guarantees: whatever the
    routing, the result set must be exactly the query answer.

    Args:
        seed: RNG seed (runs are deterministic for a fixed seed).
        take_optional_probability: chance of accepting an optional
            destination when no required ones remain.
    """

    name = "random"

    def __init__(self, seed: int = 0, take_optional_probability: float = 0.5):
        self._rng = random.Random(seed)
        self.take_optional_probability = take_optional_probability

    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy
    ) -> Destination | None:
        required, optional = split_required(destinations)
        if required:
            return self._rng.choice(required)
        if optional and self._rng.random() < self.take_optional_probability:
            return self._rng.choice(optional)
        return None


class StaticOrderPolicy(RoutingPolicy):
    """Follow a fixed, globally ordered list of module names.

    Emulates a statically chosen plan inside the eddy framework: among the
    legal destinations, the one whose module appears earliest in ``order``
    wins.  Modules not listed are ranked after all listed ones (in the
    default action precedence).

    Args:
        order: module names from first to last preference.
        take_optional: whether unlisted optional destinations are ever taken.
    """

    name = "static-order"

    def __init__(self, order: Sequence[str], take_optional: bool = True):
        self.order = list(order)
        self.take_optional = take_optional
        self._rank = {name: position for position, name in enumerate(self.order)}

    def _score(self, destination: Destination) -> tuple[int, int]:
        listed = self._rank.get(destination.module.name, len(self._rank))
        action_rank = DEFAULT_ACTION_ORDER.index(destination.action) \
            if destination.action in DEFAULT_ACTION_ORDER else len(DEFAULT_ACTION_ORDER)
        return (listed, action_rank)

    def _pick(self, destinations: Sequence[Destination]) -> Destination | None:
        """The choice: a pure function of the legal-destination list."""
        required, optional = split_required(destinations)
        pool = required if required else (optional if self.take_optional else [])
        return min(pool, key=self._score) if pool else None

    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy
    ) -> Destination | None:
        return self._pick(destinations)

    fixed_choice = _pick
