"""The benefit/cost routing policy of paper section 4.1.

"When a tuple t with a TupleState s is routed to a module m, the benefit
B(t, m) is the value of the partial result that will be output by m ...
m also takes an expected time C(t, m) to process t.  To maximize the value
to the user over time, the eddy continually routes so as to maximize
B(t, m) / C(t, m)."

The implementation estimates benefits and costs from *observed* module
behaviour only (SteM sizes and hit rates, selection pass rates, scan
progress, index queue lengths) — no optimizer statistics are consulted,
which is the point of the architecture.  User interest is modelled by
predicate priorities, which raise the benefit of destinations that produce
prioritised results (the prioritised bounce-back of section 4.1).

The same benefit/cost comparison is what produces the index/hash join
*hybridisation* of paper section 4.3: early in the query an index lookup is
the fastest route to a result, so outer tuples are sent to the index AM;
as the scan fills the SteM (and the index AM's queue grows) the comparison
flips and most tuples stop at the SteM probe.  A small exploration fraction
keeps probing the index so the policy notices if conditions change —
visible in the paper as the hybrid completing slightly after the hash join.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.constraints import Destination
from repro.core.modules.access import IndexAMModule
from repro.core.modules.selection import SelectionModule
from repro.core.modules.stem_module import SteMModule
from repro.core.policies.base import RoutingPolicy, split_required
from repro.core.tuples import QTuple

#: Multiplier applied to the benefit of destinations processing
#: prioritised tuples.
_PRIORITY_BOOST = 10.0


class BenefitPolicy(RoutingPolicy):
    """Benefit/cost routing with exploration (the paper's online policy).

    Args:
        seed: RNG seed for exploration decisions.
        exploration: probability of taking an optional index probe even when
            the cost model says it is not worthwhile (keeps alternatives
            calibrated; paper: "the eddy keeps sending a small fraction of
            the R tuples to probe into the T index throughout").

    An optional index probe is taken when its expected response time is
    below the expected wait for the scan to deliver the matching tuple.
    """

    name = "benefit"

    def __init__(
        self,
        seed: int = 0,
        exploration: float = 0.05,
    ):
        self._rng = random.Random(seed)
        self.exploration = exploration

    # -- scoring -------------------------------------------------------------------

    def _value(self, tuple_: QTuple) -> float:
        """The user value of results derived from this tuple."""
        if tuple_.priority > 0:
            return 1.0 + _PRIORITY_BOOST * tuple_.priority
        return 1.0

    def _score_required(self, tuple_: QTuple, destination: Destination, eddy) -> float:
        module = destination.module
        value = self._value(tuple_)
        if destination.action == "build":
            # Builds are cheap and unlock everything else.
            return 1e6
        if destination.action == "select":
            assert isinstance(module, SelectionModule)
            # The *recent* pass rate, not the lifetime average: under a
            # correlated workload whose selectivity shifts mid-run, the
            # lifetime average keeps recommending yesterday's ordering.
            drop_rate = 1.0 - module.recent_selectivity
            cost = max(module.cost, 1e-9)
            # Dropping early saves all downstream work: benefit ~ drop rate.
            return value * (0.1 + drop_rate) / cost
        if destination.action == "probe":
            assert isinstance(module, SteMModule)
            # Prefer the match rate observed for this tuple's exact probe
            # signature — probes from different TupleStates can have wildly
            # different yields — before the module-wide average.
            expected_matches = module.signature_match_rate(
                tuple_.spanned_mask, tuple_.done_mask
            )
            if expected_matches is None:
                probes = max(module.stats["probes"], 1)
                expected_matches = module.stats["results"] / probes
                if module.stats["probes"] < 5:
                    # Little evidence yet: assume the SteM yields in
                    # proportion to its fill level.
                    expected_matches = min(1.0, module.size / 100.0)
            cost = max(module.probe_cost, 1e-9)
            bonus = 0.5 if eddy.has_scan_am(destination.target_alias or "") else 0.0
            return value * (0.05 + expected_matches + bonus) / cost
        if destination.action == "am_probe":
            assert isinstance(module, IndexAMModule)
            delay = max(module.expected_lookup_delay(), 1e-9)
            return value * 1.0 / delay
        return value

    def _accept_optional(self, tuple_: QTuple, destination: Destination, eddy) -> bool:
        """Decide whether an opportunistic index probe is worth its cost."""
        module = destination.module
        if not isinstance(module, IndexAMModule):
            return False
        if tuple_.priority > 0:
            # Prioritised bounce-back (section 4.1): always chase these.
            return True
        alias = destination.target_alias or module.alias
        time_via_index = module.expected_lookup_delay()
        time_via_scan = eddy.expected_scan_wait(alias)
        if time_via_scan is None:
            # No scan is going to deliver the match: the probe is the only way.
            return True
        if time_via_index < time_via_scan:
            return True
        return self._rng.random() < self.exploration

    # -- choice ----------------------------------------------------------------------

    def choose(
        self, tuple_: QTuple, destinations: Sequence[Destination], eddy
    ) -> Destination | None:
        required, optional = split_required(destinations)
        if required:
            return max(
                required,
                key=lambda destination: self._score_required(tuple_, destination, eddy),
            )
        accepted = [
            destination
            for destination in optional
            if self._accept_optional(tuple_, destination, eddy)
        ]
        if not accepted:
            return None
        return min(
            accepted,
            key=lambda destination: destination.module.expected_lookup_delay()
            if isinstance(destination.module, IndexAMModule)
            else 0.0,
        )

    def fixed_choice(self, destinations: Sequence[Destination]) -> Destination | None:
        """The sole required destination, if there is exactly one: the argmax
        over one candidate needs no score (and scoring records nothing)."""
        required = [destination for destination in destinations if destination.required]
        return required[0] if len(required) == 1 else None
