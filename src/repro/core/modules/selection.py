"""Selection modules (SMs).

Paper section 2.1.2: a selection module returns the tuple to the eddy if it
passes the predicate (marking the fact in its TupleState); a failing tuple
is marked ``failed`` and handed back too, so the *eddy* removes it from the
dataflow with full accounting (trace + routing-policy feedback).
"""

from __future__ import annotations

from repro.core.modules.base import Module, Routable
from repro.core.tuples import EOTTuple, QTuple
from repro.query.predicates import Predicate


class SelectionModule(Module):
    """A module evaluating one selection predicate."""

    kind = "selection"

    #: EMA smoothing for :attr:`recent_selectivity`; 0.05 means the last
    #: ~20 tuples dominate, quick enough to track a mid-run selectivity
    #: shift that the lifetime average would smear away.
    RECENT_ALPHA = 0.05

    def __init__(self, predicate: Predicate, cost: float = 1e-4, name: str | None = None):
        super().__init__(name or f"select:{predicate.name}", cost=cost)
        self.predicate = predicate
        self.stats.update({"passed": 0, "dropped": 0, "quarantined": 0})
        self._recent: float | None = None

    def process(self, item: Routable) -> list[Routable]:
        if isinstance(item, EOTTuple):
            # EOTs carry no data to filter; pass them through untouched.
            return [item]
        assert isinstance(item, QTuple)
        if item.is_done(self.predicate):
            return [item]
        try:
            passed = self.predicate.evaluate(item.components)
        except Exception as error:
            # Poison row: a raising user predicate must not wedge the eddy.
            # The runtime traps the tuple into its quarantine (traced, with
            # policy feedback).
            self.runtime.quarantine_tuple(item, self.name, error)
            # A quarantined tuple never passes this predicate: score it as a
            # drop so selectivity estimates (and the routing policies fed by
            # them) see a mostly-poisonous predicate as unselective instead
            # of freezing at the 0.5 prior.
            self.stats["quarantined"] += 1
            self._note_outcome(0.0)
            return []
        if passed:
            item.mark_done([self.predicate])
            if self.predicate.priority > item.priority:
                # Tuples satisfying a user-prioritised predicate inherit its
                # priority, so routing policies can favour them (§4.1).
                item.priority = self.predicate.priority
            self.stats["passed"] += 1
            self._note_outcome(1.0)
            return [item]
        item.failed = True
        self.stats["dropped"] += 1
        self._note_outcome(0.0)
        # The failed tuple goes back to the eddy, which removes it from the
        # dataflow with full accounting (trace record + the policy's
        # on_retire feedback) — swallowing it here would leave the drop
        # invisible to traces and learning policies.
        return [item]

    def _note_outcome(self, passed: float) -> None:
        if self._recent is None:
            self._recent = passed
        else:
            self._recent += self.RECENT_ALPHA * (passed - self._recent)

    @property
    def recent_selectivity(self) -> float:
        """EMA of recent pass outcomes (0.5 before any data).

        Tracks *current* predicate behaviour: under a correlated workload
        whose selectivity shifts mid-run, the lifetime average lags the
        shift by everything it has already seen, while this estimate
        converges within ~1/RECENT_ALPHA tuples.
        """
        if self._recent is None:
            return 0.5
        return self._recent
