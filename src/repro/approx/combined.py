"""Layered best-effort ordering analysis under a budget.

The paper's theorems mean an exact analyzer cannot promise polynomial
time; a practical tool therefore needs graceful degradation.
:class:`BestEffortOrdering` answers must-complete-before queries by
delegating to the solver portfolio's
:class:`~repro.solve.planner.QueryPlanner` on a best-effort plan:

1. **structural** reachability (program order, fork/join, dependences)
   -- linear, always sound;
2. the **observed schedule** -- a known member of ``F``, so its
   completion order soundly decides could-complete-before queries;
3. the **HMW counting phases** (semaphore executions under SC only)
   -- polynomial, sound;
4. the **exact engine**, bounded by ``max_states`` / a
   :class:`~repro.budget.Budget` per query.

Answers are three-valued: ``True``/``False`` when some tier decides
soundly, ``None`` when every tier within budget is inconclusive
(never a guess).  ``decided_by`` records which tier settled each
query, so callers can report how much of the truth was cheap -- the
empirical content of the paper's "polynomial algorithms compute only
*some* of the orderings".  :meth:`mcb_verdict` exposes the same answer
as a :class:`~repro.budget.Verdict` with that provenance attached.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.budget import Budget, Verdict
from repro.core.queries import OrderingQueries
from repro.model.execution import ProgramExecution
from repro.solve.backends import BEST_EFFORT_PLAN
from repro.solve.planner import QueryPlanner


class BestEffortOrdering:
    """Three-valued must-complete-before with layered escalation."""

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        max_states: Optional[int] = 50_000,
        budget: Optional[Budget] = None,
        queries: Optional[OrderingQueries] = None,
    ) -> None:
        self.exe = exe
        self.queries = queries or OrderingQueries(
            exe, max_states=max_states, budget=budget
        )
        self.decided_by: Dict[Tuple[int, int], str] = {}
        self.exhausted: Dict[Tuple[int, int], Optional[str]] = {}
        # shares the queries object's SolveContext, so structural
        # bitsets, the validated observed schedule and any witnesses the
        # exact paths found are reused rather than recomputed
        self.planner = QueryPlanner(self.queries.ctx, BEST_EFFORT_PLAN)

    # ------------------------------------------------------------------
    def mcb(self, a: int, b: int) -> Optional[bool]:
        """Must ``a`` complete before ``b``?  True/False/None (unknown)."""
        key = (a, b)
        if a == b:
            self.decided_by[key] = "trivial"
            return False
        v = self.planner.mcb_verdict(
            a, b, budget=self.queries.budget, max_states=self.queries.max_states
        )
        if v.is_unknown:
            self.decided_by[key] = "unknown"
            self.exhausted[key] = v.resource
            return None
        self.decided_by[key] = v.provenance
        return v.to_bool()

    def mcb_verdict(self, a: int, b: int) -> Verdict:
        """:meth:`mcb` as a provenance-carrying verdict."""
        answer = self.mcb(a, b)
        key = (a, b)
        if answer is None:
            return Verdict.unknown(
                resource=self.exhausted.get(key), stats=self.queries.stats
            )
        return Verdict.of_bool(
            answer, self.decided_by[key], stats=self.queries.stats
        )

    # ------------------------------------------------------------------
    def relation_with_provenance(self) -> Dict[str, object]:
        """All pairs classified, with per-layer counts.

        Returns ``{"relation": {(a, b): True/False/None}, "layers":
        {layer: count}}``.
        """
        n = len(self.exe)
        relation: Dict[Tuple[int, int], Optional[bool]] = {}
        for a in range(n):
            for b in range(n):
                if a != b:
                    relation[(a, b)] = self.mcb(a, b)
        layers: Dict[str, int] = {}
        for layer in self.decided_by.values():
            layers[layer] = layers.get(layer, 0) + 1
        return {"relation": relation, "layers": layers}
