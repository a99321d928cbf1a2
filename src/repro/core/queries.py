"""The six ordering relations of Table 1 as pairwise queries.

=================  ==============================================  =======================
relation           definition (over feasible executions ``F``)     planner reading
=================  ==============================================  =======================
``a CHB b``        exists P' in F with ``a ->T' b``                primitive CHB query
``a CCW b``        exists P' in F with ``a || b``                  primitive CCW query
``a COW b``        exists P' in F with ``not (a || b)``            ``CHB(a,b) or CHB(b,a)``
``a MHB b``        for all P' in F, ``a ->T' b``                   ``not CHB(b,a) and
                                                                   not CCW(a,b)``
``a MCW b``        for all P' in F, ``a || b``                     ``not COW(a,b)``
``a MOW b``        for all P' in F, ``not (a || b)``               ``not CCW(a,b)``
=================  ==============================================  =======================

The duality identities on the right follow directly from the paper's
definitions because ``not (a ->T b)`` decomposes into ``b ->T a`` or
``a || b`` (Section 2's footnote notation); they are property-tested
against brute-force enumeration in ``tests/test_core_enumeration.py``.

Every relation is decided by one
:class:`~repro.solve.planner.QueryPlanner`: its cheapest-first ladder
answers the primitives and its Kleene facades apply the identities.
The boolean methods here are the truth of the decided verdict, and the
witness helpers return that verdict's witness.

Empty-``F`` semantics: if the execution cannot complete at all (a
hand-built deadlocking event set), universally quantified relations
hold vacuously and existentials are false.  Real traces always have
``F`` non-empty (the observed schedule is a member).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.budget import Budget, Verdict
from repro.core.engine import SearchBudgetExceeded, SearchStats
from repro.core.witness import Witness
from repro.model.execution import ProgramExecution
from repro.solve.context import SolveContext
from repro.solve.planner import QueryPlanner


def _decided(verdict: Verdict) -> Verdict:
    """``verdict`` itself, or the budget error when the ladder conceded."""
    if verdict.is_unknown:
        if verdict.resource is None:
            # nothing ran out: the plan lacks a tier that decides it
            raise SearchBudgetExceeded(
                "no tier of the plan decides this query (add 'engine')",
                resource=None,
            )
        raise SearchBudgetExceeded(resource=verdict.resource)
    return verdict


def _witness(verdict: Verdict) -> Optional[Witness]:
    """The schedule exhibiting a decided TRUE, else None."""
    verdict = _decided(verdict)
    return verdict.witness if verdict.is_true else None


class OrderingQueries:
    """Pairwise exact ordering queries over one execution.

    A thin view of one :class:`~repro.solve.planner.QueryPlanner`
    (``plan=None`` runs the default ladder: structural reachability,
    the observed schedule, cached witnesses, HMW, the exact engine).
    The planner memoizes every definite verdict, so each primitive is
    decided at most once per object.

    ``max_states`` bounds every individual engine search and ``budget``
    adds wall-clock/memo limits shared by every search this object
    runs; both are read per call.  The parameters mirror
    :class:`~repro.core.engine.FeasibilityEngine`.

    Two API flavors read the same verdicts:

    * the ``*_verdict`` methods never raise: they return the ladder's
      three-valued :class:`~repro.budget.Verdict`, ``UNKNOWN`` when
      every tier declined under the budget;
    * the boolean methods (``mhb``/``chb``/...) return the decided
      verdict's truth and raise
      :class:`~repro.core.engine.SearchBudgetExceeded` (naming the
      spent resource) only when that verdict is ``UNKNOWN`` -- which
      is never memoized, so retrying with a larger budget on the same
      object works.
    """

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        max_states: Optional[int] = None,
        budget: Optional[Budget] = None,
        plan: Optional[Tuple[str, ...]] = None,
        por: str = "sleep",
    ) -> None:
        self.exe = exe
        self.stats = SearchStats()
        self.ctx = SolveContext(
            exe,
            include_dependences=include_dependences,
            binary_semaphores=binary_semaphores,
            stats=self.stats,
            por=por,
        )
        self.planner = QueryPlanner(self.ctx, plan)
        self.max_states = max_states
        self.budget = budget

    @property
    def _limits(self) -> Dict[str, object]:
        return {"budget": self.budget, "max_states": self.max_states}

    # ------------------------------------------------------------------
    def statically_ordered(self, a: int, b: int) -> bool:
        """``a`` completes before ``b`` by structure alone (program
        order, fork/join, dependences) in *every* schedule.

        Implies ``a`` can happen-before ``b`` in any serial schedule
        and that ``b`` can never happen-before ``a`` -- but NOT that
        the two cannot overlap (a join overlaps children it awaits);
        use :meth:`statically_interval_ordered` for overlap reasoning.
        """
        return self.ctx.statically_ordered(a, b)

    def statically_interval_ordered(self, a: int, b: int) -> bool:
        """``end(a) < begin(b)`` in every schedule, by structure alone
        (program order, fork, dependences -- join edges excluded)."""
        return self.ctx.statically_interval_ordered(a, b)

    # ------------------------------------------------------------------
    # witnesses of decided verdicts
    # ------------------------------------------------------------------
    def feasible_witness(self) -> Optional[Witness]:
        """Any member of ``F``, or None when the event set cannot complete."""
        return _witness(self.planner.feasible_verdict(**self._limits))

    def has_feasible_execution(self) -> bool:
        return _decided(self.planner.feasible_verdict(**self._limits)).is_true

    def chb_witness(self, a: int, b: int) -> Optional[Witness]:
        """A feasible schedule in which ``a`` completes before ``b``
        begins, or None if no such schedule exists."""
        return _witness(self.chb_verdict(a, b))

    def ccw_witness(self, a: int, b: int) -> Optional[Witness]:
        """A feasible schedule in which ``a`` and ``b`` overlap."""
        return _witness(self.ccw_verdict(a, b))

    def why_not_mhb(self, a: int, b: int) -> Optional[Witness]:
        """A counterexample schedule when ``a MHB b`` fails: either ``b``
        precedes ``a`` or they overlap.  None when ``a MHB b`` holds."""
        return _witness(self.mhb_verdict(a, b).negate())

    # ------------------------------------------------------------------
    # the six relations, and the completion-order pair
    # ------------------------------------------------------------------
    def chb(self, a: int, b: int) -> bool:
        """Could-have-happened-before."""
        return _decided(self.chb_verdict(a, b)).is_true

    def ccw(self, a: int, b: int) -> bool:
        """Could-have-been-concurrent-with (an event overlaps itself)."""
        return _decided(self.ccw_verdict(a, b)).is_true

    def cow(self, a: int, b: int) -> bool:
        """Could-have-been-ordered-with (some feasible execution ran
        them one after the other, in either order)."""
        return _decided(self.cow_verdict(a, b)).is_true

    def mhb(self, a: int, b: int) -> bool:
        """Must-have-happened-before: ``a ->T b`` in every feasible
        execution (for ``a == b`` only vacuously, when ``F`` is empty)."""
        return _decided(self.mhb_verdict(a, b)).is_true

    def mcw(self, a: int, b: int) -> bool:
        """Must-have-been-concurrent-with."""
        return _decided(self.mcw_verdict(a, b)).is_true

    def mow(self, a: int, b: int) -> bool:
        """Must-have-been-ordered-with (never concurrent)."""
        return _decided(self.mow_verdict(a, b)).is_true

    # The paper's T orders *intervals*: ``a ->T b`` iff a completes
    # before b begins, so a blocked P overlaps the V that unblocks it
    # (the P has begun -- its first action, inspecting the count, has
    # happened).  The related-work algorithms (Helmbold/McDowell/Wang,
    # Emrath/Ghosh/Padua) reason about the order in which operations
    # *complete*.  These two queries decide that coarser ordering
    # exactly, giving the approximation benchmarks a like-for-like
    # exact baseline: every sound approximation must be a subset of
    # ``mcb``.

    def ccb(self, a: int, b: int) -> bool:
        """Could-complete-before: some feasible execution completes
        ``a`` before ``b``."""
        return _decided(self.ccb_verdict(a, b)).is_true

    def mcb(self, a: int, b: int) -> bool:
        """Must-complete-before: ``a`` completes before ``b`` in every
        feasible execution.  Completions are totally ordered within a
        schedule, so ``mcb(a, b) == not ccb(b, a)`` (vacuously true
        when no feasible execution exists).  Note ``mhb`` implies
        ``mcb`` but not conversely."""
        return _decided(self.mcb_verdict(a, b)).is_true

    def relation_values(self, a: int, b: int) -> Dict[str, bool]:
        """All six relation values for one pair (used by examples)."""
        return {
            name: _decided(v).is_true
            for name, v in self.relation_verdicts(a, b).items()
        }

    # ------------------------------------------------------------------
    # three-valued verdicts (never raise)
    # ------------------------------------------------------------------
    def chb_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.chb_verdict(a, b, **self._limits)

    def ccw_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.ccw_verdict(a, b, **self._limits)

    def ccb_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.ccb_verdict(a, b, **self._limits)

    def cow_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.cow_verdict(a, b, **self._limits)

    def mhb_verdict(self, a: int, b: int) -> Verdict:
        """Kleene conjunction of ``not chb(b, a)`` and ``not ccw(a, b)``:
        either conjunct failing refutes MHB (with its schedule as the
        witness) even when the other blew its budget."""
        return self.planner.mhb_verdict(a, b, **self._limits)

    def mow_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.mow_verdict(a, b, **self._limits)

    def mcw_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.mcw_verdict(a, b, **self._limits)

    def mcb_verdict(self, a: int, b: int) -> Verdict:
        return self.planner.mcb_verdict(a, b, **self._limits)

    def relation_verdicts(self, a: int, b: int) -> Dict[str, Verdict]:
        """All six relations as verdicts."""
        return self.planner.relation_verdicts(a, b, **self._limits)
