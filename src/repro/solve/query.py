"""The planner's query language: one value type per primitive question.

Every relation of Table 1 reduces (by the dualities proved in
``core/queries.py`` and the serialization lemma) to four *primitive*
existential questions about one execution, optionally with some
shared-data dependences dropped (the race detector's "could these two
events have overlapped while the rest of the data flow stayed intact"
variant):

``feasible``
    Is ``F`` non-empty?
``chb``
    Does some member of ``F`` complete ``a`` before ``b`` begins?
``ccb``
    Does some member of ``F`` complete ``a`` before ``b`` completes?
``ccw``
    Do ``a`` and ``b`` overlap in some member of ``F``?

A :class:`RelationQuery` names one such question; a backend answers it
with a :class:`BackendAnswer` -- a three-valued
:class:`~repro.budget.Verdict` (whose provenance is the backend's tag,
and which carries the witness schedule for existential ``TRUE``
answers) plus what the attempt cost.  ``UNKNOWN`` means "this backend
cannot decide", and the :class:`~repro.solve.planner.QueryPlanner`
escalates to the next tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.budget import Budget, Verdict

# primitive relation names
FEASIBLE = "feasible"
CHB = "chb"
CCB = "ccb"
CCW = "ccw"

PRIMITIVES = (FEASIBLE, CHB, CCB, CCW)


@dataclass(frozen=True)
class RelationQuery:
    """One primitive question about one execution.

    ``drop`` lists dependence edges of the base execution's ``D`` that
    this query ignores (always a subset of ``exe.dependences``); the
    empty set asks about the execution as-is.  Because dropping
    constraints only enlarges ``F``, a schedule legal for the base
    execution stays legal for every ``drop`` -- the monotonicity every
    witness-reuse argument in this package rests on.

    ``a``/``b`` are meaningful only for the pairwise relations; the
    planner's public facades never build degenerate (``a == b``)
    queries -- those are answered algebraically.
    """

    relation: str
    a: int = -1
    b: int = -1
    drop: FrozenSet[Tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.relation not in PRIMITIVES:
            raise ValueError(
                f"unknown primitive relation {self.relation!r} "
                f"(expected one of {PRIMITIVES})"
            )


@dataclass(frozen=True)
class BackendAnswer:
    """One backend's response to one query.

    ``verdict.truth is UNKNOWN`` means the backend declines (out of
    scope or out of budget); the planner then consults the next tier.
    ``states``/``elapsed`` record what the attempt cost regardless of
    outcome, so the per-tier report stays honest about where time went.
    """

    verdict: Verdict
    backend: str
    states: int = 0
    elapsed: float = 0.0

    @property
    def decided(self) -> bool:
        return self.verdict.truth.is_known


class Backend:
    """Protocol for one rung of the escalation ladder.

    Implementations answer soundly or decline (``None``, e.g. for an
    execution out of scope, is neither tallied nor traced): a definite
    verdict must agree with brute-force enumeration over ``F``
    (property-tested, each tier alone, in ``tests/test_solve_planner.py``).  Backends share all per-execution
    precomputation through the :class:`~repro.solve.context.SolveContext`
    they are handed and may read/extend its witness cache.
    """

    #: registry key, CLI spelling, and the provenance tag of answers
    name: str = "abstract"

    def answer(
        self,
        query: RelationQuery,
        ctx,  # SolveContext; untyped to avoid an import cycle
        *,
        budget: Optional[Budget] = None,
        max_states: Optional[int] = None,
    ) -> Optional[BackendAnswer]:
        raise NotImplementedError


__all__ = [
    "FEASIBLE",
    "CHB",
    "CCB",
    "CCW",
    "PRIMITIVES",
    "RelationQuery",
    "BackendAnswer",
    "Backend",
]
