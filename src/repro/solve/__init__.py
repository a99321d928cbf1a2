"""Solver-portfolio backend layer: one tiered planner for every query.

Public surface:

* :class:`~repro.solve.query.RelationQuery` / ``BackendAnswer`` /
  ``Backend`` -- the backend protocol;
* :data:`~repro.solve.backends.BACKENDS`,
  :data:`~repro.solve.backends.DEFAULT_PLAN`,
  :func:`~repro.solve.backends.resolve_plan` -- the registry;
* :class:`~repro.solve.context.SolveContext` -- shared per-execution
  precomputation (reachability bitsets, witness cache);
* :class:`~repro.solve.planner.QueryPlanner` /
  :class:`~repro.solve.planner.PlannerReport` -- the escalation ladder
  and its accounting.
"""

from repro.solve.backends import (
    BACKENDS,
    DEFAULT_PLAN,
    resolve_plan,
)
from repro.solve.context import EMPTY_DROP, SolveContext
from repro.solve.planner import PlannerReport, QueryPlanner, TierTally, tier_of
from repro.solve.query import (
    CCB,
    CCW,
    CHB,
    FEASIBLE,
    PRIMITIVES,
    Backend,
    BackendAnswer,
    RelationQuery,
)
from repro.solve.witnesses import WitnessCache

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendAnswer",
    "CCB",
    "CCW",
    "CHB",
    "DEFAULT_PLAN",
    "EMPTY_DROP",
    "FEASIBLE",
    "PRIMITIVES",
    "PlannerReport",
    "QueryPlanner",
    "RelationQuery",
    "SolveContext",
    "TierTally",
    "WitnessCache",
    "resolve_plan",
    "tier_of",
]
