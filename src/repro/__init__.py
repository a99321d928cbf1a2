"""repro: event ordering for shared-memory parallel program executions.

A complete, executable reproduction of

    Robert H. B. Netzer and Barton P. Miller,
    "On the Complexity of Event Ordering for Shared-Memory Parallel
    Program Executions", Proc. ICPP 1990 (UW-Madison TR 908).

The library models program executions as the paper's triple
``P = <E, T, D>``, decides all six Table 1 ordering relations exactly
(with witness schedules), implements the polynomial approximation
algorithms the paper compares against, validates the four hardness
theorems empirically through their 3CNFSAT reductions, and detects
apparent and feasible data races.

Quick start
-----------
>>> from repro import ExecutionBuilder, OrderingQueries
>>> b = ExecutionBuilder()
>>> p1, p2 = b.process("p1"), b.process("p2")
>>> v = p1.sem_v("s")          # V(s)
>>> p = p2.sem_p("s")          # P(s), semaphore starts at 0
>>> q = OrderingQueries(b.build())
>>> q.chb(v, p)                # V could complete before P begins
True
>>> q.chb(p, v)                # P can never complete before V begins
False
>>> q.ccw(v, p)                # ... but they can overlap (P blocks)
True

See ``examples/`` for full walk-throughs and ``benchmarks/`` for the
per-table/per-figure reproduction harness.
"""

from repro.budget import Budget, Truth, Verdict
from repro.model import (
    Access,
    Event,
    EventKind,
    ExecutionBuilder,
    ProgramExecution,
    SyncStyle,
    validate_execution,
)
from repro.core import (
    ALL_RELATIONS,
    FeasibilityEngine,
    OrderingAnalyzer,
    OrderingQueries,
    RelationName,
    SearchBudgetExceeded,
    Witness,
    relations_by_enumeration,
)
from repro.lang import Program, ProcessDef, run_program
from repro.lang.parser import ParseError, parse_program
from repro.approx import HMWAnalysis, TaskGraph, VectorClockAnalysis
from repro.races import RaceDetector
from repro.solve import PlannerReport, QueryPlanner, SolveContext
from repro.reductions import (
    decide_sat_via_ordering,
    decide_unsat_via_ordering,
    event_reduction,
    semaphore_reduction,
)
from repro.sat import CNF, solve as sat_solve
from repro.analysis import ProgramAnalysis, explore_program
from repro.encoding import OrderSatEncoder, sat_chb, sat_is_feasible
from repro.model.serialize import load as load_execution, save as save_execution

__version__ = "1.0.0"

__all__ = [
    # budgets & three-valued verdicts
    "Budget",
    "Truth",
    "Verdict",
    # model
    "Access",
    "Event",
    "EventKind",
    "ExecutionBuilder",
    "ProgramExecution",
    "SyncStyle",
    "validate_execution",
    # core
    "ALL_RELATIONS",
    "FeasibilityEngine",
    "OrderingAnalyzer",
    "OrderingQueries",
    "RelationName",
    "SearchBudgetExceeded",
    "Witness",
    "relations_by_enumeration",
    # language / simulator
    "Program",
    "ProcessDef",
    "run_program",
    "parse_program",
    "ParseError",
    # approximations
    "HMWAnalysis",
    "TaskGraph",
    "VectorClockAnalysis",
    # races
    "RaceDetector",
    # solver portfolio
    "PlannerReport",
    "QueryPlanner",
    "SolveContext",
    # reductions
    "decide_sat_via_ordering",
    "decide_unsat_via_ordering",
    "event_reduction",
    "semaphore_reduction",
    # sat
    "CNF",
    "sat_solve",
    # program-level analysis & persistence
    "ProgramAnalysis",
    "explore_program",
    "OrderSatEncoder",
    "sat_chb",
    "sat_is_feasible",
    "load_execution",
    "save_execution",
    "__version__",
]
