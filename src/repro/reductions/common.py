"""Shared plumbing for the SAT reductions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.budget import Budget
from repro.core.queries import OrderingQueries
from repro.model.execution import ProgramExecution, SyncStyle
from repro.sat.cnf import CNF


#: the ladder for a reduction's queries: the marker queries are the
#: NP-hard ones of Theorems 1-4, which HMW's polynomial counting phases
#: never decide, so the plan skips building them
MARKER_PLAN = ("structural", "observed", "witness", "engine")


@dataclass
class SatReduction:
    """A constructed execution with its marker events and provenance.

    Attributes
    ----------
    cnf:
        The source formula ``B``.
    execution:
        The constructed program execution (no shared variables, no
        conditionals: every run of the program performs these events).
    a, b:
        eids of the paper's marker events.
    style:
        Which synchronization family the construction uses.
    """

    cnf: CNF
    execution: ProgramExecution
    a: int
    b: int
    style: SyncStyle

    # ------------------------------------------------------------------
    def queries(
        self,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        max_states: Optional[int] = None,
        budget: Optional[Budget] = None,
    ) -> OrderingQueries:
        return OrderingQueries(
            self.execution,
            include_dependences=include_dependences,
            binary_semaphores=binary_semaphores,
            max_states=max_states,
            budget=budget,
            plan=MARKER_PLAN,
        )

    def size_summary(self) -> Dict[str, int]:
        exe = self.execution
        return {
            "variables": self.cnf.num_vars,
            "clauses": len(self.cnf),
            "processes": len(exe.process_names),
            "events": len(exe),
            "semaphores": len(exe.semaphores),
            "event_variables": len(exe.event_variables),
        }


def decide_unsat_via_ordering(red: SatReduction, **query_kw) -> bool:
    """Theorems 1 / 3: ``B`` unsatisfiable iff ``a MHB b``."""
    return red.queries(**query_kw).mhb(red.a, red.b)


def decide_sat_via_ordering(red: SatReduction, **query_kw) -> bool:
    """Theorems 2 / 4: ``B`` satisfiable iff ``b CHB a``."""
    return red.queries(**query_kw).chb(red.b, red.a)
