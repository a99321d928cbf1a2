"""Polynomial-time approximation algorithms from the paper's Section 4.

The paper's hardness results explain *why* the prior work computes only
approximations.  This package implements all three systems the paper
discusses, so the benchmark harness can measure exactly the gaps the
paper points out:

* :mod:`repro.approx.vectorclock` -- Lamport-style vector clocks over
  the *observed* execution with naive semaphore/event pairing; the
  classical "apparent ordering" baseline (and the unsound phase 1 of
  Helmbold/McDowell/Wang).
* :mod:`repro.approx.hmw` -- the Helmbold/McDowell/Wang three-phase
  *safe ordering* computation for counting-semaphore traces: sound but
  incomplete with respect to the exact must-orderings.
* :mod:`repro.approx.taskgraph` -- the Emrath/Ghosh/Padua *task graph*
  for event-style (Post/Wait/Clear) programs, whose blindness to
  shared-data dependences is exhibited by the paper's Figure 1.
"""

from repro.approx.vectorclock import VectorClockAnalysis
from repro.approx.hmw import HMWAnalysis, InfeasibleTraceError
from repro.approx.taskgraph import TaskGraph, TaskGraphEdge

__all__ = [
    "VectorClockAnalysis",
    "HMWAnalysis",
    "InfeasibleTraceError",
    "TaskGraph",
    "TaskGraphEdge",
]
