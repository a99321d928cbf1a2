"""Observability for long scans: tracing, metrics, profiling, serving.

Every query this library answers is worst-case exponential, so real
scans run for minutes to hours under budgets, worker pools and the
tiered solver portfolio.  This package records *where* that time goes:

* :mod:`repro.obs.trace` -- span/event records (query tier
  escalations, engine progress ticks, pair classifications, worker
  lifecycle, checkpoint writes) written to a bounded JSONL sink;
  supervised workers record into an in-memory sink and ship their
  spans home over the existing result channel.  A trace re-aggregates
  (``repro trace summarize``) into exactly the per-tier table the live
  :class:`~repro.solve.planner.PlannerReport` prints, and streams
  (:func:`~repro.obs.trace.iter_trace`) so multi-GB traces analyze in
  constant memory;
* :mod:`repro.obs.profile` -- the search profiler: attributes engine
  states/dead-ends/backtracks to the frontier *choice* taken at each
  branch, answering "which events' orderings cost the search" (``repro
  trace profile``, ``--profile``).  A pure observer: identical
  classifications and identical ``states_visited`` with it on or off;
* :mod:`repro.obs.metrics` -- a counter/gauge/histogram registry
  rendered as Prometheus text (``/metrics``, ``--metrics FILE``);
* :mod:`repro.obs.server` -- the one HTTP server of the ``--serve
  PORT`` scan endpoint and the ``repro serve`` daemon (each supplies
  only a route table), plus the status board, the one fold of a CLI
  scan's state, publishing immutable snapshots through a lock-free
  single-writer slot;
* :mod:`repro.obs.progress` -- the live stderr progress line, a view
  of the board's snapshots, as ``/status``, ``/metrics`` and the
  ``races --metrics`` file are.

Tracing, profiling and library scans' boards default off
(:data:`~repro.obs.trace.NULL_SINK`, ``profile is None``, no board)
behind guards call sites check before building a record, so
unobserved runs pay nothing.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    planner_metrics,
    render_status,
)
from repro.obs.profile import SearchProfile
from repro.obs.progress import ScanProgress
from repro.obs.server import HttpServer, ObsServer, StatusBoard
from repro.obs.trace import (
    NULL_SINK,
    SERVE_PHASE_KINDS,
    SUPPORTED_TRACE_VERSIONS,
    FailsafeSink,
    JsonlTraceSink,
    NullSink,
    RecordingSink,
    TraceError,
    TraceSink,
    TraceSummary,
    iter_trace,
    read_trace,
    summarize_trace,
    validate_record,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "planner_metrics",
    "render_status",
    "SearchProfile",
    "ScanProgress",
    "HttpServer",
    "ObsServer",
    "StatusBoard",
    "NULL_SINK",
    "SERVE_PHASE_KINDS",
    "SUPPORTED_TRACE_VERSIONS",
    "FailsafeSink",
    "JsonlTraceSink",
    "NullSink",
    "RecordingSink",
    "TraceError",
    "TraceSink",
    "TraceSummary",
    "iter_trace",
    "read_trace",
    "summarize_trace",
    "validate_record",
]
