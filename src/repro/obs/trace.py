"""Structured trace records for long scans (spans and events).

Every interesting query here is NP-hard, so a real scan runs for
minutes to hours under budgets, worker pools and a tiered solver
portfolio -- and "where did the exponential time go" is a question the
final report alone cannot answer.  This module records it as it
happens, as a flat stream of JSON records:

* ``query`` spans -- one per primitive planner query, carrying the
  relation, the pair, the drop-set size, the per-tier escalation
  attempts (states/elapsed, answered or declined) and the final
  verdict.  The per-tier numbers are **exactly** the increments the
  :class:`~repro.solve.planner.PlannerReport` accumulates, so a trace
  re-aggregates into the same per-tier table the report prints
  (``repro trace summarize``);
* ``engine.tick`` events -- amortized progress of the exact search
  (states visited so far), so a stuck scan shows *which* search is
  burning states;
* ``pair`` spans -- one per classified conflicting pair;
* ``scan.start`` / ``scan.end`` -- scan-level bounds and tallies;
* ``worker.*`` events -- the supervised pool's lifecycle (spawn,
  ready, retry, crash, retire, plus ``dispatch``/``result`` bounds
  around every attempt -- the raw material of ``repro trace
  timeline``); supervised workers record their own ``query`` spans
  into a bounded in-memory sink and ship them home over the existing
  result channel, so a parallel scan's trace is as complete as a
  serial one's;
* ``checkpoint.write`` events -- one per journaled pair;
* ``profile`` -- the scan's merged
  :class:`~repro.obs.profile.SearchProfile` snapshot (choice-point
  attribution of engine states), emitted once before ``scan.end`` when
  the scan ran with profiling (``repro trace profile`` reads these);
* ``serve.*`` spans -- the ``repro serve`` daemon's request path,
  keyed by a **request ID** generated at ingress (or honored from the
  client's ``X-Repro-Request-Id`` header): ``serve.request`` bounds one
  whole HTTP request (endpoint, final status, total latency);
  ``serve.admission.wait``, ``serve.dispatch``, ``serve.store.read``,
  ``serve.store.write`` and ``serve.response`` break that latency into
  phases; ``serve.worker.eval`` is recorded *inside* the crash-isolated
  query worker and shipped home with the result (exactly as scan
  workers ship their ``query`` spans), so one request's spans tell the
  admission-vs-evaluation-vs-I/O story end to end (``repro trace
  serve-summary`` aggregates them);
* ``trace.drops`` -- bounded sinks never block or grow without limit;
  when they shed records they say how many.

All timestamps are :func:`time.monotonic` (the same clock budgets,
deadlines and tier tallies use), so spans, budget accounting and the
planner report are directly comparable.

The default sink is :data:`NULL_SINK`, a no-op whose ``enabled`` flag
lets every call site skip building records entirely -- untraced runs
pay nothing.
"""

from __future__ import annotations

import heapq
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import faults
from repro.obs.profile import SearchProfile
from repro.solve.planner import PlannerReport

TRACE_FORMAT = "repro-trace"
# version 2 added the profile / worker.dispatch / worker.result kinds;
# version 3 added the daemon's serve.* request spans; older traces
# (which simply lack the newer kinds) are still readable
TRACE_VERSION = 3
SUPPORTED_TRACE_VERSIONS = (1, 2, 3)


class TraceError(ValueError):
    """A trace file or record violates the span schema."""


# ----------------------------------------------------------------------
# span schema: kind -> ((required field, type-tuple), ...)
# ----------------------------------------------------------------------
_NUM = (int, float)
SPAN_SCHEMA: Dict[str, Tuple[Tuple[str, tuple], ...]] = {
    "trace.start": (("format", (str,)), ("version", (int,))),
    "query": (
        ("relation", (str,)),
        ("decided", (bool,)),
        ("tiers", (list,)),
    ),
    "engine.tick": (("states", (int,)),),
    "pair": (("a", (int,)), ("b", (int,)), ("status", (str,))),
    "scan.start": (("pairs", (int,)), ("todo", (int,))),
    "scan.end": (
        ("done", (int,)),
        ("feasible", (int,)),
        ("infeasible", (int,)),
        ("unknown", (int,)),
        ("interrupted", (bool,)),
    ),
    "worker.spawn": (("worker", (int,)),),
    "worker.ready": (("worker", (int,)),),
    "worker.retire": (("worker", (int,)),),
    "worker.crash": (("worker", (int,)), ("resource", (str,))),
    "worker.retry": (("a", (int,)), ("b", (int,)), ("attempt", (int,))),
    "worker.dispatch": (("worker", (int,)), ("a", (int,)), ("b", (int,))),
    "worker.result": (("worker", (int,)), ("a", (int,)), ("b", (int,))),
    "checkpoint.write": (("a", (int,)), ("b", (int,))),
    "profile": (("profile", (dict,)),),
    "trace.drops": (("dropped", (int,)),),
    # -- the serving daemon's request path (trace v3) ------------------
    "serve.request": (
        ("request_id", (str,)),
        ("endpoint", (str,)),
        ("status", (int,)),
        ("elapsed", _NUM),
    ),
    "serve.admission.wait": (("request_id", (str,)), ("elapsed", _NUM)),
    "serve.dispatch": (("request_id", (str,)), ("elapsed", _NUM)),
    "serve.worker.eval": (("request_id", (str,)), ("elapsed", _NUM)),
    "serve.store.read": (("request_id", (str,)), ("elapsed", _NUM)),
    "serve.store.write": (("request_id", (str,)), ("elapsed", _NUM)),
    "serve.response": (("request_id", (str,)), ("elapsed", _NUM)),
}

#: serve phase span kinds, in the order a request passes through them
#: (``serve.worker.eval`` is nested inside ``serve.dispatch``)
SERVE_PHASE_KINDS = (
    "serve.admission.wait",
    "serve.store.read",
    "serve.dispatch",
    "serve.worker.eval",
    "serve.store.write",
    "serve.response",
)

_TIER_FIELDS = (
    ("tier", (str,)),
    ("states", (int,)),
    ("elapsed", _NUM),
    ("answered", (bool,)),
)


def validate_record(rec: Any) -> None:
    """Check one record against the span schema; raise :class:`TraceError`.

    Records may carry extra fields (``worker`` provenance, witnesses'
    pair ids, ...); only the schema-required ones are enforced.
    """
    if not isinstance(rec, dict):
        raise TraceError(f"trace record is not an object: {rec!r}")
    kind = rec.get("kind")
    if kind not in SPAN_SCHEMA:
        raise TraceError(f"unknown trace record kind {kind!r}")
    t = rec.get("t")
    if not isinstance(t, _NUM) or isinstance(t, bool):
        raise TraceError(f"{kind}: missing/non-numeric timestamp {t!r}")
    for name, types in SPAN_SCHEMA[kind]:
        value = rec.get(name)
        if not isinstance(value, types) or (
            bool not in types and isinstance(value, bool)
        ):
            raise TraceError(
                f"{kind}: field {name!r} is {value!r}, expected "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if kind == "query":
        for entry in rec["tiers"]:
            if not isinstance(entry, dict):
                raise TraceError(f"query: tier entry is not an object: {entry!r}")
            for name, types in _TIER_FIELDS:
                value = entry.get(name)
                if not isinstance(value, types) or (
                    bool not in types and isinstance(value, bool)
                ):
                    raise TraceError(
                        f"query: tier field {name!r} is {value!r}"
                    )


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TraceSink:
    """Destination for trace records.

    ``enabled`` is the cheap guard call sites check before *building*
    a record, so the untraced hot path never allocates.
    """

    enabled = True

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """The default: drops everything, reports itself disabled."""

    enabled = False

    def emit(self, record: Dict[str, Any]) -> None:
        pass


#: the shared no-op sink -- untraced runs all point here
NULL_SINK = NullSink()


def _stamp(record: Dict[str, Any]) -> Dict[str, Any]:
    if "t" not in record:
        record["t"] = time.monotonic()
    return record


class RecordingSink(TraceSink):
    """Bounded in-memory sink.

    Used by supervised workers (records are shipped home over the
    result channel, so the buffer must not grow with search time) and
    by tests.  Past ``capacity`` records are *dropped, not blocked on*,
    and the drop count is appended as a final ``trace.drops`` record by
    :meth:`drain`.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity = capacity
        self.records: List[Dict[str, Any]] = []
        self.dropped = 0

    def emit(self, record: Dict[str, Any]) -> None:
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(_stamp(record))

    def drain(self) -> List[Dict[str, Any]]:
        """The buffered records (plus a ``trace.drops`` accounting
        record when any were shed); resets the sink."""
        out = self.records
        if self.dropped:
            out = out + [
                _stamp({"kind": "trace.drops", "dropped": self.dropped})
            ]
        self.records = []
        self.dropped = 0
        return out


class JsonlTraceSink(TraceSink):
    """Records as JSON lines at ``path`` (the ``--trace FILE`` sink).

    * the first line is a ``trace.start`` header (format + version);
    * records are buffered and written every ``buffer_records`` emits,
      so tracing adds one syscall per batch, not per span;
    * ``max_records`` bounds the file: past it, records are dropped
      (counted, reported as a final ``trace.drops`` record on close);
    * ``fsync=True`` additionally fsyncs on every flush for traces
      that must survive the same power cut the checkpoint journal does.
    """

    def __init__(
        self,
        path: str,
        *,
        buffer_records: int = 64,
        max_records: Optional[int] = None,
        fsync: bool = False,
    ) -> None:
        self.path = path
        self.buffer_records = max(1, buffer_records)
        self.max_records = max_records
        self.fsync = fsync
        self.emitted = 0
        self.dropped = 0
        self._buffer: List[str] = []
        self._fh = open(path, "w")
        self.emit(
            {
                "kind": "trace.start",
                "format": TRACE_FORMAT,
                "version": TRACE_VERSION,
            }
        )

    def emit(self, record: Dict[str, Any]) -> None:
        faults.fire("obs.trace.write")
        if self._fh.closed:
            self.dropped += 1
            return
        if self.max_records is not None and self.emitted >= self.max_records:
            self.dropped += 1
            return
        self.emitted += 1
        self._buffer.append(
            json.dumps(_stamp(record), sort_keys=True, separators=(",", ":"))
        )
        if len(self._buffer) >= self.buffer_records:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer = []
        self._fh.flush()
        if self.fsync:
            import os

            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh.closed:
            return
        if self.dropped:
            # bypass the cap: the accounting record must always land
            self._buffer.append(
                json.dumps(
                    _stamp({"kind": "trace.drops", "dropped": self.dropped}),
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        self.flush()
        self._fh.close()


class FailsafeSink(TraceSink):
    """Serialize and shield another sink: tracing must never fail work.

    The serving daemon's handler threads emit concurrently into one
    sink, and its contract is that tracing is a *pure observer* -- so
    this wrapper (a) takes a lock around every inner call (the JSONL
    sink's buffer is not thread-safe on its own) and (b) converts any
    failure of the destination (disk full, I/O error, a closed file)
    into a counted drop instead of an exception.  A request is never
    lost to its own telemetry; ``dropped`` says what the telemetry
    lost (the ``obs.trace.write`` failpoint tests exactly this).
    """

    def __init__(self, inner: TraceSink) -> None:
        self.inner = inner
        self.dropped = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        return self.inner.enabled

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            try:
                self.inner.emit(record)
            except Exception:
                self.dropped += 1

    def total_dropped(self) -> int:
        """Records lost anywhere: sink failures here plus whatever the
        inner sink's own bounds shed."""
        return self.dropped + getattr(self.inner, "dropped", 0)

    def close(self) -> None:
        with self._lock:
            try:
                self.inner.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# reading traces back
# ----------------------------------------------------------------------
def iter_trace(path: str) -> Iterable[Dict[str, Any]]:
    """Parse and schema-validate a trace file one record at a time.

    A generator: the file is read line by line and each record is
    validated (and the header checked) before it is yielded, so
    multi-GB journals are analyzed in constant memory.  The header
    record is yielded too, like :func:`read_trace` returns it.
    Raises :class:`TraceError` on the first malformed line, a missing
    or foreign header, an unsupported version, or an empty file.
    """
    with open(path) as fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                raise TraceError(f"{path}: corrupt trace line {lineno}")
            try:
                validate_record(rec)
            except TraceError as exc:
                raise TraceError(f"{path}: line {lineno}: {exc}")
            if first:
                first = False
                if (
                    rec.get("kind") != "trace.start"
                    or rec.get("format") != TRACE_FORMAT
                ):
                    raise TraceError(f"{path}: not a {TRACE_FORMAT} file")
                if rec.get("version") not in SUPPORTED_TRACE_VERSIONS:
                    raise TraceError(
                        f"{path}: unsupported trace version "
                        f"{rec.get('version')!r} (this library reads "
                        f"versions {SUPPORTED_TRACE_VERSIONS})"
                    )
            yield rec
        if first:
            raise TraceError(f"{path}: empty trace")


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Every record of a trace file, validated, as one list.

    Convenience for tests and small traces; anything that may face a
    long scan's journal should stream :func:`iter_trace` instead.
    """
    return list(iter_trace(path))


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))  # ceil without math
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class WorkerSpan:
    """One pool worker's timeline, as ``repro trace timeline`` reads it."""

    busy: float = 0.0
    pairs: int = 0
    crashes: int = 0
    first: Optional[float] = None
    last: Optional[float] = None
    open: Optional[Tuple[float, int, int]] = None  # (t, a, b) in flight
    slowest: float = 0.0
    slowest_pair: Optional[Tuple[int, int]] = None


class TraceSummary:
    """Everything the ``repro trace`` views read, from one pass.

    The fold handles each record ``kind`` in exactly one place, and the
    views (:meth:`describe`, :meth:`describe_serve`,
    :meth:`describe_profile`, :meth:`describe_timeline`) only render
    what it kept.  ``query`` spans re-aggregate through
    :meth:`~repro.solve.planner.PlannerReport.fold_query` into exactly
    the live report's per-tier table, and the per-endpoint ``serve.*``
    counts equal the daemon's ``/status`` ``"http"`` totals.  Memory
    grows with the request and attempt counts, never the span count.
    """

    def __init__(
        self, records: Iterable[Dict[str, Any]], *, slowest: int = 10
    ) -> None:
        self.planner = PlannerReport()
        self.pairs: Dict[str, int] = {}  # status -> count
        self.engine_ticks = 0
        self.checkpoint_writes = 0
        self.dropped = 0
        self.interrupted = False
        self.segments = 0  # trace.start headers: runs appended into one file
        self.scan_start: Optional[float] = None
        self.scan_end: Optional[float] = None
        self.last_t: Optional[float] = None
        self.worker_events: Dict[str, int] = {}  # lifecycle event -> count
        self.workers: Dict[int, WorkerSpan] = {}
        self.attempt_times: List[float] = []  # dispatch -> result
        self.profile = SearchProfile()
        self.profile_records = 0
        self.requests: Dict[str, int] = {}  # endpoint -> count
        self.statuses: Dict[str, Dict[str, int]] = {}  # endpoint -> code -> n
        self.kinds: Dict[str, int] = {}  # query kind (relation) -> count
        self.latencies: Dict[str, List[float]] = {}  # endpoint -> elapsed
        self.phases: Dict[str, List[float]] = {
            kind: [0, 0.0] for kind in SERVE_PHASE_KINDS
        }  # span kind -> [count, total seconds]
        # (elapsed, -arrival, record): ties go to the earlier arrival,
        # and the records themselves are never compared
        heap: List[Tuple[float, int, Dict[str, Any]]] = []
        cap = max(1, slowest)
        for seq, rec in enumerate(records):
            kind, t = rec["kind"], rec["t"]
            self.last_t = t if self.last_t is None else max(self.last_t, t)
            if kind == "query":
                self.planner.fold_query(rec)
            elif kind == "trace.start":
                # a new run (a --resume appends to the stopped scan's
                # trace): worker ids restart, so the timeline does too
                self.segments += 1
                self.scan_start = self.scan_end = None
                self.workers = {}
                self.attempt_times = []
            elif kind == "pair":
                status = rec["status"]
                self.pairs[status] = self.pairs.get(status, 0) + 1
            elif kind == "scan.start":
                self.scan_start = t
            elif kind == "scan.end":
                self.scan_end = t
                self.interrupted = self.interrupted or rec["interrupted"]
            elif kind == "engine.tick":
                self.engine_ticks += 1
            elif kind == "checkpoint.write":
                self.checkpoint_writes += 1
            elif kind == "trace.drops":
                self.dropped += rec["dropped"]
            elif kind == "profile":
                self.profile.merge(rec["profile"])
                self.profile_records += 1
            elif kind.startswith("worker."):
                event = kind.split(".", 1)[1]
                self.worker_events[event] = self.worker_events.get(event, 0) + 1
                if event in ("spawn", "dispatch", "result", "crash", "retire"):
                    self._fold_attempt(event, t, rec)
            elif kind == "serve.request":
                endpoint = rec["endpoint"]
                self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
                by_status = self.statuses.setdefault(endpoint, {})
                code = str(rec["status"])
                by_status[code] = by_status.get(code, 0) + 1
                qkind = str(rec.get("query_kind") or "-")
                self.kinds[qkind] = self.kinds.get(qkind, 0) + 1
                self.latencies.setdefault(endpoint, []).append(rec["elapsed"])
                item = (rec["elapsed"], -seq, rec)
                if len(heap) < cap:
                    heapq.heappush(heap, item)
                else:
                    heapq.heappushpop(heap, item)
            elif kind in self.phases:
                tally = self.phases[kind]
                tally[0] += 1
                tally[1] += rec["elapsed"]
        #: the N slowest requests, slowest first
        self.slowest: List[Dict[str, Any]] = [
            rec for _, _, rec in sorted(heap, reverse=True)
        ]

    def _fold_attempt(self, event: str, t: float, rec: Dict[str, Any]) -> None:
        w = self.workers.get(rec["worker"])
        if w is None:
            w = self.workers[rec["worker"]] = WorkerSpan()
        w.last = t
        if event in ("spawn", "dispatch"):
            if w.first is None:
                w.first = t
            if event == "dispatch":
                w.open = (t, rec["a"], rec["b"])
            return
        if event == "crash":
            w.crashes += 1
        if w.open is not None and event != "retire":
            took = t - w.open[0]
            w.busy += took
            if event == "result":
                w.pairs += 1
                self.attempt_times.append(took)
            if took > w.slowest:
                w.slowest = took
                w.slowest_pair = w.open[1:]
            w.open = None

    @property
    def total_requests(self) -> int:
        return sum(self.requests.values())

    def percentiles(self, endpoint: str) -> Tuple[float, float, float]:
        values = sorted(self.latencies.get(endpoint, ()))
        return (
            _percentile(values, 0.50),
            _percentile(values, 0.95),
            _percentile(values, 0.99),
        )

    def describe(self) -> str:
        """``repro trace summarize``: the per-tier planner table plus
        the scan's pair, worker, checkpoint and profile tallies."""
        lines = []
        if self.pairs:
            tally = " ".join(
                f"{status}={n}" for status, n in sorted(self.pairs.items())
            )
            lines.append(f"pairs: {tally}")
        lines.append(self.planner.describe())
        if self.worker_events:
            tally = " ".join(
                f"{event}={n}" for event, n in sorted(self.worker_events.items())
            )
            lines.append(f"workers: {tally}")
        if self.checkpoint_writes:
            lines.append(f"checkpoint writes: {self.checkpoint_writes}")
        if self.engine_ticks:
            lines.append(f"engine progress ticks: {self.engine_ticks}")
        if self.dropped:
            lines.append(f"trace records dropped (bounded sink): {self.dropped}")
        if self.profile.searches:
            lines.append(
                f"profile: {self.profile.searches} search(es), "
                f"{self.profile.total_states} attributed state(s) "
                f"(see `repro trace profile`)"
            )
        if self.interrupted:
            lines.append("scan was interrupted")
        return "\n".join(lines)

    def describe_serve(self) -> str:
        """``repro trace serve-summary``: per-endpoint latency and
        status, the phase breakdown, planner tiers and the slowest
        requests with their IDs."""
        lines = [
            f"requests: {self.total_requests} across "
            f"{len(self.requests)} endpoint(s)"
        ]
        for endpoint in sorted(self.requests):
            p50, p95, p99 = self.percentiles(endpoint)
            tally = " ".join(
                f"{code}={n}"
                for code, n in sorted(self.statuses[endpoint].items())
            )
            lines.append(
                f"  {endpoint}: count={self.requests[endpoint]} "
                f"p50={p50 * 1e3:.1f}ms p95={p95 * 1e3:.1f}ms "
                f"p99={p99 * 1e3:.1f}ms status[{tally}]"
            )
        kinds = {k: n for k, n in self.kinds.items() if k != "-"}
        if kinds:
            tally = " ".join(
                f"{kind}={n}" for kind, n in sorted(kinds.items())
            )
            lines.append(f"query kinds: {tally}")
        phase_rows = [
            (kind, int(tally[0]), tally[1])
            for kind, tally in self.phases.items()
            if tally[0]
        ]
        if phase_rows:
            lines.append("phase breakdown (summed across requests):")
            for kind, count, total in sorted(
                phase_rows, key=lambda row: -row[2]
            ):
                phase = kind[len("serve."):]
                lines.append(
                    f"  {phase:<15} n={count:<5} total={total * 1e3:.1f}ms"
                )
        if self.planner.queries:
            lines.append(self.planner.describe())
        if self.slowest:
            lines.append(f"slowest {len(self.slowest)} request(s):")
            for rec in self.slowest:
                kind = str(rec.get("query_kind") or "-")
                lines.append(
                    f"  {rec['elapsed'] * 1e3:8.1f}ms  {rec['endpoint']}"
                    f"  kind={kind}  status={rec['status']}"
                    f"  id={rec['request_id']}"
                )
        if self.dropped:
            lines.append(
                f"trace records dropped (bounded/failing sink): {self.dropped}"
            )
        return "\n".join(lines)

    def describe_profile(self, top: int = 10) -> Optional[str]:
        """``repro trace profile``: the merged hot-events table, or
        ``None`` when the trace holds no ``profile`` record."""
        if not self.profile_records:
            return None
        lines = self.profile.describe(top=top)
        if self.profile_records > 1:
            lines.insert(0, f"merged {self.profile_records} profile records")
        return "\n".join(lines)

    def describe_timeline(self) -> Optional[str]:
        """``repro trace timeline``: per-worker utilization, crashes and
        stragglers (every span it reads is stamped by the parent's
        monotonic clock, so durations compare across workers); a
        wall-clock line for a serial scan; ``None`` when the trace
        holds neither scan nor worker spans.  A trace that several runs
        appended to (a scan and its ``--resume``) shows the last run."""
        end = self.scan_end if self.scan_end is not None else self.last_t
        killed = self.scan_end is None
        if not self.workers:
            if self.scan_start is None:
                return None
            return (
                f"serial scan (no worker spans): "
                f"{end - self.scan_start:.3f}s wall"
                + (", no scan.end (killed?)" if killed else "")
            )
        times = sorted(self.attempt_times)
        median = times[len(times) // 2] if times else 0.0
        header = f"worker timeline: {len(self.workers)} worker(s)"
        if self.scan_start is not None:
            header += f", scan wall {end - self.scan_start:.3f}s"
        if self.segments > 1:
            header += f" (the last of {self.segments} runs in this trace)"
        if killed:
            header += " (no scan.end record -- scan killed mid-flight?)"
        lines = [header]
        flagged = 0
        for uid in sorted(self.workers):
            w = self.workers[uid]
            lifetime = (w.last - w.first) if w.first is not None else 0.0
            util = 100.0 * w.busy / lifetime if lifetime > 0 else 0.0
            line = (
                f"  worker {uid}: pairs={w.pairs} busy={w.busy:.3f}s "
                f"util={util:.0f}%"
            )
            flags = []
            if w.crashes:
                line += f" crashes={w.crashes}"
                flags.append("crashed")
            if (
                w.slowest_pair is not None
                and median > 0
                and w.slowest >= 2 * median
            ):
                a, b = w.slowest_pair
                flags.append(
                    f"straggler: pair ({a}, {b}) took {w.slowest:.3f}s "
                    f"({w.slowest / median:.1f}x median)"
                )
            if flags:
                line += "  <- " + "; ".join(flags)
                flagged += 1
            lines.append(line)
        if not flagged:
            lines.append("  no stragglers (all pairs within 2x the median)")
        return "\n".join(lines)


def summarize_trace(path: str, *, slowest: int = 10) -> TraceSummary:
    """Fold a trace file into the one :class:`TraceSummary` every
    ``repro trace`` view reads.  Its planner table equals the live
    :class:`~repro.solve.planner.PlannerReport` exactly, spans shipped
    home by supervised workers included.  Streams :func:`iter_trace`,
    so journal size doesn't matter."""
    return TraceSummary(iter_trace(path), slowest=slowest)


__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "SUPPORTED_TRACE_VERSIONS",
    "SPAN_SCHEMA",
    "TraceError",
    "TraceSink",
    "NullSink",
    "NULL_SINK",
    "RecordingSink",
    "JsonlTraceSink",
    "FailsafeSink",
    "SERVE_PHASE_KINDS",
    "validate_record",
    "iter_trace",
    "read_trace",
    "TraceSummary",
    "summarize_trace",
]
