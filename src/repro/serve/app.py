"""The ``repro serve`` HTTP daemon (lifecycle + request handling).

Wiring: the daemon supplies a route table to the one HTTP server
(:class:`~repro.obs.server.HttpServer`, shared with a scan's
``--serve`` endpoint, which owns binding, the client timeout, the
request-id echo and the bounded body read).  Handler threads pass
through the :class:`~repro.serve.admission.AdmissionQueue`, resolve the
execution against the persistent
:class:`~repro.serve.store.WitnessStore`, clamp the requested budget
(:func:`repro.budget.clamp_request`), and evaluate on the
crash-isolated :class:`~repro.supervise.pool.QueryWorkerPool` -- so a
segfaulting, OOM-killed or hanging evaluation costs one worker process
and one retried request, never the daemon.  Newly found witnesses are
persisted back to the store, which is how a repeat query on a stored
execution is answered by the cheap ``witness`` tier without the engine
running at all.

Endpoints::

    GET  /healthz         liveness: 200 while the process serves at all
    GET  /readyz          readiness: 200 while serving (body "degraded
                          (read-only)" while degraded); 503 while
                          starting, draining and stopped
    GET  /status          JSON: state, uptime, admission/pool/store stats
    GET  /metrics         the same, as Prometheus text through
                          :data:`SERVE_METRICS` (plus the per-endpoint
                          x kind x phase latency histograms)
    GET  /executions      stored execution fingerprints
    POST /executions      store an execution document -> fingerprint
    POST /query           evaluate one relation query (see QueryDaemon)
    GET  /debug/requests  bounded ring of recent requests (most recent
                          first: id, endpoint, kind, status, phases)
    GET  /debug/slow      the slow-query log (>= --slow-threshold)

Request IDs: every request gets one at ingress -- a well-formed
``X-Repro-Request-Id`` header (``[A-Za-z0-9._-]{1,64}``) is honored,
anything else replaced -- and it is echoed in the response header of
*every* endpoint and in the JSON body of the work endpoints, errors
included, so a client log line and a daemon trace line always meet.
With ``--trace FILE`` the work endpoints (``POST /executions``,
``POST /query``, ``GET /executions``) emit ``serve.*`` spans keyed by
that id: one ``serve.request`` plus per-phase spans
(``admission.wait``/``store.read``/``dispatch``/``worker.eval``/
``store.write``/``response``), with ``serve.worker.eval`` and the
planner's ``query`` spans recorded *inside* the worker process and
shipped home on the result message, scan-pool style.  Introspection
endpoints are deliberately not traced: they are unbounded-cardinality
noise, and excluding them is what lets ``repro trace serve-summary``
counts equal the ``/status`` ``"http"`` totals exactly.  The whole
layer is a pure observer -- tracing on or off, response bodies are
byte-identical minus the request-id echo -- and the sink is wrapped in
:class:`~repro.obs.trace.FailsafeSink`, so a full buffer or a failing
disk drops (counted) records, never requests.

Degradation contract: every degraded answer is an explicit ``UNKNOWN``
with the resource that ran out (``deadline``, ``states``, ``crash``,
``memory``, ``cpu``, ``shutdown``) and the planner's per-tier tallies
-- the daemon may decline to answer, it never guesses.

Disk pressure gets its own state: ``degraded_after`` consecutive
failed flush passes (ENOSPC, read-only remount) flip the daemon into
**degraded read-only mode**.  Reads and queries over already-stored
executions keep working from memory + the existing store; anything
that must write -- ``POST /executions``, a ``/query`` with an inline
execution document -- answers ``507 Insufficient Storage`` instead of
acknowledging data it cannot make durable.  ``/readyz`` stays ``200``
but reports ``degraded`` (a read-only replica is still routable), a
background probe re-tries a durable write every ``probe_interval``
seconds, and the moment the disk recovers the dirty entries are
flushed and full service resumes -- no restart, no operator action.

Shutdown (SIGTERM and SIGINT alike, wired by the CLI): flip readiness
to 503, stop admitting (new queries get 503), let in-flight requests
finish, drain the worker pool, flush the store, then stop the
listener.  A second signal skips the grace and tears down immediately.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.budget import clamp_request
from repro.memmodel import resolve_memory_model
from repro.model import serialize
from repro.obs.metrics import MetricsRegistry, StatusMetric, render_status
from repro.obs.server import (
    CLIENT_TIMEOUT,
    MAX_BODY_BYTES,
    PROMETHEUS_TEXT,
    BadRequest,
    ClientGone,
    HttpError,
    HttpServer,
    Routes,
)
from repro.obs.trace import NULL_SINK, FailsafeSink, TraceSink
from repro.serve.admission import AdmissionQueue, Draining, Overloaded
from repro.serve.store import WitnessStore
from repro.supervise.pool import QUERY_RELATIONS, QueryWorkerPool
from repro.supervise.retry import RetryPolicy
from repro.supervise.rlimits import ResourceLimits

log = logging.getLogger("repro.serve")

#: relations that need both event ids (everything except feasibility)
_PAIR_RELATIONS = QUERY_RELATIONS - {"feasible"}


def _require_model_match(doc: Dict[str, Any], memory_model: str) -> None:
    """Enforce an explicit ``memory_model`` claim in a request.

    A client that says which model it believes it is talking about must
    be right: answering a TSO question from an SC execution (or vice
    versa) would be silently wrong, so a mismatch is a hard 400, never
    a coercion.  Requests that stay silent keep the execution's own
    model.
    """
    requested = doc.get("memory_model")
    if requested is None:
        return
    try:
        model = resolve_memory_model(str(requested))
    except ValueError as exc:
        raise BadRequest(str(exc))
    if model.name != memory_model:
        raise BadRequest(
            f"memory model mismatch: request says {model.name!r} but the "
            f"execution was recorded under {memory_model!r}"
        )


class _ReadOnly(HttpError):
    """A write reached a degraded (read-only) daemon; served as 507."""

    status = 507


class _RequestObs:
    """One tracked request's observation state: its id, per-phase wall
    time, and the spans the worker shipped home with its result.
    :meth:`QueryDaemon.finish_request` turns it into trace spans,
    histogram observations and a debug-ring entry.  A pure observer:
    :meth:`phase` only stamps clocks, and every emission downstream
    happens behind the :class:`~repro.obs.trace.FailsafeSink`."""

    __slots__ = ("endpoint", "rid", "t0", "kind", "phases", "spans")

    def __init__(self, endpoint: str, rid: str) -> None:
        self.endpoint = endpoint
        self.rid = rid
        self.t0 = time.monotonic()
        self.kind: Optional[str] = None  # query relation, once validated
        self.phases: Dict[str, List[float]] = {}  # name -> [t_first, total]
        self.spans: List[Dict[str, Any]] = []  # worker-shipped spans

    @contextmanager
    def phase(self, name: str):
        """Time one pass through a request phase; repeated passes (two
        store reads, say) accumulate into one span."""
        t0 = time.monotonic()
        try:
            yield
        finally:
            tally = self.phases.get(name)
            if tally is None:
                self.phases[name] = [t0, time.monotonic() - t0]
            else:
                tally[1] += time.monotonic() - t0


class QueryDaemon(HttpServer):
    """A long-lived query-answering service over one witness store: the
    one HTTP server with the daemon's route table.

    A ``POST /query`` body names an execution (``"fingerprint"`` of a
    stored one, or an inline ``"execution"`` document, which is stored
    first) plus ``"relation"`` (one of mhb/chb/mcb/ccb/mow/cow/mcw/ccw/
    feasible/race), event ids ``"a"``/``"b"`` for pair relations, and
    an optional requested budget (``"max_states"``, ``"timeout"``)
    which is clamped to the server's caps.  Both ``POST /executions``
    and ``POST /query`` accept an optional ``"memory_model"`` claim;
    naming a model different from the execution's recorded one is a
    hard 400 (the daemon never silently reinterprets a document).
    """

    def __init__(
        self,
        store: WitnessStore,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
        workers: int = 2,
        queue_limit: int = 8,
        default_timeout: Optional[float] = 30.0,
        max_timeout: Optional[float] = 120.0,
        max_states: Optional[int] = None,
        limits: Optional[ResourceLimits] = None,
        retry: Optional[RetryPolicy] = None,
        plan: Optional[Any] = None,
        drain_grace: float = 10.0,
        degraded_after: int = 3,
        probe_interval: float = 2.0,
        retry_after_cap: float = 300.0,
        tracer: Optional[TraceSink] = None,
        slow_threshold: float = 1.0,
        client_timeout: float = CLIENT_TIMEOUT,
        recent_capacity: int = 256,
        slow_capacity: int = 64,
    ) -> None:
        if degraded_after < 1:
            raise ValueError("degraded_after must be >= 1")
        self.store = store
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.max_states = max_states
        self.drain_grace = drain_grace
        self.degraded_after = degraded_after
        self.probe_interval = probe_interval
        self.slow_threshold = slow_threshold
        self.state = "starting"
        self._t0 = time.monotonic()
        self._state_lock = threading.Lock()
        self._requests = {"queries": 0, "unknown": 0, "errors": 0}
        self._degraded_since: Optional[float] = None
        self._recoveries = 0
        self._rejected_read_only = 0
        self._probe_thread: Optional[threading.Thread] = None
        # tracing must never fail (or cross-thread-corrupt) a request:
        # whatever sink the caller hands over is wrapped so concurrent
        # handler threads serialize on one lock and any sink failure
        # becomes a counted drop.  The daemon owns the wrapper from
        # here: close() closes it, flushing the drop accounting.
        if tracer is None:
            tracer = NULL_SINK
        if tracer.enabled and not isinstance(tracer, FailsafeSink):
            tracer = FailsafeSink(tracer)
        self.tracer = tracer
        self._traced = bool(tracer.enabled)
        #: persistent request-latency histograms (endpoint x kind x
        #: phase); counters stay status-derived (SERVE_METRICS)
        self.metrics = MetricsRegistry()
        self._http: Dict[str, int] = {}  # endpoint -> completed requests
        self._recent: deque = deque(maxlen=max(1, recent_capacity))
        self._slow: deque = deque(maxlen=max(1, slow_capacity))
        self._disconnects = 0
        self.admission = AdmissionQueue(
            queue_limit, workers=workers, retry_after_cap=retry_after_cap
        )
        self.pool = QueryWorkerPool(
            workers,
            limits=limits,
            retry=retry,
            plan=plan,
            trace=self._traced,
        )
        # bind eagerly: a taken port must fail *now*, before the CLI
        # reports the daemon as up
        try:
            super().__init__(
                self._routes(), port, host=host, client_timeout=client_timeout
            )
        except OSError:
            self.pool.close(drain=False)
            raise

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "QueryDaemon":
        super().start()
        self.state = "serving"
        return self

    def drain(self, *, grace: Optional[float] = None) -> None:
        """Finish in-flight work, refuse new, make everything durable."""
        grace = self.drain_grace if grace is None else grace
        with self._state_lock:
            if self.state in ("draining", "stopped"):
                return
            self.state = "draining"  # /readyz flips to 503 immediately
        self.admission.begin_drain()  # new queries now get 503
        self.admission.wait_idle(grace)  # in-flight handlers finish
        self.pool.close(drain=True, timeout=grace)
        self.store.flush()

    def close(self, *, drain: bool = True) -> None:
        if drain:
            self.drain()
        else:  # second signal: now
            with self._state_lock:
                self.state = "draining"
            self.admission.begin_drain()
            self.pool.close(drain=False, timeout=1.0)
            self.store.flush()
        super().close()
        if self._traced:
            # flush the sink once (writes the trace.drops accounting
            # record); late stragglers after this are not recorded
            self._traced = False
            self.tracer.close()
        self.state = "stopped"

    # -- HTTP routes (handler threads) -----------------------------------
    def _routes(self) -> Routes:
        return {
            ("GET", "/healthz"): lambda req: req.reply(200, "ok\n"),
            ("GET", "/readyz"): self._readyz,
            ("GET", "/status"): lambda req: req.reply_json(200, self.status()),
            ("GET", "/metrics"): self._metrics,
            ("GET", "/debug/requests"): lambda req: req.reply_json(
                200, self.debug_requests()
            ),
            ("GET", "/debug/slow"): lambda req: req.reply_json(
                200, self.debug_slow()
            ),
            ("GET", "/executions"): self._list_executions,
            ("POST", "/executions"): lambda req: self._post(
                req, "POST /executions"
            ),
            ("POST", "/query"): lambda req: self._post(req, "POST /query"),
        }

    def _readyz(self, req) -> None:
        state = self.state
        if state == "serving":
            req.reply(200, "ready\n")
        elif state == "degraded":
            # a read-only replica is still routable for queries; the
            # body says writes will bounce with 507
            req.reply(200, "degraded (read-only)\n")
        else:
            req.reply(503, f"not ready ({state})\n")

    def _metrics(self, req) -> None:
        text = render_status(self.status(), SERVE_METRICS)
        # the persistent per-endpoint x kind x phase latency histograms
        # append after the status-derived snapshot
        with self._state_lock:
            text += self.metrics.render()
        req.reply(200, text, PROMETHEUS_TEXT)

    def _list_executions(self, req) -> None:
        obs = self.begin_request("GET /executions", req.rid)
        with obs.phase("store.read"):
            doc: Dict[str, Any] = {
                "executions": self.store.fingerprints(),
                "store": self.store.stats(),
            }
        doc["request_id"] = req.rid
        with obs.phase("response"):
            req.reply_json(200, doc)
        self.finish_request(obs, 200)

    def _post(self, req, endpoint: str) -> None:
        obs = self.begin_request(endpoint, req.rid)
        headers: Optional[Dict[str, str]] = None
        try:
            doc = req.read_json()
            if endpoint == "POST /executions":
                code, body = 200, self.handle_put_execution(doc, obs=obs)
            else:
                code, body, headers = self.handle_query(doc, obs=obs)
        except HttpError as exc:
            if isinstance(exc, ClientGone):
                self.count_disconnect(req.rid, str(exc))
            code, body, headers = exc.status, {"error": str(exc)}, exc.headers
        except Exception as exc:  # noqa: BLE001 - the daemon must survive
            self.count_error()
            code, body = 500, {"error": f"internal error: {exc!r}"}
        body["request_id"] = req.rid
        with obs.phase("response"):
            req.reply_json(code, body, headers)
        self.finish_request(obs, code)

    # -- degraded read-only mode -----------------------------------------
    def _note_storage_failure(self) -> None:
        """Re-evaluate degraded state after a failed durable write.

        The store counts consecutive failed flush *passes*; once they
        reach ``degraded_after`` the daemon flips to read-only and a
        background probe takes over retrying -- handler threads stop
        paying the price of a doomed flush on every request.
        """
        if self.store.consecutive_flush_failures < self.degraded_after:
            return
        with self._state_lock:
            if self.state != "serving":
                return  # starting / draining / already degraded
            self.state = "degraded"
            self._degraded_since = time.monotonic()
            probe = self._probe_thread
            if probe is None or not probe.is_alive():
                self._probe_thread = threading.Thread(
                    target=self._probe_loop,
                    name="repro-serve-probe",
                    daemon=True,
                )
                self._probe_thread.start()
        log.warning(
            "daemon degraded to read-only: %d consecutive flush "
            "pass(es) failed; queries keep serving from memory + store, "
            "writes answer 507, probing the disk every %.1fs",
            self.store.consecutive_flush_failures, self.probe_interval,
        )

    def _probe_loop(self) -> None:
        """Background disk probe: restore full service on recovery."""
        while True:
            time.sleep(self.probe_interval)
            if self.state != "degraded":
                return  # drained / stopped / already recovered
            if not self.store.probe():
                continue
            # the disk takes durable writes again: flush the backlog;
            # recovery requires the whole pass to have succeeded
            failures_before = self.store.flush_failures
            self.store.flush()
            if self.store.flush_failures != failures_before:
                continue
            self.store.consecutive_flush_failures = 0
            with self._state_lock:
                if self.state != "degraded":
                    return
                self.state = "serving"
                self._degraded_since = None
                self._recoveries += 1
            log.warning(
                "disk recovered: store flushed, resuming full service"
            )
            return

    def _flush_store(self) -> None:
        """Flush after a mutation, then re-evaluate degraded state.
        While degraded the probe loop owns retrying -- handler threads
        skip the flush entirely and serve from memory."""
        if self.state == "degraded":
            return
        self.store.flush()
        self._note_storage_failure()

    # -- request observation (handler threads) ---------------------------
    def begin_request(self, endpoint: str, rid: str) -> _RequestObs:
        """Open one tracked request's observation context."""
        return _RequestObs(endpoint, rid)

    def finish_request(self, obs: _RequestObs, status: int) -> None:
        """Close out a tracked request: histograms, the recent/slow
        debug rings, the per-endpoint ``/status`` counter, and -- when
        tracing -- the ``serve.*`` spans, all keyed by the request id.
        Runs after the response bytes left, so ``serve.request`` covers
        the client's whole wait."""
        elapsed = time.monotonic() - obs.t0
        endpoint, kind = obs.endpoint, (obs.kind or "-")
        phase_totals = {
            name: tally[1] for name, tally in obs.phases.items()
        }
        for span in obs.spans:  # the worker's evaluation bound
            if span.get("kind") == "serve.worker.eval":
                phase_totals["worker.eval"] = (
                    phase_totals.get("worker.eval", 0.0) + span["elapsed"]
                )
        labels = {"endpoint": endpoint, "kind": kind}
        entry = {
            "request_id": obs.rid,
            "endpoint": endpoint,
            "kind": kind,
            "status": status,
            "elapsed_seconds": elapsed,
            "phases": phase_totals,
        }
        with self._state_lock:
            self._http[endpoint] = self._http.get(endpoint, 0) + 1
            self.metrics.histogram(
                "repro_serve_request_seconds",
                "End-to-end request latency, by endpoint and query kind",
                labels=labels,
            ).observe(elapsed)
            for name, total in phase_totals.items():
                self.metrics.histogram(
                    "repro_serve_phase_seconds",
                    "Request time by phase (admission.wait/store.read/"
                    "dispatch/worker.eval/store.write/response)",
                    labels={**labels, "phase": name},
                ).observe(total)
            self._recent.append(entry)
            slow = elapsed >= self.slow_threshold
            if slow:
                self._slow.append(entry)
        if slow:
            log.warning(
                "slow request %s: %s kind=%s status=%d took %.3fs "
                "(threshold %.3fs)",
                obs.rid, endpoint, kind, status, elapsed,
                self.slow_threshold,
            )
        if self._traced:
            tr = self.tracer
            for span in obs.spans:
                span.setdefault("request_id", obs.rid)
                tr.emit(span)
            for name, tally in obs.phases.items():
                tr.emit(
                    {
                        "kind": f"serve.{name}",
                        "t": tally[0],
                        "request_id": obs.rid,
                        "elapsed": tally[1],
                    }
                )
            record = {
                "kind": "serve.request",
                "t": obs.t0,
                "request_id": obs.rid,
                "endpoint": endpoint,
                "status": status,
                "elapsed": elapsed,
            }
            if obs.kind is not None:
                record["query_kind"] = obs.kind
            tr.emit(record)

    def count_disconnect(self, rid: str, reason: str) -> None:
        """The slow/vanishing-client path, no longer silent: one metric
        tick and one log line carrying the request id."""
        with self._state_lock:
            self._disconnects += 1
        log.warning("client disconnect on request %s: %s", rid, reason)

    def debug_requests(self) -> Dict[str, Any]:
        with self._state_lock:
            entries = list(self._recent)
        entries.reverse()  # most recent first
        return {"capacity": self._recent.maxlen, "requests": entries}

    def debug_slow(self) -> Dict[str, Any]:
        with self._state_lock:
            entries = list(self._slow)
        entries.reverse()
        return {
            "slow_threshold_seconds": self.slow_threshold,
            "capacity": self._slow.maxlen,
            "requests": entries,
        }

    # -- request handling (handler threads) ------------------------------
    def count_error(self) -> None:
        with self._state_lock:
            self._requests["errors"] += 1

    def handle_put_execution(
        self, doc: Dict[str, Any], obs: Optional[_RequestObs] = None
    ) -> Dict[str, Any]:
        if obs is None:  # direct (library/test) callers: observe a stub
            obs = _RequestObs("POST /executions", "-")
        if self.state == "degraded":
            with self._state_lock:
                self._rejected_read_only += 1
            raise _ReadOnly(
                "daemon is in degraded read-only mode (disk not taking "
                "durable writes); execution not stored -- retry later"
            )
        exe_doc = doc.get("execution", doc)  # bare documents welcome
        try:
            exe = serialize.execution_from_dict(exe_doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise BadRequest(f"bad execution document: {exc}")
        _require_model_match(doc, exe.memory_model)
        with obs.phase("store.write"):
            try:
                fp = self.store.put_execution(exe)
            except OSError as exc:
                self._note_storage_failure()
                raise _ReadOnly(
                    f"could not store the execution durably: {exc}"
                )
            self._flush_store()
        return {
            "fingerprint": fp,
            "memory_model": exe.memory_model,
            "witnesses": len(self.store.points_for(fp)),
        }

    def handle_query(
        self, doc: Dict[str, Any], obs: Optional[_RequestObs] = None
    ):
        """Returns ``(http_code, json_body, extra_headers)``."""
        if obs is None:  # direct (library/test) callers: observe a stub
            obs = _RequestObs("POST /query", "-")
        if self.state not in ("serving", "degraded"):
            return 503, {"error": f"daemon is {self.state}"}, None
        try:
            with obs.phase("admission.wait"):
                self.admission.try_enter()
        except Overloaded as exc:
            retry_after = max(1, int(round(exc.retry_after)))
            return (
                429,
                {
                    "error": "at capacity",
                    "retry_after_seconds": retry_after,
                    "admission": self.admission.stats(),
                },
                {"Retry-After": str(retry_after)},
            )
        except Draining:
            return 503, {"error": "daemon is draining"}, None
        entered_at = time.monotonic()
        try:
            return self._run_query(doc, obs)
        finally:
            self.admission.release(time.monotonic() - entered_at)

    def _run_query(self, doc: Dict[str, Any], obs: _RequestObs):
        faults.fire("serve.query")
        # -- resolve the execution ------------------------------------
        fp = doc.get("fingerprint")
        if fp is None:
            exe_doc = doc.get("execution")
            if exe_doc is None:
                raise BadRequest(
                    "name an execution: 'fingerprint' of a stored one, or "
                    "an inline 'execution' document"
                )
            if self.state == "degraded":
                # an inline execution must be stored before the pool can
                # evaluate it; a degraded daemon cannot make it durable
                with self._state_lock:
                    self._rejected_read_only += 1
                raise _ReadOnly(
                    "daemon is in degraded read-only mode; query a stored "
                    "'fingerprint' instead of an inline execution"
                )
            try:
                exe = serialize.execution_from_dict(exe_doc)
            except (ValueError, KeyError, TypeError) as exc:
                raise BadRequest(f"bad execution document: {exc}")
            with obs.phase("store.write"):
                try:
                    fp = self.store.put_execution(exe)
                except OSError as exc:
                    self._note_storage_failure()
                    raise _ReadOnly(
                        f"could not store the execution durably: {exc}"
                    )
        with obs.phase("store.read"):
            stored = self.store.lookup(fp)
        if stored is None:
            return 404, {"error": f"no stored execution {fp}"}, None
        _require_model_match(doc, stored.memory_model)
        # -- validate the relation ------------------------------------
        relation = str(doc.get("relation", "race")).lower()
        if relation not in QUERY_RELATIONS:
            raise BadRequest(
                f"unknown relation {relation!r} "
                f"(one of {', '.join(sorted(QUERY_RELATIONS))})"
            )
        obs.kind = relation
        a = b = None
        if relation in _PAIR_RELATIONS:
            try:
                a, b = int(doc["a"]), int(doc["b"])
            except (KeyError, TypeError, ValueError):
                raise BadRequest(
                    f"relation {relation!r} needs integer event ids 'a' and 'b'"
                )
            if not (0 <= a < stored.events and 0 <= b < stored.events):
                raise BadRequest(
                    f"event ids must be within this execution's "
                    f"0..{stored.events - 1}"
                )
        # -- clamp the requested budget to the server's caps ----------
        req_states = doc.get("max_states")
        req_timeout = doc.get("timeout")
        try:
            req_states = None if req_states is None else int(req_states)
            req_timeout = None if req_timeout is None else float(req_timeout)
        except (TypeError, ValueError):
            raise BadRequest("'max_states'/'timeout' must be numbers")
        max_states, timeout = clamp_request(
            req_states,
            req_timeout,
            states_cap=self.max_states,
            timeout_cap=self.max_timeout,
            default_timeout=self.default_timeout,
        )
        # -- evaluate on the crash-isolated pool ----------------------
        request = {
            "fingerprint": fp,
            "execution": stored.text,  # shipped as stored, never re-serialized
            "relation": relation,
            "a": a,
            "b": b,
            "drop_racing": bool(doc.get("drop_racing", True)),
            "max_states": max_states,
            "timeout": timeout,
            "witnesses": stored.witnesses,
        }
        with obs.phase("dispatch"):
            tid = self.pool.submit(request)
            wait = None
            if timeout is not None:
                # budget + crash retries + wall grace, with margin: the
                # pool always finalizes (UNKNOWN at worst) well inside
                retries = self.pool.retry.max_retries
                wait = (timeout + self.pool.wall_grace) * (1 + retries) + 15.0
            outcome = self.pool.result(tid, timeout=wait)
        # the worker's spans (already uid-tagged by the pool) ride the
        # outcome; pull them off before the response body is built.  A
        # fresh planner resolves "is F non-empty" inside the query, so
        # its tally and spans include that check
        obs.spans.extend(outcome.pop("spans", None) or [])
        # -- persist what the query discovered ------------------------
        with obs.phase("store.write"):
            persisted = self.store.add_points(
                fp, outcome.get("witnesses_found")
            )
            if persisted:
                self._flush_store()
        with self._state_lock:
            self._requests["queries"] += 1
            if outcome.get("verdict") in ("UNKNOWN", "unknown"):
                self._requests["unknown"] += 1
        body = {
            "fingerprint": fp,
            "memory_model": stored.memory_model,
            "relation": relation,
            "a": a,
            "b": b,
            "verdict": outcome.get("verdict"),
            "decided_by": outcome.get("decided_by"),
            "resource": outcome.get("resource"),
            "witness": outcome.get("witness"),
            "classification": outcome.get("classification"),
            "planner": outcome.get("planner"),
            "budget": {"max_states": max_states, "timeout": timeout},
            "witnesses_persisted": persisted,
        }
        return 200, body, None

    # -- introspection ---------------------------------------------------
    def status(self) -> Dict[str, Any]:
        with self._state_lock:
            requests = dict(self._requests)
            http = dict(self._http)
            disconnects = self._disconnects
            degraded_since = self._degraded_since
            degraded = {
                "seconds": (
                    time.monotonic() - degraded_since
                    if degraded_since is not None
                    else 0.0
                ),
                "recoveries": self._recoveries,
                "rejected_read_only": self._rejected_read_only,
            }
        return {
            "service": "repro-serve",
            "state": self.state,
            "uptime_seconds": time.monotonic() - self._t0,
            "requests": requests,
            # completed requests per tracked endpoint -- the exact
            # totals `repro trace serve-summary` reports for a traced
            # run (introspection endpoints are in neither tally)
            "http": http,
            "observability": {
                "client_disconnects": disconnects,
                "trace_enabled": self._traced,
                "trace_dropped": getattr(
                    self.tracer, "total_dropped", lambda: 0
                )(),
                "slow_threshold_seconds": self.slow_threshold,
                "client_timeout_seconds": self.client_timeout,
            },
            "degraded": degraded,
            "admission": self.admission.stats(),
            "pool": self.pool.stats(),
            "store": self.store.stats(),
        }


def _state_is(state: str) -> Callable[[Dict[str, Any]], int]:
    return lambda doc: int(doc["state"] == state)


#: the daemon's ``/metrics`` table over :meth:`QueryDaemon.status` (see
#: :func:`~repro.obs.metrics.render_status`)
SERVE_METRICS: Tuple[StatusMetric, ...] = (
    ("gauge", "repro_serve_up", "1 while the daemon serves",
     lambda doc: 1, None),
    ("gauge", "repro_serve_ready", "1 while accepting new queries",
     _state_is("serving"), None),
    ("gauge", "repro_serve_degraded", "1 while in degraded read-only mode",
     _state_is("degraded"), None),
    ("counter", "repro_serve_recoveries_total",
     "Degraded-to-serving recoveries", ("degraded", "recoveries"), None),
    ("counter", "repro_serve_rejected_read_only_total",
     "Writes refused with 507 while degraded",
     ("degraded", "rejected_read_only"), None),
    ("gauge", "repro_serve_uptime_seconds", "Daemon uptime",
     ("uptime_seconds",), None),
    ("counter", "repro_serve_queries_total", "Queries answered",
     ("requests", "queries"), None),
    ("counter", "repro_serve_unknown_total", "Queries answered UNKNOWN",
     ("requests", "unknown"), None),
    ("counter", "repro_serve_errors_total", "Requests that failed internally",
     ("requests", "errors"), None),
    ("gauge", "repro_serve_active_requests", "Admitted, not yet released",
     ("admission", "active"), None),
    ("counter", "repro_serve_rejected_total",
     "Requests refused at admission, by reason",
     ("admission", "rejected_busy"), {"reason": "busy"}),
    ("counter", "repro_serve_rejected_total",
     "Requests refused at admission, by reason",
     ("admission", "rejected_draining"), {"reason": "draining"}),
    ("counter", "repro_worker_spawns_total", "Query workers started",
     ("pool", "spawns"), None),
    ("counter", "repro_worker_crashes_total", "Query workers that died",
     ("pool", "crashes"), None),
    ("counter", "repro_serve_retries_total", "Query attempts retried",
     ("pool", "retries"), None),
    ("gauge", "repro_store_executions", "Executions in the witness store",
     ("store", "executions"), None),
    ("gauge", "repro_store_witnesses", "Validated schedules resident",
     ("store", "witnesses"), None),
    ("counter", "repro_store_quarantined_total", "Corrupt files quarantined",
     ("store", "quarantined"), None),
    ("counter", "repro_store_flush_failures_total",
     "Durable flushes that failed", ("store", "flush_failures"), None),
    ("counter", "repro_store_evictions_total",
     "Entries evicted by the LRU cap", ("store", "evictions"), None),
    ("counter", "repro_store_compactions_total", "Store compaction passes",
     ("store", "compactions"), None),
    ("counter", "repro_serve_http_requests_total",
     "Completed requests, by tracked endpoint", ("http",), "endpoint"),
    ("counter", "repro_serve_client_disconnects_total",
     "Requests whose client vanished or stalled past --client-timeout",
     ("observability", "client_disconnects"), None),
    ("counter", "repro_serve_trace_dropped_total",
     "Trace records dropped by the bounded/failing sink",
     ("observability", "trace_dropped"), None),
)

__all__ = ["QueryDaemon", "MAX_BODY_BYTES", "SERVE_METRICS"]
