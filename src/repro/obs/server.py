"""The one HTTP server, and the live scan endpoint built on it.

Both front ends that answer over HTTP -- a running scan's ``--serve
PORT`` endpoint and the ``repro serve`` daemon
(:mod:`repro.serve.app`) -- run on :class:`HttpServer`.  The server
owns the transport: eager bind, a daemon-threaded accept loop, the
per-connection client timeout, request-id resolution and echo
(``X-Repro-Request-Id``), sized replies that ignore vanished clients,
the bounded JSON body read, silent logging, and one 404 for any
``(method, path)`` missing from the route table.  A front end supplies
only that table.

A scan that runs for hours must answer "how far along are you, is
anything stuck, and where is the states budget going" *while it runs*.
Its table (:func:`scan_routes`, served by :class:`ObsServer`):

* ``GET /healthz`` -- **liveness**, always ``200 ok`` while the process
  serves at all (a supervisor should restart on failure to answer, not
  on the answer's content);
* ``GET /readyz``  -- **readiness**, ``200 ready`` only while the board
  is in a :data:`READY_STATES` state; ``503`` while starting up and
  while draining, so a load balancer or orchestrator stops routing to
  an instance that is shutting down *before* its socket closes;
* ``GET /status``  -- one JSON document: scan fingerprint, pair counts
  by outcome, the per-tier planner table, per-worker liveness (current
  pair, results, crashes), budget remaining, observed pair rate + ETA,
  and the merged search profile when profiling is on;
* ``GET /metrics`` -- the same snapshot rendered live by
  :func:`~repro.obs.metrics.render_status` over :data:`SCAN_METRICS`
  (the ``--metrics`` file is this body at scan end).

Concurrency model -- a lock-free single-writer slot: every mutator of
:class:`StatusBoard` runs on the scan thread, which periodically
builds a fresh *immutable* snapshot dict and publishes it with one
attribute assignment (atomic under the GIL).  Handler threads only
ever read the latest published reference and serialize it; serving
never takes a lock the classification loop could contend on, and a
torn snapshot is impossible by construction.

The board is the one fold of a CLI scan's state:
:meth:`~repro.races.detector.RaceDetector.feasible_races` counts the
pairs into it, and ``/status``, ``/metrics``, the progress line (fed
through :attr:`StatusBoard.on_publish`) and the ``--metrics`` file are
views of its snapshots.  Library scans without a board pay one ``is
not None`` test per pair.

The server owns no policy: with ``--serve`` the CLI starts it before
the scan, points it at the scan's board, and closes it on drain,
SIGINT and ``--timeout`` expiry alike (the surrounding ``finally``).
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import StatusMetric, render_status
from repro.obs.profile import SearchProfile
from repro.solve.planner import PlannerReport

#: /status schema version (bumped when keys change meaning).
STATUS_VERSION = 1

#: board states in which /readyz answers 200.  "starting" (the board
#: exists but the scan has not begun) and any drain/stop state are not
#: ready; a finished scan still serving its final /status is.
READY_STATES = frozenset({"scanning", "serving", "done"})


class StatusBoard:
    """Scan-side state with a lock-free published snapshot.

    Single-writer: every mutator (``begin_scan``, ``set_state``,
    ``pair_done``, ``observe``) must be called from the scan thread.
    Readers (HTTP handlers) call only :meth:`latest`, which returns the
    last published immutable snapshot -- possibly ``None`` before the
    first publish, and always a complete document after.

    ``fingerprint`` (the scan's journal fingerprint, or ``None``),
    ``planner`` and ``profile`` (the scan's own
    :class:`~repro.solve.planner.PlannerReport` and
    :class:`~repro.obs.profile.SearchProfile`, or ``None``) are read at
    every publish: whoever runs the scan points them at the objects it
    tallies into, on the scan thread, so reading them here is
    race-free.  ``on_publish``, when set, is called with every new
    snapshot on the scan thread (the CLI's progress line).
    """

    def __init__(self) -> None:
        self._snapshot: Optional[Dict[str, Any]] = None
        self._state = "starting"
        self.fingerprint: Optional[str] = None
        self._total = 0
        self._counts: Dict[str, int] = {}
        self._fresh_done = 0
        self._budget = None
        self._t0 = time.monotonic()
        self._workers: Dict[int, Dict[str, Any]] = {}
        self._worker_spawns = 0
        self._worker_crashes = 0
        self._checkpoint_writes = 0
        self._engine_states: Optional[int] = None
        self._last_engine_publish = 0.0
        self.planner = PlannerReport()
        self.profile: Optional[SearchProfile] = None
        self.on_publish: Optional[Callable[[Dict[str, Any]], None]] = None
        self.publish()

    # -- wiring (scan thread, before/while scanning) ---------------------
    def begin_scan(self, *, total: int, budget=None) -> None:
        """Arm the board for a scan of ``total`` conflicting pairs."""
        self._state = "scanning"
        self._total = total
        self._budget = budget
        self._t0 = time.monotonic()
        self.publish()

    def set_state(self, state: str) -> None:
        self._state = state
        self.publish()

    # -- scan progress ---------------------------------------------------
    def pair_done(self, classification, *, fresh: bool = True) -> None:
        """Count one classified pair (``fresh=False`` for checkpoint
        replays, which should not distort the observed pair rate)."""
        status = classification.status
        self._counts[status] = self._counts.get(status, 0) + 1
        if fresh:
            self._fresh_done += 1
        self.publish()

    def note_checkpoint_write(self) -> None:
        self._checkpoint_writes += 1
        # no publish: always paired with a pair_done that publishes

    def engine_tick(self, stats) -> None:
        """Amortized engine progress (chained off ``ctx.on_progress``);
        throttled so deep searches don't spend their time publishing."""
        self._engine_states = stats.states_visited
        now = time.monotonic()
        if now - self._last_engine_publish >= 0.25:
            self._last_engine_publish = now
            self.publish()

    def observe(self, record: Dict[str, Any]) -> None:
        """Fold one worker lifecycle record (trace-shaped, from the
        supervised pool) into the per-worker table."""
        kind = record.get("kind", "")
        if not kind.startswith("worker."):
            return
        event = kind.split(".", 1)[1]
        if event == "retry":  # pair-level, carries no worker id
            self.publish()
            return
        uid = record.get("worker")
        w = self._workers.get(uid)
        if w is None:
            w = self._workers[uid] = {
                "alive": True, "state": "spawned", "pair": None,
                "results": 0, "crashes": 0,
            }
        if event == "spawn":
            self._worker_spawns += 1
        elif event == "ready":
            w["state"] = "ready"
        elif event == "dispatch":
            w["state"] = "busy"
            w["pair"] = [record.get("a"), record.get("b")]
        elif event == "result":
            w["state"] = "idle"
            w["pair"] = None
            w["results"] += 1
        elif event == "crash":
            w["alive"] = False
            w["state"] = f"crashed ({record.get('resource', 'crash')})"
            w["pair"] = None
            w["crashes"] += 1
            self._worker_crashes += 1
        elif event == "retire":
            w["alive"] = False
            if not w["state"].startswith("crashed"):
                w["state"] = "retired"
            w["pair"] = None
        self.publish()

    # -- the slot --------------------------------------------------------
    def publish(self) -> None:
        """Build a fresh snapshot and swing the slot to it (one atomic
        reference assignment; readers see old-complete or new-complete,
        never a mix)."""
        self._snapshot = snapshot = self._build()
        if self.on_publish is not None:
            self.on_publish(snapshot)

    def latest(self) -> Optional[Dict[str, Any]]:
        return self._snapshot

    # -- snapshot construction (scan thread only) ------------------------
    def _build(self) -> Dict[str, Any]:
        now = time.monotonic()
        elapsed = max(0.0, now - self._t0)
        done = sum(self._counts.values())
        remaining = max(0, self._total - done)
        rate = self._fresh_done / elapsed if elapsed > 0 else None
        eta = None
        if remaining == 0:
            eta = 0.0
        elif rate:
            eta = remaining / rate
        budget_doc = None
        if self._budget is not None:
            left = self._budget.remaining_seconds()
            budget_doc = {
                "remaining_seconds": left,
                "max_states": self._budget.max_states,
            }
            if left is not None and eta is not None and left < eta:
                eta = left  # the deadline will cut the scan short
        return {
            "service": "repro",
            "status_version": STATUS_VERSION,
            "state": self._state,
            "fingerprint": self.fingerprint,
            "pairs": {
                "total": self._total,
                "done": done,
                "feasible": self._counts.get("feasible", 0),
                "infeasible": self._counts.get("infeasible", 0),
                "unknown": self._counts.get("unknown", 0),
            },
            "planner": self.planner.snapshot(),
            "profile": (
                None if self.profile is None else self.profile.snapshot()
            ),
            "workers": {
                str(uid): dict(w) for uid, w in self._workers.items()
            },
            "worker_spawns": self._worker_spawns,
            "worker_crashes": self._worker_crashes,
            "checkpoint_writes": self._checkpoint_writes,
            "engine_states": self._engine_states,
            "elapsed_seconds": elapsed,
            "rate_pairs_per_second": rate,
            "eta_seconds": eta,
            "budget": budget_doc,
            # wall timestamp for humans/log correlation ONLY; staleness
            # is computed from the monotonic stamp below, so an NTP
            # step or DST jump can never make /status age lie
            "updated_at": time.time(),
            "updated_monotonic": now,
        }


# ----------------------------------------------------------------------
def status_document(
    snapshot: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """The ``/status`` reply body for a published snapshot.

    Adds a serve-time ``age_seconds`` -- how long ago the scan thread
    published the snapshot -- computed from the snapshot's *monotonic*
    stamp, and drops that stamp from the wire document (a monotonic
    reading is meaningless to any other process).  The wall-clock
    ``updated_at`` stays for human correlation, but consumers checking
    staleness must use ``age_seconds``: it is immune to clock steps.
    """
    if snapshot is None:
        return None
    doc = dict(snapshot)
    stamp = doc.pop("updated_monotonic", None)
    if stamp is not None:
        doc["age_seconds"] = max(0.0, time.monotonic() - stamp)
    return doc


def _planner(doc: Dict[str, Any]) -> Optional[PlannerReport]:
    planner = doc.get("planner")
    return PlannerReport.from_snapshot(planner) if planner else None


def _profile_states(doc: Dict[str, Any]) -> Optional[int]:
    profile = doc.get("profile")
    if not profile:
        return None
    return SearchProfile.from_snapshot(profile).total_states


#: the scan's ``/metrics`` table over a ``/status`` snapshot (see
#: :func:`~repro.obs.metrics.render_status`), and so of its
#: ``--metrics`` file
SCAN_METRICS: Tuple[StatusMetric, ...] = (
    ("gauge", "repro_scan_up", "1 until the scan ends, 0 once done or interrupted",
     lambda doc: int(doc.get("state") not in ("done", "interrupted")), None),
    ("gauge", "repro_scan_interrupted", "1 when the scan was cut short by Ctrl-C",
     lambda doc: int(doc["state"] == "interrupted") if doc else None, None),
    ("gauge", "repro_scan_pairs_total", "Conflicting pairs in the scan",
     ("pairs", "total"), None),
    ("gauge", "repro_scan_pairs_done", "Pairs classified so far",
     ("pairs", "done"), None),
    ("counter", "repro_pairs_classified_total",
     "Conflicting pairs classified, by outcome",
     ("pairs", "feasible"), {"status": "feasible"}),
    ("counter", "repro_pairs_classified_total",
     "Conflicting pairs classified, by outcome",
     ("pairs", "infeasible"), {"status": "infeasible"}),
    ("counter", "repro_pairs_classified_total",
     "Conflicting pairs classified, by outcome",
     ("pairs", "unknown"), {"status": "unknown"}),
    ("planner", None, None, _planner, None),
    ("gauge", "repro_scan_elapsed_seconds", "Wall-clock duration of the scan",
     ("elapsed_seconds",), None),
    ("gauge", "repro_scan_pairs_per_second", "Observed classification rate",
     ("rate_pairs_per_second",), None),
    ("gauge", "repro_scan_eta_seconds", "Projected seconds to drain the scan",
     ("eta_seconds",), None),
    ("counter", "repro_worker_spawns_total", "Supervised workers started",
     ("worker_spawns",), None),
    ("counter", "repro_worker_crashes_total", "Supervised workers that died",
     ("worker_crashes",), None),
    ("counter", "repro_checkpoint_writes_total",
     "Pair records journaled durably", ("checkpoint_writes",), None),
    ("counter", "repro_profile_states_total",
     "Engine states attributed by the search profiler", _profile_states, None),
)


# ----------------------------------------------------------------------
#: how long one connection may stall (send nothing, trickle its body,
#: stop reading the reply): it holds one handler thread for at most
#: this long, never a worker, the scan or the accept loop
CLIENT_TIMEOUT = 10.0

#: largest accepted request body (a trace document), in bytes
MAX_BODY_BYTES = 64 << 20

#: an acceptable client-supplied ``X-Repro-Request-Id`` -- anything
#: else (too long, control characters, header-injection attempts) is
#: replaced with a generated id, never rejected
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

PROMETHEUS_TEXT = "text/plain; version=0.0.4; charset=utf-8"


class HttpError(Exception):
    """Answered with :attr:`status`, :attr:`headers` and the message as
    the JSON ``"error"``."""

    status = 500
    headers: Optional[Dict[str, str]] = None


class BadRequest(HttpError):
    """Client error; the message is served verbatim in the 400 body."""

    status = 400


class ClientGone(BadRequest):
    """The client stalled past the timeout or hung up mid-body."""


class TooLarge(HttpError):
    """Request body over :data:`MAX_BODY_BYTES`."""

    # 413, not 400: the request was well-formed, just too big -- clients
    # and proxies treat the codes differently (a 413 is retryable after
    # shrinking, a 400 is a bug).  The unread body is still on the
    # socket, so close the connection rather than parse it as a next
    # request.
    status = 413
    headers = {"Connection": "close"}


class _Handler(BaseHTTPRequestHandler):
    """One request: routes answer through :meth:`reply` and
    :meth:`reply_json`, and read a body with :meth:`read_json`."""

    server_version = "repro"

    def setup(self) -> None:
        # must happen before the stdlib applies ``self.timeout`` to the
        # connection socket
        self.timeout = self.server.app.client_timeout
        super().setup()

    def _dispatch(self) -> None:
        # honor a well-formed client id (lets callers correlate their
        # retries and logs with server traces), mint one otherwise
        claimed = self.headers.get("X-Repro-Request-Id") or ""
        self.rid = (
            claimed if _REQUEST_ID_RE.match(claimed) else uuid.uuid4().hex[:16]
        )
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = self.server.app.routes.get((self.command, path))
        if route is None:
            self.reply(404, "not found\n")
        else:
            route(self)

    do_GET = do_POST = _dispatch  # the stdlib handler API

    def reply(
        self,
        code: int,
        body: str,
        content_type: str = "text/plain; charset=utf-8",
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = body.encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            # the request-id echo: on every response, errors included
            self.send_header("X-Repro-Request-Id", self.rid)
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # impatient client; the scan/daemon must not care

    def reply_json(
        self, code: int, doc: Any, headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        self.reply(code, body, "application/json", headers)

    def read_json(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadRequest("bad Content-Length")
        if length <= 0:
            raise BadRequest("missing request body")
        if length > MAX_BODY_BYTES:
            raise TooLarge(
                f"request body is {length} bytes; this server accepts "
                f"at most {MAX_BODY_BYTES}"
            )
        try:
            data = self.rfile.read(length)
        except OSError:  # slow client hit the socket timeout
            raise ClientGone("request body not received in time")
        if len(data) < length:
            raise ClientGone("client disconnected mid-request")
        try:
            doc = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequest(f"request body is not JSON: {exc}")
        if not isinstance(doc, dict):
            raise BadRequest("request body must be a JSON object")
        return doc

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # requests are routine; stderr belongs to the progress line


#: ``(method, path) -> route``; a route is called with the request
Routes = Dict[Tuple[str, str], Callable[[_Handler], None]]


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # handler threads never block interpreter exit
    app: "HttpServer"


class HttpServer:
    """The one HTTP server: a route table on a daemon-threaded stdlib
    server (HTTP/1.0, one request per connection).

    Binds eagerly -- construction raises :class:`OSError` immediately
    when the port is taken, so the caller can fail loudly *before* it
    starts work.  ``port=0`` binds an ephemeral port (tests); the bound
    port is in :attr:`port`.  :meth:`close` is idempotent and safe from
    ``finally`` blocks: it stops the accept loop, closes the socket and
    joins the thread.
    """

    def __init__(
        self,
        routes: Routes,
        port: int,
        *,
        host: str = "127.0.0.1",
        client_timeout: float = CLIENT_TIMEOUT,
    ) -> None:
        self.routes = routes
        self.client_timeout = client_timeout
        self._httpd = _Server((host, port), _Handler)
        self._httpd.app = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "HttpServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def url(self, path: str = "/status") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


def scan_routes(board: StatusBoard) -> Routes:
    """The ``--serve`` route table over ``board``'s snapshots."""

    def readyz(req: _Handler) -> None:
        snapshot = board.latest()
        if snapshot is not None and snapshot.get("state") in READY_STATES:
            req.reply(200, "ready\n")
        else:
            req.reply(503, "not ready (starting or draining)\n")

    return {
        # liveness only: the process is up and serving.  Readiness
        # lives at /readyz -- conflating them makes an orchestrator
        # kill an instance that is merely draining.
        ("GET", "/healthz"): lambda req: req.reply(200, "ok\n"),
        ("GET", "/readyz"): readyz,
        ("GET", "/status"): lambda req: req.reply_json(
            200, status_document(board.latest())
        ),
        ("GET", "/metrics"): lambda req: req.reply(
            200, render_status(board.latest(), SCAN_METRICS), PROMETHEUS_TEXT
        ),
    }


class ObsServer(HttpServer):
    """The ``--serve`` endpoint: the one server over :func:`scan_routes`."""

    def __init__(
        self, board: StatusBoard, port: int, *, host: str = "127.0.0.1"
    ) -> None:
        super().__init__(scan_routes(board), port, host=host)


__all__ = [
    "STATUS_VERSION",
    "READY_STATES",
    "SCAN_METRICS",
    "StatusBoard",
    "HttpServer",
    "ObsServer",
    "scan_routes",
    "status_document",
]
