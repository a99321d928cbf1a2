"""The live ``--serve`` endpoint: StatusBoard, ObsServer, CLI wiring.

The acceptance scenario is tested live: a fault-injected pool scan is
polled over real HTTP while it runs; ``/status`` must show the worker
crash and restart, stay valid JSON throughout, and end with pair
counts that match the final report exactly.  ``/metrics`` must parse
as Prometheus text at every point in the scan's life.  The subprocess
tests cover the CLI contract: a taken port fails loudly with exit
status 2 before any scan work, and SIGINT during a served scan still
exits 130 cleanly with the server torn down.
"""

import json
import multiprocessing
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import faults
from repro.budget import Budget
from repro.model import serialize
from repro.obs import (
    ObsServer,
    SearchProfile,
    StatusBoard,
    render_status,
)
from repro.obs.server import (
    SCAN_METRICS,
    HttpServer,
    scan_routes,
    status_document,
)
from repro.races.detector import RaceDetector
from repro.serve import QueryDaemon, WitnessStore
from repro.serve.app import SERVE_METRICS
from repro.solve.planner import PlannerReport
from repro.supervise import RetryPolicy, SupervisedScanner

from tests.test_supervise import SRC_DIR, masking_execution, pair_fault


class _C:
    def __init__(self, status):
        self.status = status


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def _parse_prometheus(text):
    """Strict-enough Prometheus text parser: every non-comment line
    must be ``name[{labels}] value`` with a float value."""
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE ")), line
            continue
        series, value = line.rsplit(" ", 1)
        samples[series] = float(value)
    return samples


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


# ----------------------------------------------------------------------
class TestStatusBoard:
    def test_snapshot_is_complete_before_scan_starts(self):
        snap = StatusBoard().latest()
        assert snap["state"] == "starting"
        assert snap["pairs"] == {
            "total": 0, "done": 0,
            "feasible": 0, "infeasible": 0, "unknown": 0,
        }
        json.dumps(snap)  # the whole document is JSON-serializable

    def test_pair_counts_and_eta(self):
        board = StatusBoard()
        board.fingerprint = "deadbeef"
        board.begin_scan(total=4)
        board.pair_done(_C("feasible"))
        board.pair_done(_C("unknown"))
        snap = board.latest()
        assert snap["state"] == "scanning"
        assert snap["fingerprint"] == "deadbeef"
        assert snap["pairs"]["done"] == 2
        assert snap["pairs"]["feasible"] == 1
        assert snap["pairs"]["unknown"] == 1
        assert snap["rate_pairs_per_second"] > 0
        assert snap["eta_seconds"] is not None
        board.pair_done(_C("infeasible"))
        board.pair_done(_C("infeasible"))
        board.set_state("done")
        snap = board.latest()
        assert snap["state"] == "done"
        assert snap["pairs"]["done"] == snap["pairs"]["total"] == 4
        assert snap["eta_seconds"] == 0.0

    def test_precomputed_pairs_count_but_not_toward_rate(self):
        board = StatusBoard()
        board.begin_scan(total=10)
        for _ in range(5):
            board.pair_done(_C("infeasible"), fresh=False)
        snap = board.latest()
        assert snap["pairs"]["done"] == 5
        # replayed pairs arrive instantly; projecting the remaining 5
        # from them would promise an absurd ETA
        assert snap["rate_pairs_per_second"] in (None, 0.0)
        assert snap["eta_seconds"] is None

    def test_worker_lifecycle_table(self):
        board = StatusBoard()
        board.begin_scan(total=3)
        board.observe({"kind": "worker.spawn", "worker": 0})
        board.observe({"kind": "worker.ready", "worker": 0})
        board.observe({"kind": "worker.dispatch", "worker": 0, "a": 1, "b": 5})
        snap = board.latest()
        assert snap["workers"]["0"]["state"] == "busy"
        assert snap["workers"]["0"]["pair"] == [1, 5]
        board.observe({"kind": "worker.result", "worker": 0, "a": 1, "b": 5})
        board.observe({"kind": "worker.crash", "worker": 0, "resource": "crash"})
        board.observe({"kind": "worker.retire", "worker": 0})
        snap = board.latest()
        w = snap["workers"]["0"]
        assert w["results"] == 1 and w["crashes"] == 1 and not w["alive"]
        assert w["state"].startswith("crashed")
        assert snap["worker_crashes"] == 1 and snap["worker_spawns"] == 1
        # non-worker records are ignored, not crashed on
        board.observe({"kind": "pair", "a": 1, "b": 5, "status": "feasible"})
        board.observe({"kind": "worker.retry", "a": 1, "b": 5, "attempt": 1})

    def test_staleness_is_monotonic_not_wall_clock(self):
        board = StatusBoard()
        board.begin_scan(total=1)
        snap = board.latest()
        # the snapshot carries both stamps: wall-clock for humans,
        # monotonic for staleness
        assert "updated_at" in snap and "updated_monotonic" in snap
        doc = status_document(snap)
        assert doc["age_seconds"] >= 0.0
        # the monotonic reading is meaningless to another process
        assert "updated_monotonic" not in doc
        # a wall-clock step (NTP, DST) must not change the served age
        stepped = dict(snap)
        stepped["updated_at"] = snap["updated_at"] - 3600.0
        assert status_document(stepped)["age_seconds"] < 60.0
        # age tracks the monotonic distance from publish to serve
        past = dict(snap)
        past["updated_monotonic"] = snap["updated_monotonic"] - 5.0
        assert status_document(past)["age_seconds"] >= 5.0

    def test_status_document_passes_none_through(self):
        assert status_document(None) is None

    def test_budget_caps_eta(self):
        board = StatusBoard()
        board.begin_scan(total=1000, budget=Budget.of(timeout=0.0))
        board.pair_done(_C("feasible"))
        snap = board.latest()
        assert snap["budget"]["remaining_seconds"] == 0.0
        assert snap["eta_seconds"] == 0.0  # the deadline cuts the scan

    def test_planner_and_profile_surface(self):
        board = StatusBoard()
        report = PlannerReport()
        report.record_answer("engine", states=7, elapsed=0.1)
        prof = SearchProfile()
        prof.charge_search()
        prof.charge_state((3, "P", "s"))
        board.begin_scan(total=1)
        board.planner, board.profile = report, prof
        board.publish()
        snap = board.latest()
        assert snap["planner"]["tiers"]["engine"]["states"] == 7
        assert snap["profile"]["choices"]["3|P|s"]["states"] == 1

    def test_board_reads_the_live_objects(self):
        report = PlannerReport()
        prof = SearchProfile()
        board = StatusBoard()
        board.begin_scan(total=1)
        board.planner, board.profile = report, prof
        report.record_answer("witness", states=0, elapsed=0.0)
        prof.charge_search()
        board.publish()
        snap = board.latest()
        assert snap["planner"]["tiers"]["witness"]["answered"] == 1
        assert snap["profile"]["searches"] == 1


class TestRenderStatusMetrics:
    def test_parses_before_scan(self):
        samples = _parse_prometheus(render_status(None, SCAN_METRICS))
        assert samples["repro_scan_up"] == 1

    def test_full_snapshot_renders_every_block(self):
        board = StatusBoard()
        board.begin_scan(total=6)
        board.pair_done(_C("feasible"))
        board.pair_done(_C("unknown"))
        report = PlannerReport()
        report.queries = 2
        report.record_answer("engine", states=11, elapsed=0.5)
        prof = SearchProfile()
        prof.charge_search()
        prof.charge_state((1, "P", "s"))
        board.planner, board.profile = report, prof
        board.observe({"kind": "worker.spawn", "worker": 0})
        board.observe({"kind": "worker.crash", "worker": 0, "resource": "crash"})
        samples = _parse_prometheus(render_status(board.latest(), SCAN_METRICS))
        assert samples["repro_scan_pairs_total"] == 6
        assert samples["repro_scan_pairs_done"] == 2
        assert samples['repro_pairs_classified_total{status="feasible"}'] == 1
        assert samples['repro_tier_states_total{tier="engine"}'] == 11
        assert samples["repro_worker_crashes_total"] == 1
        assert samples["repro_profile_states_total"] == 1
        assert samples["repro_scan_eta_seconds"] >= 0

    @pytest.mark.parametrize(
        "state, up",
        [("starting", 1), ("scanning", 1), ("draining", 1),
         ("done", 0), ("interrupted", 0)],
    )
    def test_scan_up_reads_the_board_state(self, state, up):
        board = StatusBoard()
        board.begin_scan(total=1)
        board.set_state(state)
        samples = _parse_prometheus(render_status(board.latest(), SCAN_METRICS))
        assert samples["repro_scan_up"] == up


# ----------------------------------------------------------------------
class TestObsServer:
    def test_endpoints_over_real_http(self):
        board = StatusBoard()
        with ObsServer(board, 0) as srv:
            board.fingerprint = "f00d"
            board.begin_scan(total=2)
            board.pair_done(_C("feasible"))
            status, body = _get(srv.url("/healthz"))
            assert status == 200 and body == "ok\n"
            status, body = _get(srv.url("/status"))
            assert status == 200
            doc = json.loads(body)
            assert doc["fingerprint"] == "f00d"
            assert doc["pairs"]["feasible"] == 1
            assert doc["age_seconds"] >= 0.0
            assert "updated_monotonic" not in doc
            status, body = _get(srv.url("/metrics"))
            assert status == 200
            assert _parse_prometheus(body)["repro_scan_pairs_done"] == 1

    def test_readyz_splits_readiness_from_liveness(self):
        board = StatusBoard()
        with ObsServer(board, 0) as srv:
            # alive but not ready: still starting up
            assert _get(srv.url("/healthz"))[0] == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv.url("/readyz"))
            assert excinfo.value.code == 503
            assert "not ready" in excinfo.value.read().decode()
            board.begin_scan(total=1)
            status, body = _get(srv.url("/readyz"))
            assert status == 200 and body == "ready\n"
            # draining flips readiness back off while liveness holds
            board.set_state("draining")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv.url("/readyz"))
            assert excinfo.value.code == 503
            assert _get(srv.url("/healthz"))[0] == 200
            board.set_state("done")
            assert _get(srv.url("/readyz"))[0] == 200

    def test_unknown_path_is_404(self):
        with ObsServer(StatusBoard(), 0) as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv.url("/nope"))
            assert excinfo.value.code == 404

    def test_port_in_use_raises_eagerly(self):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            with pytest.raises(OSError):
                ObsServer(StatusBoard(), taken.getsockname()[1])
        finally:
            taken.close()

    def test_close_is_idempotent_and_releases_the_port(self):
        srv = ObsServer(StatusBoard(), 0).start()
        port = srv.port
        srv.close()
        srv.close()
        rebound = ObsServer(StatusBoard(), port).start()
        rebound.close()


# ----------------------------------------------------------------------
# /metrics golden sets: for fixed status documents, every HELP/TYPE
# line and sample of both surfaces' exposition is pinned, so a table
# edit cannot silently rename, relabel or revalue a scraped series
GOLDEN_SCAN_DOC = {
    "service": "repro",
    "status_version": 1,
    "state": "scanning",
    "fingerprint": "f00d",
    "pairs": {
        "total": 6, "done": 4, "feasible": 2, "infeasible": 1, "unknown": 1,
    },
    "planner": {
        "queries": 9,
        "unknown": 1,
        "tiers": {
            "engine": {"answered": 2, "states": 40, "elapsed": 0.5},
            "structural": {"answered": 5, "states": 0, "elapsed": 0.25},
        },
    },
    "profile": {
        "version": 1,
        "searches": 2,
        "choices": {
            "3|P|s": {
                "chosen": 1, "states": 7, "dead_ends": 0, "backtracks": 0,
            },
            "5|V|s": {
                "chosen": 2, "states": 5, "dead_ends": 1, "backtracks": 1,
            },
        },
    },
    "workers": {
        "0": {"alive": True, "state": "busy", "pair": [1, 5],
              "results": 3, "crashes": 1},
    },
    "worker_spawns": 3,
    "worker_crashes": 1,
    "checkpoint_writes": 4,
    "engine_states": 40,
    "elapsed_seconds": 2.5,
    "rate_pairs_per_second": 1.5,
    "eta_seconds": 1.25,
    "budget": None,
    "updated_at": 1000.0,
    "age_seconds": 0.0,
}

GOLDEN_SERVE_DOC = {
    "service": "repro-serve",
    "state": "degraded",
    "uptime_seconds": 12.5,
    "requests": {"queries": 7, "unknown": 2, "errors": 1},
    "http": {"POST /query": 7, "POST /executions": 3},
    "observability": {
        "client_disconnects": 2,
        "trace_enabled": True,
        "trace_dropped": 5,
        "slow_threshold_seconds": 1.0,
        "client_timeout_seconds": 10.0,
    },
    "degraded": {"seconds": 3.0, "recoveries": 1, "rejected_read_only": 4},
    "admission": {"active": 1, "rejected_busy": 6, "rejected_draining": 2},
    "pool": {"spawns": 3, "crashes": 2, "retries": 1},
    "store": {
        "executions": 4, "witnesses": 9, "quarantined": 1,
        "flush_failures": 3, "evictions": 2, "compactions": 1,
    },
}

GOLDEN_SCAN_NONE_METRICS = """\
# HELP repro_scan_up 1 until the scan ends, 0 once done or interrupted
# TYPE repro_scan_up gauge
repro_scan_up 1
"""

GOLDEN_SCAN_METRICS = """\
# HELP repro_scan_up 1 until the scan ends, 0 once done or interrupted
# TYPE repro_scan_up gauge
repro_scan_up 1
# HELP repro_scan_interrupted 1 when the scan was cut short by Ctrl-C
# TYPE repro_scan_interrupted gauge
repro_scan_interrupted 0
# HELP repro_scan_pairs_total Conflicting pairs in the scan
# TYPE repro_scan_pairs_total gauge
repro_scan_pairs_total 6
# HELP repro_scan_pairs_done Pairs classified so far
# TYPE repro_scan_pairs_done gauge
repro_scan_pairs_done 4
# HELP repro_pairs_classified_total Conflicting pairs classified, by outcome
# TYPE repro_pairs_classified_total counter
repro_pairs_classified_total{status="feasible"} 2
repro_pairs_classified_total{status="infeasible"} 1
repro_pairs_classified_total{status="unknown"} 1
# HELP repro_planner_queries_total Primitive planner queries posed
# TYPE repro_planner_queries_total counter
repro_planner_queries_total 9
# HELP repro_planner_unknown_total Planner ladder fall-throughs
# TYPE repro_planner_unknown_total counter
repro_planner_unknown_total 1
# HELP repro_tier_answered_total Queries settled, by planner tier
# TYPE repro_tier_answered_total counter
repro_tier_answered_total{tier="engine"} 2
repro_tier_answered_total{tier="structural"} 5
# HELP repro_tier_states_total Search states charged, by planner tier
# TYPE repro_tier_states_total counter
repro_tier_states_total{tier="engine"} 40
repro_tier_states_total{tier="structural"} 0
# HELP repro_tier_elapsed_seconds_total Time charged, by planner tier
# TYPE repro_tier_elapsed_seconds_total counter
repro_tier_elapsed_seconds_total{tier="engine"} 0.5
repro_tier_elapsed_seconds_total{tier="structural"} 0.25
# HELP repro_engine_states_per_second Exact-search throughput over the whole scan
# TYPE repro_engine_states_per_second gauge
repro_engine_states_per_second 80
# HELP repro_scan_elapsed_seconds Wall-clock duration of the scan
# TYPE repro_scan_elapsed_seconds gauge
repro_scan_elapsed_seconds 2.5
# HELP repro_scan_pairs_per_second Observed classification rate
# TYPE repro_scan_pairs_per_second gauge
repro_scan_pairs_per_second 1.5
# HELP repro_scan_eta_seconds Projected seconds to drain the scan
# TYPE repro_scan_eta_seconds gauge
repro_scan_eta_seconds 1.25
# HELP repro_worker_spawns_total Supervised workers started
# TYPE repro_worker_spawns_total counter
repro_worker_spawns_total 3
# HELP repro_worker_crashes_total Supervised workers that died
# TYPE repro_worker_crashes_total counter
repro_worker_crashes_total 1
# HELP repro_checkpoint_writes_total Pair records journaled durably
# TYPE repro_checkpoint_writes_total counter
repro_checkpoint_writes_total 4
# HELP repro_profile_states_total Engine states attributed by the search profiler
# TYPE repro_profile_states_total counter
repro_profile_states_total 12
"""

GOLDEN_SERVE_METRICS = """\
# HELP repro_serve_up 1 while the daemon serves
# TYPE repro_serve_up gauge
repro_serve_up 1
# HELP repro_serve_ready 1 while accepting new queries
# TYPE repro_serve_ready gauge
repro_serve_ready 0
# HELP repro_serve_degraded 1 while in degraded read-only mode
# TYPE repro_serve_degraded gauge
repro_serve_degraded 1
# HELP repro_serve_recoveries_total Degraded-to-serving recoveries
# TYPE repro_serve_recoveries_total counter
repro_serve_recoveries_total 1
# HELP repro_serve_rejected_read_only_total Writes refused with 507 while degraded
# TYPE repro_serve_rejected_read_only_total counter
repro_serve_rejected_read_only_total 4
# HELP repro_serve_uptime_seconds Daemon uptime
# TYPE repro_serve_uptime_seconds gauge
repro_serve_uptime_seconds 12.5
# HELP repro_serve_queries_total Queries answered
# TYPE repro_serve_queries_total counter
repro_serve_queries_total 7
# HELP repro_serve_unknown_total Queries answered UNKNOWN
# TYPE repro_serve_unknown_total counter
repro_serve_unknown_total 2
# HELP repro_serve_errors_total Requests that failed internally
# TYPE repro_serve_errors_total counter
repro_serve_errors_total 1
# HELP repro_serve_active_requests Admitted, not yet released
# TYPE repro_serve_active_requests gauge
repro_serve_active_requests 1
# HELP repro_serve_rejected_total Requests refused at admission, by reason
# TYPE repro_serve_rejected_total counter
repro_serve_rejected_total{reason="busy"} 6
repro_serve_rejected_total{reason="draining"} 2
# HELP repro_worker_spawns_total Query workers started
# TYPE repro_worker_spawns_total counter
repro_worker_spawns_total 3
# HELP repro_worker_crashes_total Query workers that died
# TYPE repro_worker_crashes_total counter
repro_worker_crashes_total 2
# HELP repro_serve_retries_total Query attempts retried
# TYPE repro_serve_retries_total counter
repro_serve_retries_total 1
# HELP repro_store_executions Executions in the witness store
# TYPE repro_store_executions gauge
repro_store_executions 4
# HELP repro_store_witnesses Validated schedules resident
# TYPE repro_store_witnesses gauge
repro_store_witnesses 9
# HELP repro_store_quarantined_total Corrupt files quarantined
# TYPE repro_store_quarantined_total counter
repro_store_quarantined_total 1
# HELP repro_store_flush_failures_total Durable flushes that failed
# TYPE repro_store_flush_failures_total counter
repro_store_flush_failures_total 3
# HELP repro_store_evictions_total Entries evicted by the LRU cap
# TYPE repro_store_evictions_total counter
repro_store_evictions_total 2
# HELP repro_store_compactions_total Store compaction passes
# TYPE repro_store_compactions_total counter
repro_store_compactions_total 1
# HELP repro_serve_http_requests_total Completed requests, by tracked endpoint
# TYPE repro_serve_http_requests_total counter
repro_serve_http_requests_total{endpoint="POST /executions"} 3
repro_serve_http_requests_total{endpoint="POST /query"} 7
# HELP repro_serve_client_disconnects_total Requests whose client vanished or stalled past --client-timeout
# TYPE repro_serve_client_disconnects_total counter
repro_serve_client_disconnects_total 2
# HELP repro_serve_trace_dropped_total Trace records dropped by the bounded/failing sink
# TYPE repro_serve_trace_dropped_total counter
repro_serve_trace_dropped_total 5
"""
class TestRenderStatus:
    """Both surfaces' /metrics tables against the golden sets."""

    @staticmethod
    def _lines(text):
        return set(text.splitlines())

    def test_scan_table_matches_golden(self):
        assert self._lines(
            render_status(GOLDEN_SCAN_DOC, SCAN_METRICS)
        ) == self._lines(GOLDEN_SCAN_METRICS)
        assert self._lines(
            render_status(None, SCAN_METRICS)
        ) == self._lines(GOLDEN_SCAN_NONE_METRICS)

    def test_daemon_table_matches_golden(self):
        assert self._lines(
            render_status(GOLDEN_SERVE_DOC, SERVE_METRICS)
        ) == self._lines(GOLDEN_SERVE_METRICS)


# ----------------------------------------------------------------------
class _ScanSurface:
    """The scan's route table on the one server."""

    def __init__(self, tmp_path):
        self.board = StatusBoard()

    def build(self, port=0):
        return ObsServer(self.board, port)

    def start(self, srv):
        srv.start()
        self.board.begin_scan(total=1)
        return srv

    def drain(self, srv):
        self.board.set_state("draining")


class _DaemonSurface:
    """The daemon's route table on the one server."""

    def __init__(self, tmp_path):
        self.root = tmp_path / "store"

    def build(self, port=0):
        return QueryDaemon(WitnessStore(str(self.root)), port=port, workers=1)

    def start(self, srv):
        return srv.start()

    def drain(self, srv):
        srv.drain(grace=5.0)


def _pool_threads():
    return {t for t in threading.enumerate() if t.name == "repro-query-pool"}


@pytest.fixture(params=[_ScanSurface, _DaemonSurface], ids=["scan", "daemon"])
def surface(request, tmp_path):
    return request.param(tmp_path)


class TestHttpContract:
    """The contract the one server gives both front ends."""

    def test_liveness_and_readiness_across_start_and_drain(self, surface):
        srv = surface.start(surface.build())
        try:
            assert _get(srv.url("/healthz")) == (200, "ok\n")
            assert _get(srv.url("/readyz")) == (200, "ready\n")
            surface.drain(srv)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv.url("/readyz"))
            excinfo.value.close()
            assert excinfo.value.code == 503
            assert _get(srv.url("/healthz"))[0] == 200
        finally:
            srv.close()

    def test_unknown_method_and_path_is_404(self, surface):
        srv = surface.start(surface.build())
        try:
            for method in ("GET", "POST"):
                req = urllib.request.Request(
                    srv.url("/nope"), data=b"{}", method=method
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(req, timeout=10.0)
                excinfo.value.close()
                assert excinfo.value.code == 404
            # a known path under a method it is not routed for
            req = urllib.request.Request(
                srv.url("/healthz"), data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=10.0)
            excinfo.value.close()
            assert excinfo.value.code == 404
        finally:
            srv.close()

    def test_request_id_is_echoed_on_every_reply(self, surface):
        srv = surface.start(surface.build())
        try:
            for path in ("/healthz", "/status", "/metrics", "/nope"):
                req = urllib.request.Request(srv.url(path))
                req.add_header("X-Repro-Request-Id", "probe-7")
                try:
                    with urllib.request.urlopen(req, timeout=10.0) as resp:
                        headers = resp.headers
                except urllib.error.HTTPError as exc:  # the 404
                    headers = exc.headers
                    exc.close()
                assert headers["X-Repro-Request-Id"] == "probe-7", path
            # a malformed claim is replaced with a minted id
            req = urllib.request.Request(srv.url("/healthz"))
            req.add_header("X-Repro-Request-Id", "spaces are not ok")
            with urllib.request.urlopen(req, timeout=10.0) as resp:
                minted = resp.headers["X-Repro-Request-Id"]
            assert re.fullmatch(r"[A-Za-z0-9._-]{1,64}", minted)
        finally:
            srv.close()

    def test_port_in_use_raises_at_construction(self, surface):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        before = _pool_threads()
        children = set(multiprocessing.active_children())
        try:
            with pytest.raises(OSError):
                surface.build(taken.getsockname()[1])
        finally:
            taken.close()
        # a daemon that failed to bind closed the pool it had started
        deadline = time.monotonic() + 10.0
        while any(t.is_alive() for t in _pool_threads() - before):
            assert time.monotonic() < deadline, "leaked a query pool"
            time.sleep(0.05)
        assert set(multiprocessing.active_children()) <= children

    def test_close_is_idempotent_and_releases_the_port(self, surface):
        srv = surface.start(surface.build())
        port = srv.port
        srv.close()
        srv.close()
        rebound = surface.start(surface.build(port))
        assert _get(rebound.url("/healthz"))[0] == 200
        rebound.close()

    def test_idle_connection_is_closed_within_the_client_timeout(self):
        """A connection that never sends a request holds one handler
        thread for at most the client timeout, while others are served."""
        board = StatusBoard()
        with HttpServer(scan_routes(board), 0, client_timeout=0.5) as srv:
            idle = socket.create_connection((srv.host, srv.port), timeout=10.0)
            try:
                t0 = time.monotonic()
                assert _get(srv.url("/healthz"))[0] == 200
                assert idle.recv(1) == b""  # the server hung up
                assert time.monotonic() - t0 < 5.0
            finally:
                idle.close()


# ----------------------------------------------------------------------
class TestServedLiveScan:
    def test_crashy_pool_scan_polled_over_http(self):
        """The acceptance scenario: poll /status and /metrics over real
        HTTP while a fault-injected pool scan runs.  Every poll must be
        valid, the crash and replacement worker must show, and the
        final counts must equal the report's."""
        exe = masking_execution(4)
        pairs = exe.conflicting_pairs()
        board = StatusBoard()
        polled, stop = [], threading.Event()

        with ObsServer(board, 0) as srv:
            def poll():
                while not stop.is_set():
                    try:
                        _, sbody = _get(srv.url("/status"), timeout=2.0)
                        _, mbody = _get(srv.url("/metrics"), timeout=2.0)
                    except OSError:
                        continue  # scan may outpace a poll; keep going
                    polled.append(json.loads(sbody))
                    _parse_prometheus(mbody)
                    time.sleep(0.01)

            poller = threading.Thread(target=poll, daemon=True)
            poller.start()
            # pairs[0] (dispatched first) dies while the second worker
            # is pinned on pairs[1], so pending work remains when the
            # crash is handled and the pool must spawn a replacement
            # worker -- the restart /status must show
            faults.arm(";".join([
                pair_fault(pairs[0], "segv"),
                pair_fault(pairs[1], "hang:1.0"),
            ]))
            scanner = SupervisedScanner(
                jobs=2,
                retry=RetryPolicy(max_retries=0, backoff_base=0.01),
            )
            report = RaceDetector(exe).feasible_races(
                runner=scanner, board=board
            )
            _, body = _get(srv.url("/status"))
            final = json.loads(body)
            stop.set()
            poller.join(timeout=10)

        assert final["state"] == "done"
        assert final["worker_crashes"] >= 1
        assert final["worker_spawns"] >= 3  # 2 initial + the restart
        assert any(w["crashes"] for w in final["workers"].values())
        counts = {"feasible": 0, "infeasible": 0, "unknown": 0}
        for c in report.classifications:
            counts[c.status] += 1
        assert final["pairs"]["done"] == len(report.classifications)
        assert {k: final["pairs"][k] for k in counts} == counts
        # per-worker planner tallies were merged as results arrived
        assert final["planner"]["queries"] > 0
        assert polled, "the scan finished before a single poll landed"
        for snap in polled:
            assert snap["pairs"]["done"] <= snap["pairs"]["total"]

    def test_status_profile_matches_scan_profile(self):
        exe = masking_execution(3)
        board = StatusBoard()
        profile = SearchProfile()
        scanner = SupervisedScanner(jobs=2)
        RaceDetector(exe).feasible_races(
            runner=scanner, profile=profile, board=board
        )
        assert board.latest()["profile"] == profile.snapshot()


# ----------------------------------------------------------------------
needs_posix_kill = pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs POSIX process groups"
)


def _spawn_served_scan(exe_path, port, failpoints=None, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable, "-m", "repro", "races", str(exe_path),
        "--jobs", "2", "--serve", str(port), *extra,
    ]
    if failpoints is not None:
        argv += ["--failpoints", failpoints]
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )


def _wait_for_status(port, timeout=60.0):
    deadline = time.monotonic() + timeout
    url = f"http://127.0.0.1:{port}/status"
    while time.monotonic() < deadline:
        try:
            return json.loads(_get(url, timeout=2.0)[1])
        except OSError:
            time.sleep(0.05)
    raise AssertionError("served scan never answered /status")


class TestCliServe:
    def test_port_in_use_exits_2_with_one_loud_line(self, tmp_path):
        exe_path = tmp_path / "exe.json"
        serialize.save(masking_execution(2), str(exe_path))
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            port = taken.getsockname()[1]
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "races", str(exe_path),
                 "--feasible", "--serve", str(port)],
                capture_output=True, text=True, env=env, timeout=120,
            )
        finally:
            taken.close()
        assert proc.returncode == 2
        errs = [l for l in proc.stderr.splitlines() if l.strip()]
        assert errs == [
            f"repro: cannot serve on port {port}: {errs[0].split(': ', 2)[2]}"
        ]
        assert "cannot serve on port" in errs[0]
        # it failed before scanning: no feasible report was printed
        assert "feasible races" not in proc.stdout

    @needs_posix_kill
    def test_sigint_during_served_scan_shuts_down_cleanly(self, tmp_path):
        if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
            pytest.skip("SIGINT is ignored in this environment")
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        port = _free_port()
        proc = _spawn_served_scan(
            exe_path, port,
            # one pair hangs forever, so the scan is guaranteed to be
            # mid-flight (and the server guaranteed up) when we look
            failpoints=pair_fault(pairs[0], "hang:600"),
        )
        try:
            try:
                doc = _wait_for_status(port)
                assert doc["state"] in ("starting", "scanning")
                assert doc["pairs"]["total"] == len(pairs)
            finally:
                os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 130
        assert b"interrupted" in err
        # the server died with the scan: the port is closed again
        with pytest.raises(OSError):
            _get(f"http://127.0.0.1:{port}/healthz", timeout=2.0)
