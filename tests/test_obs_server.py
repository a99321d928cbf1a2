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
import os
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
    render_status_metrics,
)
from repro.obs.server import status_document
from repro.races.detector import RaceDetector
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
        board.begin_scan(total=4, fingerprint="deadbeef")
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
        board.finish("done")
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

    def test_merged_planner_and_profile_surface(self):
        board = StatusBoard()
        report = PlannerReport()
        report.record_answer("engine", states=7, elapsed=0.1)
        prof = SearchProfile()
        prof.charge_search()
        prof.charge_state((3, "P", "s"))
        board.begin_scan(total=1)
        board.merge_planner(report.snapshot())
        board.merge_profile(prof.snapshot())
        board.publish()
        snap = board.latest()
        assert snap["planner"]["tiers"]["engine"]["states"] == 7
        assert snap["profile"]["choices"]["3|P|s"]["states"] == 1

    def test_providers_read_live_objects(self):
        report = PlannerReport()
        prof = SearchProfile()
        board = StatusBoard()
        board.begin_scan(
            total=1,
            planner_provider=report.snapshot,
            profile_provider=prof.snapshot,
        )
        report.record_answer("witness", states=0, elapsed=0.0)
        prof.charge_search()
        board.publish()
        snap = board.latest()
        assert snap["planner"]["tiers"]["witness"]["answered"] == 1
        assert snap["profile"]["searches"] == 1


class TestRenderStatusMetrics:
    def test_parses_before_scan(self):
        samples = _parse_prometheus(render_status_metrics(None))
        assert samples["repro_scan_up"] == 1

    def test_full_snapshot_renders_every_block(self):
        board = StatusBoard()
        board.begin_scan(total=6)
        board.pair_done(_C("feasible"))
        board.pair_done(_C("unknown"))
        report = PlannerReport()
        report.queries = 2
        report.record_answer("engine", states=11, elapsed=0.5)
        board.merge_planner(report.snapshot())
        prof = SearchProfile()
        prof.charge_search()
        prof.charge_state((1, "P", "s"))
        board.merge_profile(prof.snapshot())
        board.observe({"kind": "worker.spawn", "worker": 0})
        board.observe({"kind": "worker.crash", "worker": 0, "resource": "crash"})
        samples = _parse_prometheus(render_status_metrics(board.latest()))
        assert samples["repro_scan_pairs_total"] == 6
        assert samples["repro_scan_pairs_done"] == 2
        assert samples['repro_pairs_classified_total{status="feasible"}'] == 1
        assert samples['repro_tier_states_total{tier="engine"}'] == 11
        assert samples["repro_worker_crashes_total"] == 1
        assert samples["repro_profile_states_total"] == 1
        assert samples["repro_scan_eta_seconds"] >= 0


# ----------------------------------------------------------------------
class TestObsServer:
    def test_endpoints_over_real_http(self):
        board = StatusBoard()
        with ObsServer(board, 0) as srv:
            board.begin_scan(total=2, fingerprint="f00d")
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
            board.finish("done")
            assert _get(srv.url("/readyz"))[0] == 200

    def test_readyz_honors_a_custom_ready_callable(self):
        ready = [False]
        with ObsServer(StatusBoard(), 0, ready=lambda: ready[0]) as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(srv.url("/readyz"))
            assert excinfo.value.code == 503
            ready[0] = True
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
                board=board,
            )
            board.begin_scan(total=len(pairs))
            report = RaceDetector(exe).feasible_races(
                runner=scanner, on_classified=board.pair_done
            )
            board.finish("done")
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
        scanner = SupervisedScanner(jobs=2, board=board)
        board.begin_scan(total=len(exe.conflicting_pairs()))
        RaceDetector(exe).feasible_races(
            runner=scanner, on_classified=board.pair_done, profile=profile
        )
        board.finish("done")
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
