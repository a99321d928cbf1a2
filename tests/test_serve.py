"""The ``repro serve`` daemon: store, admission, pool, HTTP, faults.

The fault-injection matrix from the issue is tested end-to-end: under
worker segv/oom/hang, a corrupt store file, a disk-full flush, a
disconnecting client and SIGTERM mid-request, the daemon never goes
down and never serves a wrong verdict -- degraded answers are an
explicit UNKNOWN carrying the resource that ran out.  The acceptance
criterion for the persistent witness store is asserted via planner
tier counts: a repeat query against a *restarted* daemon (fresh
workers, no warm in-process cache) must be answered by the ``witness``
tier with zero engine states.
"""

import gc
import json
import logging
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
import tracemalloc
import urllib.error
import urllib.request

import pytest

from repro import faults
from repro.model import serialize
from repro.races.detector import RaceDetector
from repro.serve import (
    AdmissionQueue,
    Draining,
    Overloaded,
    QueryDaemon,
    WitnessStore,
)
from repro.serve.store import STORE_FORMAT, STORE_VERSION
from repro.supervise import ResourceLimits, RetryPolicy
from repro.supervise.checkpoint import CheckpointJournal, scan_fingerprint
from repro.supervise.pool import QueryWorkerPool

from tests.test_supervise import SRC_DIR, masking_execution, pair_fault


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def _post(url, body, timeout=120.0, headers=None):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _recorded(daemon, requests, timeout=10.0):
    """Wait until ``daemon`` has recorded ``requests`` tracked requests.
    A request is recorded (debug rings, /status counts, metrics, trace)
    just after its response is written, so a client's next request can
    overtake the record of its previous one."""
    deadline = time.monotonic() + timeout
    while True:
        http = json.loads(_get(daemon.url("/status"))[1])["http"]
        if sum(http.values()) >= requests:
            return
        assert time.monotonic() < deadline, "requests never recorded"
        time.sleep(0.01)


def _query_request(exe, relation="ccw", pair=None, **extra):
    """A QueryWorkerPool request dict, the daemon's wire shape."""
    if pair is None:
        pair = exe.conflicting_pairs()[0]
    if relation == "feasible":
        pair = (None, None)  # no event pair: fault injection can't key it
    req = {
        "fingerprint": serialize.execution_fingerprint(exe),
        "execution": serialize.execution_to_dict(exe),
        "relation": relation,
        "a": pair[0],
        "b": pair[1],
        "witnesses": [],
    }
    req.update(extra)
    return req


def _running(pid):
    """Whether ``pid`` is a process that has not exited (a zombie
    waiting for its reaper has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _ccw_true_pair(exe):
    """An event pair whose CCW verdict is TRUE but which a *fresh*
    planner must hand to the exact engine -- so the first daemon query
    discovers a witness worth persisting, and a repeat answered by the
    ``witness`` tier proves the store (not the cheap tiers) served it."""
    import itertools

    from repro.solve.context import SolveContext
    from repro.solve.planner import QueryPlanner, tier_of

    fallback = None
    for a, b in itertools.combinations(sorted(exe.eids), 2):
        planner = QueryPlanner(SolveContext(exe))  # fresh: no warm cache
        v = planner.ccw_verdict(a, b)
        if str(v.truth) != "TRUE":
            continue
        if tier_of(v.provenance) == "engine":
            return a, b
        fallback = (a, b)
    if fallback is not None:
        return fallback
    raise AssertionError("no CCW-true pair in this execution")


def engine_states(planner_snapshot):
    tiers = (planner_snapshot or {}).get("tiers", {})
    return tiers.get("engine", {}).get("states", 0)


# ----------------------------------------------------------------------
class TestWitnessStore:
    def test_roundtrip_survives_restart(self, tmp_path):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        assert fp in store
        assert store.points_for(fp)  # the observed schedule, validated
        assert store.flush() == 1
        reloaded = WitnessStore(str(tmp_path))
        assert reloaded.fingerprints() == [fp]
        assert reloaded.points_for(fp) == store.points_for(fp)
        assert reloaded.quarantined == 0

    def test_put_execution_is_idempotent(self, tmp_path):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        assert store.put_execution(exe) == store.put_execution(exe)
        assert store.stats()["executions"] == 1

    def test_corrupt_witness_file_quarantined_and_rebuilt(
        self, tmp_path, caplog
    ):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        store.flush()
        wit_path = tmp_path / fp / "witnesses.json"
        wit_path.write_text("{ not json")
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reloaded = WitnessStore(str(tmp_path))
        assert "quarantined" in caplog.text and "rebuilding" in caplog.text
        assert reloaded.quarantined == 1
        # evidence preserved, entry rebuilt from the source trace
        assert (tmp_path / fp / "witnesses.json.corrupt-1").exists()
        assert reloaded.points_for(fp)
        assert reloaded.stats()["dirty"] == 1
        assert reloaded.flush() == 1
        assert WitnessStore(str(tmp_path)).points_for(fp)

    def test_wrong_version_is_corruption_too(self, tmp_path, caplog):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        store.flush()
        wit_path = tmp_path / fp / "witnesses.json"
        doc = json.loads(wit_path.read_text())
        doc["version"] = STORE_VERSION + 1
        wit_path.write_text(json.dumps(doc))
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reloaded = WitnessStore(str(tmp_path))
        assert reloaded.quarantined == 1
        assert reloaded.points_for(fp)

    def test_unreadable_execution_quarantines_the_directory(
        self, tmp_path, caplog
    ):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        store.flush()
        (tmp_path / fp / "execution.json").write_text("garbage")
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reloaded = WitnessStore(str(tmp_path))
        assert "unreadable execution" in caplog.text
        assert reloaded.quarantined == 1
        assert fp not in reloaded
        assert (tmp_path / f"{fp}.corrupt-1").is_dir()

    def test_renamed_directory_fails_the_fingerprint_check(
        self, tmp_path, caplog
    ):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        store.flush()
        fake = "0" * 64
        os.rename(tmp_path / fp, tmp_path / fake)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reloaded = WitnessStore(str(tmp_path))
        assert "hashes differently" in caplog.text
        assert reloaded.quarantined == 1
        assert fake not in reloaded

    def test_invalid_schedules_dropped_on_load(self, tmp_path, caplog):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        store.flush()
        wit_path = tmp_path / fp / "witnesses.json"
        doc = json.loads(wit_path.read_text())
        # well-formed file, impossible schedule: must fail replay
        doc["witnesses"].append({"points": [[99, 0], [99, 1]]})
        wit_path.write_text(json.dumps(doc))
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            reloaded = WitnessStore(str(tmp_path))
        assert "failed replay validation" in caplog.text
        assert reloaded.quarantined == 0  # the file itself was honest
        assert reloaded.points_for(fp) == store.points_for(fp)
        assert reloaded.stats()["dirty"] == 1  # rewritten without the junk

    def test_add_points_revalidates(self, tmp_path):
        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)
        before = len(store.points_for(fp))
        assert store.add_points(fp, [[[99, 0], [99, 1]]]) == 0
        assert len(store.points_for(fp)) == before
        assert store.add_points("f" * 64, store.points_for(fp)) == 0

    def test_failed_flush_keeps_serving_from_memory(
        self, tmp_path, caplog, monkeypatch
    ):
        from repro.serve import store as store_mod

        exe = masking_execution(2)
        store = WitnessStore(str(tmp_path))
        fp = store.put_execution(exe)

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_mod, "atomic_write_text", full_disk)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            assert store.flush() == 0
        assert "flush" in caplog.text and "serving from memory" in caplog.text
        assert store.flush_failures == 1
        assert store.stats()["dirty"] == 1
        assert store.points_for(fp)  # still answering
        monkeypatch.undo()
        assert store.flush() == 1  # the next flush retries and succeeds
        assert store.stats()["dirty"] == 0

    def test_store_written_by_the_previous_format_reloads_identically(
        self, tmp_path
    ):
        """``tests/data/legacy_store`` was written by the store while its
        entries still held a live execution plus a WitnessCache (one
        witness file hand-damaged with a schedule that cannot replay).
        ``expected.json`` records what that code reported after
        reloading it, and what its compaction wrote.  The compact
        entries must agree byte for byte."""
        data = os.path.join(os.path.dirname(__file__), "data", "legacy_store")
        with open(os.path.join(data, "expected.json")) as fh:
            expected = json.load(fh)
        root = str(tmp_path / "store")
        shutil.copytree(os.path.join(data, "store"), root)
        store = WitnessStore(root)
        assert store.stats() == expected["stats"]
        for fp, points in expected["points"].items():
            assert store.points_for(fp) == points
        assert store.compact() == len(expected["points"])
        for fp, witnesses_text in expected["compacted"].items():
            with open(os.path.join(data, "store", fp, "execution.json")) as fh:
                execution_text = fh.read()
            with open(os.path.join(root, fp, "execution.json")) as fh:
                assert fh.read() == execution_text
            with open(os.path.join(root, fp, "witnesses.json")) as fh:
                assert fh.read() == witnesses_text
            # put + add + flush from scratch writes the same two files
            fresh = WitnessStore(str(tmp_path / "fresh"))
            exe = serialize.loads(execution_text)
            assert fresh.put_execution(exe) == fp
            fresh.add_points(fp, expected["points"][fp])
            fresh.flush()
            with open(tmp_path / "fresh" / fp / "execution.json") as fh:
                assert fh.read() == execution_text
            with open(tmp_path / "fresh" / fp / "witnesses.json") as fh:
                assert fh.read() == witnesses_text

    def test_entries_are_compact_and_hold_no_execution(self, tmp_path):
        """A stored entry keeps text, model, event count and schedules
        -- no ProgramExecution -- and costs at most 4.5 KB resident
        (serve-rw-sized executions: 8 events, ~2.5 KB of JSON)."""
        from repro.model.execution import ProgramExecution
        from repro.solve.context import SolveContext
        from repro.solve.planner import QueryPlanner

        base = masking_execution(3)
        planner = QueryPlanner(SolveContext(base))
        a, b = _ccw_true_pair(base)
        mark = planner.ctx.witnesses.mark()
        planner.ccw_verdict(a, b)
        found = planner.ctx.witnesses.points_since(mark)
        doc = serialize.execution_to_dict(base)
        exes = [
            serialize.execution_from_dict(dict(
                doc,
                events=[dict(doc["events"][0], label=f"fresh-{k}")]
                + doc["events"][1:],
            ))
            for k in range(400)
        ]
        store = WitnessStore(str(tmp_path))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for exe in exes:
                fp = store.put_execution(exe)
                store.add_points(fp, found)
            gc.collect()
            per_entry = (tracemalloc.get_traced_memory()[0] - before) / 400
        finally:
            tracemalloc.stop()
        assert store.stats()["executions"] == 400
        assert per_entry <= 4.5 * 1024, per_entry
        for entry in store._entries.values():
            for name in entry.__slots__:
                assert not isinstance(getattr(entry, name), ProgramExecution)


# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_overload_prices_a_retry_after(self):
        q = AdmissionQueue(2, workers=1)
        q.try_enter()
        q.try_enter()
        with pytest.raises(Overloaded) as excinfo:
            q.try_enter()
        assert excinfo.value.retry_after >= 1.0
        q.release(0.5)
        q.try_enter()  # a freed slot admits again
        q.release(0.5)
        q.release(0.5)
        stats = q.stats()
        assert stats["admitted"] == 3 and stats["rejected_busy"] == 1

    def test_drain_refuses_and_waits_idle(self):
        q = AdmissionQueue(2)
        q.try_enter()
        q.begin_drain()
        with pytest.raises(Draining):
            q.try_enter()
        assert not q.wait_idle(0.05)  # one request still in flight
        q.release(0.1)
        assert q.wait_idle(1.0)
        assert q.stats()["rejected_draining"] == 1

    def test_service_time_feeds_the_estimate(self):
        q = AdmissionQueue(1, workers=1)
        for _ in range(8):
            q.try_enter()
            q.release(10.0)
        q.try_enter()
        with pytest.raises(Overloaded) as excinfo:
            q.try_enter()
        # the EWMA converged toward 10s, so the estimate reflects it
        assert excinfo.value.retry_after > 5.0

    def test_retry_after_is_capped(self):
        q = AdmissionQueue(1, workers=1, retry_after_cap=5.0)
        for _ in range(8):
            q.try_enter()
            q.release(100.0)  # drive the EWMA far past the cap
        q.try_enter()
        with pytest.raises(Overloaded) as excinfo:
            q.try_enter()
        assert excinfo.value.retry_after <= 5.0
        assert q.stats()["retry_after_cap"] == 5.0

    def test_cap_below_the_floor_is_refused(self):
        with pytest.raises(ValueError):
            AdmissionQueue(1, retry_after_cap=0.5)


# ----------------------------------------------------------------------
class TestQueryWorkerPool:
    def test_transient_crash_answered_by_replacement_worker(self):
        exe = masking_execution(2)
        pair = exe.conflicting_pairs()[0]
        faults.arm(pair_fault(pair, "segv@first=1"))
        with QueryWorkerPool(
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        ) as pool:
            tid = pool.submit(_query_request(exe, "ccw", pair, timeout=60.0))
            outcome = pool.result(tid, timeout=120.0)
            assert outcome["verdict"] in ("TRUE", "FALSE")  # a real answer
            stats = pool.stats()
            assert stats["crashes"] >= 1
            assert stats["retries"] >= 1
            assert stats["restarts"] >= 1

    def test_persistent_crash_is_explicit_unknown(self):
        exe = masking_execution(2)
        pair = exe.conflicting_pairs()[0]
        faults.arm(pair_fault(pair, "segv"))
        with QueryWorkerPool(
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        ) as pool:
            tid = pool.submit(_query_request(exe, "ccw", pair, timeout=60.0))
            outcome = pool.result(tid, timeout=120.0)
        assert outcome["verdict"] == "UNKNOWN"
        assert outcome["resource"] == "crash"
        assert outcome["decided_by"] is None  # never a guessed tier

    def test_oom_retires_the_worker_and_degrades(self):
        exe = masking_execution(2)
        pair = exe.conflicting_pairs()[0]
        faults.arm(pair_fault(pair, "oom"))
        with QueryWorkerPool(workers=1, retry=RetryPolicy(max_retries=0)) as pool:
            tid = pool.submit(_query_request(exe, "ccw", pair, timeout=60.0))
            outcome = pool.result(tid, timeout=120.0)
            assert outcome["verdict"] == "UNKNOWN"
            assert outcome["resource"] == "memory"
            # the poisoned heap was retired, yet the pool still answers
            # (feasibility carries no event pair, so no fault fires)
            tid = pool.submit(_query_request(exe, "feasible", timeout=60.0))
            assert pool.result(tid, timeout=120.0)["verdict"] == "TRUE"

    def test_hung_worker_is_killed_at_the_wall(self):
        exe = masking_execution(2)
        pair = exe.conflicting_pairs()[0]
        faults.arm(pair_fault(pair, "hang:600"))
        with QueryWorkerPool(
            workers=1, retry=RetryPolicy(max_retries=0), wall_grace=0.5
        ) as pool:
            tid = pool.submit(_query_request(exe, "ccw", pair, timeout=0.5))
            outcome = pool.result(tid, timeout=120.0)
        assert outcome["verdict"] == "UNKNOWN"
        assert outcome["resource"] == "deadline"

    def test_expired_while_queued_answers_without_dispatch(self):
        exe = masking_execution(2)
        with QueryWorkerPool(workers=1) as pool:
            # a deadline already in the past when the supervisor looks:
            # the job must be answered from the queue, never dispatched
            tid = pool.submit(_query_request(exe, "ccw", timeout=-1.0))
            outcome = pool.result(tid, timeout=60.0)
        assert outcome["verdict"] == "UNKNOWN"
        assert outcome["resource"] == "deadline"

    @pytest.mark.skipif(
        not hasattr(os, "killpg"), reason="needs POSIX signals"
    )
    def test_forkserver_death_leaves_no_worker_behind(self):
        """A process-group SIGTERM also kills the forkserver the workers
        came from; the pool can then no longer read their exit status
        (``popen_forkserver`` reports 255) although they still run, and
        they ignore SIGTERM.  ``close()`` must still leave none of them
        running, and the next pool must start and answer."""
        from multiprocessing import forkserver

        exe = masking_execution(2)
        request = _query_request(exe, "feasible", timeout=60.0)
        pool = QueryWorkerPool(workers=1)
        try:
            assert pool.result(pool.submit(request), timeout=120.0)[
                "verdict"
            ] == "TRUE"
            worker = pool._slots[0].proc.pid
            server = forkserver._forkserver._forkserver_pid
            os.kill(server, signal.SIGTERM)
            deadline = time.monotonic() + 10.0
            while _running(server) and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.2)  # the supervisor retires the "dead" worker
        finally:
            pool.close()
        deadline = time.monotonic() + 5.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker)
        with QueryWorkerPool(workers=1) as pool:
            outcome = pool.result(pool.submit(request), timeout=120.0)
        assert outcome["verdict"] == "TRUE"

    def test_close_finalizes_waiters_as_shutdown(self):
        exe = masking_execution(2)
        pair = exe.conflicting_pairs()[0]
        faults.arm(pair_fault(pair, "hang:600"))
        pool = QueryWorkerPool(workers=1, retry=RetryPolicy(max_retries=0))
        tid = pool.submit(_query_request(exe, "ccw", pair, timeout=300.0))
        time.sleep(0.2)  # give the supervisor a chance to dispatch
        pool.close(drain=False)
        outcome = pool.result(tid, timeout=10.0)
        assert outcome["verdict"] == "UNKNOWN"
        assert outcome["resource"] in ("shutdown", "crash")
        with pytest.raises(RuntimeError):
            pool.submit(_query_request(exe, "ccw", pair))

    def test_cold_worker_that_never_boots_is_killed_by_the_deadline(self):
        """A job handed to a worker that hangs before reporting ready is
        still killed and finalized UNKNOWN (deadline) by its own
        deadline plus ``wall_grace``: the wall clock does not wait for
        a ready message that never comes."""
        faults.arm("pool.worker.start=hang")  # every spawned worker hangs
        exe = masking_execution(2)
        pool = QueryWorkerPool(
            workers=1, retry=RetryPolicy(max_retries=0), wall_grace=0.5
        )
        try:
            started = time.monotonic()
            tid = pool.submit(_query_request(exe, "ccw", timeout=0.5))
            outcome = pool.result(tid, timeout=30.0)
            elapsed = time.monotonic() - started
        finally:
            pool.close(drain=False)
        assert outcome["verdict"] == "UNKNOWN"
        assert outcome["resource"] == "deadline"
        assert elapsed < 10.0  # deadline + grace, not the 30 s wait
        assert pool.stats()["crashes"] == 1

    def test_workers_that_never_boot_end_the_pool_not_a_loop(self):
        """Every worker dies before it reports ready: the pool starts
        ``2 * workers`` of them, then stops spawning and answers the
        job in flight and every later one ``UNKNOWN (crash)`` at once
        -- a daemon on such a pool degrades instead of looping."""
        faults.arm("pool.worker.start=segv")
        exe = masking_execution(2)
        pool = QueryWorkerPool(workers=1, retry=RetryPolicy(max_retries=5))
        try:
            first = pool.result(pool.submit(_query_request(exe)), timeout=60.0)
            started = time.monotonic()
            later = pool.result(pool.submit(_query_request(exe)), timeout=60.0)
            elapsed = time.monotonic() - started
            stats = pool.stats()
        finally:
            pool.close(drain=False)
        for outcome in (first, later):
            assert outcome["verdict"] == "UNKNOWN"
            assert outcome["resource"] == "crash"
        assert elapsed < 5.0
        assert stats["spawns"] == 2
        assert "2 pool workers in a row died before reporting ready" in (
            pool.boot_failure
        )
        assert "last exit code -11" in pool.boot_failure

    def test_crash_then_replacement_never_loses_the_job(self):
        # the regression loop for a lost job after a worker crash; the
        # CI chaos job runs the same loop for 200 iterations
        crash_then_replacement_loop(6)

    def test_hot_context_survives_a_stream_of_new_fingerprints(self):
        """The warm-planner cache is LRU on hit: a hot execution read
        between never-seen ones keeps its planner, however many new
        fingerprints pass through a ``context_capacity``-sized cache.
        A fresh planner's first feasibility query discovers the observed
        schedule; a reused one already holds it, so ``witnesses_found``
        is empty exactly when the context was reused."""
        exe = masking_execution(2)
        request = _query_request(exe, "feasible", timeout=60.0)
        capacity = 2
        with QueryWorkerPool(workers=1, context_capacity=capacity) as pool:

            def warm(fp):
                tid = pool.submit(dict(request, fingerprint=fp))
                outcome = pool.result(tid, timeout=60.0)
                assert outcome["verdict"] == "TRUE"
                return not outcome["witnesses_found"]

            assert not warm("hot")
            for k in range(2 * capacity):
                assert not warm(f"new-{k}")
                assert warm("hot")


def crash_then_replacement_loop(iterations, result_timeout=30.0):
    """Run the transient-crash scenario ``iterations`` times, each on a
    fresh one-worker pool: the job's first attempt segfaults its cold
    worker, and the replacement worker must answer it.  A lost job
    shows as ``TimeoutError`` from ``result()`` -- far sooner than the
    job's own 60 s deadline."""
    exe = masking_execution(2)
    pair = exe.conflicting_pairs()[0]
    faults.arm(pair_fault(pair, "segv@first=1"))
    for i in range(iterations):
        with QueryWorkerPool(
            workers=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        ) as pool:
            tid = pool.submit(_query_request(exe, "ccw", pair, timeout=60.0))
            try:
                outcome = pool.result(tid, timeout=result_timeout)
            except TimeoutError:
                raise AssertionError(f"iteration {i}: the job was lost")
            assert outcome["verdict"] in ("TRUE", "FALSE"), (i, outcome)
            assert pool.stats()["restarts"] == 1


# ----------------------------------------------------------------------
@pytest.fixture()
def daemon_factory(tmp_path):
    """Build daemons over one shared store root; close them all."""
    daemons = []

    def build(**kwargs):
        store = WitnessStore(str(tmp_path / "store"))
        kwargs.setdefault("port", 0)
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("default_timeout", 30.0)
        d = QueryDaemon(store, **kwargs).start()
        daemons.append(d)
        return d

    yield build
    for d in daemons:
        if d.state != "stopped":
            d.close(drain=False)


class TestQueryDaemon:
    def test_repeat_query_served_from_persistent_store(self, daemon_factory):
        """The acceptance criterion: the second daemon (fresh workers,
        nothing warm) answers from the on-disk witness store -- the
        witness tier, zero engine states."""
        exe = masking_execution(2)
        a, b = _ccw_true_pair(exe)
        d = daemon_factory()
        code, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        assert code == 200 and out["witnesses"] >= 1
        fp = out["fingerprint"]
        code, q1, _ = _post(
            d.url("/query"),
            {"fingerprint": fp, "relation": "ccw", "a": a, "b": b},
        )
        assert code == 200 and q1["verdict"] == "TRUE"
        d.close()
        assert d.state == "stopped"
        # a RESTARTED daemon over the same --store directory
        d2 = daemon_factory()
        assert fp in d2.store
        code, q2, _ = _post(
            d2.url("/query"),
            {"fingerprint": fp, "relation": "ccw", "a": a, "b": b},
        )
        assert code == 200 and q2["verdict"] == "TRUE"
        assert q2["decided_by"] == "witness"
        assert engine_states(q2["planner"]) == 0
        assert "engine" not in q2["planner"]["tiers"]

    def test_race_query_tallies_its_own_feasibility_check(
        self, daemon_factory
    ):
        """A fresh worker's planner settles "is F non-empty" inside the
        first race query: its tally counts that check (observed) beside
        the pair's engine search; the repeat is one memo hit."""
        exe = masking_execution(2)
        a, b = exe.conflicting_pairs()[0]
        d = daemon_factory()
        code, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        assert code == 200
        query = {"fingerprint": out["fingerprint"], "relation": "race",
                 "a": a, "b": b}

        def counts(snapshot):
            for tally in snapshot["tiers"].values():
                del tally["elapsed"]
            return snapshot

        code, first, _ = _post(d.url("/query"), query)
        assert code == 200 and first["verdict"] == "feasible"
        assert counts(first["planner"]) == {
            "queries": 2, "unknown": 0,
            "tiers": {"engine": {"answered": 1, "states": 9},
                      "observed": {"answered": 1, "states": 0}},
        }
        code, repeat, _ = _post(d.url("/query"), query)
        assert code == 200 and repeat["verdict"] == "feasible"
        assert counts(repeat["planner"]) == {
            "queries": 1, "unknown": 0,
            "tiers": {"engine": {"answered": 1, "states": 0}},
        }

    def test_inline_execution_is_stored_and_query_variants(
        self, daemon_factory
    ):
        exe = masking_execution(2)
        a, b = exe.conflicting_pairs()[0]
        d = daemon_factory()
        code, out, _ = _post(
            d.url("/query"),
            {
                "execution": serialize.execution_to_dict(exe),
                "relation": "race", "a": a, "b": b,
            },
        )
        assert code == 200
        assert out["verdict"] == "feasible"
        assert out["classification"]["status"] == "feasible"
        fp = out["fingerprint"]
        status, body = _get(d.url("/executions"))
        assert status == 200 and fp in json.loads(body)["executions"]
        code, out, _ = _post(
            d.url("/query"), {"fingerprint": fp, "relation": "feasible"}
        )
        assert code == 200 and out["verdict"] == "TRUE"
        code, out, _ = _post(
            d.url("/query"), {"fingerprint": fp, "relation": "mhb",
                              "a": a, "b": b},
        )
        assert code == 200 and out["verdict"] in ("TRUE", "FALSE")

    def test_memory_model_claims_are_strict(self, daemon_factory):
        """An explicit ``memory_model`` claim must match the execution:
        wrong claims are a hard 400 on put and query alike, and the two
        models' documents get distinct fingerprints."""
        exe = masking_execution(2)
        tso_exe = exe.with_memory_model("tso")
        d = daemon_factory()
        code, out, _ = _post(
            d.url("/executions"),
            {"execution": serialize.execution_to_dict(exe),
             "memory_model": "sc"},
        )
        assert code == 200 and out["memory_model"] == "sc"
        fp_sc = out["fingerprint"]
        code, out, _ = _post(
            d.url("/executions"),
            {"execution": serialize.execution_to_dict(tso_exe),
             "memory_model": "tso"},
        )
        assert code == 200 and out["memory_model"] == "tso"
        fp_tso = out["fingerprint"]
        assert fp_sc != fp_tso  # the model folds into the fingerprint
        # a wrong claim is a 400, on put and on query alike
        code, out, _ = _post(
            d.url("/executions"),
            {"execution": serialize.execution_to_dict(tso_exe),
             "memory_model": "sc"},
        )
        assert code == 400 and "mismatch" in out["error"]
        code, out, _ = _post(
            d.url("/query"),
            {"fingerprint": fp_tso, "memory_model": "sc",
             "relation": "feasible"},
        )
        assert code == 400 and "mismatch" in out["error"]
        code, out, _ = _post(
            d.url("/query"),
            {"fingerprint": fp_tso, "memory_model": "pso",
             "relation": "feasible"},
        )
        assert code == 400 and "unknown memory model" in out["error"]
        # a truthful claim answers normally and echoes the model
        code, out, _ = _post(
            d.url("/query"),
            {"fingerprint": fp_tso, "memory_model": "tso",
             "relation": "feasible"},
        )
        assert code == 200 and out["memory_model"] == "tso"

    def test_validation_answers_4xx_not_5xx(self, daemon_factory):
        exe = masking_execution(2)
        d = daemon_factory()
        _, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        fp = out["fingerprint"]
        cases = [
            ({"fingerprint": "0" * 64, "relation": "ccw", "a": 0, "b": 1},
             404),
            ({"fingerprint": fp, "relation": "bogus"}, 400),
            ({"fingerprint": fp, "relation": "ccw"}, 400),  # missing a/b
            ({"fingerprint": fp, "relation": "ccw", "a": 0, "b": 10 ** 6},
             400),  # out of range
            ({"fingerprint": fp, "relation": "ccw", "a": 0, "b": 1,
              "timeout": "soon"}, 400),
            ({"relation": "ccw", "a": 0, "b": 1}, 400),  # no execution
            ({"execution": {"nope": 1}, "relation": "feasible"}, 400),
        ]
        for body, expected in cases:
            code, doc, _ = _post(d.url("/query"), body)
            assert code == expected, (body, doc)
            assert "error" in doc
        status, _ = _get(d.url("/healthz"))
        assert status == 200  # none of that shook the daemon

    def test_overload_gets_429_with_retry_after(self, daemon_factory):
        d = daemon_factory(queue_limit=1)
        d.admission.try_enter()  # hold the only slot
        try:
            code, doc, headers = _post(
                d.url("/query"), {"fingerprint": "0" * 64, "relation": "ccw",
                                  "a": 0, "b": 1},
            )
            assert code == 429
            assert int(headers["Retry-After"]) >= 1
            assert doc["retry_after_seconds"] >= 1
            assert doc["admission"]["rejected_busy"] == 1
        finally:
            d.admission.release(0.1)

    def test_drain_flips_readiness_and_refuses_queries(self, daemon_factory):
        exe = masking_execution(2)
        d = daemon_factory()
        _post(d.url("/executions"), serialize.execution_to_dict(exe))
        code, _ = _get(d.url("/readyz"))
        assert code == 200
        d.drain(grace=5.0)
        assert d.state == "draining"
        # alive (liveness) but not ready (readiness): stop routing here
        assert _get(d.url("/healthz"))[0] == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(d.url("/readyz"))
        assert excinfo.value.code == 503
        code, doc, _ = _post(
            d.url("/query"), {"fingerprint": "0" * 64, "relation": "feasible"}
        )
        assert code == 503 and "draining" in doc["error"]
        # the store was made durable during the drain
        assert d.store.stats()["dirty"] == 0
        d.close()
        assert d.state == "stopped"

    def test_worker_killed_mid_query_still_completes(self, daemon_factory):
        """The CI smoke scenario, in-process: the first attempt dies by
        SIGSEGV, the replacement worker answers the same request."""
        exe = masking_execution(2)
        a, b = _ccw_true_pair(exe)
        faults.arm(pair_fault((a, b), "segv@first=1"))
        d = daemon_factory(
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        )
        _, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        code, q, _ = _post(
            d.url("/query"),
            {"fingerprint": out["fingerprint"], "relation": "ccw",
             "a": a, "b": b},
        )
        assert code == 200 and q["verdict"] == "TRUE"
        assert d.pool.stats()["crashes"] >= 1
        assert d.pool.stats()["restarts"] >= 1

    def test_always_crashing_query_degrades_to_unknown(self, daemon_factory):
        exe = masking_execution(2)
        a, b = exe.conflicting_pairs()[0]
        faults.arm(pair_fault((a, b), "segv"))
        d = daemon_factory(
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        )
        _, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        code, q, _ = _post(
            d.url("/query"),
            {"fingerprint": out["fingerprint"], "relation": "ccw",
             "a": a, "b": b},
        )
        assert code == 200
        assert q["verdict"] == "UNKNOWN"
        assert q["resource"] == "crash"
        assert q["decided_by"] is None
        # ... and a healthy pair on the same daemon still answers
        code, q, _ = _post(
            d.url("/query"),
            {"fingerprint": out["fingerprint"], "relation": "feasible"},
        )
        assert code == 200 and q["verdict"] == "TRUE"

    def test_disconnecting_client_does_not_wedge_the_daemon(
        self, daemon_factory
    ):
        exe = masking_execution(2)
        d = daemon_factory()
        # promise 4096 body bytes, send 10, hang up
        sock = socket.create_connection((d.host, d.port), timeout=5.0)
        sock.sendall(
            b"POST /query HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 4096\r\n\r\n0123456789"
        )
        sock.close()
        # bare newlines and a non-HTTP preamble on a second connection
        sock = socket.create_connection((d.host, d.port), timeout=5.0)
        sock.sendall(b"\x00\x01garbage\r\n\r\n")
        sock.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if _get(d.url("/healthz"))[0] == 200:
                break
            time.sleep(0.05)
        code, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        assert code == 200 and out["fingerprint"] in d.store

    def test_status_and_metrics_render(self, daemon_factory):
        d = daemon_factory()
        status, body = _get(d.url("/status"))
        doc = json.loads(body)
        assert status == 200
        assert doc["service"] == "repro-serve"
        assert doc["state"] == "serving"
        assert {"requests", "admission", "pool", "store"} <= set(doc)
        status, body = _get(d.url("/metrics"))
        assert status == 200
        from tests.test_obs_server import _parse_prometheus

        samples = _parse_prometheus(body)
        assert samples["repro_serve_up"] == 1
        assert samples["repro_serve_ready"] == 1
        assert samples['repro_serve_rejected_total{reason="busy"}'] == 0

    def test_degraded_read_only_mode_then_recovery(self, daemon_factory):
        """The acceptance criterion for disk pressure: repeated flush
        failures flip the daemon into degraded read-only mode (reads
        keep answering from memory, writes bounce with 507, ``/readyz``
        says so), and when the disk takes durable writes again the
        background probe restores full service without a restart."""
        exe = masking_execution(2)
        d = daemon_factory(degraded_after=1, probe_interval=0.1)
        faults.arm("store.flush=enospc")
        code, out, _ = _post(
            d.url("/executions"), serialize.execution_to_dict(exe)
        )
        # accepted into memory; the flush behind it failed and flipped
        # the state before the response was written
        assert code == 200
        fp = out["fingerprint"]
        assert d.state == "degraded"
        status, body = _get(d.url("/readyz"))
        assert status == 200 and "degraded" in body
        # writes bounce with 507 Insufficient Storage ...
        code, err, _ = _post(
            d.url("/executions"),
            serialize.execution_to_dict(masking_execution(3)),
        )
        assert code == 507 and "read-only" in err["error"]
        # ... as do inline-execution queries (they imply a store write)
        code, err, _ = _post(
            d.url("/query"),
            {
                "execution": serialize.execution_to_dict(
                    masking_execution(4)
                ),
                "relation": "feasible",
            },
        )
        assert code == 507 and "fingerprint" in err["error"]
        # ... but queries over already-stored executions still answer
        a, b = _ccw_true_pair(exe)
        code, q, _ = _post(
            d.url("/query"),
            {"fingerprint": fp, "relation": "ccw", "a": a, "b": b},
        )
        assert code == 200 and q["verdict"] == "TRUE"
        # the disk comes back: the probe flushes the backlog and
        # restores full service
        faults.disarm()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and d.state != "serving":
            time.sleep(0.05)
        assert d.state == "serving"
        status, body = _get(d.url("/readyz"))
        assert status == 200 and body.strip() == "ready"
        status, body = _get(d.url("/status"))
        doc = json.loads(body)
        assert doc["degraded"]["recoveries"] == 1
        assert doc["degraded"]["rejected_read_only"] == 2
        assert doc["store"]["dirty"] == 0  # the backlog reached disk
        code, out, _ = _post(
            d.url("/executions"),
            serialize.execution_to_dict(masking_execution(3)),
        )
        assert code == 200  # writes are welcome again

    def test_oversized_body_is_413_and_the_connection_closes(
        self, daemon_factory
    ):
        d = daemon_factory()
        sock = socket.create_connection((d.host, d.port), timeout=10.0)
        try:
            sock.sendall(
                b"POST /executions HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            sock.settimeout(10.0)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        finally:
            sock.close()
        head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert " 413 " in head.splitlines()[0]
        # the body was never read, so the connection must not be reused
        assert "connection: close" in head.lower()
        assert _get(d.url("/healthz"))[0] == 200

    def test_port_in_use_fails_eagerly_and_leaks_no_pool(self, tmp_path):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        try:
            with pytest.raises(OSError):
                QueryDaemon(
                    WitnessStore(str(tmp_path / "s")),
                    port=taken.getsockname()[1],
                    workers=1,
                )
        finally:
            taken.close()


# ----------------------------------------------------------------------
class TestCrashBetweenJournalAndStoreFlush:
    def test_torn_journal_tail_and_missing_witness_file_both_recover(
        self, tmp_path, caplog
    ):
        """The crash window from the issue: the process died after a
        journal append but before the witness-store flush.  The journal
        has a torn final record; the store directory has the execution
        but no ``witnesses.json``.  Resume must drop exactly the torn
        record and the store must rebuild from the source trace."""
        exe = masking_execution(3)
        serial = RaceDetector(exe).feasible_races()
        fingerprint = scan_fingerprint(exe)
        journal_path = str(tmp_path / "scan.jsonl")
        journal = CheckpointJournal.open(journal_path, fingerprint)
        for c in serial.classifications[:-1]:
            journal.append(c)
        journal.close()
        # the torn write of the crash: half a record, no newline
        torn = serialize.classification_to_dict(serial.classifications[-1])
        torn["type"] = "pair"
        with open(journal_path, "a") as fh:
            fh.write(json.dumps(torn)[: len(json.dumps(torn)) // 2])
        # the store counterpart: execution durable, witnesses never were
        store_root = tmp_path / "store"
        fp = WitnessStore(str(store_root)).put_execution(exe)
        assert (store_root / fp / "execution.json").exists()
        assert not (store_root / fp / "witnesses.json").exists()

        # -- resume the journal: torn tail dropped, prefix intact ------
        resumed = CheckpointJournal.open(
            journal_path, fingerprint, resume=True
        )
        replayed = resumed.classifications(exe)
        assert len(replayed) == len(serial.classifications) - 1
        missing = [
            c for c in serial.classifications
            if (c.a, c.b) not in replayed
        ]
        assert len(missing) == 1
        resumed.append(missing[0])  # appends land on a fresh line
        resumed.close()
        final = CheckpointJournal.open(
            journal_path, fingerprint, resume=True
        ).classifications(exe)
        assert {
            pair: c.status for pair, c in final.items()
        } == {(c.a, c.b): c.status for c in serial.classifications}

        # -- reload the store: rebuilt from the source trace -----------
        with caplog.at_level(logging.INFO, logger="repro.serve"):
            store = WitnessStore(str(store_root))
        assert "no witness file" in caplog.text
        assert store.quarantined == 0  # absence is a crash, not corruption
        assert store.points_for(fp)  # the observed schedule, revalidated
        assert store.flush() == 1
        assert (store_root / fp / "witnesses.json").exists()
        doc = json.loads((store_root / fp / "witnesses.json").read_text())
        assert doc["format"] == STORE_FORMAT
        assert doc["fingerprint"] == fp


# ----------------------------------------------------------------------
needs_posix_kill = pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs POSIX process groups"
)


def _spawn_daemon(store_dir, port, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--store", str(store_dir),
            "--workers", "1", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _wait_ready(port, timeout=60.0):
    deadline = time.monotonic() + timeout
    url = f"http://127.0.0.1:{port}/readyz"
    while time.monotonic() < deadline:
        try:
            if _get(url, timeout=2.0)[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise AssertionError("daemon never became ready")


#: owns a one-worker pool, gets its worker busy in a hung job or idle
#: after one answered query, prints the worker's pid and waits to die
_POOL_OWNER = r"""
import json, sys, time
from repro import faults
from repro.supervise.pool import QueryWorkerPool

request = json.loads(sys.stdin.readline())
busy = sys.argv[1] == "busy"
if busy:
    faults.arm("pool.task=hang:600")
pool = QueryWorkerPool(workers=1)
tid = pool.submit(request)
if busy:
    while not (pool._slots[0] is not None and pool._slots[0].ready):
        time.sleep(0.01)
    time.sleep(0.2)  # the job queued before ready: it is in the hang now
else:
    assert pool.result(tid, timeout=120.0)["verdict"] == "TRUE"
print(pool._slots[0].proc.pid, flush=True)
time.sleep(600)
"""


@needs_posix_kill
class TestWorkerLifeline:
    @pytest.mark.parametrize("state", ["busy", "idle"])
    def test_worker_dies_with_the_process_that_owns_its_pool(self, state):
        """SIGKILL the pool's owner, and only it: the worker's lifeline
        closes with it, and the kernel ends the worker at once, in the
        middle of a job or waiting for one.  (A worker that checked its
        lifeline once a second could linger that long, so the bound is
        half of it.)"""
        request = _query_request(masking_execution(2), "feasible", timeout=600.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, state],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            owner.stdin.write(json.dumps(request) + "\n")
            owner.stdin.flush()
            worker = int(owner.stdout.readline())
            assert _running(worker)
            os.kill(owner.pid, signal.SIGKILL)
            owner.wait(timeout=10.0)
            deadline = time.monotonic() + 0.5
            while _running(worker) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _running(worker), f"{state} worker outlived its pool"
        finally:
            try:
                os.killpg(owner.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            owner.wait(timeout=10.0)


@needs_posix_kill
class TestCliServeDaemon:
    def test_sigterm_after_crashy_query_drains_cleanly_exit_0(self, tmp_path):
        """The CI smoke job, as a test: serve, post, survive a worker
        SIGSEGV mid-query, answer the repeat from the store, then
        SIGTERM -> clean drain, exit 0."""
        exe = masking_execution(2)
        a, b = _ccw_true_pair(exe)
        port = _free_port()
        proc = _spawn_daemon(
            tmp_path / "store", port,
            extra=["--failpoints", pair_fault((a, b), "segv@first=1")],
        )
        try:
            _wait_ready(port)
            base = f"http://127.0.0.1:{port}"
            code, out, _ = _post(
                f"{base}/executions", serialize.execution_to_dict(exe)
            )
            assert code == 200
            fp = out["fingerprint"]
            # first attempt segfaults the worker; the replacement answers
            code, q, _ = _post(
                f"{base}/query",
                {"fingerprint": fp, "relation": "ccw", "a": a, "b": b},
            )
            assert code == 200 and q["verdict"] == "TRUE"
            status = json.loads(_get(f"{base}/status")[1])
            assert status["pool"]["crashes"] >= 1
            # repeat query: from the store, engine never runs
            code, q, _ = _post(
                f"{base}/query",
                {"fingerprint": fp, "relation": "ccw", "a": a, "b": b},
            )
            assert code == 200 and q["decided_by"] == "witness"
            assert engine_states(q["planner"]) == 0
            os.killpg(proc.pid, signal.SIGTERM)
            out_b, err_b = proc.communicate(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 0, (out_b, err_b)
        assert b"drained cleanly" in err_b
        # the port was released with the daemon
        with pytest.raises(OSError):
            _get(f"http://127.0.0.1:{port}/healthz", timeout=2.0)
        # the drain flushed: witnesses are durable on disk
        wit = tmp_path / "store"
        files = list(wit.rglob("witnesses.json"))
        assert files, "drain did not flush the witness store"


# ----------------------------------------------------------------------
class TestRequestTracing:
    """Trace schema v3 end to end: request ids honored/minted/echoed
    (errors included), serve.* spans validate and re-aggregate to
    exactly the ``/status`` per-endpoint counts, the debug rings and
    latency histograms fill, a failing sink never fails a request, a
    slow client is counted and logged, and tracing is a pure observer."""

    def test_traced_daemon_end_to_end(self, daemon_factory, tmp_path):
        import re

        from repro.obs import JsonlTraceSink, iter_trace, summarize_trace

        exe = masking_execution(2)
        a, b = exe.conflicting_pairs()[0]
        trace = str(tmp_path / "daemon-trace.jsonl")
        d = daemon_factory(tracer=JsonlTraceSink(trace))
        # a well-formed client id is honored: header echo and body alike
        code, out, hdrs = _post(
            d.url("/executions"), serialize.execution_to_dict(exe),
            headers={"X-Repro-Request-Id": "put-001"},
        )
        assert code == 200
        assert hdrs["X-Repro-Request-Id"] == "put-001"
        assert out["request_id"] == "put-001"
        fp = out["fingerprint"]
        # no client id: the daemon mints one and still echoes it
        code, q, hdrs = _post(
            d.url("/query"),
            {"fingerprint": fp, "relation": "race", "a": a, "b": b},
        )
        assert code == 200
        minted = hdrs["X-Repro-Request-Id"]
        assert re.fullmatch(r"[A-Za-z0-9._-]{1,64}", minted)
        assert q["request_id"] == minted
        # a malformed claim is replaced, never reflected back verbatim
        code, _, hdrs = _post(
            d.url("/query"), {"fingerprint": fp, "relation": "feasible"},
            headers={"X-Repro-Request-Id": "spaces are not ok"},
        )
        assert code == 200
        assert hdrs["X-Repro-Request-Id"] != "spaces are not ok"
        # errors carry the id too, on the header and in the body
        code, err, hdrs = _post(
            d.url("/query"), {"fingerprint": fp, "relation": "nope"},
            headers={"X-Repro-Request-Id": "err-1"},
        )
        assert code == 400
        assert hdrs["X-Repro-Request-Id"] == "err-1"
        assert err["request_id"] == "err-1"
        status, _body = _get(d.url("/executions"))
        assert status == 200
        _recorded(d, 5)
        http = json.loads(_get(d.url("/status"))[1])["http"]
        d.close()
        # the trace is valid v3 (iter_trace validates every record) ...
        records = list(iter_trace(trace))
        assert records[0]["version"] == 3
        # ... and re-aggregates to exactly the /status endpoint counts
        s = summarize_trace(trace)
        assert s.requests == http
        assert s.requests == {
            "POST /executions": 1, "POST /query": 3, "GET /executions": 1,
        }
        assert s.statuses["POST /query"] == {"200": 2, "400": 1}
        by_kind = {}
        for rec in records:
            by_kind.setdefault(rec["kind"], []).append(rec)
        reqs = {rec["request_id"]: rec for rec in by_kind["serve.request"]}
        assert reqs["put-001"]["endpoint"] == "POST /executions"
        assert reqs["err-1"]["status"] == 400
        assert reqs[minted]["query_kind"] == "race"
        # the worker shipped its evaluation span home, and the daemon
        # stamped it with the request id the worker never knew
        evals = {rec["request_id"] for rec in by_kind["serve.worker.eval"]}
        assert minted in evals
        phases = {rec["kind"] for rec in records if rec["kind"].startswith("serve.")}
        assert {"serve.request", "serve.store.write", "serve.dispatch",
                "serve.admission.wait", "serve.response"} <= phases

    def test_debug_rings_and_latency_histograms(self, daemon_factory, caplog):
        exe = masking_execution(2)
        d = daemon_factory(
            slow_threshold=0.0, recent_capacity=2, slow_capacity=2
        )
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            code, out, _ = _post(
                d.url("/executions"), serialize.execution_to_dict(exe),
                headers={"X-Repro-Request-Id": "r1"},
            )
            assert code == 200
            for rid in ("r2", "r3"):
                code, _, _ = _post(
                    d.url("/query"),
                    {"fingerprint": out["fingerprint"],
                     "relation": "feasible"},
                    headers={"X-Repro-Request-Id": rid},
                )
                assert code == 200
        _recorded(d, 3)
        doc = json.loads(_get(d.url("/debug/requests"))[1])
        # bounded ring, most recent first (r1 was evicted by the cap)
        assert doc["capacity"] == 2
        assert [e["request_id"] for e in doc["requests"]] == ["r3", "r2"]
        entry = doc["requests"][0]
        assert entry["endpoint"] == "POST /query"
        assert entry["kind"] == "feasible"
        assert entry["status"] == 200
        assert "response" in entry["phases"]
        slow = json.loads(_get(d.url("/debug/slow"))[1])
        assert slow["slow_threshold_seconds"] == 0.0
        assert [e["request_id"] for e in slow["requests"]] == ["r3", "r2"]
        assert "slow request r1" in caplog.text
        body = _get(d.url("/metrics"))[1]
        assert ('repro_serve_request_seconds_bucket'
                '{endpoint="POST /query",kind="feasible"') in body
        assert 'repro_serve_request_seconds_count' in body
        assert 'repro_serve_phase_seconds_bucket' in body
        assert ('repro_serve_http_requests_total'
                '{endpoint="POST /executions"} 1') in body

    def test_failing_trace_sink_never_fails_a_request(
        self, daemon_factory, tmp_path
    ):
        """The obs.trace.write failpoint: every emit fails with EIO,
        every request still answers 200, and the drops are counted."""
        from repro.obs import JsonlTraceSink

        from tests.test_obs_server import _parse_prometheus

        exe = masking_execution(2)
        trace = str(tmp_path / "t.jsonl")
        d = daemon_factory(tracer=JsonlTraceSink(trace))
        faults.arm("obs.trace.write=eio")
        try:
            code, out, _ = _post(
                d.url("/executions"), serialize.execution_to_dict(exe)
            )
            assert code == 200
            code, q, _ = _post(
                d.url("/query"),
                {"fingerprint": out["fingerprint"], "relation": "feasible"},
            )
            assert code == 200 and q["verdict"] == "TRUE"
        finally:
            faults.disarm()
        obsv = json.loads(_get(d.url("/status"))[1])["observability"]
        assert obsv["trace_enabled"] is True
        # both requests' spans failed to write; all were counted
        assert obsv["trace_dropped"] >= 2
        samples = _parse_prometheus(_get(d.url("/metrics"))[1])
        assert samples["repro_serve_trace_dropped_total"] >= 2

    def test_slow_client_times_out_counted_and_logged(
        self, daemon_factory, caplog
    ):
        """serve/app.py's once-silent slow-client path: the read times
        out after --client-timeout, the client gets a 400 (with its
        request id echoed), and the disconnect is a metric + log line."""
        d = daemon_factory(client_timeout=0.5)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            sock = socket.create_connection((d.host, d.port), timeout=10.0)
            try:
                # promise 4096 body bytes, send 10, then just... wait
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: x\r\n"
                    b"X-Repro-Request-Id: sloth-1\r\n"
                    b"Content-Length: 4096\r\n\r\n0123456789"
                )
                sock.settimeout(10.0)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            finally:
                sock.close()
        head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert " 400 " in head.splitlines()[0]
        assert "x-repro-request-id: sloth-1" in head.lower()
        assert "sloth-1" in caplog.text
        obsv = json.loads(_get(d.url("/status"))[1])["observability"]
        assert obsv["client_disconnects"] >= 1
        assert obsv["client_timeout_seconds"] == 0.5
        from tests.test_obs_server import _parse_prometheus

        samples = _parse_prometheus(_get(d.url("/metrics"))[1])
        assert samples["repro_serve_client_disconnects_total"] >= 1

    def test_tracing_is_a_pure_observer(self, tmp_path):
        """Identical verdicts, provenance and classifications with
        tracing on or off -- over separate fresh stores, so neither run
        can warm the other."""
        from repro.obs import JsonlTraceSink

        exe = masking_execution(2)
        a, b = exe.conflicting_pairs()[0]

        def run(root, tracer):
            store = WitnessStore(str(tmp_path / root))
            d = QueryDaemon(
                store, port=0, workers=1, default_timeout=30.0,
                tracer=tracer,
            ).start()
            try:
                _, put, _ = _post(
                    d.url("/executions"), serialize.execution_to_dict(exe)
                )
                fp = put["fingerprint"]
                answers = []
                for req in (
                    {"relation": "race", "a": a, "b": b},
                    {"relation": "feasible"},
                    {"relation": "ccw", "a": a, "b": b},
                    {"relation": "race", "a": a, "b": b},  # repeat: witness tier
                ):
                    code, q, _ = _post(
                        d.url("/query"), dict(req, fingerprint=fp)
                    )
                    assert code == 200
                    answers.append(
                        (
                            q["verdict"],
                            q["decided_by"],
                            (q.get("classification") or {}).get("status"),
                        )
                    )
                return answers
            finally:
                d.close(drain=False)

        traced = run("store-a", JsonlTraceSink(str(tmp_path / "t.jsonl")))
        untraced = run("store-b", None)
        assert traced == untraced
