"""Supervised (crash-isolated) race scanning: pool, retries, rlimits.

The fault-injection tests drive the pool through every death mode a
real scan can hit -- segfault, OOM past the rlimit, hang, in-worker
exception -- and assert the scan itself always finishes, with exactly
the faulted pairs ``unknown`` (carrying the right resource) and every
healthy pair classified identically to the serial scanner.  The
subprocess tests kill a checkpointed CLI scan outright (SIGKILL /
SIGINT) and assert the journal makes ``--resume`` exact.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.budget import Budget
from repro.cli import main as cli_main
from repro.lang.ast import Assign, Const, ProcessDef, Program, SemP, SemV, Shared
from repro.lang.interpreter import run_program
from repro.lang.scheduler import FixedScheduler
from repro.model import serialize
from repro.model.builder import ExecutionBuilder
from repro.obs import StatusBoard
from repro.obs.trace import RecordingSink, read_trace
from repro.races import detector as detector_mod
from repro.races.detector import UNKNOWN, RaceDetector
from repro.solve import QueryPlanner, SolveContext
from repro.supervise import (
    JournalError,
    ResourceLimits,
    RetryPolicy,
    SupervisedScanner,
    pair_count,
)
from repro.supervise.rlimits import apply_limits
from repro.workloads import random_computation_overlay

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def masking_execution(width: int = 3):
    """``width`` writers race a reader through a semaphore token --
    ``width`` conflicting pairs, every one a feasible race."""
    procs = [
        ProcessDef(f"w{k}", [Assign(f"x{k}", Const(1)), SemV("s")])
        for k in range(width)
    ]
    reader = [SemP("s")] + [
        Assign(f"y{k}", Shared(f"x{k}")) for k in range(width)
    ]
    procs.append(ProcessDef("r", reader))
    prog = Program(procs)
    schedule = ["w0", "w0", "r"] + [
        x for k in range(1, width) for x in (f"w{k}", f"w{k}")
    ] + ["r"] * width
    return run_program(prog, FixedScheduler(schedule)).to_execution()


def contended_brawl_execution(width: int = 5, memory_model: str = "sc"):
    """``width`` writers of ``x``; writers ``2g`` and ``2g+1`` guard
    their write with the lock cell ``m_g``, fed one token by a supplier
    (the contended brawl of ``benchmarks/bench_race_detection.py``).
    Under the ``structural,observed`` ladder some pairs stay unknown;
    the exact engine decides them."""
    procs, schedule = [], []
    for g in range((width + 1) // 2):
        procs.append(ProcessDef(f"s{g}", [SemV(f"m{g}")]))
        schedule.append(f"s{g}")
    for k in range(width):
        procs.append(ProcessDef(
            f"w{k}",
            [SemP(f"m{k // 2}"), Assign("x", Const(k)), SemV(f"m{k // 2}")],
        ))
        schedule += [f"w{k}"] * 3
    # a relaxed model adds store-buffer drain steps: a seeded schedule
    scheduler = FixedScheduler(schedule) if memory_model == "sc" else 7
    return run_program(
        Program(procs), scheduler, memory_model=memory_model
    ).to_execution()


def mutex_execution(pairs: int = 3):
    """``pairs`` pairs of writers, pair ``k`` writing ``x<k>``, every
    writer inside one lock ``m``: each conflicting pair is infeasible,
    and no tier below the engine can show it (nothing orders a pair
    statically), so a pooled scan ships every pair to a worker."""
    procs, schedule = [ProcessDef("s", [SemV("m")])], ["s"]
    for k in range(2 * pairs):
        procs.append(ProcessDef(
            f"w{k}", [SemP("m"), Assign(f"x{k // 2}", Const(k)), SemV("m")],
        ))
        schedule += [f"w{k}"] * 3
    return run_program(Program(procs), FixedScheduler(schedule)).to_execution()


def pair_fault(pair, action):
    """A failpoint clause rigging every pool job for ``pair`` (arm it
    with :func:`repro.faults.arm` or ``--failpoints``)."""
    return f"pool.pair.{pair[0]},{pair[1]}={action}"


def by_pair(report):
    return {(c.a, c.b): c for c in report.classifications}


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_should_retry_bounds(self):
        p = RetryPolicy(max_retries=2)
        assert p.should_retry(1) and p.should_retry(2)
        assert not p.should_retry(3)

    def test_backoff_grows_exponentially(self):
        # the default policy jitters: retry k waits within the top half
        # of base * factor**(k-1)
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        for attempt, full in ((1, 0.1), (2, 0.2), (3, 0.4)):
            assert full / 2 <= p.delay(attempt, key=(3, 7)) <= full
        assert p.delay(0, key=(3, 7)) == 0.0

    def test_jitter_is_on_by_default_and_off_restores_exact_backoff(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert p.jitter == 0.5
        # jittered delays differ by key; with jitter off a key must not
        # perturb the exact schedule
        assert len({p.delay(1, key=(a, a + 1)) for a in range(5)}) > 1
        exact = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.0)
        assert exact.delay(1, key=(3, 7)) == pytest.approx(0.1)
        assert exact.delay(2, key=(3, 7)) == pytest.approx(0.2)

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base=0.1, jitter=0.5)
        d1 = p.delay(1, key=(3, 7))
        assert d1 == p.delay(1, key=(3, 7))  # same key: same delay
        # jitter only ever *shortens*, within the configured fraction
        assert 0.05 <= d1 <= 0.1
        assert p.delay(2, key=(3, 7)) != pytest.approx(2 * d1)

    def test_jitter_spreads_workers_after_a_shared_cause_crash(self):
        # N workers retrying the same attempt must not back off in
        # lockstep: their per-key delays should be well spread
        p = RetryPolicy(backoff_base=1.0, jitter=0.5)
        delays = {p.delay(1, key=(a, a + 1)) for a in range(20)}
        assert len(delays) >= 15
        assert all(0.5 <= d <= 1.0 for d in delays)


class TestResourceLimits:
    def test_no_limits_is_a_noop(self):
        assert not apply_limits(None)
        assert not apply_limits(ResourceLimits())
        assert not ResourceLimits().any()
        assert ResourceLimits(max_memory_mb=64).any()


# ----------------------------------------------------------------------
class TestSupervisedScanner:
    def test_parallel_matches_serial(self):
        exe = masking_execution(3)
        serial = RaceDetector(exe).feasible_races()
        parallel = RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2)
        )
        assert [(c.a, c.b, c.status) for c in parallel.classifications] == [
            (c.a, c.b, c.status) for c in serial.classifications
        ]
        assert parallel.pairs() == serial.pairs()
        for race in parallel.races:
            race.witness.validate(include_dependences=False)

    def test_crash_oom_hang_isolated(self):
        """The acceptance scenario: one segfaulting pair, one OOMing
        pair, one hanging pair -- the scan completes, those pairs are
        unknown with the right resource, the rest match serial."""
        exe = masking_execution(4)
        pairs = exe.conflicting_pairs()
        crash_pair, oom_pair, hang_pair = pairs[0], pairs[1], pairs[2]
        faults.arm(";".join([
            pair_fault(crash_pair, "segv"),
            pair_fault(oom_pair, "oom"),
            pair_fault(hang_pair, "hang:600"),
        ]))
        scanner = SupervisedScanner(
            jobs=2,
            limits=ResourceLimits(max_memory_mb=256),
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
        )
        # the per-pair timeout arms the hang pair's wall kill
        report = RaceDetector(exe).feasible_races(
            runner=scanner, per_pair_timeout=1.0
        )
        got = by_pair(report)
        assert got[crash_pair].status == UNKNOWN
        assert got[crash_pair].resource == "crash"
        assert got[oom_pair].status == UNKNOWN
        assert got[oom_pair].resource == "memory"
        assert got[hang_pair].status == UNKNOWN
        assert got[hang_pair].resource == "deadline"
        serial = by_pair(RaceDetector(exe).feasible_races())
        for pair in pairs[3:]:
            assert got[pair].status == serial[pair].status

    def test_transient_crash_recovers_on_retry(self):
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        faults.arm(pair_fault(pairs[0], "segv@first=1"))
        scanner = SupervisedScanner(
            jobs=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        )
        report = RaceDetector(exe).feasible_races(runner=scanner)
        serial = by_pair(RaceDetector(exe).feasible_races())
        assert by_pair(report)[pairs[0]].status == serial[pairs[0]].status

    def test_in_worker_exception_is_isolated(self):
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        faults.arm(pair_fault(pairs[1], "error"))
        scanner = SupervisedScanner(jobs=2, retry=RetryPolicy(max_retries=0))
        report = RaceDetector(exe).feasible_races(runner=scanner)
        got = by_pair(report)
        assert got[pairs[1]].status == UNKNOWN
        assert got[pairs[1]].resource == "crash"
        serial = by_pair(RaceDetector(exe).feasible_races())
        for pair in (pairs[0], pairs[2]):
            assert got[pair].status == serial[pair].status

    def test_more_workers_than_cores_fold_every_event_once(self):
        """Stress the hand-off between the pool's supervisor thread and
        the scanning thread: four workers, crashing and failing first
        attempts, a tiny switch interval.  Every pair is classified and
        reported exactly once, every worker record follows its spawn,
        and every pair whose ladder reached the engine is answered by
        exactly one worker result."""
        exe = masking_execution(6)
        pairs = exe.conflicting_pairs()
        faults.arm(";".join([
            pair_fault(pairs[0], "segv@first=1"),
            pair_fault(pairs[3], "error@first=1"),
        ]))
        sink = RecordingSink()
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = RaceDetector(
                exe, budget=Budget.of(timeout=120.0)
            ).feasible_races(
                runner=SupervisedScanner(
                    jobs=4, tracer=sink,
                    retry=RetryPolicy(max_retries=2, backoff_base=0.01),
                ),
                on_classified=seen.append,
            )
        finally:
            sys.setswitchinterval(interval)
        assert sorted((c.a, c.b) for c in seen) == sorted(pairs)
        serial = by_pair(RaceDetector(exe).feasible_races())
        assert {p: c.status for p, c in by_pair(report).items()} == {
            p: c.status for p, c in serial.items()
        }
        records = sink.drain()
        spawned = {r["worker"] for r in records if r["kind"] == "worker.spawn"}
        assert {r["worker"] for r in records if "worker" in r} <= spawned
        # the engine decided exactly the shipped pairs (no pair is
        # unknown here), each answered once; the parent decided the rest
        engine_bound = sorted(
            (c.a, c.b) for c in report.classifications
            if c.decided_by == "exact"
        )
        assert pairs[0] in engine_bound and pairs[3] in engine_bound
        assert sorted(
            (r["a"], r["b"]) for r in records if r["kind"] == "worker.result"
        ) == engine_bound

    def test_crash_then_replacement_never_loses_a_pair(self):
        # the scan side of the lost-job regression loop; the CI chaos
        # job runs the same loop for 200 iterations
        scan_crash_then_replacement_loop(3)

    def test_expired_deadline_dispatches_nothing(self):
        """The parent's pass honours an expired deadline: every pair is
        ``unknown (deadline)`` before its ladder runs, so none reaches
        the engine and the pool never starts."""
        exe = masking_execution(3)
        sink = RecordingSink()
        report = RaceDetector(
            exe, budget=Budget.of(timeout=0.0)
        ).feasible_races(runner=SupervisedScanner(jobs=2, tracer=sink),
                         tracer=sink)
        assert [(c.status, c.resource) for c in report.classifications] == [
            (UNKNOWN, "deadline")
        ] * len(exe.conflicting_pairs())
        kinds = [r["kind"] for r in sink.records]
        assert "worker.dispatch" not in kinds and "worker.spawn" not in kinds
        assert "query" not in kinds

    def test_plan_without_engine_ships_nothing(self):
        """Under a ladder with no engine tier the parent's pass is the
        whole scan: the pairs it leaves open are ``unknown`` in the
        parent, and no worker is spawned."""
        exe = contended_brawl_execution(5)
        plan = ("structural", "observed")
        sink = RecordingSink()
        pooled = RaceDetector(exe, plan=plan).feasible_races(
            runner=SupervisedScanner(jobs=2, tracer=sink), tracer=sink
        )
        serial = RaceDetector(exe, plan=plan).feasible_races()
        assert pooled.unknown_pairs
        assert [(c.a, c.b, c.status, c.decided_by) for c in pooled.classifications] == [
            (c.a, c.b, c.status, c.decided_by) for c in serial.classifications
        ]
        assert not any(r["kind"].startswith("worker.") for r in sink.records)

    def test_first_ctrl_c_in_the_parents_pass_with_the_pool_up(self):
        """The first Ctrl-C lands in the parent's pass -- on a pair its
        structural tier decided, with more pairs still to climb -- while
        the pool's workers are up and one searches a hanging pair: the
        interrupted partial report comes back, and no worker outlives
        the scan."""
        exe = contended_brawl_execution(5)
        pairs = exe.conflicting_pairs()
        # the first pair reaches the engine and ships; the second is the
        # structural tier's
        faults.arm(pair_fault(pairs[0], "hang:600"))
        scanner = SupervisedScanner(
            jobs=2, drain_grace=0.5, retry=RetryPolicy(max_retries=0)
        )
        pids, seen = [], []

        def ctrl_c(c):
            seen.append(c)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                up = [w for w in scanner._pool._slots
                      if w is not None and w.ready]
                if len(up) == scanner.jobs:
                    break
                time.sleep(0.01)
            pids.extend(w.proc.pid for w in up)
            raise KeyboardInterrupt

        report = RaceDetector(exe).feasible_races(
            runner=scanner, on_classified=ctrl_c
        )
        assert report.interrupted and not report.complete
        assert len(pids) == 2
        assert seen[0].decided_by == "structural"
        got = by_pair(report)
        assert pairs[1] in got and pairs[0] not in got
        assert len(got) < len(pairs)
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))

    def test_a_scanner_reused_after_an_interrupt_reports_crashes(self):
        """An interrupted scan leaves its scanner draining; the next
        scan on the same scanner still reports a pair whose worker
        keeps dying as ``unknown (crash)`` instead of dropping it."""
        exe = mutex_execution(3)
        pairs = exe.conflicting_pairs()
        scanner = SupervisedScanner(
            jobs=1, drain_grace=0.5, retry=RetryPolicy(max_retries=0)
        )

        seen = []

        def ctrl_c(c):
            seen.append(c)
            if len(seen) == 1:  # one Ctrl-C: drain, do not abort
                raise KeyboardInterrupt

        first = RaceDetector(exe).feasible_races(
            runner=scanner, on_classified=ctrl_c
        )
        assert first.interrupted
        faults.arm(pair_fault(pairs[0], "segv"))
        report = RaceDetector(exe).feasible_races(runner=scanner)
        got = by_pair(report)
        assert not report.interrupted and sorted(got) == sorted(pairs)
        assert (got[pairs[0]].status, got[pairs[0]].resource) == (
            UNKNOWN, "crash"
        )

    def test_expired_deadline_skips_search(self):
        exe = masking_execution(3)
        report = RaceDetector(
            exe, budget=Budget.of(timeout=0.0)
        ).feasible_races(runner=SupervisedScanner(jobs=2))
        assert all(c.status == UNKNOWN for c in report.classifications)
        assert all(c.resource == "deadline" for c in report.classifications)


def scan_crash_then_replacement_loop(iterations):
    """Run a fresh one-worker scan ``iterations`` times, each
    segfaulting the first attempt of one pair on its cold worker: the
    replacement worker must classify that pair exactly as the serial
    scan does.  Each scan carries a deadline, so a lost pair shows as an
    ``unknown`` classification instead of a hang."""
    exe = masking_execution(2)
    pair = exe.conflicting_pairs()[0]
    serial = by_pair(RaceDetector(exe).feasible_races())
    faults.arm(pair_fault(pair, "segv@first=1"))
    for i in range(iterations):
        scanner = SupervisedScanner(
            jobs=1,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, jitter=0.5),
        )
        board = StatusBoard()
        report = RaceDetector(exe, budget=Budget.of(timeout=60.0)).feasible_races(
            runner=scanner, board=board
        )
        got = by_pair(report)[pair]
        assert got.status == serial[pair].status, (i, got)
        restarts = board.latest()["worker_spawns"] - scanner.jobs
        assert restarts == 1, (i, restarts)


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


class TestPooledMatchesSerial:
    """``--jobs 2`` against ``--jobs 1``, pair for pair: the same
    status, variables and witness presence, every race witness
    replaying, and exactly the pairs whose ladder reaches the engine
    dispatched to a worker."""

    CASES = {
        **{f"masking{w}": (lambda w=w: masking_execution(w)) for w in (2, 3, 4)},
        "brawl-sc": lambda: contended_brawl_execution(5),
        "brawl-tso": lambda: contended_brawl_execution(5, memory_model="tso"),
        # seeded semaphore-plus-data draws (Post/Wait/Clear draws have
        # no shared data, so no conflicting pair)
        **{f"random{seed}": (lambda seed=seed: random_computation_overlay(
            processes=3, events_per_process=5, seed=seed))
           for seed in (1, 2, 3, 4)},
    }

    @staticmethod
    def _engine_bound(exe):
        """The pairs whose ladder, on one planner in pair order, stops
        at the engine tier -- what a pooled scan ships."""
        planner = QueryPlanner(SolveContext(exe))
        return [
            (a, b) for a, b in exe.conflicting_pairs()
            if detector_mod.classify_pair(
                exe, a, b, planner=planner, stop_at="engine"
            ) is None
        ]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pooled_scan_matches_serial(self, case):
        exe = self.CASES[case]()
        sink = RecordingSink()
        pooled = RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2, tracer=sink), tracer=sink
        )
        serial = RaceDetector(exe).feasible_races()
        assert pooled.complete and serial.complete
        assert len(pooled.classifications) == len(exe.conflicting_pairs())
        for p, s in zip(pooled.classifications, serial.classifications):
            assert (p.a, p.b, p.status, p.variables) == (s.a, s.b, s.status, s.variables)
            assert (p.witness is None) == (s.witness is None)
            assert p.decided_by == s.decided_by
        for report in (pooled, serial):
            for race in report.races:
                race.witness.validate()
                assert race.witness.concurrent(race.a, race.b)
        shipped = self._engine_bound(exe)
        dispatched = [(r["a"], r["b"]) for r in sink.records
                      if r["kind"] == "worker.dispatch"]
        assert sorted(dispatched) == sorted(shipped)
        assert {(c.a, c.b) for c in pooled.classifications
                if c.decided_by == "exact"} == set(shipped)


class TestSerialInterrupt:
    def test_ctrl_c_mid_serial_scan_yields_partial_report(self, monkeypatch):
        exe = masking_execution(3)
        real = detector_mod.classify_pair
        calls = []

        def flaky(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt()
            return real(*args, **kwargs)

        monkeypatch.setattr(detector_mod, "classify_pair", flaky)
        report = RaceDetector(exe).feasible_races()
        assert report.interrupted
        assert not report.complete
        assert len(report.classifications) == 1
        assert "interrupted" in report.summary()


# ----------------------------------------------------------------------
needs_posix_kill = pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="needs POSIX process groups"
)


def _spawn_cli_scan(exe_path, journal_path, failpoints):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "races", str(exe_path),
            "--jobs", "2", "--checkpoint", str(journal_path),
            "--failpoints", failpoints,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )


def _killpg_quietly(proc, sig):
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass  # already gone


def _wait_for_journal(journal_path, n, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.path.exists(journal_path) and pair_count(str(journal_path)) >= n:
                return
        except JournalError:
            pass  # mid-append
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {n} pairs")


@needs_posix_kill
class TestKillAndResume:
    def test_sigkill_mid_scan_then_resume_recomputes_nothing(self, tmp_path):
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        journal = tmp_path / "scan.jsonl"
        # one pair hangs forever, so the scan is guaranteed to still be
        # running (with every other pair journaled) when we SIGKILL it
        proc = _spawn_cli_scan(
            exe_path, journal, pair_fault(pairs[0], "hang:600")
        )
        try:
            _wait_for_journal(journal, len(pairs) - 1)
        finally:
            _killpg_quietly(proc, signal.SIGKILL)
            proc.wait(timeout=30)
        assert pair_count(str(journal)) == len(pairs) - 1
        # resume without the fault: only the missing pair is computed
        report_path = tmp_path / "report.json"
        rc = cli_main([
            "races", str(exe_path), "--jobs", "2",
            "--checkpoint", str(journal), "--resume",
            "--save", str(report_path),
        ])
        assert rc == 0
        # every journaled pair was reused: exactly one new record
        assert pair_count(str(journal)) == len(pairs)
        resumed = serialize.load_report(str(report_path))
        serial = RaceDetector(exe).feasible_races()
        assert [(c.a, c.b, c.status) for c in resumed.classifications] == [
            (c.a, c.b, c.status) for c in serial.classifications
        ]
        assert resumed.summary() == serial.summary()

    def test_sigint_exits_130_with_partial_journal(self, tmp_path):
        if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
            # a backgrounded (non-job-control) test run inherits
            # SIGINT=SIG_IGN, which the scan subprocess inherits in
            # turn -- Ctrl-C semantics cannot be observed here
            pytest.skip("SIGINT is ignored in this environment")
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        journal = tmp_path / "scan.jsonl"
        proc = _spawn_cli_scan(
            exe_path, journal, pair_fault(pairs[0], "hang:600")
        )
        try:
            try:
                _wait_for_journal(journal, len(pairs) - 1)
            finally:
                _killpg_quietly(proc, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            _killpg_quietly(proc, signal.SIGKILL)  # never leak a hung scan
        assert proc.returncode == 130
        assert b"interrupted" in err
        assert pair_count(str(journal)) == len(pairs) - 1

    def test_sigint_during_a_journal_append_ends_gracefully(self, tmp_path):
        """Ctrl-C while a serial scan appends a pair to its journal (the
        append defers the signal and re-raises it after the write): the
        scan still ends like any interrupted scan -- the partial report,
        a trace closed by ``profile`` and an interrupted ``scan.end``, a
        ``--metrics`` file that counts what the report and the journal
        hold, exit 130 and a journal ``--resume`` accepts."""
        if signal.getsignal(signal.SIGINT) == signal.SIG_IGN:
            pytest.skip("SIGINT is ignored in this environment")
        exe = masking_execution(3)
        exe_path = tmp_path / "mask3.json"
        serialize.save(exe, str(exe_path))
        journal, trace = tmp_path / "j.jsonl", tmp_path / "t.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        # append 1 is the journal header, 3 the second pair's record
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "races", str(exe_path),
                "--checkpoint", str(journal), "--trace", str(trace),
                "--profile", str(tmp_path / "p.json"),
                "--metrics", str(tmp_path / "m.prom"),
                "--failpoints", "checkpoint.append=sleep:3@nth=3",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            start_new_session=True,
        )
        try:
            try:
                _wait_for_journal(journal, 1)
                time.sleep(0.5)  # into the second append's sleep
            finally:
                _killpg_quietly(proc, signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            _killpg_quietly(proc, signal.SIGKILL)
        assert proc.returncode == 130
        assert b"(interrupted: 2/3 pairs classified)" in out
        records = read_trace(str(trace))
        assert [r["kind"] for r in records[-2:]] == ["profile", "scan.end"]
        assert records[-1]["interrupted"] is True
        assert records[-1]["done"] == 2
        assert pair_count(str(journal)) == 2
        metrics = (tmp_path / "m.prom").read_text().splitlines()
        assert "repro_scan_interrupted 1" in metrics
        assert "repro_scan_up 0" in metrics
        assert "repro_scan_pairs_done 2" in metrics
        assert "repro_checkpoint_writes_total 2" in metrics
        assert cli_main([
            "races", str(exe_path), "--checkpoint", str(journal), "--resume",
        ]) == 0
        assert pair_count(str(journal)) == 3


# ----------------------------------------------------------------------
class TestOnePoolRules:
    """``races --jobs N`` runs on the query pool: the worker settings,
    the attempt budget and the wall rule are the pool's."""

    @staticmethod
    def _cli_reports(tmp_path, exe, *extra):
        """``races --feasible`` at ``--jobs 1`` and ``--jobs 2``: the exit
        statuses and the saved reports, by job count."""
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        codes, reports = {}, {}
        for jobs in (1, 2):
            out = tmp_path / f"report{jobs}.json"
            codes[jobs] = cli_main([
                "races", str(exe_path), "--feasible", "--jobs", str(jobs),
                "--save", str(out), *extra,
            ])
            reports[jobs] = serialize.load_report(str(out))
        return codes, reports

    @staticmethod
    def _classified(report):
        return [(c.a, c.b, c.status, c.resource, c.decided_by)
                for c in report.classifications]

    @staticmethod
    def _tier_table(report):
        snap = report.planner.snapshot()
        for tally in snap["tiers"].values():
            del tally["elapsed"]  # wall time, the only free column
        return snap

    def test_jobs_2_follows_the_tier_ladder(self, tmp_path):
        codes, reports = self._cli_reports(
            tmp_path, contended_brawl_execution(5),
            "--backends", "structural,observed",
        )
        assert codes == {1: 3, 2: 3}  # the ladder leaves pairs unknown
        assert self._classified(reports[2]) == self._classified(reports[1])
        assert self._tier_table(reports[2]) == self._tier_table(reports[1])
        assert set(reports[1].planner.tiers) == {"structural", "observed"}
        assert reports[1].unknown_pairs

    def test_jobs_2_ships_an_empty_feasible_set(self, tmp_path):
        """F is empty (a P that no V releases): the scan's planner
        settles FALSE before the pool starts and every worker takes it
        as known, so ``--jobs 2`` prints the ``--jobs 1`` report."""
        b = ExecutionBuilder()
        b.process("A").write("x")
        waiter = b.process("B")
        waiter.sem_p("s")
        waiter.write("x")
        b.process("C").read("x")
        b.dependence(0, 3)  # one pair's query runs on a relaxed F
        # the observed schedule cannot replay: nothing confirms F
        exe = b.build(observed_schedule=[0, 1, 2, 3])
        codes, reports = self._cli_reports(tmp_path, exe)
        assert codes == {1: 0, 2: 0}
        assert self._classified(reports[2]) == self._classified(reports[1])
        assert self._tier_table(reports[2]) == self._tier_table(reports[1])
        assert {c.status for c in reports[1].classifications} == {
            "infeasible"
        }
        assert len(reports[1].classifications) == 3

    def test_ctrl_c_while_settling_base_feasibility_is_a_partial_scan(
        self, monkeypatch
    ):
        # the first pair's query settles "is F non-empty" first, and the
        # observed tier is where that check goes on this execution
        detector = RaceDetector(masking_execution(3))

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(detector.planner.ctx, "observed_witness", interrupted)
        report = detector.feasible_races(runner=SupervisedScanner(jobs=2))
        assert report.interrupted and report.classifications == []

    @staticmethod
    def _unreplayable(exe):
        """``exe`` with its processes' events observed in reverse process
        order: a schedule that does not replay, so only the engine can
        show that F is non-empty."""
        doc = serialize.execution_to_dict(exe)
        obs = list(exe.observed_schedule)
        procs = sorted({exe.event(e).process for e in obs}, key=str)
        doc["observed_schedule"] = sorted(obs, key=lambda e: (
            -procs.index(exe.event(e).process), obs.index(e)
        ))
        return serialize.execution_from_dict(doc)

    def test_per_pair_states_bound_the_base_feasibility_check(self, tmp_path):
        """``--per-pair-states`` alone bounds every pair's query, the
        parent's base feasibility check included: the engine cannot
        show F non-empty in one state, so at ``--jobs 1`` and ``--jobs 2``
        every pair the structural tier cannot settle stays unknown."""
        exe = self._unreplayable(contended_brawl_execution(5))
        codes, reports = self._cli_reports(
            tmp_path, exe, "--per-pair-states", "1"
        )
        assert codes == {1: 3, 2: 3}
        assert self._classified(reports[2]) == self._classified(reports[1])
        undecided = {c.status for c in reports[2].classifications
                     if c.decided_by != "structural"}
        assert undecided == {"unknown"}

    def test_workers_reuse_the_member_of_f_their_engine_found(
        self, tmp_path
    ):
        """Twenty states per pair let the engine show F non-empty but
        not finish some pair's own search.  A worker runs the whole
        plan, so, as at ``--jobs 1``, its witness tier answers such a
        pair from the member of F its base check found."""
        exe = self._unreplayable(contended_brawl_execution(5))
        codes, reports = self._cli_reports(
            tmp_path, exe, "--per-pair-states", "20"
        )
        assert codes == {1: 3, 2: 3}
        assert self._classified(reports[2]) == self._classified(reports[1])
        assert ("feasible", "witness") in {
            (c.status, c.decided_by) for c in reports[2].classifications
        }

    def test_memory_capped_pool_keeps_an_unbounded_base_check(self):
        """With no state or time cap, every engine search -- the base
        feasibility check's included -- stays in the workers, under
        their rlimit: the parent's check stops below the engine and a
        worker settles it."""
        exe = self._unreplayable(contended_brawl_execution(3))
        sink = RecordingSink()
        report = RaceDetector(exe).feasible_races(runner=SupervisedScanner(
            jobs=1, limits=ResourceLimits(max_memory_mb=256), tracer=sink,
        ), tracer=sink)
        queries = [r for r in sink.records if r["kind"] == "query"]
        parent = [r for r in queries if "worker" not in r]
        searched = [r for r in queries
                    if any(e["tier"] == "engine" for e in r["tiers"])]
        assert searched and all("worker" in r for r in searched)
        assert parent and all(r["relation"] != "feasible" for r in parent)
        assert any(r["relation"] == "feasible" and r["decided_by"] == "exact"
                   for r in searched)
        serial = RaceDetector(exe).feasible_races()
        assert self._classified(report) == self._classified(serial)

    @needs_posix_kill
    def test_cold_workers_that_never_boot_end_at_the_scan_deadline(
        self, tmp_path
    ):
        """No worker ever reports ready, and the scan has a deadline
        but no per-pair timeout: the in-flight pairs are still killed
        at the deadline plus ``wall_grace`` (5 s) and classified
        UNKNOWN (deadline), the queued ones at the deadline.  Every
        pair of this execution reaches the engine tier, so each one is
        the pool's."""
        exe = mutex_execution(3)
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        out = tmp_path / "report.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "races", str(exe_path),
             "--feasible", "--jobs", "2", "--timeout", "2",
             "--failpoints", "pool.worker.start=hang", "--save", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            start_new_session=True,
        )
        started = time.monotonic()
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            raise AssertionError("the scan hung past its deadline")
        finally:
            _killpg_quietly(proc, signal.SIGKILL)  # never leak a hung scan
        elapsed = time.monotonic() - started
        assert proc.returncode == 3
        assert elapsed < 2 + 5 + 15  # timeout + wall_grace + slack
        report = serialize.load_report(str(out))
        assert len(report.classifications) == len(exe.conflicting_pairs())
        assert all(
            c.status == UNKNOWN and c.resource == "deadline"
            for c in report.classifications
        )


class TestForkedWorkers:
    """Workers are forked from one preloaded forkserver per process.
    The server's environment and registry date from its own start, so
    the failpoint schedule travels with each worker; a boot that always
    fails ends the scan; and the preload takes however ``repro`` was
    found."""

    def test_schedule_armed_after_the_server_started_reaches_workers(self):
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        serial = by_pair(RaceDetector(exe).feasible_races())

        def scan():
            scanner = SupervisedScanner(jobs=2, retry=RetryPolicy(max_retries=0))
            return by_pair(RaceDetector(exe).feasible_races(runner=scanner))

        scan()  # leaves this process's forkserver running
        faults.arm(pair_fault(pairs[0], "segv"))
        got = scan()
        assert got[pairs[0]].status == UNKNOWN
        assert got[pairs[0]].resource == "crash"
        faults.disarm()
        got = scan()
        assert {p: c.status for p, c in got.items()} == {
            p: c.status for p, c in serial.items()
        }

    def test_disarm_reaches_workers_of_a_server_started_armed(self, tmp_path):
        """A fresh process whose forkserver starts while a schedule is
        armed: the workers of the next scan, after ``disarm``, run
        clean."""
        exe = masking_execution(3)
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        pair = exe.conflicting_pairs()[0]
        script = (
            "import json, sys\n"
            "from repro import faults\n"
            "from repro.model import serialize\n"
            "from repro.races.detector import RaceDetector\n"
            "from repro.supervise import RetryPolicy, SupervisedScanner\n"
            "def scan(exe):\n"
            "    s = SupervisedScanner(jobs=2, retry=RetryPolicy(max_retries=0))\n"
            "    r = RaceDetector(exe).feasible_races(runner=s)\n"
            "    return [[c.a, c.b, c.status, c.resource] for c in r.classifications]\n"
            "exe = serialize.load(sys.argv[1])\n"
            f"faults.arm({pair_fault(pair, 'segv')!r})\n"
            "print(json.dumps(scan(exe)))\n"
            "faults.disarm()\n"
            "print(json.dumps(scan(exe)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAILPOINTS", None)
        out = subprocess.run(
            [sys.executable, "-c", script, str(exe_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        armed, disarmed = map(json.loads, out.stdout.splitlines())
        assert [pair[0], pair[1], UNKNOWN, "crash"] in armed
        serial = RaceDetector(exe).feasible_races()
        assert disarmed == [
            [c.a, c.b, c.status, c.resource] for c in serial.classifications
        ]

    @needs_posix_kill
    def test_workers_that_never_boot_end_the_scan_in_one_line(self, tmp_path):
        """Every worker segfaults before it reports ready: the scan
        starts ``2 * jobs`` workers, then exits 1 with one stderr line
        naming the count and the exit code, and journals no pair as
        classified.  Kept to three pairs and two
        jobs, so even a pool without the rule starts only tens of
        processes; every pair reaches the engine tier, so every pair
        needs a worker."""
        exe = mutex_execution(3)
        assert len(exe.conflicting_pairs()) <= 3
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        trace = tmp_path / "trace.jsonl"
        journal = tmp_path / "scan.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "races", str(exe_path),
             "--jobs", "2", "--failpoints", "pool.worker.start=segv",
             "--trace", str(trace), "--checkpoint", str(journal)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            _killpg_quietly(proc, signal.SIGKILL)
        assert proc.returncode == 1
        lines = err.decode().splitlines()
        assert lines == [
            "repro: 4 pool workers in a row died before reporting ready "
            "(last exit code -11); no worker could start"
        ]
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert sum(r["kind"] == "worker.spawn" for r in records) <= 4
        # no pair was answered, so a resume has nothing to reuse
        assert pair_count(str(journal)) == 0

    def test_preload_takes_without_pythonpath(self, tmp_path):
        """``forkserver.main`` ignores the parent's ``sys.path``: a
        caller that finds ``repro`` only through ``sys.path.insert``
        still gets workers forked with the pool module imported, and
        its environment back unchanged."""
        (tmp_path / "probe.py").write_text(
            "import sys\n"
            "def report(conn):\n"
            "    conn.send('repro.supervise.pool' in sys.modules)\n"
        )
        (tmp_path / "main.py").write_text(
            "import multiprocessing, os, sys\n"
            f"sys.path.insert(0, {SRC_DIR!r})\n"
            "import probe\n"
            "if __name__ == '__main__':\n"
            "    # imported here only: a child runs this file again\n"
            "    from repro.supervise.pool import QueryWorkerPool\n"
            "    before = dict(os.environ)\n"
            "    QueryWorkerPool(workers=1).close()\n"
            "    ctx = multiprocessing.get_context('forkserver')\n"
            "    r, w = ctx.Pipe(duplex=False)\n"
            "    child = ctx.Process(target=probe.report, args=(w,))\n"
            "    child.start()\n"
            "    print(r.recv(), dict(os.environ) == before)\n"
            "    child.join()\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(tmp_path / "main.py")], cwd=str(tmp_path),
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "True"]


class TestRaceWitnessesReplay:
    """A race witness replays on the execution minus the pair's own
    dependences -- however the race reached the caller."""

    @staticmethod
    def _replays(report):
        assert report.races
        for race in report.races:
            race.witness.validate()
            assert race.witness.concurrent(race.a, race.b)
        for c in report.classifications:
            if c.witness is not None:
                c.witness.validate()

    def test_parallel_scan_witnesses_replay(self):
        exe = masking_execution(3)
        assert exe.dependences  # the pairs' own edges must be dropped
        self._replays(
            RaceDetector(exe).feasible_races(runner=SupervisedScanner(jobs=2))
        )

    def test_resumed_and_reloaded_witnesses_replay(self, tmp_path):
        from repro.solve import DEFAULT_PLAN
        from repro.supervise.checkpoint import CheckpointJournal, scan_fingerprint

        exe = masking_execution(3)
        exe_path = tmp_path / "exe.json"
        serialize.save(exe, str(exe_path))
        journal = tmp_path / "scan.jsonl"
        saved, resumed = tmp_path / "saved.json", tmp_path / "resumed.json"
        assert cli_main([
            "races", str(exe_path), "--jobs", "2",
            "--checkpoint", str(journal), "--save", str(saved),
        ]) == 0
        assert cli_main([
            "races", str(exe_path), "--checkpoint", str(journal),
            "--resume", "--save", str(resumed),
        ]) == 0
        self._replays(serialize.load_report(str(saved)))
        self._replays(serialize.load_report(str(resumed)))
        with CheckpointJournal.open(
            str(journal), scan_fingerprint(exe, plan=DEFAULT_PLAN, por="sleep"),
            resume=True,
        ) as j:
            journaled = j.classifications(exe)
        assert len(journaled) == len(exe.conflicting_pairs())
        for c in journaled.values():
            c.witness.validate()


# ----------------------------------------------------------------------
class TestSecondInterruptDuringDrain:
    """A second Ctrl-C while the pool drains means "now": the pool
    stops draining and re-raises, so the CLI exits 130 -- with every
    record appended before the hard exit still parseable."""

    def test_hard_interrupt_reraises_without_torn_journal(self, tmp_path):
        from repro.supervise.checkpoint import CheckpointJournal, scan_fingerprint

        # every pair reaches the engine: each append is a worker's answer
        exe = mutex_execution(3)
        journal_path = str(tmp_path / "scan.jsonl")
        journal = CheckpointJournal.open(journal_path, scan_fingerprint(exe))
        hits = []

        def interrupted_append(c):
            # model Ctrl-C landing right after each durable append: the
            # first raise starts the drain, the second one lands inside
            # it and must hard-abort the scan
            journal.append(c)
            hits.append(c)
            raise KeyboardInterrupt

        # a generous drain window so the second in-flight pair's result
        # deterministically arrives while the pool is still draining
        scanner = SupervisedScanner(jobs=2, drain_grace=30.0)
        with pytest.raises(KeyboardInterrupt):
            RaceDetector(exe).feasible_races(
                runner=scanner, on_classified=interrupted_append
            )
        journal.close()
        # no torn tail: the journal parses, one record per append
        assert pair_count(journal_path) == len(hits)
        assert len(hits) >= 2  # the hard exit happened during the drain
