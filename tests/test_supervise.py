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
from repro.budget import Budget
from repro.cli import main as cli_main
from repro.lang.ast import Assign, Const, ProcessDef, Program, SemP, SemV, Shared
from repro.lang.interpreter import run_program
from repro.lang.scheduler import FixedScheduler
from repro.model import serialize
from repro.races import detector as detector_mod
from repro.races.detector import UNKNOWN, RaceDetector
from repro.supervise import (
    JournalError,
    ResourceLimits,
    RetryPolicy,
    SupervisedScanner,
    pair_count,
)
from repro.supervise.rlimits import apply_limits

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


def fault_key(pair):
    return f"{pair[0]},{pair[1]}"


def by_pair(report):
    return {(c.a, c.b): c for c in report.classifications}


# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_should_retry_bounds(self):
        p = RetryPolicy(max_retries=2)
        assert p.should_retry(1) and p.should_retry(2)
        assert not p.should_retry(3)

    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)

    def test_state_escalation(self):
        p = RetryPolicy(state_escalation=2.0)
        assert p.escalated_states(100, 0) == 100
        assert p.escalated_states(100, 1) == 200
        assert p.escalated_states(100, 2) == 400
        assert p.escalated_states(None, 2) is None

    def test_jitter_defaults_off_and_keys_are_ignored_then(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0)
        # with jitter off, a key must not perturb the exact schedule
        assert p.delay(1, key=(3, 7)) == pytest.approx(0.1)
        assert p.delay(2, key=(3, 7)) == pytest.approx(0.2)

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(backoff_base=0.1, jitter=0.5, jitter_seed=42)
        d1 = p.delay(1, key=(3, 7))
        assert d1 == p.delay(1, key=(3, 7))  # same key: same delay
        # jitter only ever *shortens*, within the configured fraction
        assert 0.05 <= d1 <= 0.1
        assert p.delay(2, key=(3, 7)) != pytest.approx(2 * d1)

    def test_jitter_spreads_workers_after_a_shared_cause_crash(self):
        # N workers retrying the same attempt must not back off in
        # lockstep: their per-key delays should be well spread
        p = RetryPolicy(backoff_base=1.0, jitter=0.5, jitter_seed=0)
        delays = {p.delay(1, key=(a, a + 1)) for a in range(20)}
        assert len(delays) >= 15
        assert all(0.5 <= d <= 1.0 for d in delays)
        # a different seed reshuffles deterministically
        other = RetryPolicy(backoff_base=1.0, jitter=0.5, jitter_seed=1)
        assert {other.delay(1, key=(a, a + 1)) for a in range(20)} != delays


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
        scanner = SupervisedScanner(
            jobs=2,
            limits=ResourceLimits(max_memory_mb=256),
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
            pair_wall_timeout=2.0,
            faults={
                fault_key(crash_pair): {"action": "segv"},
                fault_key(oom_pair): {"action": "oom"},
                fault_key(hang_pair): {"action": "hang", "seconds": 600},
            },
        )
        report = RaceDetector(exe).feasible_races(runner=scanner)
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
        scanner = SupervisedScanner(
            jobs=2,
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
            faults={fault_key(pairs[0]): {"action": "segv", "attempts": 1}},
        )
        report = RaceDetector(exe).feasible_races(runner=scanner)
        serial = by_pair(RaceDetector(exe).feasible_races())
        assert by_pair(report)[pairs[0]].status == serial[pairs[0]].status

    def test_in_worker_exception_is_isolated(self):
        exe = masking_execution(3)
        pairs = exe.conflicting_pairs()
        scanner = SupervisedScanner(
            jobs=2,
            retry=RetryPolicy(max_retries=0),
            faults={fault_key(pairs[1]): {"action": "no-such-action"}},
        )
        report = RaceDetector(exe).feasible_races(runner=scanner)
        got = by_pair(report)
        assert got[pairs[1]].status == UNKNOWN
        assert got[pairs[1]].resource == "crash"
        serial = by_pair(RaceDetector(exe).feasible_races())
        for pair in (pairs[0], pairs[2]):
            assert got[pair].status == serial[pair].status

    def test_expired_deadline_skips_search(self):
        exe = masking_execution(3)
        report = RaceDetector(
            exe, budget=Budget.of(timeout=0.0)
        ).feasible_races(runner=SupervisedScanner(jobs=2))
        assert all(c.status == UNKNOWN for c in report.classifications)
        assert all(c.resource == "deadline" for c in report.classifications)


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


def _spawn_cli_scan(exe_path, journal_path, fault_spec):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "races", str(exe_path),
            "--jobs", "2", "--checkpoint", str(journal_path),
            "--fault-spec", json.dumps(fault_spec),
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
            exe_path, journal,
            {fault_key(pairs[0]): {"action": "hang", "seconds": 600}},
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
            exe_path, journal,
            {fault_key(pairs[0]): {"action": "hang", "seconds": 600}},
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


# ----------------------------------------------------------------------
class TestSecondInterruptDuringDrain:
    """A second Ctrl-C while the pool drains means "now": the pool
    stops draining and re-raises, so the CLI exits 130 -- with every
    record appended before the hard exit still parseable."""

    def test_hard_interrupt_reraises_without_torn_journal(self, tmp_path):
        from repro.supervise.checkpoint import CheckpointJournal, scan_fingerprint

        exe = masking_execution(3)
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
