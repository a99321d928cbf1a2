"""Unit tests for the scan checkpoint journal."""

import json
import os

import pytest

from repro.races.detector import FEASIBLE, RaceDetector
from repro.supervise.checkpoint import (
    CheckpointJournal,
    JournalError,
    JournalMismatchError,
    pair_count,
    scan_fingerprint,
)
from repro.workloads.programs import figure1_execution


@pytest.fixture
def exe():
    return figure1_execution()


@pytest.fixture
def journaled_scan(exe, tmp_path):
    """A completed scan journaled at ``path``; returns (path, fp, report)."""
    path = str(tmp_path / "scan.jsonl")
    fp = scan_fingerprint(exe)
    with CheckpointJournal.open(path, fp) as journal:
        report = RaceDetector(exe).feasible_races(on_classified=journal.append)
    return path, fp, report


class TestFingerprint:
    def test_deterministic(self, exe):
        assert scan_fingerprint(exe) == scan_fingerprint(exe)

    def test_sensitive_to_budget_options(self, exe):
        assert scan_fingerprint(exe) != scan_fingerprint(exe, max_states=10)
        assert scan_fingerprint(exe, per_pair_max_states=5) != scan_fingerprint(
            exe, per_pair_max_states=6
        )

    def test_sensitive_to_execution(self, exe):
        other = exe.without_dependences()
        assert scan_fingerprint(exe) != scan_fingerprint(other)

    def test_sensitive_to_solver_plan(self, exe):
        from repro.solve.backends import DEFAULT_PLAN

        # resuming under a different ladder would mix verdict strengths
        # in one journal, so the plan is part of the scan identity
        assert scan_fingerprint(exe, plan=DEFAULT_PLAN) != scan_fingerprint(
            exe, plan=("structural", "observed", "hmw", "engine")
        )
        assert scan_fingerprint(exe, plan=DEFAULT_PLAN) == scan_fingerprint(
            exe, plan=list(DEFAULT_PLAN)
        )
        assert scan_fingerprint(exe) != scan_fingerprint(exe, plan=DEFAULT_PLAN)

    def test_resume_with_changed_plan_is_refused(self, exe, tmp_path):
        from repro.solve.backends import DEFAULT_PLAN

        path = str(tmp_path / "scan.jsonl")
        with CheckpointJournal.open(
            path, scan_fingerprint(exe, plan=DEFAULT_PLAN)
        ) as journal:
            RaceDetector(exe).feasible_races(on_classified=journal.append)
        with pytest.raises(JournalMismatchError, match="solver plan"):
            CheckpointJournal.open(
                path,
                scan_fingerprint(exe, plan=("structural", "observed", "hmw", "engine")),
                resume=True,
            )


class TestJournalRoundTrip:
    def test_scan_journal_counts_pairs(self, exe, journaled_scan):
        path, _, report = journaled_scan
        assert pair_count(path) == report.conflicting_pairs_examined

    def test_resume_reuses_everything(self, exe, journaled_scan):
        path, fp, report = journaled_scan
        with CheckpointJournal.open(path, fp, resume=True) as journal:
            pre = journal.classifications(exe)
        assert set(pre) == {(c.a, c.b) for c in report.classifications}
        for (a, b), c in pre.items():
            if c.status == FEASIBLE:
                c.witness.validate(include_dependences=False)

    def test_resumed_scan_skips_journaled_pairs(self, exe, journaled_scan):
        path, fp, report = journaled_scan
        recomputed = []
        with CheckpointJournal.open(path, fp, resume=True) as journal:
            pre = journal.classifications(exe)
            again = RaceDetector(exe).feasible_races(
                precomputed=pre, on_classified=recomputed.append
            )
        assert recomputed == []  # nothing left to compute
        assert pair_count(path) == report.conflicting_pairs_examined
        assert again.summary() == report.summary()


class TestJournalRobustness:
    def test_torn_final_line_dropped_and_truncated(self, exe, journaled_scan):
        path, fp, report = journaled_scan
        with open(path) as fh:
            whole = fh.read()
        torn = whole[: len(whole) - 9]  # cut inside the final record
        with open(path, "w") as fh:
            fh.write(torn)
        with CheckpointJournal.open(path, fp, resume=True) as journal:
            pre = journal.classifications(exe)
            assert len(pre) == report.conflicting_pairs_examined - 1
            # appends after a torn tail must start on their own line
            missing = [
                c for c in report.classifications if (c.a, c.b) not in pre
            ]
            journal.append(missing[0])
        assert pair_count(path) == report.conflicting_pairs_examined
        with open(path) as fh:
            for line in fh:
                json.loads(line)  # every line is whole again

    def test_fingerprint_mismatch_refuses_resume(self, journaled_scan):
        path, _, _ = journaled_scan
        with pytest.raises(JournalMismatchError):
            CheckpointJournal.open(path, "not-the-fingerprint", resume=True)

    def test_mid_file_corruption_fails_loudly(self, journaled_scan):
        path, fp, _ = journaled_scan
        lines = open(path).read().splitlines()
        lines[1] = lines[1][:5]  # corrupt a non-final record
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            CheckpointJournal.open(path, fp, resume=True)

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.jsonl")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}\n')
        with pytest.raises(JournalError):
            pair_count(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(JournalError):
            pair_count(path)

    def test_fresh_open_overwrites(self, exe, journaled_scan, tmp_path):
        path, fp, _ = journaled_scan
        with CheckpointJournal.open(path, fp) as journal:
            assert journal.resumed_records == []
        assert pair_count(path) == 0
