"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` as a benchmark runner would and asserts the
harness contract: a failure mid-run leaves no process behind, a wrong
answer fails the run, and a checkout without the program exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import measure  # noqa: E402


def run_bench(root, *args, timeout=170):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def result_printed(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        measure.parse_result(lines[-1])
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "workload,inject",
    [("serve-rw", "raise"), ("serve-rw", "exit"),
     ("scan-jobs2", "raise"), ("scan-jobs2", "exit")],
)
def test_failure_mid_run_leaves_no_process(workload, inject):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "3",
                     "--trace", "0", "--inject", inject)
    assert proc.returncode != 0
    assert not result_printed(proc.stdout)
    pgid = int(re.search(r"workload process group (\d+)", proc.stderr).group(1))
    assert not group_alive(pgid), proc.stderr
    if inject == "exit":
        # the workload died with its pool workers still running: the
        # harness must have found and killed them
        live = int(re.search(r"injected exit with (\d+) live", proc.stderr).group(1))
        assert live >= 1
        assert "still alive after it ended" in proc.stderr


def _copy_benchmark(tmp_path, with_program=True):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_program:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return str(tmp_path)


def test_wrong_answer_fails_the_run(tmp_path):
    root = _copy_benchmark(tmp_path)
    path = os.path.join(root, "perfbench", "inputs", "exact-hard.json")
    with open(path) as fh:
        doc = json.load(fh)
    for slot in doc["slots"]:
        slot["expected"] = not slot["expected"]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    proc = run_bench(root, "--workload", "exact-hard", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    assert "WRONG ANSWER" in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_benchmark(tmp_path, with_program=False)
    proc = run_bench(root, "--workload", "scan-corpus", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert not result_printed(proc.stdout)


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value, beyond = measure.tail(values)
    assert (pct, beyond) == (90.0, 10)
    assert sum(v > value for v in values) == 10
    pct, _, beyond = measure.tail(list(range(437)))
    assert beyond >= 10 and pct == 97.7


def test_unknown_reply_counts_as_failed_and_is_not_verified():
    import workloads

    class Degraded(workloads.ServeRW):
        """serve-rw whose daemon answers every query UNKNOWN 200."""

        def __init__(self):
            self.ops = [{"slot": "read0/chb", "write": False, "exe": ("read", 0),
                         "relation": "chb", "a": 0, "b": 1, "expected": True}]
            self.exes = {}

        def lanes(self):
            return [self.ops]

        def run(self, op, tr):
            return {"verdict": "UNKNOWN", "resource": "deadline"}

    wl = Degraded()
    phase = workloads.drive(wl, None)
    assert phase.failed == 1 and len(phase.latencies) == 1
    assert phase.last_pass == []  # so no TRUE-without-a-witness verdict
    workloads.verify_all(wl, phase.last_pass)


def test_host_speed_scales_by_nearest_slices():
    speed = measure.HostSpeed(nearest=2)
    speed.times = [0.0, 1.0, 2.0, 3.0]
    speed.slices = [measure.REFERENCE_S] * 2 + [2 * measure.REFERENCE_S] * 2
    assert speed.factor(0.2) == 1.0
    assert speed.factor(2.8) == 0.5  # a host at half speed: times halve
