"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-corpus --seed 1 --seconds 20 --trace 0

Workloads: scan-corpus, exact-hard, serve-rw, scan-jobs2 (see
``perfbench/README.md``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).

The workload runs in a fresh process (``perfbench/workloads.py``) in a
session of its own.  When it has exited, this harness waits briefly for
every other process of that session, kills any that remain and fails
the run -- a benchmark run never leaves a process behind, whether it
passed, failed, crashed or timed out.  Exit status: 0 ok, 1 wrong
answer, 2 bad invocation or no program to measure, 3 the run failed.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import threading
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan-corpus", "exact-hard", "serve-rw", "scan-jobs2")
#: the whole run, harness included, must end within 180 s
CHILD_TIMEOUT = 165.0
#: how long processes of the run may take to exit after the workload
#: process did (the multiprocessing resource tracker exits on its own)
STRAGGLER_GRACE = 5.0


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def reap_group(pgid: int) -> bool:
    """Wait out stragglers of the process group, then kill the rest.
    Returns True when something had to be killed."""
    deadline = time.monotonic() + STRAGGLER_GRACE
    while group_alive(pgid):
        if time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    else:
        return False
    os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", choices=("raise", "exit"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    print(f"perfbench: workload process group {proc.pid}", file=sys.stderr, flush=True)

    def on_signal(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    # read on a thread and wait for the process itself: a leftover
    # grandchild holding the pipe open must not keep the harness waiting
    chunks = []
    reader = threading.Thread(
        target=lambda: chunks.append(proc.stdout.read()), daemon=True
    )
    reader.start()
    timed_out = False
    try:
        proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        timed_out = True
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()  # reap it: an unreaped child keeps its group alive
        leftovers = reap_group(proc.pid)
    reader.join()
    lines = "".join(chunks).splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    for line in body:
        print(line)
    if timed_out:
        print(f"perfbench: run exceeded {CHILD_TIMEOUT:.0f} s; killed", file=sys.stderr)
        return 3
    if leftovers:
        print("perfbench: processes of the run were still alive after it "
              "ended; killed them, failing the run", file=sys.stderr)
        return 3
    try:
        result = measure.parse_result(last)
    except ValueError as exc:
        if last:
            print(last)
        print(f"perfbench: workload exited {proc.returncode} without a valid "
              f"result ({exc})", file=sys.stderr)
        return 3
    print(last)
    if not result["correct"]:
        return 1
    return 0 if proc.returncode == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
