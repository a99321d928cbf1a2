"""Timing statistics, in-memory spans and the result line.

Stdlib only, and free of ``repro`` imports, so the harness in ``run.py``
can use the result helpers without loading the program under test.
"""

from __future__ import annotations

import bisect
import functools
import gc
import json
import math
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: a tail percentile must leave at least this many samples beyond it
TAIL_BEYOND = 10


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` for the highest percentile
    (to 0.1) that leaves at least ``TAIL_BEYOND`` samples beyond it, and
    never below the median (too few samples for a tail).

    The percentile follows the sample count instead of stepping through
    fixed rungs (p90, p99, ...), so a run that does a little more or
    less work moves the tail a little, not by a whole rung."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(50.0, math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0)
    k = math.floor((n - 1) * p / 100.0)
    return p, percentile(ordered, p), n - 1 - k


#: the reference slice's typical duration on a 2-vCPU 2.1 GHz Xeon VM;
#: normalised times are times at the speed this host had then
REFERENCE_S = 0.003
_REF_TABLE = {i: (i * 7919) % 1009 for i in range(256)}


def _ref_step(a: int, b: int) -> int:
    return (a * 31 + b) % 65521


def reference_slice(iters: int = 20_000) -> float:
    """Seconds taken by a fixed piece of pure-Python work (calls, dict
    lookups, integer arithmetic) that uses nothing of the program under
    test.  Its collector is off and it allocates no tracked objects, so
    the program's heap does not change its cost."""
    table = _REF_TABLE
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc = _ref_step(acc, table[i & 255])
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference slices interleaved with the measured work, to take the
    host's speed out of CPU-bound times.

    On a shared host the same CPU work can take 40% longer from one
    minute to the next; thread CPU time drifts alike, so it is no
    remedy.  The reference slice slows down with the host, and the
    program does not change it, so ``raw * REFERENCE_S / slice`` (the
    slices taken nearest in time) is the time at the reference speed:
    host drift cancels, a slower program still shows in full."""

    def __init__(self, every: float = 0.1, nearest: int = 5) -> None:
        self.every = every
        self.nearest = nearest
        self.times: List[float] = []
        self.slices: List[float] = []

    def sample(self) -> None:
        t = time.perf_counter()
        self.slices.append(reference_slice())
        self.times.append(t)

    def maybe_sample(self) -> None:
        """A slice if ``every`` seconds have passed since the last one."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.every:
            self.sample()

    def factor(self, t: float) -> float:
        """``REFERENCE_S`` over the median of the slices nearest ``t``."""
        if not self.slices:
            raise ValueError("no reference slices taken")
        i = bisect.bisect(self.times, t)
        k = self.nearest
        window = range(max(0, i - k), min(len(self.times), i + k))
        near = sorted(window, key=lambda j: abs(self.times[j] - t))[:k]
        return REFERENCE_S / statistics.median(self.slices[j] for j in near)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


class Spans:
    """Spans kept in memory during a traced run and written out once at
    the end: ``(name, start, end)`` in ``time.perf_counter`` seconds.

    Recording is a list append under a lock (handler and client threads
    record concurrently); nothing is written while the run measures."""

    def __init__(self, capacity: int = 2_000_000) -> None:
        self.capacity = capacity
        self.records: List[Tuple[str, float, float]] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._open = threading.local()  # names of this thread's open spans

    def add(self, name: str, start: float, end: float) -> None:
        with self._lock:
            if len(self.records) >= self.capacity:
                self.dropped += 1
            else:
                self.records.append((name, start, end))

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, t0, time.perf_counter())

    def wrap(self, owner, attr: str, name: str, skip_inside: Optional[str] = None) -> None:
        """Replace ``owner.attr`` (a function or bound method) by a
        version that records one span per call -- except for calls made
        inside a wrapped call named ``skip_inside``."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            stack = self._open.__dict__.setdefault("names", [])
            if skip_inside in stack:
                return inner(*args, **kwargs)
            stack.append(name)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.add(name, t0, time.perf_counter())
                stack.pop()

        setattr(owner, attr, timed)

    def totals(self) -> Dict[str, float]:
        """Seconds spent in each span name."""
        out: Dict[str, float] = {}
        with self._lock:
            for name, start, end in self.records:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def dump(self, path: str, extra: Optional[List[dict]] = None) -> None:
        with open(path, "w") as fh:
            for name, start, end in self.records:
                fh.write(json.dumps({"name": name, "start": start, "end": end}))
                fh.write("\n")
            for rec in extra or ():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            if self.dropped:
                fh.write(json.dumps({"name": "spans.dropped", "count": self.dropped}) + "\n")


RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def parse_result(line: str) -> dict:
    """Validate a result line's shape; raises ValueError when malformed."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or tuple(sorted(doc)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError(f"result keys must be {RESULT_KEYS}")
    if not isinstance(doc["attempted"], int) or doc["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(doc["failed"], int) or doc["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    if not isinstance(doc["metrics"], dict):
        raise ValueError("metrics must be an object")
    for name, rec in doc["metrics"].items():
        if (not isinstance(rec, dict) or not isinstance(rec.get("value"), (int, float))
                or not isinstance(rec.get("unit"), str)):
            raise ValueError(f"metric {name} needs a numeric value and a unit")
    return doc
