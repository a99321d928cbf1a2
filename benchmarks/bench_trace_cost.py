"""The stated tracing cost bound (DESIGN 4.9), checked outside perfbench.

A serial ``feasible_races`` traced to a
:class:`~repro.obs.trace.JsonlTraceSink` costs at most :data:`BOUND`
times the untraced scan on the contended brawl x16 (120 conflicting
pairs), taken as the median traced/untraced ratio over :data:`PAIRS`
interleaved pairs of runs.  The median of paired ratios shrugs off a
noisy neighbour that slows a few runs; interleaving keeps a slow phase
of the machine from landing on one side only.

CI runs it as a script, which exits 1 past the bound::

    PYTHONPATH=src python benchmarks/bench_trace_cost.py

Under pytest it is one more benchmark gate.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from typing import List, Optional

from bench_race_detection import brawl_family
from conftest import report

from repro.obs import JsonlTraceSink
from repro.races.detector import RaceDetector

#: the stated bound on the median traced / untraced scan time
BOUND = 1.25
#: interleaved traced/untraced pairs of runs
PAIRS = 11


def _scan_seconds(exe, trace_path: Optional[str] = None) -> float:
    """One serial scan's wall time; a traced one includes opening and
    closing (flushing) its sink."""
    t0 = time.perf_counter()
    sink = JsonlTraceSink(trace_path) if trace_path else None
    try:
        RaceDetector(exe).feasible_races(tracer=sink)
    finally:
        if sink is not None:
            sink.close()
    return time.perf_counter() - t0


def trace_cost_ratios(pairs: int = PAIRS) -> List[float]:
    """Traced / untraced wall time of ``pairs`` pairs of serial scans;
    which run of a pair goes first alternates."""
    exe = brawl_family(16, contended=True)
    assert len(exe.conflicting_pairs()) == 120
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        _scan_seconds(exe)  # warm imports and caches on both paths
        _scan_seconds(exe, path)
        for i in range(pairs):
            if i % 2:
                traced = _scan_seconds(exe, path)
                plain = _scan_seconds(exe)
            else:
                plain = _scan_seconds(exe)
                traced = _scan_seconds(exe, path)
            ratios.append(traced / plain)
    return ratios


def describe(ratios: List[float]) -> str:
    return (
        f"traced/untraced serial scan, brawl x16 contended (120 pairs), "
        f"{len(ratios)} pairs: median {statistics.median(ratios):.3f}x, "
        f"max {max(ratios):.3f}x (bound {BOUND}x)"
    )


def test_tracing_cost_within_bound():
    ratios = trace_cost_ratios()
    report("trace_cost", [describe(ratios)])
    assert statistics.median(ratios) <= BOUND, ratios


if __name__ == "__main__":
    ratios = trace_cost_ratios()
    print(describe(ratios))
    sys.exit(0 if statistics.median(ratios) <= BOUND else 1)
