"""The four ``repro trace`` views over one streaming fold.

``tests/data/traces/`` holds small traces of every shape the views
meet (see its README) and ``expected.json`` the stdout, stderr and
exit status each view printed for each of them before the views shared
one reader.  The golden test requires every (trace x view) pair to
print exactly that; only ``serve-tie`` x ``serve-summary`` differs,
because that reader crashed on it.
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.model import serialize
from repro.obs import TraceSummary
from repro.obs.trace import read_trace
from tests.test_supervise import masking_execution

DATA = os.path.join(os.path.dirname(__file__), "data", "traces")
VIEWS = ("summarize", "serve-summary", "profile", "timeline")
TRACES = sorted(
    name[: -len(".jsonl")]
    for name in os.listdir(DATA)
    if name.endswith(".jsonl")
)

with open(os.path.join(DATA, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


def test_every_trace_and_view_has_a_golden():
    assert sorted(EXPECTED) == sorted(
        f"{trace}/{view}" for trace in TRACES for view in VIEWS
    )


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("trace", TRACES)
def test_view_output_is_unchanged(trace, view, capsys):
    want = EXPECTED[f"{trace}/{view}"]
    status = cli_main(["trace", view, os.path.join(DATA, f"{trace}.jsonl")])
    out, err = capsys.readouterr()
    assert (status, out, err) == (
        want["status"], want["stdout"], want["stderr"]
    )


def test_slowest_ties_keep_arrival_order():
    """Twelve requests with the same id and latency (clients choose
    their ``X-Repro-Request-Id``, so duplicates are legal): the
    slowest-N list keeps the first N to arrive, in arrival order,
    instead of comparing the records themselves."""
    records = [{"kind": "trace.start", "t": 0.0}] + [
        {"kind": "serve.request", "t": float(i), "request_id": "dup",
         "endpoint": "POST /query", "status": 200, "elapsed": 0.005,
         "arrival": i}
        for i in range(12)
    ]
    summary = TraceSummary(records, slowest=10)
    assert [rec["arrival"] for rec in summary.slowest] == list(range(10))
    assert summary.requests == {"POST /query": 12}


def test_slowest_still_orders_by_latency_first():
    records = [
        {"kind": "serve.request", "t": float(i), "request_id": f"r{i}",
         "endpoint": "POST /query", "status": 200, "elapsed": elapsed}
        for i, elapsed in enumerate([0.2, 0.1, 0.3, 0.1, 0.3])
    ]
    summary = TraceSummary(records, slowest=3)
    assert [rec["request_id"] for rec in summary.slowest] == [
        "r2", "r4", "r0",
    ]


def test_views_with_nothing_to_show_return_none():
    summary = TraceSummary([{"kind": "trace.start", "t": 0.0}])
    assert summary.describe_profile() is None
    assert summary.describe_timeline() is None
    assert summary.describe_serve() == "requests: 0 across 0 endpoint(s)"


def _untimed(record):
    """A trace record without what varies from run to run: the ``t``
    stamps and ``elapsed`` durations, at any depth."""
    if isinstance(record, dict):
        return {
            key: _untimed(value)
            for key, value in record.items()
            if key not in ("t", "elapsed")
        }
    if isinstance(record, list):
        return [_untimed(value) for value in record]
    return record


def _pinned_records(path):
    return [
        _untimed(rec) for rec in read_trace(path)
        if rec["kind"] != "engine.tick"  # throttled by wall time
    ]


def test_serial_scan_records_the_serial_fixture(tmp_path, capsys):
    """Re-record the ``serial`` fixture (a ``--trace --checkpoint`` scan
    of ``masking_execution(3)``): the same records in the same order,
    up to timing and the wall-clock-throttled engine ticks."""
    exe_path = tmp_path / "mask3.json"
    serialize.save(masking_execution(3), str(exe_path))
    trace = tmp_path / "serial.jsonl"
    status = cli_main([
        "races", str(exe_path), "--trace", str(trace),
        "--checkpoint", str(tmp_path / "journal.jsonl"),
    ])
    capsys.readouterr()
    assert status == 0
    assert _pinned_records(str(trace)) == _pinned_records(
        os.path.join(DATA, "serial.jsonl")
    )
