"""Experiment O5 -- daemon request tracing is a pure observer.

The serving daemon's contract for ``--trace`` mirrors the search
profiler's: telemetry must never change an answer.  This study drives
the *same* query sequence through two daemons over separate fresh
witness stores -- one tracing every request into a JSONL sink, one
untraced -- and asserts:

* identical verdicts, identical ``decided_by`` provenance and
  identical race classifications, query by query (the observer
  property);
* the trace re-aggregates (``repro trace serve-summary``) to exactly
  the per-endpoint request counts the traced daemon's ``/status``
  document reports -- neither side over- nor under-counts;
* zero records dropped on a healthy disk (drops are for failing
  sinks, not steady state).

The cost column shows what the telemetry adds per request -- a few
spans' worth of dict-building and one buffered JSONL write, paid only
when tracing is on.
"""

import json
import tempfile
import time
import urllib.error
import urllib.request

from conftest import report, table

from repro.model import serialize
from repro.obs import JsonlTraceSink, iter_trace, summarize_trace
from repro.serve import QueryDaemon, WitnessStore
from repro.workloads.programs import figure1_execution


def _post(url, body):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=120.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return json.loads(resp.read())


def _drive(daemon, exe, pairs):
    """One fixed request sequence; returns the answer tuples that must
    be invariant under tracing, and the mean request latency."""
    answers = []
    t0 = time.perf_counter()
    code, put = _post(
        daemon.url("/executions"), serialize.execution_to_dict(exe)
    )
    assert code == 200
    fp = put["fingerprint"]
    requests = 1
    for _round in range(2):  # round 2 answers from the witness store
        for a, b in pairs:
            for relation in ("ccw", "race", "mhb"):
                code, q = _post(
                    daemon.url("/query"),
                    {"fingerprint": fp, "relation": relation, "a": a, "b": b},
                )
                assert code == 200
                requests += 1
                answers.append(
                    (
                        relation, a, b,
                        q["verdict"],
                        q["decided_by"],
                        (q.get("classification") or {}).get("status"),
                    )
                )
        code, q = _post(
            daemon.url("/query"), {"fingerprint": fp, "relation": "feasible"}
        )
        assert code == 200
        requests += 1
        answers.append(("feasible", None, None, q["verdict"],
                        q["decided_by"], None))
    elapsed = time.perf_counter() - t0
    return answers, requests, elapsed / requests


def run_study():
    exe = figure1_execution()
    pairs = exe.conflicting_pairs()[:3]
    out = {}
    with tempfile.TemporaryDirectory() as root:
        trace = f"{root}/daemon-trace.jsonl"
        traced = QueryDaemon(
            WitnessStore(f"{root}/store-traced"),
            port=0, workers=1, default_timeout=60.0,
            tracer=JsonlTraceSink(trace),
        ).start()
        try:
            out["traced"], out["n"], out["t_traced"] = _drive(
                traced, exe, pairs
            )
            status = _get(traced.url("/status"))
            out["status_http"] = status["http"]
            out["dropped"] = status["observability"]["trace_dropped"]
        finally:
            traced.close(drain=False)
        summary = summarize_trace(trace)
        out["summary_requests"] = dict(summary.requests)
        out["spans"] = sum(1 for _ in iter_trace(trace)) - 1  # minus header
        out["summary_dropped"] = summary.dropped

        untraced = QueryDaemon(
            WitnessStore(f"{root}/store-plain"),
            port=0, workers=1, default_timeout=60.0,
        ).start()
        try:
            out["untraced"], _, out["t_untraced"] = _drive(
                untraced, exe, pairs
            )
        finally:
            untraced.close(drain=False)
    return out


def test_daemon_tracing_is_a_pure_observer(benchmark):
    out = benchmark(run_study)

    # the observer property: answer-for-answer identical
    assert out["traced"] == out["untraced"]
    # the analytics exactness property: serve-summary counts are the
    # /status per-endpoint counters, not an approximation of them
    assert out["summary_requests"] == out["status_http"]
    assert sum(out["status_http"].values()) == out["n"]
    # a healthy sink drops nothing
    assert out["dropped"] == 0 and out["summary_dropped"] == 0

    decided_by = {}
    for _rel, _a, _b, _v, tier, _cls in out["traced"]:
        decided_by[str(tier)] = decided_by.get(str(tier), 0) + 1
    lines = table(
        ["requests", "spans", "dropped", "traced req", "untraced req"],
        [[
            out["n"], out["spans"], out["dropped"],
            f"{out['t_traced'] * 1e3:.1f}ms",
            f"{out['t_untraced'] * 1e3:.1f}ms",
        ]],
    )
    lines.append("")
    lines.append(
        "decided_by (identical traced/untraced): "
        + " ".join(f"{k}={n}" for k, n in sorted(decided_by.items()))
    )
    lines.append(
        "verdicts, provenance and classifications are identical with"
    )
    lines.append(
        "tracing on or off, and serve-summary counts == /status counts"
    )
    report("serve_tracing", lines)
