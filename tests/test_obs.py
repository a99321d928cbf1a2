"""Observability: trace sinks, metrics, progress, and the guarantee
that a trace re-aggregates into exactly the live planner report.

The load-bearing property is exactness: every ``query`` span carries
the same per-tier increments the scan's
:class:`~repro.solve.planner.PlannerReport` accumulated, so
``repro trace summarize`` reproduces the report byte-for-byte --
including spans shipped home by supervised pool workers.
"""

import json
import signal
import threading

import pytest

from repro import faults
from repro.budget import Budget
from repro.cli import main as cli_main
from repro.lang.ast import Assign, Const, ProcessDef, Program, SemP, SemV
from repro.lang.interpreter import run_program
from repro.lang.scheduler import FixedScheduler
from repro.model import serialize
from repro.obs import (
    SERVE_PHASE_KINDS,
    FailsafeSink,
    JsonlTraceSink,
    MetricsRegistry,
    NullSink,
    RecordingSink,
    ScanProgress,
    SearchProfile,
    StatusBoard,
    TraceError,
    TraceSummary,
    iter_trace,
    planner_metrics,
    read_trace,
    summarize_trace,
    validate_record,
)
from repro.obs.profile import ROOT_KEY
from repro.obs.progress import progress_line
from repro.races.detector import RaceDetector
from repro.solve.planner import PlannerReport, QueryPlanner
from repro.solve.context import SolveContext
from repro.supervise import SupervisedScanner
from repro.supervise.checkpoint import _defer_sigint
from repro.util.fileio import atomic_write_text

from tests.test_supervise import masking_execution


def ordered_pipeline(width: int = 4):
    """``width`` writers of one variable chained by semaphores -- every
    conflicting pair is *infeasible*, and proving each one costs the
    engine an exhaustive (pair-local) search.  Engine-heavy, with no
    cross-pair state, so serial and parallel scans must produce
    byte-identical search profiles."""
    procs = [ProcessDef("w0", [Assign("x", Const(0)), SemV("s0")])]
    for k in range(1, width):
        procs.append(
            ProcessDef(
                f"w{k}",
                [SemP(f"s{k-1}"), Assign("x", Const(k)), SemV(f"s{k}")],
            )
        )
    schedule = ["w0", "w0"]
    for k in range(1, width):
        schedule += [f"w{k}"] * 3
    return run_program(
        Program(procs), FixedScheduler(schedule)
    ).to_execution()


# ----------------------------------------------------------------------
class TestRecordValidation:
    def test_accepts_extra_fields(self):
        validate_record(
            {"kind": "pair", "t": 1.0, "a": 0, "b": 1, "status": "feasible",
             "worker": 3, "resource": "crash"}
        )

    def test_rejects_unknown_kind(self):
        with pytest.raises(TraceError, match="unknown trace record kind"):
            validate_record({"kind": "nope", "t": 0.0})

    def test_rejects_missing_timestamp(self):
        with pytest.raises(TraceError, match="timestamp"):
            validate_record({"kind": "engine.tick", "states": 5})

    def test_rejects_wrong_field_type(self):
        with pytest.raises(TraceError, match="states"):
            validate_record({"kind": "engine.tick", "t": 0.0, "states": "5"})

    def test_checks_tier_entries(self):
        rec = {
            "kind": "query", "t": 0.0, "relation": "CCW", "decided": True,
            "tiers": [{"tier": "engine", "states": 1, "elapsed": "fast",
                       "answered": True}],
        }
        with pytest.raises(TraceError, match="elapsed"):
            validate_record(rec)


class TestRecordingSink:
    def test_bounded_with_drop_accounting(self):
        sink = RecordingSink(capacity=2)
        for n in range(5):
            sink.emit({"kind": "engine.tick", "states": n})
        drained = sink.drain()
        assert [r["states"] for r in drained[:-1]] == [0, 1]
        assert drained[-1] == {
            "kind": "trace.drops", "dropped": 3, "t": drained[-1]["t"]
        }
        # drain resets: the next batch starts clean
        assert sink.drain() == []

    def test_no_drops_record_when_nothing_dropped(self):
        sink = RecordingSink()
        sink.emit({"kind": "engine.tick", "states": 1})
        drained = sink.drain()
        assert len(drained) == 1 and drained[0]["kind"] == "engine.tick"

    def test_null_sink_is_disabled(self):
        assert not NullSink().enabled
        NullSink().emit({"anything": True})  # never raises


class TestJsonlTraceSink:
    def test_header_then_records(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "engine.tick", "states": 7})
        records = read_trace(path)
        assert records[0]["kind"] == "trace.start"
        assert records[1] == {"kind": "engine.tick", "states": 7,
                              "t": records[1]["t"]}

    def test_max_records_drops_and_accounts(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path, max_records=3) as sink:
            for n in range(10):
                sink.emit({"kind": "engine.tick", "states": n})
        records = read_trace(path)
        # header + 2 ticks fit the cap; the accounting record bypasses it
        assert [r["kind"] for r in records] == [
            "trace.start", "engine.tick", "engine.tick", "trace.drops"
        ]
        assert records[-1]["dropped"] == 8

    def test_read_trace_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(json.dumps(
            {"kind": "engine.tick", "t": 0.0, "states": 1}) + "\n")
        with pytest.raises(TraceError, match="not a repro-trace"):
            read_trace(str(path))

    def test_read_trace_rejects_corruption(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "engine.tick", "states": 1})
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(TraceError, match="corrupt"):
            read_trace(path)


# ----------------------------------------------------------------------
class TestPlannerReportRoundTrips:
    def _report(self, seed):
        r = PlannerReport()
        for k in range(seed):
            r.queries += 1
            r.record_answer("engine", states=10 * k, elapsed=0.25 * k)
            r.record_cost("hmw", states=k, elapsed=0.125)
        r.unknown = seed // 2
        return r

    def test_snapshot_round_trip_is_exact(self):
        r = self._report(5)
        assert PlannerReport.from_snapshot(r.snapshot()).snapshot() == r.snapshot()

    def test_merge_is_associative_over_snapshots(self):
        a, b, c = self._report(2), self._report(3), self._report(4)
        left = PlannerReport()
        left.merge(a.snapshot()); left.merge(b.snapshot()); left.merge(c.snapshot())
        bc = PlannerReport()
        bc.merge(b.snapshot()); bc.merge(c.snapshot())
        right = PlannerReport()
        right.merge(a.snapshot()); right.merge(bc.snapshot())
        assert left.snapshot() == right.snapshot()

    def test_snapshot_floats_survive_json(self):
        r = self._report(7)
        redone = json.loads(json.dumps(r.snapshot()))
        assert PlannerReport.from_snapshot(redone).snapshot() == r.snapshot()


# ----------------------------------------------------------------------
class TestTraceMatchesReport:
    """The acceptance criterion: summarize(trace) == live report, exactly."""

    def test_serial_scan(self, tmp_path):
        exe = masking_execution(3)
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            report = RaceDetector(exe).feasible_races(tracer=sink)
        summary = summarize_trace(path)
        assert summary.planner.snapshot() == report.planner.snapshot()
        assert summary.pairs == {"feasible": 3}
        assert not summary.interrupted

    def test_parallel_scan_folds_worker_spans(self, tmp_path):
        exe = masking_execution(3)
        path = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(path) as sink:
            scanner = SupervisedScanner(jobs=2, tracer=sink)
            report = RaceDetector(exe).feasible_races(
                runner=scanner, tracer=sink
            )
        summary = summarize_trace(path)
        assert summary.planner.snapshot() == report.planner.snapshot()
        assert summary.worker_events.get("spawn", 0) >= 1
        # the scan's own planner settles "is F non-empty" once and every
        # pair the tiers below the engine decide; each pair that reaches
        # the engine is one span, from the worker that searched it (or
        # whose witness cache held a schedule from an earlier search)
        records = read_trace(path)
        queries = [r for r in records if r["kind"] == "query"]
        parent = [r for r in queries if "worker" not in r]
        shipped = [r for r in queries if "worker" in r]
        dispatched = [(r["a"], r["b"]) for r in records
                      if r["kind"] == "worker.dispatch"]
        below = {(c.a, c.b) for c in report.classifications} - set(dispatched)
        assert [r["relation"] for r in parent] == ["feasible"] + ["ccw"] * len(below)
        assert {(r["a"], r["b"]) for r in parent[1:]} == below
        assert all(e["tier"] != "engine" for r in parent for e in r["tiers"])
        assert sorted((r["a"], r["b"]) for r in shipped) == sorted(dispatched)
        assert len(dispatched) == len(report.classifications) - len(below) > 0
        decided_by = {(c.a, c.b): c.decided_by for c in report.classifications}
        for r in shipped:
            assert r["relation"] == "ccw"
            assert [e["tier"] for e in r["tiers"]] in (["engine"], ["witness"])
            assert decided_by[(r["a"], r["b"])] == r["decided_by"]

    def test_query_planner_traces_memo_hits_too(self):
        exe = masking_execution(2)
        sink = RecordingSink()
        planner = QueryPlanner(SolveContext(exe), tracer=sink)
        planner.feasible_verdict()
        planner.feasible_verdict()  # memo hit: still one span per call
        queries = [r for r in sink.drain() if r["kind"] == "query"]
        assert len(queries) == 2
        rebuilt = PlannerReport()
        for rec in queries:
            rebuilt.queries += 1
            if not rec["decided"]:
                rebuilt.unknown += 1
            for entry in rec["tiers"]:
                if entry["answered"]:
                    rebuilt.record_answer(entry["tier"], states=entry["states"],
                                          elapsed=entry["elapsed"])
                else:
                    rebuilt.record_cost(entry["tier"], states=entry["states"],
                                        elapsed=entry["elapsed"])
        assert rebuilt.snapshot() == planner.report.snapshot()

    def test_engine_on_progress_fires_at_check_interval(self):
        from repro.core.engine import FeasibilityEngine

        exe = masking_execution(3)
        seen = []
        FeasibilityEngine(exe).search(
            budget=Budget.of(check_interval=2),
            on_progress=lambda stats: seen.append(stats.states_visited),
        )
        # amortized ticks land on interval multiples; the final tick
        # (guaranteed, wherever the search ends) is exempt
        assert seen and all(n % 2 == 0 for n in seen[:-1])

    def test_attach_tracer_throttles_engine_ticks(self):
        exe = masking_execution(3)
        sink = RecordingSink()
        planner = QueryPlanner(SolveContext(exe), tracer=sink)
        planner.attach_tracer(sink, tick_min_interval=3600.0)
        assert planner.ctx.on_progress is not None

        class _Stats:
            states_visited = 512

        planner.ctx.on_progress(_Stats())  # first tick always emits
        planner.ctx.on_progress(_Stats())  # throttled away
        ticks = [r for r in sink.drain() if r["kind"] == "engine.tick"]
        assert len(ticks) == 1 and ticks[0]["states"] == 512

    def test_untraced_planner_emits_nothing(self):
        exe = masking_execution(2)
        planner = QueryPlanner(SolveContext(exe))
        planner.feasible_verdict()
        assert planner.tracer is None
        assert planner.ctx.on_progress is None


# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_render(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", labels={"x": "1"}).inc(2)
        reg.gauge("g", "a gauge").set(1.5)
        h = reg.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.render()
        assert '# TYPE c_total counter' in text
        assert 'c_total{x="1"} 2' in text
        assert "g 1.5" in text
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text
        assert "h_seconds_count 2" in text

    def test_counters_only_go_up(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m")

    def test_metrics_file_is_the_status_body_at_scan_end(self, tmp_path):
        exe_path, out = tmp_path / "exe.json", tmp_path / "m.prom"
        serialize.save(masking_execution(2), str(exe_path))
        assert cli_main(["races", str(exe_path), "--metrics", str(out)]) == 0
        text = out.read_text()
        assert 'repro_pairs_classified_total{status="feasible"} 2' in text
        assert 'repro_pairs_classified_total{status="unknown"} 0' in text
        assert "repro_planner_queries_total" in text
        assert "repro_scan_pairs_done 2" in text
        assert "repro_scan_eta_seconds 0" in text
        assert "repro_scan_interrupted 0" in text
        assert "repro_checkpoint_writes_total 0" in text
        assert "repro_worker_restarts_total" not in text
        # written once the scan has ended: a textfile collector must
        # not read the finished scan as up
        assert "repro_scan_up 0" in text.splitlines()

    def test_planner_metrics_alone(self):
        exe = masking_execution(2)
        report = RaceDetector(exe).feasible_races()
        text = planner_metrics(MetricsRegistry(), report.planner).render()
        assert "repro_tier_answered_total" in text


# ----------------------------------------------------------------------
class _FakeStream:
    def __init__(self):
        self.chunks = []

    def write(self, s):
        self.chunks.append(s)

    def flush(self):
        pass

    def isatty(self):
        return False


def _snapshot(total, statuses=(), budget=None):
    """A status-board snapshot after ``statuses`` were classified."""
    board = StatusBoard()
    board.begin_scan(total=total, budget=budget)
    for status in statuses:
        board.pair_done(_C(status))
    return board.latest()


def _screen(chunks):
    """What a terminal shows after ``chunks``: ``\r`` returns to column
    0 and later characters overwrite earlier ones."""
    lines, col = [[]], 0
    for ch in "".join(chunks):
        if ch == "\r":
            col = 0
        elif ch == "\n":
            lines.append([])
            col = 0
        else:
            line = lines[-1]
            if col < len(line):
                line[col] = ch
            else:
                line.append(ch)
            col += 1
    return ["".join(line).rstrip() for line in lines]


class _C:
    def __init__(self, status):
        self.status = status


class TestScanProgress:
    def test_line_counts_and_rate(self):
        line = progress_line(
            _snapshot(10, ("feasible", "feasible", "infeasible", "unknown"))
        )
        assert "scan 4/10" in line
        assert "feasible=2 infeasible=1 unknown=1" in line
        assert "pairs/s" in line and "eta" in line

    def test_eta_capped_by_budget(self):
        budget = Budget.of(timeout=0.0)  # already expired
        line = progress_line(_snapshot(100, ("feasible",), budget))
        assert "budget caps" in line

    def test_disabled_without_tty(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        p = ScanProgress(5, stream=_FakeStream())
        assert not p.enabled

    def test_env_forces_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        stream = _FakeStream()
        p = ScanProgress(2, stream=stream, min_interval=0.0)
        assert p.enabled
        p.update(_snapshot(2, ("feasible",)))
        p.finish()
        assert any("scan 1/2" in c for c in stream.chunks)

    def test_nothing_left_to_classify_writes_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        stream = _FakeStream()
        p = ScanProgress(0, stream=stream, min_interval=0.0)
        p.update(_snapshot(2, ("feasible", "feasible")))
        p.finish()
        assert not p.enabled and stream.chunks == []

    def test_shorter_line_leaves_no_residue(self):
        stream = _FakeStream()
        p = ScanProgress(100, stream=stream, enabled=True, min_interval=0.0)
        capped = _snapshot(100, ("feasible",), Budget.of(timeout=0.0))
        assert "budget caps" in progress_line(capped)
        p.update(capped)
        short = _snapshot(2, ("feasible",))
        p.update(short)
        assert _screen(stream.chunks) == [progress_line(short)]
        done = _snapshot(2, ("feasible", "infeasible"))
        p.update(done)
        p.finish()
        assert _screen(stream.chunks) == [progress_line(done), ""]


# ----------------------------------------------------------------------
class TestDeferSigint:
    def test_holds_handler_until_block_exits(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("needs the main thread")
        calls = []
        old = signal.signal(signal.SIGINT, lambda s, f: calls.append(s))
        try:
            with _defer_sigint():
                signal.raise_signal(signal.SIGINT)
                assert calls == []  # held across the critical section
            assert calls == [signal.SIGINT]
        finally:
            signal.signal(signal.SIGINT, old)

    def test_reraises_keyboard_interrupt_after_block(self):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("needs the main thread")
        old = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                with _defer_sigint():
                    signal.raise_signal(signal.SIGINT)
                    witnessed_inside = True  # the write completes first
            assert witnessed_inside
        finally:
            signal.signal(signal.SIGINT, old)


# ----------------------------------------------------------------------
class TestCliObservability:
    @pytest.fixture
    def exe_file(self, tmp_path):
        path = tmp_path / "exe.json"
        serialize.save(masking_execution(3), str(path))
        return str(path)

    def test_races_trace_summarize_matches_report(
        self, exe_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.txt")
        rc = cli_main([
            "races", exe_file, "--jobs", "2",
            "--trace", trace, "--metrics", metrics,
        ])
        assert rc == 0
        scan_out = capsys.readouterr().out
        assert cli_main(["trace", "summarize", trace]) == 0
        summary_out = capsys.readouterr().out
        # the per-tier planner block is reproduced verbatim
        planner_block = scan_out[scan_out.index("planner:"):].strip()
        assert planner_block in summary_out
        for rec in read_trace(trace):
            validate_record(rec)
        text = open(metrics).read()
        assert 'repro_pairs_classified_total{status="feasible"} 3' in text

    def test_races_trace_references_saved_report(self, exe_file, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        saved = tmp_path / "report.json"
        rc = cli_main([
            "races", exe_file, "--trace", trace, "--save", str(saved),
        ])
        assert rc == 0
        doc = json.loads(saved.read_text())
        assert doc["trace"] == {"path": trace, "format": "repro-trace"}

    def test_analyze_pair_trace_and_metrics(self, tmp_path, capsys):
        src = tmp_path / "fig1.rp"
        src.write_text(
            "shared X = 0\n"
            "proc main {\n"
            "  fork {\n"
            "    proc t1 { post ev @post_left; X := 1 }\n"
            "    proc t2 { if X == 1 { post ev @post_right } else { wait ev } }\n"
            "    proc t3 { wait ev @w3 }\n"
            "  }\n"
            "  join\n"
            "}\n"
        )
        exe_file = str(tmp_path / "fig1.json")
        assert cli_main(["run", str(src), "--priority", "main,t1,t2,t3",
                         "--save", exe_file]) == 0
        capsys.readouterr()
        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.txt")
        rc = cli_main([
            "analyze", exe_file, "--pair", "post_left", "w3",
            "--relation", "ccw", "--trace", trace, "--metrics", metrics,
        ])
        assert rc == 0
        assert any(r["kind"] == "query" for r in read_trace(trace))
        assert "repro_planner_queries_total" in open(metrics).read()

    def test_resume_with_changed_plan_is_refused(
        self, exe_file, tmp_path, capsys
    ):
        journal = str(tmp_path / "scan.jsonl")
        assert cli_main(["races", exe_file, "--checkpoint", journal]) == 0
        capsys.readouterr()
        rc = cli_main([
            "races", exe_file, "--checkpoint", journal, "--resume",
            "--backends", "structural,observed,hmw,engine",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "solver plan" in err and "refusing to resume" in err
        assert err.strip().count("\n") == 0  # one loud line, not a traceback

    def test_resume_with_same_plan_succeeds(self, exe_file, tmp_path, capsys):
        journal = str(tmp_path / "scan.jsonl")
        assert cli_main(["races", exe_file, "--checkpoint", journal]) == 0
        rc = cli_main(["races", exe_file, "--checkpoint", journal, "--resume"])
        assert rc == 0
        assert "resume: reusing 3 journaled pair(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
class TestSearchProfile:
    def test_charge_snapshot_roundtrip_and_merge(self):
        p = SearchProfile()
        p.charge_search()
        key = (4, "P", "sem")
        p.charge_choice(key)
        p.charge_state(key)
        p.charge_state(key)
        p.charge_dead_end(key)
        p.charge_backtrack(key)
        p.charge_state(ROOT_KEY)
        snap = p.snapshot()
        assert snap["searches"] == 1
        assert snap["choices"]["4|P|sem"] == {
            "chosen": 1, "states": 2, "dead_ends": 1, "backtracks": 1,
        }
        assert SearchProfile.from_snapshot(snap).snapshot() == snap
        # merging a snapshot dict and a profile object both work
        q = SearchProfile()
        q.merge(snap)
        q.merge(p)
        assert q.searches == 2
        assert q.tally(key).states == 4
        # a trace's profile records fold into one profile
        folded = TraceSummary(
            [{"kind": "profile", "t": 0.0, "profile": snap}] * 2
        )
        assert folded.profile.total_states == 6

    def test_hot_events_excludes_forced_prefix(self):
        p = SearchProfile()
        p.charge_state(ROOT_KEY)
        p.charge_state((1, "V", "s"))
        hot = p.hot_events()
        assert [key for key, _ in hot] == [(1, "V", "s")]
        text = "\n".join(p.describe())
        assert "e1:V(s)" in text and "(forced prefix)" in text

    def test_describe_orders_by_states_then_eid(self):
        p = SearchProfile()
        for _ in range(3):
            p.charge_state((7, "P", "a"))
        p.charge_state((2, "P", "b"))
        p.charge_state((5, "P", "b"))
        hot = p.hot_events(top=2)
        assert [key for key, _ in hot] == [(7, "P", "a"), (2, "P", "b")]


class TestProfilerIsAPureObserver:
    def test_serial_scan_unchanged_by_profiling(self):
        exe = ordered_pipeline(4)
        plain = RaceDetector(exe).feasible_races()
        profile = SearchProfile()
        profiled = RaceDetector(exe).feasible_races(profile=profile)
        assert [(c.a, c.b, c.status) for c in profiled.classifications] == [
            (c.a, c.b, c.status) for c in plain.classifications
        ]
        # identical work, state for state -- not merely the same verdicts
        assert (
            profiled.planner.tiers["engine"].states
            == plain.planner.tiers["engine"].states
        )
        # and the profiler accounted for every one of those states
        assert profile.total_states == plain.planner.tiers["engine"].states
        assert profile.searches > 0
        assert profiled.profile is profile

    def test_parallel_profile_equals_serial_profile(self):
        exe = ordered_pipeline(4)
        serial = SearchProfile()
        RaceDetector(exe).feasible_races(profile=serial)
        parallel = SearchProfile()
        RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2), profile=parallel
        )
        assert serial.total_states > 0
        assert parallel.snapshot() == serial.snapshot()

    def test_profile_record_lands_in_trace(self, tmp_path):
        exe = ordered_pipeline(3)
        trace = str(tmp_path / "t.jsonl")
        profile = SearchProfile()
        with JsonlTraceSink(trace) as sink:
            RaceDetector(exe).feasible_races(tracer=sink, profile=profile)
        records = [r for r in read_trace(trace) if r["kind"] == "profile"]
        assert len(records) == 1
        assert records[0]["profile"] == profile.snapshot()


# ----------------------------------------------------------------------
class TestIterTrace:
    def test_streams_the_same_records_read_trace_returns(self, tmp_path):
        exe = masking_execution(2)
        trace = str(tmp_path / "t.jsonl")
        with JsonlTraceSink(trace) as sink:
            RaceDetector(exe).feasible_races(tracer=sink)
        streamed = list(iter_trace(trace))
        assert streamed == read_trace(trace)
        assert streamed[0]["kind"] == "trace.start"

    def test_is_lazy(self, tmp_path):
        # a deliberately corrupt tail must not stop the reader from
        # yielding the good prefix -- proof the file is not slurped
        path = tmp_path / "t.jsonl"
        good = json.dumps(
            {"kind": "trace.start", "format": "repro-trace",
             "version": 2, "t": 0.0}
        )
        path.write_text(good + "\n" + "{corrupt\n")
        it = iter_trace(str(path))
        assert next(it)["kind"] == "trace.start"
        with pytest.raises(TraceError, match="line 2"):
            next(it)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty trace"):
            list(iter_trace(str(path)))

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"kind": "pair", "t": 0.0, "a": 0, "b": 1,
                        "status": "feasible"}) + "\n"
        )
        with pytest.raises(TraceError, match="not a repro-trace file"):
            list(iter_trace(str(path)))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"kind": "trace.start", "format": "repro-trace",
                        "version": 99, "t": 0.0}) + "\n"
        )
        with pytest.raises(TraceError, match="unsupported trace version"):
            list(iter_trace(str(path)))


# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_replaces_whole_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old content that is much longer than the new one")
        atomic_write_text(str(path), "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_metrics_write_is_atomic(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("g").set(1)
        path = tmp_path / "m.txt"
        reg.write(str(path))
        assert "g 1" in path.read_text()
        assert list(tmp_path.iterdir()) == [path]

    def test_report_save_is_atomic(self, tmp_path):
        exe = masking_execution(2)
        report = RaceDetector(exe).feasible_races()
        path = tmp_path / "report.json"
        serialize.save_report(report, str(path))
        assert serialize.load_report(str(path)).pairs() == report.pairs()
        assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
class TestProgressEtaAndNewline:
    def test_eta_from_rate_without_budget(self):
        line = progress_line(_snapshot(10, ("feasible",)))
        assert "eta " in line and "eta ?" not in line

    def test_eta_unknown_before_first_pair(self):
        assert "eta ?" in progress_line(_snapshot(10))  # no rate yet
        budget = Budget.of(timeout=60.0)
        assert "eta <=" in progress_line(_snapshot(10, budget=budget))

    def test_finish_always_terminates_the_line(self):
        stream = _FakeStream()
        p = ScanProgress(2, stream=stream, enabled=True, min_interval=0.0)
        p.update(_snapshot(2, ("feasible",)))
        # renders immediately (done == total)
        p.update(_snapshot(2, ("feasible", "feasible")))
        p.finish()
        assert stream.chunks[-1] == "\n"
        assert "".join(stream.chunks).count("\n") == 1

    def test_finish_writes_nothing_when_never_rendered(self):
        stream = _FakeStream()
        p = ScanProgress(5, stream=stream, enabled=True, min_interval=0.0)
        p.finish()
        assert stream.chunks == []


def test_all_views_agree_on_a_resumed_scan(tmp_path, monkeypatch, capsys):
    """The progress line and the --metrics file are views of one board,
    so a resumed scan's line counts its journaled pairs exactly as
    /status and the report do."""
    exe_path, journal = tmp_path / "mask3.json", tmp_path / "j.jsonl"
    serialize.save(masking_execution(3), str(exe_path))
    scan = ["races", str(exe_path), "--checkpoint", str(journal)]
    # append 1 is the journal header, 2 the first pair: the disk fails
    # on the second pair's record, so one pair is journaled
    assert cli_main(scan + ["--failpoints", "checkpoint.append=eio@nth=3"]) == 2
    faults.disarm()
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    capsys.readouterr()
    prom = tmp_path / "m.prom"
    assert cli_main(scan + ["--resume", "--metrics", str(prom)]) == 0
    lines = [line for line in _screen([capsys.readouterr().err]) if line]
    assert lines[-1].startswith("scan 3/3 "), lines
    metrics = prom.read_text()
    assert "repro_scan_pairs_done 3" in metrics
    assert "repro_checkpoint_writes_total 2" in metrics


# ----------------------------------------------------------------------
class TestCliProfile:
    @pytest.fixture
    def exe_file(self, tmp_path):
        path = tmp_path / "exe.json"
        serialize.save(ordered_pipeline(4), str(path))
        return str(path)

    def _hot_table(self, out):
        return out[out.index("profile:"):].strip()

    def test_parallel_cli_profile_matches_serial(
        self, exe_file, tmp_path, capsys
    ):
        """The acceptance criterion: `repro trace profile` on a
        2-worker scan's trace prints the same hot-events table as the
        serial scan's."""
        outputs = {}
        for label, jobs in (("serial", []), ("parallel", ["--jobs", "2"])):
            trace = str(tmp_path / f"{label}.jsonl")
            prof = str(tmp_path / f"{label}.json")
            rc = cli_main(
                ["races", exe_file, "--trace", trace, "--profile", prof]
                + jobs
            )
            assert rc == 0
            scan_out = capsys.readouterr().out
            assert cli_main(["trace", "profile", trace]) == 0
            outputs[label] = self._hot_table(capsys.readouterr().out)
            # the table printed at scan end is the one in the trace
            assert outputs[label] in scan_out
            assert json.load(open(prof))["searches"] > 0
        assert outputs["parallel"] == outputs["serial"]

    def test_trace_without_profile_records_fails_loudly(
        self, exe_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        assert cli_main(["races", exe_file, "--trace", trace]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "profile", trace]) == 2
        assert "no profile records" in capsys.readouterr().err

    def test_trace_timeline_reports_workers(
        self, exe_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        assert cli_main(
            ["races", exe_file, "--jobs", "2", "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert cli_main(["trace", "timeline", trace]) == 0
        out = capsys.readouterr().out
        assert "worker timeline: 2 worker(s)" in out
        assert "worker 0:" in out and "worker 1:" in out

    def test_trace_timeline_serial_fallback(
        self, exe_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "t.jsonl")
        assert cli_main(["races", exe_file, "--trace", trace]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "timeline", trace]) == 0
        assert "serial scan" in capsys.readouterr().out


# ----------------------------------------------------------------------
def _serve_trace(path, records):
    """Write a trace file holding ``records`` (header added by sink)."""
    with JsonlTraceSink(str(path)) as sink:
        for rec in records:
            sink.emit(dict(rec))
    return str(path)


def _request_span(rid, *, endpoint="POST /query", status=200,
                  elapsed=0.25, **extra):
    rec = {"kind": "serve.request", "request_id": rid,
           "endpoint": endpoint, "status": status, "elapsed": elapsed}
    rec.update(extra)
    return rec


class TestServeTraceV3:
    """Round-trip and validation coverage for the serve.* span kinds."""

    def test_every_serve_kind_round_trips(self, tmp_path):
        records = [_request_span("req-1", query_kind="hb")]
        records += [
            {"kind": kind, "request_id": "req-1", "elapsed": 0.01}
            for kind in SERVE_PHASE_KINDS
        ]
        path = _serve_trace(tmp_path / "t.jsonl", records)
        back = list(iter_trace(path))
        assert back[0]["kind"] == "trace.start"
        assert back[0]["version"] == 3
        body = back[1:]
        assert [rec["kind"] for rec in body] == (
            ["serve.request"] + list(SERVE_PHASE_KINDS)
        )
        for rec in body:
            assert rec["request_id"] == "req-1"
        # extra fields (query_kind) survive the round trip
        assert body[0]["query_kind"] == "hb"

    def test_missing_request_id_rejected(self):
        with pytest.raises(TraceError, match="request_id"):
            validate_record(
                {"kind": "serve.dispatch", "t": 0.0, "elapsed": 0.1}
            )

    def test_missing_status_rejected(self):
        with pytest.raises(TraceError, match="status"):
            validate_record(
                {"kind": "serve.request", "t": 0.0, "request_id": "r",
                 "endpoint": "POST /query", "elapsed": 0.1}
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown trace record kind"):
            validate_record({"kind": "serve.teapot", "t": 0.0})

    def test_wrong_type_rejected(self):
        with pytest.raises(TraceError, match="elapsed"):
            validate_record(
                {"kind": "serve.response", "t": 0.0, "request_id": "r",
                 "elapsed": "fast"}
            )

    def test_v2_scan_trace_still_loads_and_summarizes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            {"kind": "trace.start", "format": "repro-trace",
             "version": 2, "t": 0.0},
            {"kind": "query", "t": 1.0, "relation": "CCW", "a": 0, "b": 1,
             "decided": True,
             "tiers": [{"tier": "structural", "states": 0,
                        "elapsed": 0.001, "answered": True}]},
        ]
        path.write_text(
            "".join(json.dumps(rec) + "\n" for rec in lines)
        )
        assert [r["kind"] for r in iter_trace(str(path))] == [
            "trace.start", "query",
        ]
        summary = summarize_trace(str(path))
        assert summary.planner.queries == 1
        assert summary.planner.tiers["structural"].answered == 1


class _ExplodingSink:
    enabled = True
    dropped = 0

    def __init__(self):
        self.closed = False

    def emit(self, record):
        raise OSError("disk on fire")

    def close(self):
        self.closed = True
        raise OSError("close failed too")


class TestFailsafeSink:
    def test_converts_emit_failures_into_counted_drops(self):
        sink = FailsafeSink(_ExplodingSink())
        for _ in range(3):
            sink.emit({"kind": "serve.response"})  # must not raise
        assert sink.dropped == 3
        assert sink.total_dropped() == 3

    def test_total_dropped_includes_inner_bounded_drops(self):
        inner = RecordingSink(capacity=1)
        sink = FailsafeSink(inner)
        sink.emit({"kind": "pair.start", "t": 0.0, "a": 0, "b": 1})
        sink.emit({"kind": "pair.start", "t": 0.0, "a": 0, "b": 2})
        assert sink.dropped == 0  # nothing *failed*; the bound shed one
        assert inner.dropped == 1
        assert sink.total_dropped() == 1

    def test_close_failure_swallowed(self):
        inner = _ExplodingSink()
        FailsafeSink(inner).close()  # must not raise
        assert inner.closed

    def test_delegates_enabled_and_passes_records_through(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(str(path)) as inner:
            sink = FailsafeSink(inner)
            assert sink.enabled
            sink.emit(_request_span("req-9"))
        back = list(iter_trace(str(path)))
        assert back[-1]["request_id"] == "req-9"
        assert FailsafeSink(NullSink()).enabled is False


class TestServeTraceSummary:
    def _trace(self, tmp_path):
        records = []
        # 20 queries at 10ms..200ms, one slow outlier, one PUT
        for i in range(1, 21):
            records.append(
                _request_span(f"q-{i:02d}", elapsed=i / 100.0,
                              query_kind="hb")
            )
            records.append({"kind": "serve.dispatch",
                            "request_id": f"q-{i:02d}", "elapsed": i / 200.0})
        records.append(
            _request_span("slowpoke", elapsed=9.0, status=422,
                          query_kind="race")
        )
        records.append(
            _request_span("put-1", endpoint="POST /executions",
                          elapsed=0.05)
        )
        records.append(
            {"kind": "query", "t": 0.0, "relation": "CCW", "a": 0, "b": 1,
             "decided": True,
             "tiers": [{"tier": "engine", "states": 42,
                        "elapsed": 0.5, "answered": True}]}
        )
        records.append({"kind": "trace.drops", "dropped": 7})
        return _serve_trace(tmp_path / "t.jsonl", records)

    def test_counts_percentiles_and_phases(self, tmp_path):
        s = summarize_trace(self._trace(tmp_path))
        assert s.requests == {"POST /query": 21, "POST /executions": 1}
        assert s.total_requests == 22
        assert s.statuses["POST /query"] == {"200": 20, "422": 1}
        assert s.kinds == {"hb": 20, "race": 1, "-": 1}
        p50, p95, p99 = s.percentiles("POST /query")
        assert p50 == pytest.approx(0.11)
        assert p95 == pytest.approx(0.20)
        assert p99 == pytest.approx(9.0)
        count, total = s.phases["serve.dispatch"]
        assert count == 20
        assert total == pytest.approx(sum(i / 200.0 for i in range(1, 21)))
        assert s.planner.tiers["engine"].states == 42
        assert s.dropped == 7

    def test_slowest_is_bounded_and_sorted(self, tmp_path):
        s = summarize_trace(self._trace(tmp_path), slowest=3)
        assert len(s.slowest) == 3
        assert [rec["request_id"] for rec in s.slowest] == [
            "slowpoke", "q-20", "q-19",
        ]

    def test_describe_names_the_culprit(self, tmp_path):
        text = summarize_trace(self._trace(tmp_path)).describe_serve()
        assert "POST /query: count=21" in text
        assert "id=slowpoke" in text
        assert "dispatch" in text
        assert "dropped" in text

    def test_cli_serve_summary(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert cli_main(["trace", "serve-summary", trace]) == 0
        out = capsys.readouterr().out
        assert "requests: 22" in out
        assert "id=slowpoke" in out

    def test_cli_serve_summary_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope\n")
        assert cli_main(["trace", "serve-summary", str(path)]) == 2
        assert "corrupt" in capsys.readouterr().err


class TestPrometheusLabelEscaping:
    def test_reserved_characters_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "c_total", labels={"path": 'she said "hi"\\\n'}
        ).inc()
        out = registry.render()
        assert 'c_total{path="she said \\"hi\\"\\\\\\n"} 1' in out

    def test_plain_values_untouched(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"x": "plain.value-1"}).inc(2)
        assert 'c_total{x="plain.value-1"} 2' in registry.render()
