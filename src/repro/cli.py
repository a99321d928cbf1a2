"""Command-line interface.

Subcommands (also available as ``python -m repro``):

* ``repro run PROGRAM.rp`` -- parse a text program, simulate it
  (seeded or priority-scheduled), print the trace, optionally save the
  execution as JSON (``--save``) or the order graph as DOT (``--dot``);
* ``repro analyze EXECUTION.json`` -- relation summary of a saved
  execution, or a specific pair query with witness
  (``--pair LABEL LABEL --relation mhb``);
* ``repro races EXECUTION.json`` -- apparent and feasible races;
* ``repro sat FORMULA.cnf`` -- decide a DIMACS formula through the
  Theorem 1/3 reductions (and cross-check with DPLL);
* ``repro explore PROGRAM.rp`` -- exhaustive schedule-tree summary:
  run counts, deadlocks, event signatures, guaranteed orderings;
* ``repro trace summarize TRACE.jsonl`` -- re-aggregate a ``--trace``
  file into the same per-tier table the live scan printed;
* ``repro trace serve-summary TRACE.jsonl`` -- per-endpoint request
  counts and latency percentiles, the phase breakdown, planner tiers
  and the slowest requests (with their ids) of a ``repro serve
  --trace`` file;
* ``repro trace profile TRACE.jsonl`` -- merge the trace's search
  profile records into the "hot events" table (which orderings the
  exponential search spent its states on);
* ``repro trace timeline TRACE.jsonl`` -- per-worker utilization
  (busy/idle, pairs, crashes) reconstructed from the pool's
  dispatch/result spans, flagging stragglers;
* ``repro serve --store DIR`` -- long-lived query daemon: POST
  executions, query MHB/CHB/CCW/races over HTTP, witnesses persisted
  across queries and restarts (see :mod:`repro.serve`).

Observability: ``analyze`` and ``races`` accept ``--trace FILE``
(structured JSONL spans: query tier escalations, engine progress,
worker lifecycle, checkpoint writes) and ``--metrics FILE``
(a Prometheus-style text snapshot); long ``races`` scans also print a
live one-line progress meter on a tty (force with ``REPRO_PROGRESS=1``).
``--serve PORT`` additionally serves live ``/status`` (JSON),
``/metrics`` (Prometheus) and ``/healthz`` endpoints on 127.0.0.1 from
a daemon thread for the lifetime of the run -- a scan you can ask "how
far along are you" without touching it.  ``--profile FILE`` turns on
the search profiler (a pure observer: identical classifications and
states either way), prints the hot-events table after the scan and
saves the mergeable profile snapshot as JSON.

Budgets: ``analyze`` and ``races`` accept ``--max-states`` and
``--timeout SECONDS`` (and ``races`` a ``--per-pair-states`` cap so one
hard pair cannot starve the scan).  Budgeted runs never crash on
exhaustion: undecided queries print as ``UNKNOWN`` and the process
exits with status ``3`` ("completed with unknowns") so scripts can
distinguish a partial answer from a definite one (``0``) and from
errors (``1``/``2``).

Supervision: ``races --feasible`` scales out and survives crashes with
``--jobs N`` (the pairs whose ladder reaches the exact engine are
searched in a crash-isolated worker pool, each worker optionally under
``--max-memory-mb`` kernel caps, dead pairs retried ``--retries``
times; the polynomial tiers run in the scan's own process), and
survives *process* death with ``--checkpoint scan.jsonl``
(every classified pair is journaled durably; ``--resume`` skips them on
the next run).  Ctrl-C during a scan drains the in-flight results,
flushes the journal, prints the partial report and exits ``130``.

Exit status summary: ``0`` success / ``1`` runtime failure (deadlock,
cross-check disagreement) / ``2`` bad input (parse error, unreadable
file, journal mismatch) / ``3`` completed with unknowns / ``130``
interrupted (Ctrl-C) / ``143`` terminated (SIGTERM); both stop signals
take the same graceful path -- drain, flush, partial report.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import List, Optional

from repro.analysis import ProgramAnalysis
from repro.budget import Budget
from repro.core.engine import SearchBudgetExceeded
from repro.core.queries import OrderingQueries
from repro.core.relations import ALL_RELATIONS, OrderingAnalyzer, RelationName
from repro.lang.interpreter import DeadlockError, run_program
from repro.lang.parser import ParseError, parse_program
from repro.lang.scheduler import PriorityScheduler, RandomScheduler
from repro.model import serialize
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    ObsServer,
    ScanProgress,
    SearchProfile,
    StatusBoard,
    planner_metrics,
    render_status,
    summarize_trace,
)
from repro.obs.server import SCAN_METRICS
from repro.races.detector import RaceDetector
from repro.reductions import (
    decide_sat_via_ordering,
    decide_unsat_via_ordering,
    event_reduction,
    semaphore_reduction,
)
from repro.sat.cnf import parse_dimacs
from repro.sat.dpll import solve
from repro.serve import QueryDaemon, WitnessStore
from repro.solve import DEFAULT_PLAN, resolve_plan
from repro.supervise import (
    CheckpointJournal,
    JournalError,
    PoolBootFailure,
    ResourceLimits,
    RetryPolicy,
    SupervisedScanner,
    scan_fingerprint,
)
from repro.util.fileio import atomic_write_text
from repro import faults as faults_mod
from repro import viz


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# exit status for "ran to completion but some queries stayed UNKNOWN
# under the budget" -- distinct from success (0) and hard errors (1/2)
EXIT_UNKNOWN = 3
# bad input: parse error, unreadable file, journal/execution mismatch
EXIT_USAGE = 2
# interrupted by Ctrl-C (the conventional 128 + SIGINT)
EXIT_INTERRUPTED = 130
# terminated by a supervisor's SIGTERM (the conventional 128 + SIGTERM);
# same graceful-stop path as Ctrl-C, distinguishable by scripts
EXIT_TERMINATED = 143

#: set by the SIGTERM relay so exit-code mapping can tell a
#: supervisor's stop (143) from a Ctrl-C (130)
_SIGTERM_SEEN = [False]


def _install_sigterm_relay() -> None:
    """Treat SIGTERM exactly like Ctrl-C, everywhere.

    Every graceful-stop path in this CLI -- the supervised pool's
    drain, the journal's deferred appends, the partial-report printer
    -- is built on ``KeyboardInterrupt``.  Relaying SIGTERM into the
    same exception gives a systemd/CI ``kill`` the identical clean
    drain a Ctrl-C gets (journal tail whole, partial report written),
    instead of the interpreter's default die-on-the-spot.
    """

    def relay(signum, frame):
        _SIGTERM_SEEN[0] = True
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, relay)
    except ValueError:  # embedded off the main thread: leave it be
        pass


def _budget_from_args(args: argparse.Namespace) -> Optional[Budget]:
    """Build a Budget from --max-states / --timeout when either is set."""
    max_states = getattr(args, "max_states", None)
    timeout = getattr(args, "timeout", None)
    if max_states is None and timeout is None:
        return None
    return Budget.of(max_states=max_states, timeout=timeout)


def _start_server(board: StatusBoard, port: int) -> Optional[ObsServer]:
    """Bind the live ``--serve`` endpoint over ``board``, loudly and
    eagerly.

    Returns the server, or ``None`` after printing one diagnostic line
    when the port cannot be bound -- the caller turns that into exit
    status 2 *before* any scan work starts, so a typo'd port never
    silently runs an unobservable hour-long scan.
    """
    try:
        server = ObsServer(board, port).start()
    except OSError as exc:
        print(
            f"repro: cannot serve on port {port}: {exc}", file=sys.stderr
        )
        return None
    print(
        f"repro: serving /status /metrics /healthz on "
        f"http://{server.host}:{server.port}",
        file=sys.stderr,
    )
    return server


def _save_profile(profile: SearchProfile, path: str) -> None:
    """Print the hot-events table and save the mergeable snapshot."""
    print("\n".join(profile.describe()))
    atomic_write_text(
        path,
        json.dumps(profile.snapshot(), indent=2, sort_keys=True) + "\n",
    )
    print(f"saved search profile to {path}")


def _plan_from_args(args: argparse.Namespace):
    """The portfolio tier ladder from --backends (or None: the default).

    Unknown backend names raise ``ValueError``, which main() turns into
    exit status 2.
    """
    backends = getattr(args, "backends", None)
    if not backends:
        return None
    names = tuple(n.strip() for n in backends.split(",") if n.strip())
    if not names:
        raise ValueError("--backends needs at least one backend name")
    resolve_plan(names)  # validate eagerly for a one-line diagnostic
    return names


# ----------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    if args.priority:
        scheduler = PriorityScheduler(args.priority.split(","))
    else:
        scheduler = RandomScheduler(args.seed)
    try:
        trace = run_program(
            program,
            scheduler,
            max_steps=args.max_steps,
            memory_model=args.memory_model,
        )
    except DeadlockError as dead:
        print(f"DEADLOCK: blocked processes {list(dead.blocked)}")
        print(dead.trace.pretty())
        return 1
    print(trace.pretty())
    print(f"\nfinal shared state: {trace.final_shared}")
    exe = trace.to_execution()
    print(f"execution: {exe}")
    if args.save:
        serialize.save(exe, args.save)
        print(f"saved execution to {args.save}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(viz.execution_dot(exe) + "\n")
        print(f"saved order-graph DOT to {args.dot}")
    return 0


def _analyze_pair(
    q: OrderingQueries, args: argparse.Namespace, la: str, lb: str, a: int, b: int
) -> int:
    """One pair's verdicts, with the CHB/CCW witness or the MHB
    counterexample: three-valued output, never a traceback."""
    if args.relation == "all":
        verdicts = q.relation_verdicts(a, b)
    else:
        verdicts = {
            args.relation.upper(): getattr(q, f"{args.relation}_verdict")(a, b)
        }
    unknowns = 0
    for name, v in verdicts.items():
        if v.is_unknown:
            unknowns += 1
            print(f"  {name}({la}, {lb}) = UNKNOWN (exhausted {v.resource or 'budget'})")
            continue
        print(f"  {name}({la}, {lb}) = {v.truth}  [{v.provenance}]")
        # a decided CHB/CCW carries its schedule when TRUE, a refuted
        # MHB its counterexample
        if v.witness is not None and args.relation in ("chb", "ccw", "mhb"):
            if args.relation == "mhb":
                print("  counterexample schedule:")
            print(v.witness.pretty())
    if unknowns:
        print(
            f"{unknowns} quer{'y' if unknowns == 1 else 'ies'} undecided under "
            "the budget; rerun with a larger --max-states/--timeout"
        )
        return EXIT_UNKNOWN
    return 0


def _event_id(exe, label: str) -> int:
    """The id of the event labelled ``label``; an unknown label raises
    ``ValueError``, which main() turns into exit status 2."""
    if label not in exe.labels:
        raise ValueError(f"no event labelled {label!r} in the execution")
    return exe.by_label(label).eid


def cmd_analyze(args: argparse.Namespace) -> int:
    exe = serialize.load(args.execution)
    if args.memory_model is not None:
        # an unknown name raises ValueError -> exit status 2 with the
        # resolver's one-line message listing the known models
        exe = exe.with_memory_model(args.memory_model)
    print(f"loaded: {exe}")
    budget = _budget_from_args(args)
    plan = _plan_from_args(args)
    if args.pair:
        la, lb = args.pair
        a, b = _event_id(exe, la), _event_id(exe, lb)
        q = OrderingQueries(
            exe, include_dependences=not args.ignore_deps, budget=budget,
            plan=plan, por=args.por,
        )
        profile = SearchProfile() if args.profile else None
        board = server = None
        if args.serve is not None:
            board = StatusBoard()
            server = _start_server(board, args.serve)
            if server is None:
                return EXIT_USAGE
            board.fingerprint = args.execution
            board.begin_scan(total=0, budget=budget)
            board.planner, board.profile = q.planner.report, profile
            q.planner.attach_board(board)
        sink = JsonlTraceSink(args.trace) if args.trace else None
        try:
            if sink is not None:
                q.planner.attach_tracer(sink)
            if profile is not None:
                q.planner.attach_profiler(profile)
            status = _analyze_pair(q, args, la, lb, a, b)
        finally:
            if sink is not None:
                sink.close()
            if server is not None:
                board.set_state("done")
                server.close()
        if profile is not None:
            _save_profile(profile, args.profile)
        if args.metrics:
            registry = MetricsRegistry()
            planner_metrics(registry, q.planner.report)
            registry.write(args.metrics)
        return status
    analyzer = OrderingAnalyzer(
        exe, include_dependences=not args.ignore_deps, budget=budget,
        por=args.por,
    )
    # every count first: a budget blown mid-summary exits 3 (via main)
    # without a header already printed over nothing
    summary = analyzer.summary()
    print("pair counts per relation:")
    for name, count in summary.items():
        print(f"  {name:>4}: {count}")
    if args.matrix:
        name = RelationName[args.matrix.upper()]
        print(f"\n{name.name} matrix:")
        print(analyzer.matrix(name))
    return 0


def _races_runner(
    args: argparse.Namespace, tracer=None
) -> Optional[SupervisedScanner]:
    """The crash-isolated pool, when any supervision flag asks for it."""
    if args.jobs <= 1 and args.max_memory_mb is None:
        return None
    limits = None
    if args.max_memory_mb is not None:
        limits = ResourceLimits(max_memory_mb=args.max_memory_mb)
    return SupervisedScanner(
        jobs=max(1, args.jobs),
        limits=limits,
        # the policy's backoff is jittered: when one host-wide cause
        # kills several workers at once, their retries spread out
        # instead of stampeding back in lockstep (deterministic by pair)
        retry=RetryPolicy(max_retries=args.retries),
        tracer=tracer,
    )


def cmd_races(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint:
        print("repro: --resume requires --checkpoint", file=sys.stderr)
        return EXIT_USAGE
    exe = serialize.load(args.execution)
    if args.memory_model is not None:
        # rebuild under the requested model before anything derives
        # from the execution -- including scan_fingerprint, so a
        # --resume under a different --memory-model is refused exactly
        # like a changed plan or budget
        exe = exe.with_memory_model(args.memory_model)
    budget = _budget_from_args(args)
    plan = _plan_from_args(args)
    detector = RaceDetector(
        exe, max_states=args.max_states, budget=budget, plan=plan,
        por=args.por,
    )
    apparent = detector.apparent_races()
    print(apparent.pretty())
    # any supervision/persistence/observability flag implies the
    # feasible scan: those flags are meaningless for the polynomial
    # apparent detector
    feasible_wanted = (
        args.feasible or args.checkpoint or args.jobs > 1 or args.save
        or args.trace or args.metrics or args.profile
        or args.serve is not None
    )
    if not feasible_wanted:
        return 0
    board, server = StatusBoard(), None
    if args.serve is not None:
        server = _start_server(board, args.serve)
        if server is None:
            return EXIT_USAGE
    try:
        return _feasible_scan(args, exe, detector, budget, plan, board)
    finally:
        if server is not None:
            server.close()


def _feasible_scan(
    args: argparse.Namespace, exe, detector, budget, plan, board
) -> int:
    """The supervised feasible scan behind ``repro races`` (everything
    past the apparent report).  ``board`` is the scan's status board:
    the scan counts into it, and the progress line, ``--serve`` and the
    ``--metrics`` file are views of its snapshots."""
    journal = None
    precomputed = {}
    profile = SearchProfile() if args.profile else None
    tracer = JsonlTraceSink(args.trace) if args.trace else None
    try:
        if args.checkpoint:
            board.fingerprint = scan_fingerprint(
                exe,
                max_states=args.max_states,
                per_pair_max_states=args.per_pair_states,
                # the *resolved* ladder: --resume under a different
                # --backends must be refused, not silently mix
                # verdicts of different strength
                plan=plan if plan is not None else DEFAULT_PLAN,
                # likewise --por: reduction changes what fits a states
                # budget, so resumed UNKNOWNs must mean the same thing
                por=args.por,
            )
            journal = CheckpointJournal.open(
                args.checkpoint, board.fingerprint, resume=args.resume
            )
            precomputed = journal.classifications(exe)
            if precomputed:
                print(
                    f"resume: reusing {len(precomputed)} journaled pair(s) "
                    f"from {args.checkpoint}"
                )
        progress = ScanProgress(
            len(exe.conflicting_pairs()) - len(precomputed)
        )
        board.on_publish = progress.update

        def journaled(c):
            # counted first: a Ctrl-C that arrives during the append is
            # raised out of it once the record is written
            board.note_checkpoint_write()
            journal.append(c)
            if tracer is not None:
                tracer.emit({"kind": "checkpoint.write", "a": c.a, "b": c.b})

        try:
            feasible = detector.feasible_races(
                per_pair_max_states=args.per_pair_states,
                runner=_races_runner(args, tracer),
                precomputed=precomputed,
                on_classified=journaled if journal is not None else None,
                tracer=tracer,
                profile=profile,
                board=board,
            )
        finally:
            progress.finish()
            if journal is not None:
                journal.close()
    finally:
        if tracer is not None:
            tracer.close()
    if args.metrics:
        # the --metrics file is the /metrics body at scan end
        atomic_write_text(
            args.metrics, render_status(board.latest(), SCAN_METRICS)
        )
    print(feasible.pretty())
    if feasible.planner is not None and feasible.planner.queries:
        print(feasible.planner.describe())
    if profile is not None:
        _save_profile(profile, args.profile)
    if args.witnesses:
        for race in feasible.races:
            if race.witness is not None:
                print(f"witness for {race.describe(exe)}:")
                print(race.witness.pretty())
    if args.save:
        serialize.save_report(feasible, args.save, trace=args.trace or None)
        print(f"saved race report to {args.save}")
    if feasible.interrupted:
        missing = feasible.conflicting_pairs_examined - len(
            feasible.classifications
        )
        where = (
            f"; {args.checkpoint} holds the classified pairs "
            "(rerun with --resume to continue)"
            if args.checkpoint
            else ""
        )
        print(
            f"repro: interrupted with {missing} pair(s) unexamined{where}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    if not feasible.complete:
        n = len(feasible.unknown_pairs)
        print(
            f"{n} pair{'' if n == 1 else 's'} undecided under the budget; "
            "rerun with a larger --max-states/--timeout"
        )
        return EXIT_UNKNOWN
    return 0


#: ``repro trace`` view -> (its text over the one :class:`TraceSummary`
#: fold, or ``None``; the stderr line when it is ``None``)
_TRACE_VIEWS = {
    "summarize": (lambda summary, args: summary.describe(), None),
    "serve-summary": (lambda summary, args: summary.describe_serve(), None),
    "profile": (
        lambda summary, args: summary.describe_profile(top=args.top),
        "no profile records in trace; record one with "
        "`repro races --trace FILE --profile FILE`",
    ),
    "timeline": (
        lambda summary, args: summary.describe_timeline(),
        "no scan or worker spans in trace",
    ),
}


def cmd_trace(args: argparse.Namespace) -> int:
    """Print one view of a trace file.  Every view reads the same
    one-pass :func:`~repro.obs.trace.summarize_trace` fold, which
    streams the file: journal size does not matter."""
    render, missing = _TRACE_VIEWS[args.trace_command]
    summary = summarize_trace(
        args.trace_file, slowest=getattr(args, "slowest", 10)
    )
    text = render(summary, args)
    if text is None:
        print(f"repro: {missing}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    formula = parse_dimacs(_read(args.formula)).to_3cnf()
    build = semaphore_reduction if args.style == "sem" else event_reduction
    red = build(formula)
    sizes = red.size_summary()
    print(
        f"reduction: {sizes['processes']} processes, {sizes['events']} events "
        f"({args.style} style)"
    )
    unsat = decide_unsat_via_ordering(red)
    verdict = "UNSAT" if unsat else "SAT"
    print(f"ordering oracle (a MHB b): {verdict}")
    if args.check:
        dpll = "UNSAT" if solve(formula) is None else "SAT"
        agrees = dpll == verdict
        print(f"DPLL cross-check: {dpll}  ({'agree' if agrees else 'DISAGREE'})")
        return 0 if agrees else 2
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    analysis = ProgramAnalysis(program, max_runs=args.max_runs)
    summary = analysis.summary()
    print("schedule-tree exploration:")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if analysis.can_deadlock:
        run = analysis.result.deadlocked_runs[0]
        print(f"  example deadlock after schedule {list(run.schedule)}: "
              f"blocked {list(run.blocked)}")
    orderings = sorted(analysis.guaranteed_orderings())
    if orderings:
        print("guaranteed label orderings (all complete runs):")
        for a, b in orderings:
            print(f"  {a} -> {b}")
    if args.races:
        budget = _budget_from_args(args)
        races = analysis.program_races(budget=budget)
        print(f"feasible races across all executions: {len(races)}")
        for (a, b), count in sorted(races.items()):
            print(f"  {a} <-> {b}  (in {count} signature(s))")
        if analysis.race_unknowns:
            n = len(analysis.race_unknowns)
            print(f"pairs undecided under the budget: {n}")
            return EXIT_UNKNOWN
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """The long-lived query daemon (see :mod:`repro.serve`)."""
    plan = _plan_from_args(args)
    limits = None
    if args.max_memory_mb is not None:
        limits = ResourceLimits(max_memory_mb=args.max_memory_mb)
    store = WitnessStore(
        args.store,
        max_entries=args.store_max_executions,
        max_bytes=args.store_max_bytes,
    )
    if args.compact:
        carried = store.compact()
        print(
            f"repro: store compacted ({carried} execution(s) carried)",
            file=sys.stderr,
        )
    tracer = None
    if args.trace:
        # once serving, a failing sink only ever drops records (the
        # daemon wraps it in FailsafeSink); an unwritable path is a
        # *startup* error and must fail loudly now
        try:
            tracer = JsonlTraceSink(
                args.trace, max_records=args.trace_max_records
            )
        except OSError as exc:
            print(
                f"repro: cannot open trace file {args.trace}: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    try:
        daemon = QueryDaemon(
            store,
            port=args.port,
            host=args.host,
            workers=max(1, args.workers),
            queue_limit=args.queue_limit,
            default_timeout=args.default_timeout,
            max_timeout=args.max_timeout,
            max_states=args.max_states,
            limits=limits,
            retry=RetryPolicy(max_retries=args.retries),
            plan=plan,
            drain_grace=args.drain_grace,
            degraded_after=args.degraded_after,
            probe_interval=args.probe_interval,
            retry_after_cap=args.retry_after_cap,
            tracer=tracer,
            slow_threshold=args.slow_threshold,
            client_timeout=args.client_timeout,
        )
    except OSError as exc:
        print(
            f"repro: cannot serve on port {args.port}: {exc}", file=sys.stderr
        )
        return EXIT_USAGE

    stop = threading.Event()

    def on_signal(signum, frame):
        if signum == signal.SIGTERM:
            _SIGTERM_SEEN[0] = True
        if stop.is_set():
            raise KeyboardInterrupt  # second signal: stop draining, go
        stop.set()

    # both signals get the same clean drain; a second of either forces
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    daemon.start()
    st = store.stats()
    print(
        f"repro: serving queries on {daemon.url('/')} "
        f"(store: {args.store}, {st['executions']} execution(s), "
        f"{st['witnesses']} witness(es)); SIGTERM or Ctrl-C drains",
        file=sys.stderr,
    )
    if args.trace:
        print(
            f"repro: tracing requests to {args.trace} "
            "(repro trace serve-summary)",
            file=sys.stderr,
        )

    def report_trace() -> None:
        if not args.trace:
            return
        dropped = getattr(daemon.tracer, "total_dropped", lambda: 0)()
        note = f" ({dropped} record(s) dropped)" if dropped else ""
        print(f"repro: trace written to {args.trace}{note}", file=sys.stderr)

    try:
        while not stop.is_set():
            stop.wait(0.5)
        print(
            "repro: drain requested; finishing in-flight requests",
            file=sys.stderr,
        )
        daemon.close(drain=True)
    except KeyboardInterrupt:
        print("repro: forced shutdown", file=sys.stderr)
        daemon.close(drain=False)
        report_trace()
        return EXIT_TERMINATED if _SIGTERM_SEEN[0] else EXIT_INTERRUPTED
    report_trace()
    print("repro: drained cleanly", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Event ordering analysis for shared-memory parallel "
        "program executions (Netzer & Miller, ICPP 1990).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a program and capture its execution")
    p.add_argument("program", help="program text file")
    p.add_argument("--seed", type=int, default=0, help="random scheduler seed")
    p.add_argument("--priority", help="comma-separated priority schedule")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--memory-model", default="sc", metavar="MODEL",
                   help="memory model to execute under: sc (default) or tso")
    p.add_argument("--save", help="write the execution as JSON")
    p.add_argument("--dot", help="write the order graph as DOT")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="ordering relations of a saved execution")
    p.add_argument("execution", help="execution JSON file")
    p.add_argument("--pair", nargs=2, metavar=("LABEL_A", "LABEL_B"))
    p.add_argument(
        "--relation",
        choices=["mhb", "chb", "mcw", "ccw", "mow", "cow", "mcb", "ccb", "all"],
        default="all",
    )
    p.add_argument("--matrix", help="print the named relation as a matrix")
    p.add_argument("--memory-model", default=None, metavar="MODEL",
                   help="reinterpret the execution under this memory model "
                        "(sc or tso; default: the model recorded in the file)")
    p.add_argument("--ignore-deps", action="store_true",
                   help="Section 5.3 mode: ignore shared-data dependences")
    p.add_argument("--max-states", type=int, default=None,
                   help="state budget per search; undecided queries print UNKNOWN")
    p.add_argument("--timeout", type=float, default=None,
                   help="wall-clock budget in seconds shared by all searches")
    p.add_argument("--backends", metavar="NAMES",
                   help="comma-separated solver-portfolio tier ladder for "
                   "--pair queries, e.g. 'structural,observed,engine'")
    p.add_argument("--por", choices=("sleep", "hoist", "off"),
                   default="sleep",
                   help="exact-engine partial-order reduction: 'sleep' "
                   "(default) adds sleep-set pruning on top of "
                   "free-action hoisting, 'hoist' keeps hoisting only, "
                   "'off' explores the full interleaving tree (verdicts "
                   "are identical in all three modes)")
    p.add_argument("--trace", metavar="FILE",
                   help="with --pair: record the planner's query spans "
                   "as JSONL (see 'repro trace summarize')")
    p.add_argument("--metrics", metavar="FILE",
                   help="with --pair: write a Prometheus-style text "
                   "snapshot of the planner tallies")
    p.add_argument("--profile", metavar="FILE",
                   help="with --pair: profile the exact search (which "
                   "branch choices burn states), print the hot-events "
                   "table and save the snapshot JSON")
    p.add_argument("--serve", type=int, metavar="PORT", default=None,
                   help="with --pair: serve live /status, /metrics and "
                   "/healthz on 127.0.0.1:PORT while the query runs")
    p.add_argument("--failpoints", help=argparse.SUPPRESS)  # chaos schedule
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("races", help="race detection on a saved execution")
    p.add_argument("execution")
    p.add_argument("--feasible", action="store_true", help="run the exact detector too")
    p.add_argument("--memory-model", default=None, metavar="MODEL",
                   help="reinterpret the execution under this memory model "
                        "(sc or tso; default: the model recorded in the file)")
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--max-states", type=int, default=None,
                   help="state budget per pair; undecided pairs report as unknown")
    p.add_argument("--timeout", type=float, default=None,
                   help="wall-clock budget in seconds shared by the whole scan")
    p.add_argument("--per-pair-states", type=int, default=None,
                   help="tighter per-pair state cap so one hard pair cannot "
                   "starve the scan")
    p.add_argument("--jobs", type=int, default=1,
                   help="search the pairs that reach the exact engine in N "
                   "crash-isolated worker processes (implies --feasible; "
                   "a worker death marks its pair unknown, never kills "
                   "the scan)")
    p.add_argument("--checkpoint", metavar="JOURNAL",
                   help="journal every classified pair to this JSONL file "
                   "(fsync'ed append per pair; implies --feasible)")
    p.add_argument("--resume", action="store_true",
                   help="with --checkpoint: reuse every pair already in the "
                   "journal instead of recomputing it")
    p.add_argument("--max-memory-mb", type=int, default=None,
                   help="kernel memory cap per worker (setrlimit); a pair "
                   "that blows it is reported unknown with resource "
                   "'memory' instead of OOMing the host")
    p.add_argument("--retries", type=int, default=1,
                   help="attempts to re-run a pair whose worker died "
                   "(default 1)")
    p.add_argument("--save", metavar="REPORT",
                   help="write the feasible-scan RaceReport as JSON "
                   "(implies --feasible)")
    p.add_argument("--backends", metavar="NAMES",
                   help="comma-separated solver-portfolio tier ladder for "
                   "the feasible scan, e.g. "
                   "'structural,observed,witness,engine'")
    p.add_argument("--por", choices=("sleep", "hoist", "off"),
                   default="sleep",
                   help="exact-engine partial-order reduction for the "
                   "feasible scan (see 'repro analyze --help'); part of "
                   "the checkpoint fingerprint, so --resume under a "
                   "different mode is refused")
    p.add_argument("--trace", metavar="FILE",
                   help="record the scan as structured JSONL spans "
                   "(query tiers, worker lifecycle, checkpoint writes; "
                   "implies --feasible; see 'repro trace summarize')")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the finished scan's /metrics body, a "
                   "Prometheus-style text snapshot (pairs by outcome, "
                   "tier tallies, worker spawns; implies --feasible)")
    p.add_argument("--profile", metavar="FILE",
                   help="profile the exact searches (attribute engine "
                   "states to branch choice points), print the "
                   "hot-events table after the scan and save the "
                   "snapshot JSON (implies --feasible; pure observer: "
                   "classifications and state counts are unchanged)")
    p.add_argument("--serve", type=int, metavar="PORT", default=None,
                   help="serve live /status (JSON), /metrics "
                   "(Prometheus) and /healthz on 127.0.0.1:PORT for "
                   "the lifetime of the scan (implies --feasible)")
    p.add_argument("--failpoints", help=argparse.SUPPRESS)  # chaos schedule
    p.set_defaults(func=cmd_races)

    p = sub.add_parser("trace", help="inspect a structured scan trace")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ps = tsub.add_parser(
        "summarize",
        help="re-aggregate a --trace file into the per-tier planner table",
    )
    ps.add_argument("trace_file", help="JSONL trace written by --trace")
    ps.set_defaults(func=cmd_trace)
    ps = tsub.add_parser(
        "serve-summary",
        help="aggregate a daemon trace (repro serve --trace): "
        "per-endpoint p50/p95/p99, phase breakdown, planner tiers, "
        "slowest requests with their ids",
    )
    ps.add_argument("trace_file", help="JSONL trace written by serve --trace")
    ps.add_argument("--slowest", type=int, default=10, metavar="N",
                    help="slowest requests to list (default 10)")
    ps.set_defaults(func=cmd_trace)
    ps = tsub.add_parser(
        "profile",
        help="merge the trace's search-profile records into the "
        "hot-events table (scans recorded with --profile)",
    )
    ps.add_argument("trace_file", help="JSONL trace written by --trace")
    ps.add_argument("--top", type=int, default=10,
                    help="rows in the hot-events table (default 10)")
    ps.set_defaults(func=cmd_trace)
    ps = tsub.add_parser(
        "timeline",
        help="per-worker utilization (busy/idle, crashes, stragglers) "
        "from the pool's dispatch/result spans",
    )
    ps.add_argument("trace_file", help="JSONL trace written by --trace")
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="long-lived query daemon over a persistent witness store",
    )
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = ephemeral, printed on startup)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="witness store directory (created if missing; "
                   "corrupt entries are quarantined and rebuilt)")
    p.add_argument("--workers", type=int, default=2,
                   help="crash-isolated query worker processes (default 2)")
    p.add_argument("--queue-limit", type=int, default=8,
                   help="admitted requests (queued + executing) before "
                   "clients get 429 + Retry-After (default 8)")
    p.add_argument("--default-timeout", type=float, default=30.0,
                   help="per-query deadline when the request names none "
                   "(default 30s); hard pairs come back UNKNOWN with "
                   "the cheapest-tier answer")
    p.add_argument("--max-timeout", type=float, default=120.0,
                   help="cap on client-requested timeouts (default 120s)")
    p.add_argument("--max-states", type=int, default=None,
                   help="cap on client-requested per-query state budgets")
    p.add_argument("--max-memory-mb", type=int, default=None,
                   help="kernel memory cap per worker (setrlimit)")
    p.add_argument("--retries", type=int, default=1,
                   help="attempts to re-run a query whose worker died")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds to let in-flight requests finish on "
                   "SIGTERM/Ctrl-C (default 10)")
    p.add_argument("--backends", metavar="NAMES",
                   help="comma-separated solver-portfolio tier ladder "
                   "for workers")
    p.add_argument("--store-max-executions", type=int, default=None,
                   metavar="N",
                   help="cap on stored executions; past it the "
                   "least-recently-used entry is evicted (rebuildable "
                   "by re-posting, see the README runbook)")
    p.add_argument("--store-max-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="cap on the store's on-disk bytes (LRU eviction, "
                   "like --store-max-executions)")
    p.add_argument("--compact", action="store_true",
                   help="compact the store before serving: rewrite live "
                   "entries into a fresh generation, reclaiming "
                   "quarantine and eviction debris (crash-safe)")
    p.add_argument("--degraded-after", type=int, default=3, metavar="N",
                   help="consecutive failed flush passes before the "
                   "daemon flips to degraded read-only mode "
                   "(default 3; writes then answer 507)")
    p.add_argument("--probe-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="how often a degraded daemon probes the disk "
                   "for recovery (default 2s)")
    p.add_argument("--retry-after-cap", type=float, default=300.0,
                   metavar="SECONDS",
                   help="upper bound on the Retry-After hint sent with "
                   "429 responses (default 300s)")
    p.add_argument("--trace", metavar="FILE",
                   help="append serve.* request spans (trace schema v3, "
                   "keyed by request id) to FILE as JSONL; analyze with "
                   "'repro trace serve-summary'.  Never fails a "
                   "request: sink errors become counted drops")
    p.add_argument("--trace-max-records", type=int, default=None,
                   metavar="N",
                   help="bound on trace records written; past it "
                   "records are dropped and counted (default unbounded)")
    p.add_argument("--slow-threshold", type=float, default=1.0,
                   metavar="SECONDS",
                   help="requests at least this slow are logged and "
                   "kept in the GET /debug/slow ring (default 1s)")
    p.add_argument("--client-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="socket timeout per client: a request body that "
                   "trickles slower stalls one handler thread at most "
                   "this long, answers 400, and is counted in "
                   "serve_client_disconnects (default 10s)")
    p.add_argument("--failpoints", help=argparse.SUPPRESS)  # chaos schedule
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("sat", help="decide a DIMACS formula via the reductions")
    p.add_argument("formula")
    p.add_argument("--style", choices=["sem", "evt"], default="sem")
    p.add_argument("--check", action="store_true", help="cross-check with DPLL")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("explore", help="exhaustively explore a program's schedules")
    p.add_argument("program")
    p.add_argument("--max-runs", type=int, default=100_000)
    p.add_argument("--races", action="store_true",
                   help="also detect feasible races across all executions")
    p.add_argument("--max-states", type=int, default=None,
                   help="state budget per race search (with --races)")
    p.add_argument("--timeout", type=float, default=None,
                   help="wall-clock budget in seconds (with --races)")
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "failpoints", None):
        # arm before any subcommand work (and export to the environment:
        # each pool worker is handed the schedule as it starts)
        try:
            faults_mod.arm(args.failpoints)
        except faults_mod.FaultSpecError as exc:
            print(f"repro: bad --failpoints schedule: {exc}", file=sys.stderr)
            return EXIT_USAGE
    _SIGTERM_SEEN[0] = False
    _install_sigterm_relay()
    try:
        code = args.func(args)
        # a SIGTERM that surfaced as a graceful interruption deep in a
        # scan still reports as "terminated", not "Ctrl-C"
        if code == EXIT_INTERRUPTED and _SIGTERM_SEEN[0]:
            code = EXIT_TERMINATED
        return code
    except KeyboardInterrupt:
        # a Ctrl-C/SIGTERM anywhere outside the supervised scan (which
        # converts it into a partial report itself) still exits in one line
        if _SIGTERM_SEEN[0]:
            print("repro: terminated", file=sys.stderr)
            return EXIT_TERMINATED
        print("repro: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ParseError as exc:
        print(f"repro: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JournalError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoolBootFailure as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"repro: invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # e.g. a JSON file that is not a repro-execution document
        print(f"repro: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"repro: cannot access input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        # unbudgeted paths (e.g. analyze --max-states without --pair going
        # through the boolean API) must still fail cleanly, not traceback
        print(f"repro: search budget exceeded ({exc.resource}); "
              "rerun with a larger --max-states/--timeout", file=sys.stderr)
        return EXIT_UNKNOWN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
