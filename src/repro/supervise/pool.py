"""Crash-isolated parallel pair classification (a :data:`PairRunner`).

Why a hand-rolled pool instead of ``concurrent.futures``: a worker
killed by the OS (segfault, OOM kill, CPU rlimit) permanently breaks a
``ProcessPoolExecutor`` -- every pending future dies with
``BrokenProcessPool``.  Here a dead worker is an *expected* event, not
an error: the parent knows exactly which pair each worker holds (one
in-flight task per worker, over a private queue), so when a worker dies
the pair is retried under the :class:`~repro.supervise.retry.RetryPolicy`
(backoff + optional budget escalation) or finalized ``unknown`` with
the resource that killed it (``"crash"``, ``"memory"``, ``"cpu"``,
``"deadline"``), a replacement worker is spawned, and the scan keeps
draining.

Workers are started with the **spawn** context (a fresh interpreter: no
inherited locks, deterministic across platforms), ignore ``SIGINT``
(the parent owns shutdown), install their ``setrlimit`` caps before
touching the execution, and receive the execution as its JSON document
-- the same bytes a checkpoint fingerprint covers.

Supervision is event-driven: each worker reports over its own result
pipe (a dying worker can hold no lock another worker needs), and the
supervisor sleeps in :func:`multiprocessing.connection.wait` on those
pipes, the worker sentinels and -- for the query pool -- a wake pipe,
with the next real deadline (a wall kill, a retry's backoff, a drain)
as its timeout.  A dead worker's pipe is read to EOF before its task is
failed, so a report sent just before exiting is never mistaken for an
abandoned task.

A ``KeyboardInterrupt`` in the parent waits a grace period for the
answers of in-flight pairs, terminates the workers, and returns the
classified prefix with ``interrupted=True``; the caller (the detector /
CLI) turns that into a partial report and exit status 130.  A *second*
interrupt during that drain means "now": the drain stops, workers are
terminated, and the interrupt propagates -- no more results are folded
in and no further checkpoint records are written, so the journal tail
stays whole (appends themselves are SIGINT-deferred, see
:mod:`repro.supervise.checkpoint`).
"""

from __future__ import annotations

import gc
import itertools
import json
import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_any
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults as faults_mod
from repro.budget import Budget, DEADLINE
from repro.model import serialize
from repro.obs.profile import SearchProfile
from repro.obs.trace import NULL_SINK, RecordingSink
from repro.races.detector import (
    PairClassification,
    PairScanOptions,
    PairTask,
    UNKNOWN,
    classify_pair,
)
from repro.solve.context import SolveContext
from repro.solve.planner import PlannerReport, QueryPlanner, tier_of
from repro.supervise.retry import RetryPolicy
from repro.supervise.rlimits import CPU, MEMORY, ResourceLimits, apply_limits

CRASH = "crash"

# ----------------------------------------------------------------------
# fault injection (test-only)
#
# ``faults`` maps "a,b" to {"action": ..., "attempts": k} and makes the
# worker misbehave *before* classifying that pair, on attempts < k
# (k omitted = every attempt).  Actions: "segv", "exit" (with "code"),
# "hang" (with "seconds"), "oom".  The spec is compiled onto a private
# :class:`repro.faults.FailpointRegistry` -- one clause
# ``pool.pair.<a>,<b>=<action>@first=<k>`` per pair -- so the pool's
# chaos shares the grammar, actions and determinism of every other
# failpoint in the tree.  The *attempt* number (which survives worker
# replacement) drives the trigger, not the fresh worker's hit counter.
#
# Independent of the per-pair spec, every task dispatch also hits the
# process-wide ``pool.task`` failpoint, so a ``REPRO_FAILPOINTS``
# schedule (inherited through the spawn environment) can crash or stall
# workers without naming pairs; ``pool.worker.start`` fires once per
# worker just before it reports ready (a worker that never boots).
# ----------------------------------------------------------------------


def _pair_clause(key: str, rule: Dict[str, Any]) -> str:
    """One pair's legacy spec entry as a registry clause string."""
    action = str(rule.get("action"))
    if action == "exit":
        action = f"exit:{int(rule.get('code', 1))}"
    elif action == "hang":
        action = f"hang:{float(rule.get('seconds', 3600.0))}"
    clause = f"pool.pair.{key}={action}"
    attempts = rule.get("attempts")
    if attempts is not None:
        clause += f"@first={int(attempts)}"
    return clause


class _PairFaults:
    """The legacy per-pair fault spec, compiled lazily onto private
    :class:`repro.faults.FailpointRegistry` instances.

    Lazy on purpose: a malformed clause (spec typo) must surface when
    *its* pair is classified -- inside the worker's per-task exception
    isolation, where it finalizes that one pair UNKNOWN -- not break
    the whole worker at startup.
    """

    def __init__(self, spec: Optional[Dict[str, Dict[str, Any]]]) -> None:
        self._spec = dict(spec or {})
        self._compiled: Dict[str, faults_mod.FailpointRegistry] = {}

    def hit(self, a: int, b: int, attempt: int) -> None:
        key = f"{a},{b}"
        rule = self._spec.get(key)
        if not rule:
            return
        registry = self._compiled.get(key)
        if registry is None:
            registry = faults_mod.FailpointRegistry(_pair_clause(key, rule))
            self._compiled[key] = registry
        # count = attempt + 1: the parent's per-pair attempt number
        # survives worker replacement, a fresh worker's counters do not
        registry.hit(f"pool.pair.{key}", count=attempt + 1)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(task_q, conn, exe_doc, conf) -> None:
    """Worker loop: one pair per message, results by value over the
    worker's private ``conn``, no shared state.  Runs in a spawned
    interpreter; must stay importable."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    limits = conf.get("rlimits")
    apply_limits(ResourceLimits(**limits) if limits is not None else None)
    exe = serialize.execution_from_dict(exe_doc)
    drop = bool(conf.get("drop_racing_dependences", True))
    pair_faults = _PairFaults(conf.get("faults"))
    # one planner for the worker's whole task stream: the structural
    # bitsets and conflict index amortize across pairs, and witnesses
    # found for one pair answer later ones without a search
    planner = QueryPlanner(SolveContext(exe, por=conf.get("por", "sleep")))
    # when the parent traces, record spans into a bounded buffer and
    # ship them with each result; bounded because the whole batch rides
    # one pipe message (drops are accounted, never blocked on)
    sink: Optional[RecordingSink] = None
    if conf.get("trace"):
        sink = RecordingSink(capacity=int(conf.get("trace_capacity", 4096)))
        planner.attach_tracer(sink)
    # when the parent profiles, attribute this worker's search states to
    # branch choice points; the per-pair snapshot rides each result so a
    # crashed worker loses a pair's profile together with its answer
    profile: Optional[SearchProfile] = None
    if conf.get("profile"):
        profile = SearchProfile()
        planner.attach_profiler(profile)
    faults_mod.fire("pool.worker.start")
    conn.send((None, "ready", None))
    while True:
        msg = task_q.get()
        if msg is None:
            return
        task_id, a, b, attempt, max_states, timeout = msg
        try:
            faults_mod.fire("pool.task")
            pair_faults.hit(a, b, attempt)
            budget = None
            if max_states is not None or timeout is not None:
                budget = Budget.of(max_states=max_states, timeout=timeout)
            planner.report = PlannerReport()  # per-pair tier tallies
            if sink is not None:
                sink.drain()  # discard spans of a failed prior attempt
            if profile is not None:
                profile.reset()  # per-pair attribution
            c = classify_pair(
                exe, a, b, drop_racing_dependences=drop, budget=budget,
                planner=planner,
            )
            payload = {
                "classification": serialize.classification_to_dict(c),
                "planner": planner.report.snapshot(),
            }
            if profile is not None:
                payload["profile"] = profile.snapshot()
            if sink is not None:
                # spans travel with the snapshot they mirror: a crashed
                # worker loses both together, so the trace aggregation
                # always matches the merged report
                payload["spans"] = sink.drain()
            conn.send((task_id, "ok", payload))
        except MemoryError:
            # the cap fired.  Drop whatever the search pinned (the
            # handler deliberately does not bind the exception, whose
            # traceback would keep those frames alive), report, then
            # retire: this heap was driven to the limit and is not
            # worth trusting.
            gc.collect()
            conn.send((task_id, "memory", None))
            return
        except Exception as exc:  # unexpected bug: isolate, don't die
            conn.send((task_id, "error", repr(exc)))


def _death_resource(exitcode: Optional[int]) -> str:
    """Map a dead worker's exitcode to the classification resource."""
    if exitcode is not None and exitcode < 0 and -exitcode == signal.SIGXCPU:
        return CPU
    return CRASH


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _TaskState:
    a: int
    b: int
    variables: Any
    attempt: int = 0
    failures: int = 0
    not_before: float = 0.0


@dataclass
class _Worker:
    uid: int  # unique across the scan -- slots are reused, uids are not
    proc: Any
    task_q: Any
    conn: Any  # the parent's end of this worker's private result pipe
    busy_task: Optional[int] = None
    ready: bool = False  # sent its warm-up message (interpreter booted)
    kill_at: Optional[float] = None
    kill_after: Optional[float] = None  # wall budget armed once ready
    retiring: bool = False  # announced its own exit; never dispatch again
    eof: bool = False  # result pipe read to its end: nothing more will come

    def arm(self, now: float, wall: Optional[float],
            backstop: Optional[float] = None) -> None:
        """Start the hang clock for a just-dispatched task.  A cold
        worker's clock starts on its ready message (spawn and import
        time is machine load, not task difficulty); until then only
        ``backstop`` (an absolute time, if any) can kill it."""
        if self.ready:
            self.kill_at = (now + wall) if wall is not None else None
            self.kill_after = None
        else:
            self.kill_at, self.kill_after = backstop, wall

    def mark_ready(self) -> None:
        self.ready = True
        if self.kill_after is not None:
            self.kill_at = time.monotonic() + self.kill_after
            self.kill_after = None

    def settle(self, tid: Optional[int]) -> None:
        """A report for ``tid`` arrived: disarm if it was our task."""
        if tid == self.busy_task:
            self.busy_task = self.kill_at = self.kill_after = None

    def drain(self, handle: Callable[["_Worker", Any], None]) -> None:
        """Fold in every message already in the pipe; at EOF (the
        worker exited) mark the pipe spent.  Never blocks on an idle
        pipe."""
        try:
            while not self.eof and self.conn.poll():
                handle(self, self.conn.recv())
        except (EOFError, OSError):  # EOF, or a message torn by death
            self.eof = True

    def dispose(self) -> None:
        """Reap the (dead) process and release its pipes."""
        self.proc.join()
        self.conn.close()
        self.task_q.cancel_join_thread()
        self.task_q.close()


def _start_worker(ctx, uid: int, target, *args) -> _Worker:
    task_q = ctx.Queue()
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=target, args=(task_q, child_conn) + args, daemon=True
    )
    proc.start()
    # drop our copy of the write end: EOF on ``conn`` now means exactly
    # that the worker is gone
    child_conn.close()
    return _Worker(uid, proc, task_q, conn)


def _sleep_until_event(workers, deadlines, *extra) -> None:
    """Block until a worker reports or dies, an ``extra`` fd is
    readable, or the earliest of ``deadlines`` (``None`` entries are
    ignored) passes."""
    objs = list(extra)
    for w in workers:
        if w is not None:
            objs.append(w.proc.sentinel)
            if not w.eof:
                objs.append(w.conn)
    due = [d for d in deadlines if d is not None]
    timeout = max(0.0, min(due) - time.monotonic()) if due else None
    wait_any(objs, timeout)


class SupervisedScanner:
    """Classify conflicting pairs in parallel, surviving worker death.

    Usable directly as the ``runner`` argument of
    :meth:`~repro.races.detector.RaceDetector.feasible_races`.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).
    limits:
        Kernel caps installed in every worker.
    retry:
        Crash/retry policy (default: one retry, mild backoff).
    pair_wall_timeout:
        Hard wall-clock seconds per attempt, enforced by the *parent*
        killing the worker -- the hang backstop.  Defaults to
        ``2 * pair_timeout + 5`` when the scan has a per-pair timeout,
        else off (an unbudgeted scan may legitimately run for days).
    faults:
        Test-only fault-injection spec (see module comment).
    drain_grace:
        Seconds an interrupted scan waits for the answers of pairs
        already in flight.
    tracer:
        A :class:`~repro.obs.trace.TraceSink`; when enabled, workers
        record their query spans into a bounded in-memory sink and ship
        them home with each result, and the parent adds worker
        lifecycle events (spawn/ready/retry/crash/retire plus
        dispatch/result bounds around every attempt) -- so a parallel
        scan's trace is as complete as a serial one's.
        After :meth:`scan` returns, :attr:`worker_restarts` counts the
        workers that were replaced after dying mid-pair.
    board:
        A :class:`~repro.obs.server.StatusBoard` (duck-typed:
        ``observe``/``merge_planner``/``merge_profile``).  Every worker
        lifecycle record is mirrored to it and each result's planner /
        profile snapshot is merged as it lands, so a ``--serve``
        endpoint shows per-worker liveness, the current pair and
        restart counts while the scan is still running.  Also settable
        after construction via the :attr:`board` attribute.
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        limits: Optional[ResourceLimits] = None,
        retry: Optional[RetryPolicy] = None,
        pair_wall_timeout: Optional[float] = None,
        faults: Optional[Dict[str, Dict[str, Any]]] = None,
        drain_grace: float = 1.0,
        tracer=NULL_SINK,
        board=None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.limits = limits
        self.retry = retry if retry is not None else RetryPolicy()
        self.pair_wall_timeout = pair_wall_timeout
        self.faults = dict(faults or {})
        self.drain_grace = drain_grace
        self.tracer = tracer if tracer is not None else NULL_SINK
        self.board = board
        self.worker_restarts = 0  # of the most recent scan

    # ------------------------------------------------------------------
    def __call__(self, exe, tasks, options, on_classified=None):
        return self.scan(exe, tasks, options, on_classified)

    def scan(
        self,
        exe,
        tasks: Sequence[PairTask],
        options: PairScanOptions,
        on_classified: Optional[Callable[[PairClassification], None]] = None,
    ) -> Tuple[List[PairClassification], bool, Dict[str, Any]]:
        """Returns ``(classifications, interrupted, tier_snapshot)`` --
        the third element aggregates each worker's per-pair
        :class:`~repro.solve.planner.PlannerReport` so the parent's race
        report still says which tiers answered."""
        self.worker_restarts = 0
        if not tasks:
            return [], False, PlannerReport().snapshot()
        tracer = self.tracer
        traced = tracer is not None and tracer.enabled
        board = self.board

        def emit(record: Dict[str, Any]) -> None:
            if traced:
                tracer.emit(record)
            if board is not None:
                board.observe(record)

        ctx = mp.get_context("spawn")
        exe_doc = serialize.execution_to_dict(exe)
        conf = {
            "drop_racing_dependences": options.drop_racing_dependences,
            "rlimits": _rlimits_conf(self.limits),
            "faults": self.faults,
            "trace": traced,
            "profile": options.profile,
            "por": options.por,
        }
        state: Dict[int, _TaskState] = {
            tid: _TaskState(a, b, variables)
            for tid, (a, b, variables) in enumerate(tasks)
        }
        pending = deque(range(len(tasks)))
        done: Dict[int, PairClassification] = {}
        workers: List[Optional[_Worker]] = [None] * self.jobs
        next_uid = itertools.count()
        interrupted = False
        hard_interrupt = False
        slots_used: set = set()
        tier_report = PlannerReport()  # aggregated from worker payloads
        scan_profile = SearchProfile() if options.profile else None
        wall = self.pair_wall_timeout
        if wall is None and options.pair_timeout is not None:
            wall = 2.0 * options.pair_timeout + 5.0

        def finalize(tid: int, c: PairClassification) -> None:
            done[tid] = c
            if on_classified is not None:
                on_classified(c)

        def fail(tid: int, resource: str) -> None:
            st = state[tid]
            st.failures += 1
            past_deadline = (
                options.deadline is not None
                and time.monotonic() >= options.deadline
            )
            if self.retry.should_retry(st.failures) and not past_deadline:
                st.attempt += 1
                st.not_before = time.monotonic() + self.retry.delay(
                    st.attempt, key=(st.a, st.b)
                )
                pending.append(tid)
                emit(
                    {"kind": "worker.retry", "a": st.a, "b": st.b,
                     "attempt": st.attempt}
                )
            else:
                finalize(
                    tid,
                    PairClassification(
                        st.a, st.b, UNKNOWN, st.variables, resource=resource
                    ),
                )

        def handle_result(w: _Worker, msg) -> None:
            tid, kind, payload = msg
            if kind == "ready":
                w.mark_ready()
                emit({"kind": "worker.ready", "worker": w.uid})
                return
            w.settle(tid)
            if kind == "memory":
                # a memory report doubles as the worker's retirement
                # notice -- it exits right after sending it
                w.retiring = True
                emit({"kind": "worker.crash", "worker": w.uid,
                      "resource": MEMORY})
            if tid in done:
                return
            if kind != "ok":  # "memory" or "error"
                fail(tid, MEMORY if kind == "memory" else CRASH)
                return
            planner_snap = payload.get("planner") or {}
            tier_report.merge(planner_snap)
            profile_snap = payload.get("profile")
            if scan_profile is not None and profile_snap:
                scan_profile.merge(profile_snap)
            if board is not None:
                board.merge_planner(planner_snap)
                if profile_snap:
                    board.merge_profile(profile_snap)
            if traced:
                # fold the worker's spans into the scan trace, tagged
                # with the uid that produced them
                for span in payload.get("spans") or ():
                    span.setdefault("worker", w.uid)
                    tracer.emit(span)
            st = state[tid]
            emit({"kind": "worker.result", "worker": w.uid,
                  "a": st.a, "b": st.b})
            finalize(tid, serialize.classification_from_dict(
                exe, payload["classification"]
            ))

        def spawn(slot: int) -> _Worker:
            w = _start_worker(ctx, next(next_uid), _worker_main, exe_doc, conf)
            if slot in slots_used:
                # this slot hosted a worker before: the spawn replaces
                # one that died or retired mid-scan
                self.worker_restarts += 1
            slots_used.add(slot)
            emit({"kind": "worker.spawn", "worker": w.uid})
            return w

        def reap(slot: int, resource: str) -> None:
            """Retire the dead worker in ``slot``; its task (if the
            pipe, read to EOF, did not settle it) fails with
            ``resource``."""
            w = workers[slot]
            w.proc.join()
            w.drain(handle_result)
            tid = w.busy_task
            if tid is not None:
                emit({"kind": "worker.crash", "worker": w.uid,
                      "resource": resource})
            w.dispose()
            workers[slot] = None
            emit({"kind": "worker.retire", "worker": w.uid})
            if tid is not None:
                fail(tid, resource)

        def dispatchable(now: float) -> Optional[int]:
            for _ in range(len(pending)):
                tid = pending.popleft()
                if state[tid].not_before <= now:
                    return tid
                pending.append(tid)
            return None

        try:
            while len(done) < len(state):
                now = time.monotonic()
                # scan-wide deadline: never start pairs past it
                if options.deadline is not None and now >= options.deadline:
                    while pending:
                        tid = pending.popleft()
                        st = state[tid]
                        finalize(
                            tid,
                            PairClassification(
                                st.a, st.b, UNKNOWN, st.variables,
                                resource=DEADLINE,
                            ),
                        )
                # assign work to idle workers, spawning where needed
                idle = False
                for slot in range(self.jobs):
                    w = workers[slot]
                    if w is None and pending:
                        workers[slot] = w = spawn(slot)
                    if w is None or w.busy_task is not None or w.retiring:
                        continue
                    tid = dispatchable(now) if pending else None
                    if tid is None:
                        idle = True
                        continue
                    st = state[tid]
                    max_states = self.retry.escalated_states(
                        options.max_states, st.attempt
                    )
                    timeout = options.pair_timeout
                    if options.deadline is not None:
                        remaining = max(0.001, options.deadline - now)
                        timeout = (
                            remaining if timeout is None
                            else min(timeout, remaining)
                        )
                    w.task_q.put(
                        (tid, st.a, st.b, st.attempt, max_states, timeout)
                    )
                    w.busy_task = tid
                    emit({"kind": "worker.dispatch", "worker": w.uid,
                          "a": st.a, "b": st.b})
                    w.arm(now, wall)
                if len(done) == len(state):
                    break  # the scan deadline just finalized the rest
                # sleep until a worker reports or dies, or the next
                # deadline: a wall kill, a retry's backoff, the scan's
                deadlines = [w.kill_at for w in workers if w is not None]
                if pending:
                    deadlines.append(options.deadline)
                    if idle:
                        deadlines += [state[t].not_before for t in pending]
                _sleep_until_event(workers, deadlines)
                # fold in results; reap the dead and the overdue
                now = time.monotonic()
                for slot, w in enumerate(workers):
                    if w is None:
                        continue
                    w.drain(handle_result)
                    if not w.proc.is_alive():
                        reap(slot, _death_resource(w.proc.exitcode))
                    elif w.kill_at is not None and now >= w.kill_at:
                        w.proc.kill()
                        reap(slot, DEADLINE)
        except KeyboardInterrupt:
            interrupted = True
            if board is not None:
                # flips /readyz to 503 while the prefix is folded in
                board.set_state("draining")
            # fold in the answers of pairs already in flight, briefly; a
            # SECOND interrupt during the drain means "now" -- stop
            # draining, let the finally terminate the workers, then
            # re-raise so the process exits 130 without writing another
            # record
            try:
                stop_at = time.monotonic() + self.drain_grace
                while time.monotonic() < stop_at:
                    busy = [
                        w for w in workers
                        if w is not None and w.busy_task is not None
                        and not w.eof
                    ]
                    if not busy:
                        break
                    wait_any([w.conn for w in busy],
                             max(0.0, stop_at - time.monotonic()))
                    for w in busy:
                        w.drain(handle_result)
            except KeyboardInterrupt:
                hard_interrupt = True
        finally:
            _shutdown(workers)
        if hard_interrupt:
            raise KeyboardInterrupt
        results = [done[tid] for tid in sorted(done)]
        snap = tier_report.snapshot()
        if scan_profile is not None:
            # piggyback on the tier snapshot (the detector pops it back
            # out): the runner protocol stays a 3-tuple
            snap["profile"] = scan_profile.snapshot()
        return results, interrupted, snap


def _rlimits_conf(limits: Optional[ResourceLimits]) -> Optional[dict]:
    if limits is None:
        return None
    return {
        "max_memory_mb": limits.max_memory_mb,
        "max_cpu_seconds": limits.max_cpu_seconds,
    }


def _shutdown(workers: Sequence[Optional[_Worker]]) -> None:
    live = [w for w in workers if w is not None]
    for w in live:
        try:
            w.task_q.put_nowait(None)
        except Exception:  # full/closed: terminate below anyway
            pass
    deadline = time.monotonic() + 1.0
    for w in live:
        w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        if w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(timeout=0.5)
        if w.proc.is_alive():  # pragma: no cover - stubborn child
            w.proc.kill()
        # never let an unflushed feeder thread block interpreter exit
        w.dispose()


# ----------------------------------------------------------------------
# long-lived query evaluation (the ``repro serve`` daemon's pool)
# ----------------------------------------------------------------------
#: relations a query request may name; each maps to a planner facade
#: (``<name>_verdict``), plus the two composite forms
QUERY_RELATIONS = frozenset(
    {"mhb", "chb", "mcb", "ccb", "mow", "cow", "mcw", "ccw",
     "feasible", "race"}
)

#: outcome resource when the pool is torn down with the job unfinished
SHUTDOWN = "shutdown"


def _unknown_outcome(resource: str) -> Dict[str, Any]:
    """The degraded answer shape: explicitly UNKNOWN, never a guess."""
    return {
        "verdict": "UNKNOWN",
        "decided_by": None,
        "resource": resource,
        "planner": {},
        "witnesses_found": [],
    }


def _verdict_payload(verdict) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "verdict": str(verdict.truth),
        "decided_by": (
            None if verdict.is_unknown else tier_of(verdict.provenance)
        ),
        "resource": verdict.resource,
    }
    if verdict.witness is not None:
        doc["witness"] = serialize.witness_to_dict(verdict.witness)
    return doc


def _query_worker_main(task_q, conn, conf) -> None:
    """Daemon-side worker loop: one *query* per message, executions by
    fingerprint.  Runs in a spawned interpreter; must stay importable.

    Unlike :func:`_worker_main` (one execution for a whole scan), a
    query worker serves many executions over its lifetime: it keeps a
    small LRU of warm :class:`~repro.solve.planner.QueryPlanner`
    contexts keyed by fingerprint, so queries against a hot stored
    execution reuse the structural bitsets and every witness already
    found, however many never-seen executions pass in between.  Each
    request ships the execution document anyway (a dict, or its JSON
    text as the witness store keeps it) -- a worker fresh from a crash
    replacement must be able to answer without any shared state.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # ... and drain
    limits = conf.get("rlimits")
    apply_limits(ResourceLimits(**limits) if limits is not None else None)
    pair_faults = _PairFaults(conf.get("faults"))
    plan = conf.get("plan")
    capacity = max(1, int(conf.get("context_capacity", 8)))
    planners: Dict[str, QueryPlanner] = {}  # fp -> planner, LRU order
    # when the daemon traces, record query spans into a bounded buffer
    # and ship them with each result (the scan pool's idiom): the
    # parent tags them with the request id only it knows
    sink: Optional[RecordingSink] = None
    if conf.get("trace"):
        sink = RecordingSink(capacity=int(conf.get("trace_capacity", 4096)))
    faults_mod.fire("pool.worker.start")
    conn.send((None, "ready", None))
    while True:
        msg = task_q.get()
        if msg is None:
            return
        task_id, req, attempt = msg
        try:
            faults_mod.fire("pool.task")
            eval_t0 = time.monotonic()
            if sink is not None:
                sink.drain()  # discard spans of a failed prior attempt
            a, b = req.get("a"), req.get("b")
            if a is not None and b is not None:
                pair_faults.hit(int(a), int(b), attempt)
            fp = req["fingerprint"]
            planner = planners.pop(fp, None)
            if planner is None:
                exe_doc = req["execution"]
                if isinstance(exe_doc, str):
                    exe_doc = json.loads(exe_doc)
                ctx = SolveContext(serialize.execution_from_dict(exe_doc))
                planner = (
                    QueryPlanner(ctx, tuple(plan)) if plan else QueryPlanner(ctx)
                )
                if sink is not None:
                    planner.attach_tracer(sink)
            planners[fp] = planner  # (re)insert as most recently used
            while len(planners) > capacity:
                planners.pop(next(iter(planners)))
            # seed the persistent store's schedules (each re-validated
            # by the cache) and remember the watermark: only witnesses
            # *this* query discovers ship home for persisting
            mark = planner.ctx.seed_witnesses(req.get("witnesses") or ())
            planner.report = PlannerReport()  # per-query tier tallies
            budget = None
            max_states, timeout = req.get("max_states"), req.get("timeout")
            if max_states is not None or timeout is not None:
                budget = Budget.of(max_states=max_states, timeout=timeout)
            relation = req.get("relation", "race")
            if relation == "race":
                c = classify_pair(
                    planner.ctx.exe,
                    int(a),
                    int(b),
                    drop_racing_dependences=bool(req.get("drop_racing", True)),
                    budget=budget,
                    planner=planner,
                )
                payload: Dict[str, Any] = {
                    "verdict": c.status.upper()
                    if c.status == UNKNOWN
                    else c.status,
                    "decided_by": c.decided_by,
                    "resource": c.resource,
                    "classification": serialize.classification_to_dict(c),
                }
                if c.witness is not None:
                    payload["witness"] = serialize.witness_to_dict(c.witness)
            elif relation == "feasible":
                payload = _verdict_payload(planner.feasible_verdict(budget=budget))
            else:
                method = getattr(planner, f"{relation}_verdict")
                payload = _verdict_payload(method(int(a), int(b), budget=budget))
            payload["planner"] = planner.report.snapshot()
            payload["witnesses_found"] = planner.ctx.witnesses.points_since(mark)
            if sink is not None:
                # the query spans plus this worker's evaluation bound;
                # the parent adds "request_id"/"worker" provenance
                spans = sink.drain()
                spans.append(
                    {
                        "kind": "serve.worker.eval",
                        "t": eval_t0,
                        "elapsed": time.monotonic() - eval_t0,
                    }
                )
                payload["spans"] = spans
            conn.send((task_id, "ok", payload))
        except MemoryError:
            # see _worker_main: report without binding the exception,
            # then retire this driven-to-the-limit heap
            planners.clear()
            gc.collect()
            conn.send((task_id, "memory", None))
            return
        except Exception as exc:  # unexpected bug: isolate, don't die
            conn.send((task_id, "error", repr(exc)))


@dataclass
class _QueryJob:
    request: Dict[str, Any]
    done: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[Dict[str, Any]] = None
    attempt: int = 0
    failures: int = 0
    not_before: float = 0.0
    #: monotonic retry cutoff (mirrors the request timeout): past it a
    #: failure finalizes UNKNOWN instead of re-queueing
    deadline: Optional[float] = None


class QueryWorkerPool:
    """Crash-isolated evaluation for the ``repro serve`` daemon.

    The scan pool answers one batch and exits; this pool lives as long
    as the daemon, evaluating independent query requests against many
    executions.  It inherits the scan pool's robustness invariants --
    spawn-context workers under kernel rlimits, dead workers replaced
    and their job retried under the :class:`RetryPolicy` (jittered
    backoff keyed by job), hangs killed at a wall deadline, degraded
    answers explicitly ``UNKNOWN`` with the resource that ran out --
    and adds a thread-safe ``submit``/``result`` surface driven by one
    supervisor thread, which :meth:`submit` and :meth:`close` wake
    through a pipe (so a job is dispatched the moment it arrives).

    A job with a timeout is killed and finalized by its deadline plus
    ``wall_grace`` even on a worker that never reports ready; once the
    worker is ready, the wall clock restarts from that moment.

    A request is a dict: ``fingerprint`` + ``execution`` (its JSON
    document, as a dict or as text), ``relation`` (one of
    :data:`QUERY_RELATIONS`), event ids ``a``/``b`` for pair
    relations, optional ``drop_racing``, ``max_states``/``timeout``
    (the per-query budget -- the *caller* clamps, see
    :func:`repro.budget.clamp_request`), and optional ``witnesses``
    (stored schedules to seed the worker's cache).  The outcome is a
    dict: ``verdict`` / ``decided_by`` / ``resource``, optional
    ``witness`` and ``classification``, the per-query ``planner`` tier
    snapshot, and ``witnesses_found`` -- newly discovered schedules the
    caller should persist.  A pool built with ``trace=True``
    additionally ships ``spans``: the worker's in-memory query trace
    (bounded by ``trace_capacity``, scan-pool idiom) plus a
    ``serve.worker.eval`` bound, each tagged with the worker uid -- the
    caller adds the request id and emits them to its sink.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        limits: Optional[ResourceLimits] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[Dict[str, Dict[str, Any]]] = None,
        plan: Optional[Sequence[str]] = None,
        wall_grace: float = 5.0,
        context_capacity: int = 8,
        trace: bool = False,
        trace_capacity: int = 4096,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.limits = limits
        self.retry = retry if retry is not None else RetryPolicy(jitter=0.5)
        self.faults = dict(faults or {})
        self.plan = list(plan) if plan is not None else None
        self.wall_grace = wall_grace
        self.context_capacity = context_capacity

        self._ctx = mp.get_context("spawn")
        self._conf = {
            "rlimits": _rlimits_conf(limits),
            "faults": self.faults,
            "plan": self.plan,
            "context_capacity": context_capacity,
            "trace": bool(trace),
            "trace_capacity": trace_capacity,
        }
        self._lock = threading.Lock()
        self._jobs: Dict[int, _QueryJob] = {}
        self._pending: deque = deque()
        self._task_ids = itertools.count()
        self._slots: List[Optional[_Worker]] = [None] * workers
        self._next_uid = itertools.count()
        self._slots_used: set = set()
        self._stop = threading.Event()
        self._drain_deadline: Optional[float] = None
        self._closed = threading.Event()
        # the supervisor's doorbell: one byte per submit/close, written
        # under _lock (never after the supervisor closed it)
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        # counters (read under _lock by stats())
        self._submitted = 0
        self._answered = 0
        self._retries = 0
        self._spawns = 0
        self._restarts = 0
        self._crashes = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-query-pool", daemon=True
        )
        self._thread.start()

    # -- client surface (any thread) -----------------------------------
    def submit(self, request: Dict[str, Any]) -> int:
        """Enqueue one query request; returns its task id."""
        with self._lock:
            if self._stop.is_set():
                raise RuntimeError("pool is shutting down")
            tid = next(self._task_ids)
            job = _QueryJob(request=dict(request))
            timeout = request.get("timeout")
            if timeout is not None:
                job.deadline = time.monotonic() + float(timeout)
            self._jobs[tid] = job
            self._pending.append(tid)
            self._submitted += 1
            self._ring()
        return tid

    def result(self, task_id: int, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block for one outcome (and forget the job)."""
        with self._lock:
            job = self._jobs.get(task_id)
        if job is None:
            raise KeyError(f"unknown task {task_id}")
        if not job.done.wait(timeout):
            raise TimeoutError(f"task {task_id} not done within {timeout}s")
        with self._lock:
            self._jobs.pop(task_id, None)
        assert job.outcome is not None
        return job.outcome

    def close(self, *, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the pool.  ``drain=True`` lets in-flight and queued jobs
        finish (bounded by ``timeout``); either way, every unfinished
        job is finalized ``UNKNOWN (shutdown)`` so no waiter hangs."""
        with self._lock:
            if self._stop.is_set():
                drain = False  # already closing; just wait below
            else:
                self._drain_deadline = (
                    time.monotonic() + timeout if drain else time.monotonic()
                )
                self._stop.set()
                self._ring()
        self._closed.wait(timeout + 10.0)
        self._thread.join(timeout=5.0)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            busy = sum(
                1 for w in self._slots if w is not None and w.busy_task is not None
            )
            return {
                "workers": self.workers,
                "busy": busy,
                "queued": len(self._pending),
                "submitted": self._submitted,
                "answered": self._answered,
                "retries": self._retries,
                "spawns": self._spawns,
                "restarts": self._restarts,
                "crashes": self._crashes,
            }

    def __enter__(self) -> "QueryWorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- supervisor thread ---------------------------------------------
    def _ring(self) -> None:
        """Wake the supervisor (call with ``_lock`` held)."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: a wake-up is already pending

    def _finalize(self, tid: int, outcome: Dict[str, Any]) -> None:
        with self._lock:
            job = self._jobs.get(tid)
            if job is None or job.outcome is not None:
                return
            job.outcome = outcome
            self._answered += 1
        job.done.set()

    def _fail(self, tid: int, resource: str) -> None:
        with self._lock:
            job = self._jobs.get(tid)
            if job is None or job.outcome is not None:
                return
            job.failures += 1
            now = time.monotonic()
            past = job.deadline is not None and now >= job.deadline
            retry = (
                self.retry.should_retry(job.failures)
                and not past
                and not self._stop.is_set()
            )
            if retry:
                job.attempt += 1
                self._retries += 1
                key = (job.request.get("a"), job.request.get("b"), tid)
                job.not_before = now + self.retry.delay(job.attempt, key=key)
                self._pending.append(tid)
        if not retry:
            self._finalize(tid, _unknown_outcome(resource))

    def _spawn(self, slot: int) -> _Worker:
        w = _start_worker(
            self._ctx, next(self._next_uid), _query_worker_main, self._conf
        )
        with self._lock:
            self._spawns += 1
            if slot in self._slots_used:
                self._restarts += 1
            self._slots_used.add(slot)
        return w

    def _reap(self, slot: int, resource: str) -> None:
        """Retire the dead worker in ``slot``; a job its pipe (read to
        EOF) did not settle fails with ``resource``."""
        w = self._slots[slot]
        w.proc.join()
        w.drain(self._handle_result)
        tid = w.busy_task
        w.dispose()
        self._slots[slot] = None
        if tid is not None:
            with self._lock:
                self._crashes += 1
            self._fail(tid, resource)

    def _next_dispatchable(self, now: float) -> Optional[int]:
        with self._lock:
            for _ in range(len(self._pending)):
                tid = self._pending.popleft()
                job = self._jobs.get(tid)
                if job is None or job.outcome is not None:
                    continue  # cancelled or already finalized
                if job.deadline is not None and now >= job.deadline:
                    # expired while queued: answer without dispatching
                    expired = tid
                    break
                if job.not_before <= now:
                    return tid
                self._pending.append(tid)
            else:
                return None
        self._fail(expired, DEADLINE)
        return self._next_dispatchable(now)

    def _handle_result(self, w: _Worker, msg) -> None:
        tid, kind, payload = msg
        if kind == "ready":
            w.mark_ready()
            return
        w.settle(tid)
        if kind == "memory":
            w.retiring = True
            with self._lock:
                self._crashes += 1
        if kind == "ok":
            # shipped spans carry the provenance the pool knows (the
            # worker uid); the daemon adds the request id and emits
            for span in payload.get("spans") or ():
                span.setdefault("worker", w.uid)
            self._finalize(tid, payload)
        else:  # "memory" or "error"
            self._fail(tid, MEMORY if kind == "memory" else CRASH)

    def _run(self) -> None:
        slots = self._slots
        try:
            while True:
                now = time.monotonic()
                with self._lock:
                    unfinished = any(
                        j.outcome is None for j in self._jobs.values()
                    )
                    stopping = self._stop.is_set()
                    drain_deadline = self._drain_deadline
                if stopping and (not unfinished or now >= drain_deadline):
                    return
                idle = False
                for slot in range(self.workers):
                    w = slots[slot]
                    if w is None:
                        # keep the bench warm: a daemon's first query
                        # should not pay interpreter spawn time, and a
                        # replacement must exist before the next crash
                        slots[slot] = w = self._spawn(slot)
                    if w.busy_task is not None or w.retiring:
                        continue
                    tid = self._next_dispatchable(now)
                    if tid is None:
                        idle = True
                        continue
                    job = self._jobs[tid]
                    w.task_q.put((tid, job.request, job.attempt))
                    w.busy_task = tid
                    if job.deadline is None:
                        w.arm(now, None)
                    else:
                        grace = self.wall_grace
                        w.arm(now, max(0.1, job.deadline - now) + grace,
                              backstop=job.deadline + grace)
                # sleep until a worker reports or dies, a submit/close
                # rings, or the next deadline: a wall kill, a retry's
                # backoff or expiry (when a worker could take it), the
                # drain's end
                deadlines = [w.kill_at for w in slots if w is not None]
                if stopping:
                    deadlines.append(drain_deadline)
                if idle:
                    with self._lock:
                        for tid in self._pending:
                            job = self._jobs.get(tid)
                            if job is not None:
                                deadlines += [job.not_before, job.deadline]
                _sleep_until_event(slots, deadlines, self._wake_r)
                try:
                    os.read(self._wake_r, 4096)
                except BlockingIOError:
                    pass
                now = time.monotonic()
                for slot, w in enumerate(slots):
                    if w is None:
                        continue
                    w.drain(self._handle_result)
                    if not w.proc.is_alive():
                        self._reap(slot, _death_resource(w.proc.exitcode))
                    elif w.kill_at is not None and now >= w.kill_at:
                        w.proc.kill()
                        self._reap(slot, DEADLINE)
        finally:
            # refuse new work and answer every waiter, then tear the
            # workers down
            with self._lock:
                self._stop.set()
                os.close(self._wake_r)
                os.close(self._wake_w)
                leftovers = [
                    tid for tid, j in self._jobs.items() if j.outcome is None
                ]
            for tid in leftovers:
                self._finalize(tid, _unknown_outcome(SHUTDOWN))
            _shutdown(slots)
            self._closed.set()


__all__ = [
    "SupervisedScanner",
    "QueryWorkerPool",
    "QUERY_RELATIONS",
    "CRASH",
    "SHUTDOWN",
]
