"""Crash-isolated evaluation: one supervised worker pool for both the
``repro serve`` daemon and ``races --jobs N``.

Why a hand-rolled pool instead of ``concurrent.futures``: a worker
killed by the OS (segfault, OOM kill, CPU rlimit) permanently breaks a
``ProcessPoolExecutor`` -- every pending future dies with
``BrokenProcessPool``.  Here a dead worker is an *expected* event, not
an error: the supervisor knows exactly which job each worker holds (one
in-flight job per worker, over a private queue), so when a worker dies
the job is retried under the :class:`~repro.supervise.retry.RetryPolicy`
(jittered backoff) or finalized ``UNKNOWN`` with
the resource that killed it (``"crash"``, ``"memory"``, ``"cpu"``,
``"deadline"``), a replacement worker is spawned, and the pool keeps
draining.

Workers are forked from the **forkserver** (one per process, started
by the first pool with the worker modules already imported), so a
worker is ready in tens of milliseconds instead of the few hundred a
fresh interpreter takes to import ``repro``.  No lock is inherited: the
server is a single-threaded interpreter that has started no thread
when it forks, and the parent's supervisor, queue-feeder and HTTP
threads run in another process.  Each worker still receives the
parent's ``sys.path`` and runs its ``__main__`` module as
``__mp_main__``, as a spawned one does, so a calling script still needs
its ``if __name__ == "__main__":`` guard; the server preloads the
``repro`` modules the parent had imported when it started, so that
re-run does not import them again.  Workers ignore ``SIGINT``
and ``SIGTERM`` (the parent owns shutdown), install their ``setrlimit``
caps before touching an execution, and receive each execution as its
JSON document -- the same text a fingerprint covers.

Workers that keep dying before they report ready (a schedule that
crashes every boot, a broken install) end the pool instead of looping:
after ``2 * workers`` such deaths in a row, with no ready in between,
it spawns no more and answers every job, queued or later,
``UNKNOWN (crash)``; a scan then raises :class:`PoolBootFailure`.

Supervision is event-driven: each worker reports over its own result
pipe (a dying worker can hold no lock another worker needs), and the
supervisor thread sleeps in :func:`multiprocessing.connection.wait` on
those pipes, the worker sentinels and a wake pipe rung by ``submit`` and
``close``, with the next real deadline (a wall kill, a retry's backoff,
a drain) as its timeout.  A dead worker's pipe is read to EOF before its
job is failed, so a report sent just before exiting is never mistaken
for an abandoned job.

A scan's pool is the engine behind ``races --jobs N``
(:class:`SupervisedScanner`): the one scan loop,
:meth:`~repro.races.detector.RaceDetector.feasible_races`, puts every
pair through the ladder below the engine tier itself and submits only
the pairs that reach it, each as a ``relation="race"`` request on a
private pool started at the first one; each answer and lifecycle
record goes back to that loop, on the thread that called it.  On the
loop's first ``KeyboardInterrupt`` the pool starts no further pair and
waits a grace period for the answers of the pairs in flight; the loop
returns that prefix flagged ``interrupted`` (exit status 130 in the
CLI).  A *second* interrupt during that drain means "now": it
propagates, the workers are terminated, no more results are folded in
and no further checkpoint records are written, so the journal tail
stays whole (appends themselves are SIGINT-deferred, see
:mod:`repro.supervise.checkpoint`).

Fault injection uses the process-wide failpoint registry
(:mod:`repro.faults`).  A forked worker's registry and environment are
the forkserver's, as they were when it started, so each worker is
handed :func:`repro.faults.schedule` as it stands when that worker
starts and adopts it first thing: ``pool.worker.start`` fires once per
worker before it reports ready (a worker that never boots),
``pool.task`` on every job,
and ``pool.pair.<a>,<b>`` on every job naming that event pair, counted
by the job's *attempt* number (which survives worker replacement), so
``pool.pair.3,7=segv@first=1`` crashes only the first attempt.
"""

from __future__ import annotations

import fcntl
import gc
import itertools
import json
import multiprocessing as mp
import os
import queue
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import forkserver
from multiprocessing.connection import wait as wait_any
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import faults as faults_mod
from repro.budget import Budget, DEADLINE, Verdict
from repro.model import serialize
from repro.obs.profile import SearchProfile
from repro.obs.trace import NULL_SINK, RecordingSink
from repro.races.detector import (
    PairClassification,
    PairResult,
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

#: relations a query request may name; each maps to a planner facade
#: (``<name>_verdict``), plus the two composite forms
QUERY_RELATIONS = frozenset(
    {"mhb", "chb", "mcb", "ccb", "mow", "cow", "mcw", "ccw",
     "feasible", "race"}
)

#: outcome resource when the pool is torn down with the job unfinished
SHUTDOWN = "shutdown"


class PoolBootFailure(RuntimeError):
    """No worker of a scan's pool could start: ``2 * workers`` of them
    in a row died before reporting ready."""


def _death_resource(exitcode: Optional[int]) -> str:
    """Map a dead worker's exitcode to the classification resource."""
    if exitcode is not None and exitcode < 0 and -exitcode == signal.SIGXCPU:
        return CPU
    return CRASH


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


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _query_worker_main(task_q, conn, lifeline, conf) -> None:
    """Worker loop: one query per message, executions by fingerprint,
    results by value over the worker's private ``conn``.  Runs in a
    process forked from the forkserver; must stay importable.

    A worker serves many executions over its lifetime: it keeps a small
    LRU of warm :class:`~repro.solve.planner.QueryPlanner` contexts
    keyed by fingerprint, so queries against a hot execution reuse the
    structural bitsets and every witness already found, however many
    never-seen executions pass in between (a scan's pairs all share one
    fingerprint, so the whole scan runs on one planner per worker).
    Each request ships the execution document anyway (a dict, or its
    JSON text) -- a worker fresh from a crash replacement must be able
    to answer without any shared state.  ``por``, ``plan`` and
    ``profile`` come from ``conf`` and apply to every planner.

    A scan's request also carries the base feasibility its parent
    settled (``feasible``: the truth, its provenance and the member of
    F that showed it, if any): a fresh planner takes that as known, and
    seeds the member, instead of checking again.  Without it (every
    daemon request) the planner resolves "is F non-empty" inside the
    first query's own tally and trace, like any other query it poses.

    ``lifeline`` is the read end of a pipe only the pool holds open.
    It is armed for ``SIGIO`` (``O_ASYNC``, owned by this process), so
    the kernel ends the worker, busy or idle, the moment the pool
    closes the write end or its process dies: the task queue, whose
    write end every worker holds too, never reports either.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # ... and drain
    signal.signal(signal.SIGIO, signal.SIG_DFL)  # the lifeline: terminate
    fcntl.fcntl(lifeline.fileno(), fcntl.F_SETOWN, os.getpid())
    flags = fcntl.fcntl(lifeline.fileno(), fcntl.F_GETFL)
    fcntl.fcntl(lifeline.fileno(), fcntl.F_SETFL, flags | os.O_ASYNC)
    if lifeline.poll():  # the pool went before the signal was armed
        return
    # the registry came armed (or not) from the forkserver's environment
    faults_mod.adopt(conf.get("failpoints"))
    limits = conf.get("rlimits")
    apply_limits(ResourceLimits(**limits) if limits is not None else None)
    plan = conf.get("plan")
    por = conf.get("por", "sleep")
    capacity = max(1, int(conf.get("context_capacity", 8)))
    planners: Dict[str, QueryPlanner] = {}  # fp -> planner, LRU order
    # when the parent traces, record query spans into a bounded buffer
    # and ship them with each result; bounded because the batch rides
    # one pipe message (drops are accounted, never blocked on)
    sink: Optional[RecordingSink] = None
    if conf.get("trace"):
        sink = RecordingSink(capacity=_TRACE_CAPACITY)
    # when the parent profiles, attribute search states to branch choice
    # points; the per-job snapshot rides each result, so a crashed
    # worker loses a job's profile together with its answer
    profile: Optional[SearchProfile] = None
    if conf.get("profile"):
        profile = SearchProfile()
    faults_mod.fire("pool.worker.start")
    conn.send((None, "ready", None))
    while True:
        msg = task_q.get()
        if msg is None:
            return
        task_id, req, attempt, timeout = msg
        try:
            faults_mod.fire("pool.task")
            eval_t0 = time.monotonic()
            if sink is not None:
                sink.drain()  # discard spans of a failed prior attempt
            a, b = req.get("a"), req.get("b")
            if a is not None and b is not None:
                faults_mod.fire(f"pool.pair.{a},{b}", count=attempt + 1)
            fp = req["fingerprint"]
            planner = planners.pop(fp, None)
            if planner is None:
                exe_doc = req["execution"]
                if isinstance(exe_doc, str):
                    exe_doc = json.loads(exe_doc)
                ctx = SolveContext(serialize.execution_from_dict(exe_doc), por=por)
                if req.get("feasible") is not None:
                    ctx.feasible, ctx.feasible_provenance, member = req["feasible"]
                    if member:
                        ctx.seed_witnesses([member])
                planner = QueryPlanner(ctx, plan)
                if sink is not None:
                    planner.attach_tracer(sink)
                planner.attach_profiler(profile)
            planners[fp] = planner  # (re)insert as most recently used
            while len(planners) > capacity:
                planners.pop(next(iter(planners)))
            # seed the persistent store's schedules (each re-validated
            # by the cache) and remember the watermark: only witnesses
            # *this* query discovers ship home for persisting
            mark = planner.ctx.seed_witnesses(req.get("witnesses") or ())
            budget = None
            max_states = req.get("max_states")
            if max_states is not None or timeout is not None:
                budget = Budget.of(max_states=max_states, timeout=timeout)
            if profile is not None:
                profile.reset()  # per-job attribution
            relation = req.get("relation", "race")
            planner.report = PlannerReport()  # per-query tier tallies
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
            if profile is not None:
                payload["profile"] = profile.snapshot()
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
            # the cap fired.  Drop whatever the search pinned (the
            # handler deliberately does not bind the exception, whose
            # traceback would keep those frames alive), report, then
            # retire: this heap was driven to the limit and is not
            # worth trusting.
            planners.clear()
            gc.collect()
            conn.send((task_id, "memory", None))
            return
        except Exception as exc:  # unexpected bug: isolate, don't die
            conn.send((task_id, "error", repr(exc)))


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    uid: int  # unique across the pool -- slots are reused, uids are not
    proc: Any
    task_q: Any
    conn: Any  # the parent's end of this worker's private result pipe
    lifeline: Any  # the write end of the worker's lifeline, never written
    busy_task: Optional[int] = None
    ready: bool = False  # sent its warm-up message (interpreter booted)
    kill_at: Optional[float] = None
    kill_after: Optional[float] = None  # wall budget armed once ready
    retiring: bool = False  # announced its own exit; never dispatch again
    eof: bool = False  # result pipe read to its end: nothing more will come

    def arm(self, now: float, wall: Optional[float],
            backstop: Optional[float] = None) -> None:
        """Start the hang clock for a just-dispatched job.  A cold
        worker's clock starts on its ready message (start-up time is
        machine load, not job difficulty); until then only
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
        """A report for ``tid`` arrived: disarm if it was our job."""
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
        """Reap the (dead) process and release its pipes.  A worker
        without a real exit status (:data:`_NO_STATUS`: the forkserver
        that reports it is gone) may still be running, so it is killed
        by pid first."""
        self.proc.join()
        if self.proc.exitcode == _NO_STATUS:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass  # it did exit
        self.lifeline.close()
        self.conn.close()
        self.task_q.cancel_join_thread()
        self.task_q.close()


#: the exit code ``popen_forkserver`` reports when it cannot read a
#: worker's status because the forkserver died (say, a process-group
#: SIGTERM): not a real exit, and the worker may still be running
_NO_STATUS = 255
#: spans a traced worker buffers per job (they ride one pipe message)
_TRACE_CAPACITY = 4096


def _preload() -> List[str]:
    """What the forkserver imports before it forks any worker: every
    ``repro`` module this process has imported, this one included
    (``repro.__main__``, the CLI entry point, aside).  A worker still
    runs the caller's ``__main__`` script again, as ``__mp_main__``;
    the ``repro`` imports that script makes are then done already."""
    return sorted(
        name for name in list(sys.modules)
        if name.startswith("repro.") and name != "repro.__main__"
    )


_server_lock = threading.Lock()
_server_started = False


def _worker_context():
    """The ``forkserver`` context, with this process's server running
    and, where it could, preloaded with the worker modules.

    The server is started here, once, not lazily by the first worker:
    ``forkserver.main`` is handed the parent's ``sys.path`` but never
    applies it, so a ``repro`` found only through a caller's
    ``sys.path.insert`` would fail to preload, silently.  For that one
    start, the directory ``repro`` was imported from is put in front of
    ``PYTHONPATH``, and the environment is put back straight after.  A
    server that another caller already started without the preload (or
    one restarted after it died) costs each worker a cold import of
    ``repro`` -- slower, the same answers: the child gets the parent's
    ``sys.path`` either way."""
    global _server_started
    ctx = mp.get_context("forkserver")
    with _server_lock:
        if not _server_started:
            ctx.set_forkserver_preload(_preload())
            home = os.path.dirname(
                os.path.dirname(os.path.abspath(faults_mod.__file__))
            )
            saved = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = (
                home if not saved else home + os.pathsep + saved
            )
            try:
                forkserver.ensure_running()
            finally:
                if saved is None:
                    del os.environ["PYTHONPATH"]
                else:
                    os.environ["PYTHONPATH"] = saved
            _server_started = True
    return ctx


def _start_worker(ctx, uid: int, conf: Dict[str, Any]) -> _Worker:
    """Fork one worker; raises ``EOFError``/``OSError`` when the
    forkserver died under the request."""
    task_q = ctx.Queue()
    conn, child_conn = ctx.Pipe(duplex=False)
    child_lifeline, lifeline = ctx.Pipe(duplex=False)
    conf = dict(conf, failpoints=faults_mod.schedule())
    proc = ctx.Process(
        target=_query_worker_main,
        args=(task_q, child_conn, child_lifeline, conf),
        daemon=True,
    )
    try:
        proc.start()
    except BaseException:
        for end in (conn, lifeline):
            end.close()
        task_q.close()
        raise
    finally:
        # drop our copies of the worker's ends: EOF on ``conn`` now
        # means exactly that the worker is gone, and on its lifeline
        # that we are
        child_conn.close()
        child_lifeline.close()
    return _Worker(uid, proc, task_q, conn, lifeline)


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
        if w.proc.is_alive():  # workers ignore SIGTERM
            w.proc.kill()
        # never let an unflushed feeder thread block interpreter exit
        w.dispose()


@dataclass
class _QueryJob:
    request: Dict[str, Any]
    done: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[Dict[str, Any]] = None
    attempt: int = 0
    failures: int = 0
    not_before: float = 0.0
    #: monotonic cutoff: caps every attempt's budget, and past it a
    #: failure finalizes UNKNOWN instead of re-queueing
    deadline: Optional[float] = None


class QueryWorkerPool:
    """Crash-isolated query evaluation behind a thread-safe
    ``submit``/``result`` surface.

    Workers, forked from the preloaded forkserver, run under kernel
    rlimits; dead workers are replaced and their job retried under the
    :class:`RetryPolicy` (jittered backoff keyed by execution and event
    pair); hangs are killed at a wall deadline; degraded answers are
    explicitly ``UNKNOWN`` with the resource that ran out.  After
    ``2 * workers`` workers in a row die before reporting ready, the
    pool spawns no more and answers every unfinished and later job
    ``UNKNOWN (crash)`` (:attr:`boot_failure` says why).  One
    supervisor thread drives it all, woken through a pipe by
    :meth:`submit` and :meth:`close` (so a job is dispatched the moment
    it arrives).

    Budgets and wall kills follow one rule.  A job's deadline is its
    request's ``deadline`` when given (absolute :func:`time.monotonic`,
    ``None`` for none), else ``timeout`` seconds after submission.  Each
    attempt runs under ``max_states`` and ``min(timeout, deadline -
    now)``.  The worker holding it is killed ``attempt timeout +
    wall_grace`` after it reports ready, or at ``deadline + wall_grace``
    if it never does; a job with neither a timeout nor a deadline has no
    wall kill.

    A request is a dict: ``fingerprint`` + ``execution`` (its JSON
    document, as a dict or as text), ``relation`` (one of
    :data:`QUERY_RELATIONS`), event ids ``a``/``b`` for pair
    relations, optional ``drop_racing``, ``max_states``/``timeout``
    (the per-query budget -- the *caller* clamps, see
    :func:`repro.budget.clamp_request`), optional ``deadline``,
    optional ``witnesses`` (stored schedules to seed the worker's
    cache), and, from a scan only, the base feasibility its parent
    settled (``feasible``).  The outcome is a
    dict: ``verdict`` / ``decided_by`` / ``resource``, optional
    ``witness`` and ``classification``, the per-query ``planner`` tier
    snapshot (the feasibility check included, when the query ran it),
    and ``witnesses_found`` -- newly discovered schedules the caller
    should persist.  A pool built with ``trace=True`` additionally
    ships ``spans``: the worker's in-memory query trace (bounded) plus
    a ``serve.worker.eval`` bound, each tagged with the worker uid --
    the caller adds the request id and emits them to its sink.
    """

    #: worker settings fixed for the pool's lifetime (a scan's private
    #: pool sets its own before the workers start)
    por = "sleep"
    profile = False

    def __init__(
        self,
        workers: int = 2,
        *,
        limits: Optional[ResourceLimits] = None,
        retry: Optional[RetryPolicy] = None,
        plan: Optional[Sequence[str]] = None,
        wall_grace: float = 5.0,
        context_capacity: int = 8,
        trace: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.limits = limits
        self.retry = retry if retry is not None else RetryPolicy()
        self.plan = list(plan) if plan is not None else None
        self.wall_grace = wall_grace
        self.context_capacity = context_capacity

        self._ctx = _worker_context()
        self._conf = {
            "rlimits": _rlimits_conf(limits),
            "plan": self.plan,
            "por": self.por,
            "profile": self.profile,
            "context_capacity": context_capacity,
            "trace": bool(trace),
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
        # workers dead before ready since the last ready, and the last
        # one's exit code; the pool gives up at 2 * workers
        self._boot_deaths = 0
        self._boot_exitcode: Optional[int] = None
        #: why the pool stopped spawning (one line), or None
        self.boot_failure: Optional[str] = None
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
            if "deadline" in request:
                job.deadline = request["deadline"]
            elif request.get("timeout") is not None:
                job.deadline = time.monotonic() + float(request["timeout"])
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
        finish (bounded by ``timeout``; a later call can only shorten
        the drain); either way, every unfinished job is finalized
        ``UNKNOWN (shutdown)`` so no waiter hangs."""
        with self._lock:
            stop_at = time.monotonic() + (timeout if drain else 0.0)
            if self._drain_deadline is None or stop_at < self._drain_deadline:
                self._drain_deadline = stop_at
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
    def _note(self, record: Dict[str, Any]) -> None:
        """One lifecycle event (trace-shaped: ``worker.spawn`` /
        ``ready`` / ``dispatch`` / ``result`` / ``retry`` / ``crash`` /
        ``retire``, and ``job.done``); ignored unless a subclass
        listens."""

    def _ring(self) -> None:
        """Wake the supervisor (call with ``_lock`` held)."""
        if self._wake_w is None:
            return  # the supervisor has exited
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
        self._note({"kind": "job.done", "tid": tid})

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
                req = job.request
                a, b = req.get("a"), req.get("b")
                # keyed by execution and pair, not by task id: a resumed
                # scan replays the same jittered delays
                key = (req.get("fingerprint"), a, b)
                job.not_before = now + self.retry.delay(job.attempt, key=key)
                self._pending.append(tid)
        if retry:
            self._note({"kind": "worker.retry", "a": a, "b": b,
                        "attempt": job.attempt})
        else:
            self._finalize(tid, _unknown_outcome(resource))

    def _spawn(self, slot: int) -> Optional[_Worker]:
        """A new worker for ``slot``, or ``None`` when the forkserver
        died under the request: a boot death (the next spawn starts a
        new server)."""
        try:
            w = _start_worker(self._ctx, next(self._next_uid), self._conf)
        except (EOFError, OSError):
            self._boot_deaths += 1
            self._boot_exitcode = None
            return None
        with self._lock:
            self._spawns += 1
            if slot in self._slots_used:
                self._restarts += 1
            self._slots_used.add(slot)
        self._note({"kind": "worker.spawn", "worker": w.uid})
        return w

    def _may_spawn(self) -> bool:
        """Whether an empty slot may get a worker: while workers keep
        dying before ready, only as many as can still reach the
        ``2 * workers`` limit -- so a pool whose every worker dies at
        boot starts exactly that many, and one that gave up (at the
        limit, with no worker left to report ready) starts none."""
        booting = sum(1 for w in self._slots if w is not None and not w.ready)
        return self._boot_deaths + booting < 2 * self.workers

    def _reap(self, slot: int, resource: str) -> None:
        """Retire the dead worker in ``slot``; a job its pipe (read to
        EOF) did not settle fails with ``resource``."""
        w = self._slots[slot]
        w.proc.join()
        w.drain(self._handle_result)
        tid = w.busy_task
        w.dispose()
        self._slots[slot] = None
        if not w.ready and resource != DEADLINE:
            # died while booting (a wall kill is ours, not a death)
            self._boot_deaths += 1
            self._boot_exitcode = w.proc.exitcode
        if tid is not None:
            with self._lock:
                self._crashes += 1
            self._note({"kind": "worker.crash", "worker": w.uid,
                        "resource": resource})
        self._note({"kind": "worker.retire", "worker": w.uid})
        if tid is not None:
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

    def _dispatch(self, w: _Worker, tid: int, now: float) -> None:
        job = self._jobs[tid]
        req = job.request
        timeout = req.get("timeout")
        if job.deadline is not None:
            left = max(0.001, job.deadline - now)
            timeout = left if timeout is None else min(float(timeout), left)
        w.task_q.put((tid, req, job.attempt, timeout))
        w.busy_task = tid
        self._note({"kind": "worker.dispatch", "worker": w.uid,
                    "a": req.get("a"), "b": req.get("b")})
        grace = self.wall_grace
        w.arm(
            now,
            None if timeout is None else timeout + grace,
            backstop=None if job.deadline is None else job.deadline + grace,
        )

    def _handle_result(self, w: _Worker, msg) -> None:
        tid, kind, payload = msg
        if kind == "ready":
            w.mark_ready()
            self._boot_deaths = 0
            self._note({"kind": "worker.ready", "worker": w.uid})
            return
        w.settle(tid)
        if kind == "memory":
            # a memory report doubles as the worker's retirement
            # notice -- it exits right after sending it
            w.retiring = True
            with self._lock:
                self._crashes += 1
            self._note({"kind": "worker.crash", "worker": w.uid,
                        "resource": MEMORY})
        if kind == "ok":
            # shipped spans carry the provenance the pool knows (the
            # worker uid); the caller adds the request id and emits
            for span in payload.get("spans") or ():
                span.setdefault("worker", w.uid)
            job = self._jobs.get(tid)
            if job is not None:
                self._note({"kind": "worker.result", "worker": w.uid,
                            "a": job.request.get("a"),
                            "b": job.request.get("b")})
            self._finalize(tid, payload)
        else:  # "memory" or "error"
            self._fail(tid, MEMORY if kind == "memory" else CRASH)

    def _give_up(self) -> None:
        """The boot-failure rule tripped: stop the workers still alive
        and record why; :meth:`_run` answers every job from now on."""
        self.boot_failure = (
            f"{self._boot_deaths} pool workers in a row died before "
            f"reporting ready (last exit code {self._boot_exitcode}); "
            "no worker could start"
        )
        _shutdown(self._slots)
        for slot in range(self.workers):
            self._slots[slot] = None

    def _run(self) -> None:
        slots = self._slots
        try:
            while True:
                now = time.monotonic()
                if self.boot_failure is None and (
                    self._boot_deaths >= 2 * self.workers
                ):
                    self._give_up()
                if self.boot_failure is not None:
                    with self._lock:
                        self._pending.clear()
                        stranded = [tid for tid, j in self._jobs.items()
                                    if j.outcome is None]
                    for tid in stranded:
                        self._finalize(tid, _unknown_outcome(CRASH))
                with self._lock:
                    unfinished = self._answered < self._submitted
                    stopping = self._stop.is_set()
                    drain_deadline = self._drain_deadline
                if stopping and (not unfinished or now >= drain_deadline):
                    return
                idle = spawn_failed = False
                for slot in range(self.workers):
                    w = slots[slot]
                    if w is None:
                        if not self._may_spawn():
                            continue
                        # keep the bench warm: the first job should not
                        # pay worker start time, and a replacement must
                        # exist before the next crash
                        slots[slot] = w = self._spawn(slot)
                        if w is None:
                            spawn_failed = True
                            continue
                    if w.busy_task is not None or w.retiring:
                        continue
                    tid = self._next_dispatchable(now)
                    if tid is None:
                        idle = True
                        continue
                    self._dispatch(w, tid, now)
                # sleep until a worker reports or dies, a submit/close
                # rings, or the next deadline: a wall kill, a retry's
                # backoff or expiry (when a worker could take it), the
                # drain's end
                deadlines = [w.kill_at for w in slots if w is not None]
                if spawn_failed:
                    deadlines.append(now + 0.05)  # try the slot again soon
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
                self._wake_w = None
                leftovers = [
                    tid for tid, j in self._jobs.items() if j.outcome is None
                ]
            for tid in leftovers:
                self._finalize(tid, _unknown_outcome(SHUTDOWN))
            _shutdown(slots)
            self._closed.set()


# ----------------------------------------------------------------------
# the scan front end (``races --jobs N``)
# ----------------------------------------------------------------------
class _ScanPool(QueryWorkerPool):
    """One scan's private pool: every lifecycle record, stamped when it
    happens, and every finished task id go to ``events`` for the
    scanning thread to fold in."""

    def __init__(self, events, options: PairScanOptions, **kwargs) -> None:
        self.events = events
        self.por, self.profile = options.por, options.profile
        super().__init__(plan=options.plan, **kwargs)

    def _note(self, record: Dict[str, Any]) -> None:
        record["t"] = time.monotonic()
        self.events.put(record)

    def interrupt(self, grace: float) -> None:
        """Start no further pair; pairs in flight get ``grace`` seconds
        to answer.  Queued pairs are finalized ``UNKNOWN (shutdown)``
        at once."""
        with self._lock:
            queued, self._pending = list(self._pending), deque()
            self._drain_deadline = time.monotonic() + grace
            self._stop.set()
            self._ring()
        for tid in queued:
            self._finalize(tid, _unknown_outcome(SHUTDOWN))


class SupervisedScanner:
    """The pool behind
    :meth:`~repro.races.detector.RaceDetector.feasible_races`'s
    ``--jobs N`` scans: the pairs whose ladder reaches the engine tier,
    searched on a private :class:`QueryWorkerPool` whose workers run
    under kernel caps and survive worker death.

    The scan's loop puts every pair through the tiers below the engine
    in its own process; only a pair that reaches the engine comes here.
    :meth:`start` starts the pool (its workers spawn now) when the first
    such pair appears, so a scan that has none spawns no worker.
    :meth:`submit` sends one pair as a ``relation="race"`` request,
    under the pool's budget, wall-kill and retry rules (an unbudgeted
    scan may run for days).  A worker runs the scan's whole plan: the
    tiers below the engine decline at no cost unless the worker's own
    warm caches (its member of F, the schedules of its earlier
    searches) answer the pair, so a shipped pair is one span and one
    tally, and the engine searches only what they cannot settle.  Each
    request carries the base feasibility verdict the scan's planner
    settled, when that verdict is definite (with the member of F that
    showed it), so no worker checks it again; otherwise each fresh
    worker planner checks it inside its first pair's tally.
    :meth:`next` blocks on the scan loop's thread for the next finished
    pair, a :class:`~repro.races.detector.PairResult` with the worker's
    planner and profile snapshots, or the next worker lifecycle record.
    :meth:`interrupt` starts no further pair; the pairs in flight get
    ``drain_grace`` seconds to answer, and :meth:`next` hands back those
    answers only.

    What is isolated: the engine's searches run in the capped workers;
    the polynomial tiers run in the scan's process, outside ``limits``.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).
    limits:
        Kernel caps installed in every worker.
    retry:
        Crash/retry policy (default: one retry, mild jittered backoff).
    drain_grace:
        Seconds an interrupted scan waits for the answers of pairs
        already in flight.
    tracer:
        A :class:`~repro.obs.trace.TraceSink`; when enabled, the workers'
        query spans (shipped home with each result) and the lifecycle
        records are emitted to it, so a parallel scan's trace is as
        complete as a serial one's.

    A scan whose workers all die before they report ready raises
    :class:`PoolBootFailure` (its one-line message names how many and
    the last exit code) instead of returning every pair ``UNKNOWN
    (crash)``.  Worker restarts show on a scan's status board as
    ``worker_spawns`` minus ``jobs``.
    """

    def __init__(
        self,
        jobs: int = 2,
        *,
        limits: Optional[ResourceLimits] = None,
        retry: Optional[RetryPolicy] = None,
        drain_grace: float = 1.0,
        tracer=NULL_SINK,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.limits = limits
        self.retry = retry if retry is not None else RetryPolicy()
        self.drain_grace = drain_grace
        self.tracer = tracer if tracer is not None else NULL_SINK
        self._pool: Optional[_ScanPool] = None
        # what next() reads, also when a scan never starts the pool
        self._events: "queue.SimpleQueue[Dict[str, Any]]" = queue.SimpleQueue()
        self._tasks: List[PairTask] = []
        self._unanswered = 0
        self._draining = False
        self._boot_failure: Optional[str] = None

    # ------------------------------------------------------------------
    def start(self, exe, options: PairScanOptions,
              feasible: Optional[Verdict] = None) -> None:
        """Start a private pool for ``exe``'s pairs; ``feasible`` is the
        scan's base feasibility verdict, if any."""
        self._exe, self._tasks = exe, []
        self._events = queue.SimpleQueue()
        self._unanswered = 0
        self._draining = False
        self._boot_failure = None
        self._traced = self.tracer.enabled
        self._request = {
            "fingerprint": serialize.execution_fingerprint(exe),
            "execution": serialize.canonical_json(exe),
            "relation": "race",
            "drop_racing": options.drop_racing_dependences,
            "max_states": options.max_states,
            "timeout": options.pair_timeout,
            "deadline": options.deadline,
        }
        if feasible is not None and not feasible.is_unknown:
            # only a worker that builds a fresh planner reads it
            w = feasible.witness
            points = () if w is None else w.points
            self._request["feasible"] = (
                feasible.is_true, feasible.provenance,
                [[p.eid, int(p.is_end)] for p in points],
            )
        self._pool = _ScanPool(
            self._events, options, workers=self.jobs, limits=self.limits,
            retry=self.retry, trace=self._traced,
        )

    def submit(self, task: PairTask) -> None:
        """Search one pair."""
        a, b, _ = task
        # a fresh pool numbers its tasks from 0, so a task id is the
        # index of its pair in ``_tasks``
        self._tasks.append(task)
        self._pool.submit(dict(self._request, a=a, b=b))
        self._unanswered += 1

    def next(self):
        """The next finished pair or lifecycle record; ``None`` once
        every pair is answered and the pool is shut down."""
        while True:
            if not self._unanswered:
                # stop the pool; the records it noted after the last
                # answer (say, a replacement's spawn) still go out
                self.close()
                if self._events.empty():
                    if self._boot_failure is not None:
                        raise PoolBootFailure(self._boot_failure)
                    return None
            event = self._events.get()
            if event["kind"] != "job.done":
                if self._traced:
                    self.tracer.emit(event)
                return event
            if self._unanswered:
                self._unanswered -= 1
                result = self._answer(event["tid"])
                if result is not None:
                    return result

    def interrupt(self) -> None:
        self._draining = True
        if self._pool is not None:
            self._pool.interrupt(self.drain_grace)

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close(drain=False)
            self._boot_failure = pool.boot_failure

    def _answer(self, tid: int) -> Optional[PairResult]:
        outcome = self._pool.result(tid)
        if "classification" not in outcome:
            # the pool gave up on the pair (crash, memory, deadline); a
            # drain hands back answers only, and a pool no worker of
            # which could start hands back nothing a resume would reuse
            if self._draining or self._pool.boot_failure is not None:
                return None
            a, b, variables = self._tasks[tid]
            return PairResult(PairClassification(
                a, b, UNKNOWN, variables, resource=outcome["resource"]
            ))
        for span in outcome.get("spans") or ():
            # the daemon's evaluation bound: a scan's dispatch and
            # result records already bound each attempt
            if span["kind"] != "serve.worker.eval":
                self.tracer.emit(span)
        return PairResult(
            serialize.classification_from_dict(
                self._exe, outcome["classification"]
            ),
            outcome["planner"],
            outcome.get("profile"),
        )


__all__ = [
    "SupervisedScanner",
    "QueryWorkerPool",
    "PoolBootFailure",
    "QUERY_RELATIONS",
    "CRASH",
    "SHUTDOWN",
]
