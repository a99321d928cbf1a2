"""The benchmark's four workloads; one run of one workload per process.

Started by ``perfbench/run.py``, which owns the process lifetime::

    python3 perfbench/workloads.py --workload scan-corpus --seed 1 --seconds 20 --trace 0

A run sets up ``SETUP_REPS`` times (imports timed in a fresh
interpreter, inputs chosen from the seed, daemons started, one untimed
warm-up pass that also deep-checks every answer) and reports the median
as ``setup_s``.
It then replays the workload's fixed op sequence in whole passes for
``--seconds``; CPU-bound times are reported at a reference host speed
(``measure.HostSpeed``).  Every answer is compared with the expected answers in
``perfbench/inputs``; a wrong one fails the run.  With ``--trace 1``
the first half of the time runs untraced and the second half traced,
and the per-layer metrics come from the traced half.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import http.client  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
from measure import Spans  # noqa: E402

import repro.model.serialize as serialize  # noqa: E402
from repro.core.witness import IllegalScheduleError, Witness  # noqa: E402
from repro.lang.interpreter import run_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.obs.trace import RecordingSink  # noqa: E402
from repro.races.detector import FEASIBLE, UNKNOWN, RaceDetector  # noqa: E402
from repro.reductions import event_reduction, semaphore_reduction  # noqa: E402
from repro.sat.cnf import CNF  # noqa: E402
from repro.serve.app import QueryDaemon  # noqa: E402
from repro.serve.store import WitnessStore  # noqa: E402
from repro.supervise import SupervisedScanner  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

SETUP_REPS = 3
SETUP_SLICES = 3  # reference slices before and after each set-up
STRETCHES = 20
MIN_STRETCH_OPS = 100  # so a stretch's tail is p90 or higher
OUT = os.path.join(HERE, "out")
TIERS = ("structural", "observed", "witness", "hmw", "engine")


class OpFailed(Exception):
    """An op that did not produce an answer (UNKNOWN, non-2xx reply,
    exception): counted in ``failed``, the run goes on."""


class WrongAnswer(Exception):
    """An answer that contradicts the expected one: fails the run."""


class InjectedFailure(BaseException):
    """Test-only fault; escapes the per-op handler, as an interrupt would."""


class Trace:
    """Spans plus per-layer counters for the traced half of a run."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, owner, attr: str, name: str, skip_inside: Optional[str] = None) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        self.spans.wrap(owner, attr, name, skip_inside)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # an instance wrapper over a method
            else:
                setattr(owner, attr, original)
        self._restore = []

    def planner(self, snapshot: Dict[str, Any]) -> None:
        """Tally a PlannerReport snapshot: tier decisions and time."""
        for tier, rec in snapshot.get("tiers", {}).items():
            self.count(f"solve.{tier}.decided", rec.get("answered", 0))
            self.count(f"solve.{tier}.s", rec.get("elapsed", 0.0))
            if tier == "engine":
                self.count("core.states", rec.get("states", 0))


def ms(seconds: float) -> float:
    return seconds * 1e3


# ----------------------------------------------------------------------
# answer checks shared by the race scans
# ----------------------------------------------------------------------
def check_races(op: Dict[str, Any], report) -> None:
    if any(c.status == UNKNOWN for c in report.classifications):
        raise OpFailed("a pair was left UNKNOWN")
    got = {(c.a, c.b) for c in report.classifications if c.status == FEASIBLE}
    if len(report.classifications) != op["pairs"] or got != op["races"]:
        raise WrongAnswer(
            f"{op['slot']}: races {sorted(got)} != expected {sorted(op['races'])}"
        )


def race_execution(exe, a: int, b: int):
    """The execution a race of ``a`` and ``b`` is judged on: without the
    pair's own dependence edges (see ``RaceDetector.feasible_races``)."""
    drop = {(x, y) for (x, y) in exe.dependences if {x, y} == {a, b}}
    return exe.with_dependences(exe.dependences - drop) if drop else exe


def replay_races(op: Dict[str, Any], report) -> None:
    """Every race's witness schedule must replay on the race's execution
    and show the pair overlapping.  The schedule is replayed from its
    points: the supervised pool hands back witnesses bound to the full
    execution, where the dropped dependence would reject them."""
    for race in report.races:
        if race.witness is None:
            raise WrongAnswer(f"{op['slot']}: race {race.a},{race.b} has no witness")
        w = Witness(race_execution(report.execution, race.a, race.b), race.witness.points)
        if not w.concurrent(race.a, race.b):
            raise WrongAnswer(f"{op['slot']}: race {race.a},{race.b} witness does not overlap")
        replay(w, op["slot"])


def replay(witness, what: str) -> None:
    """A witness that does not replay is a wrong answer."""
    try:
        witness.validate()
    except IllegalScheduleError as exc:
        raise WrongAnswer(f"{what}: witness does not replay ({exc})")


def execution_of(text: str, model: str, sched_seed: int):
    return run_program(
        parse_program(text), sched_seed, memory_model=model
    ).to_execution()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload's inputs, resources and op semantics."""

    #: op time is CPU time of this host, so its times are reported at
    #: the reference host speed (see ``measure.HostSpeed``)
    cpu_bound = True

    def __init__(self, slots: List[Dict[str, Any]], rng: random.Random) -> None:
        self.ops = [
            self.prepare(slot, rng.choice(slot["candidates"])) for slot in slots
        ]
        rng.shuffle(self.ops)

    def prepare(self, slot, candidate) -> Dict[str, Any]:
        raise NotImplementedError

    def open(self, traced: bool = False) -> None:
        """Start what the ops need (``traced``: with in-program spans)."""

    def close(self) -> None:
        """Release everything :meth:`open` started."""

    def lanes(self) -> List[List[Dict[str, Any]]]:
        """One op list per client (each replayed in whole passes)."""
        return [self.ops]

    def run(self, op, tr: Optional[Trace]):
        raise NotImplementedError

    def check(self, op, outcome) -> None:
        """Compare the answer with the expected one (cheap, every op)."""

    def verify(self, op, outcome) -> None:
        """Replay the witnesses behind the answer (warm-up and last pass)."""

    def arm(self, fault) -> None:
        """Test-only: fire ``fault`` now, between two ops."""
        fault()

    def begin_trace(self, tr: Trace) -> None:
        """Install the benchmark-side span wrappers for the traced half."""

    def end_trace(self, tr: Trace) -> List[dict]:
        """Remove the wrappers; returns program-side records to keep."""
        tr.unwrap()
        return []


class ScanCorpus(Workload):
    """The CLI's ``run`` -> ``races`` path on a seeded program corpus."""

    def prepare(self, slot, c):
        return {
            "slot": slot["slot"], "program": c["program"], "model": c["model"],
            "sched_seed": c["sched_seed"], "pairs": c["pairs"],
            "races": {tuple(p) for p in c["races"]},
        }

    def run(self, op, tr):
        if tr is None:
            prog = parse_program(op["program"])
            trace = run_program(prog, op["sched_seed"], memory_model=op["model"])
            exe = trace.to_execution()
            detector = RaceDetector(exe)
            detector.planner  # the SolveContext precompute
            return detector.feasible_races()
        with tr.spans.span("lang.parse"):
            prog = parse_program(op["program"])
        with tr.spans.span("lang.interpret"):
            trace = run_program(prog, op["sched_seed"], memory_model=op["model"])
        with tr.spans.span("model.build"):
            exe = trace.to_execution()
        detector = RaceDetector(exe)
        with tr.spans.span("solve.context"):
            detector.planner
        with tr.spans.span("races.scan"):
            report = detector.feasible_races()
        tr.planner(report.planner.snapshot())
        stats = detector.planner.ctx.stats
        tr.count("core.memo_hits", stats.memo_hits)
        tr.count("races.pairs", report.conflicting_pairs_examined)
        return report

    def check(self, op, report):
        check_races(op, report)

    def verify(self, op, report):
        replay_races(op, report)


class ExactHard(Workload):
    """Theorem 1-4 queries on semaphore and event reductions."""

    def prepare(self, slot, c):
        build = semaphore_reduction if slot["family"] == "semaphore" else event_reduction
        return {
            "slot": slot["slot"], "query": slot["query"],
            "expected": slot["expected"],
            "red": build(CNF(c["clauses"], num_vars=c["num_vars"])),
        }

    def run(self, op, tr):
        # the body of decide_sat_via_ordering / decide_unsat_via_ordering,
        # keeping the OrderingQueries so its witness and stats stay readable
        red = op["red"]
        if tr is None:
            q = red.queries()
            if op["query"] == "sat":
                return q.chb(red.b, red.a), q
            return q.mhb(red.a, red.b), q
        with tr.spans.span("solve.context"):
            q = red.queries()
        with tr.spans.span("core.query"):
            answer = q.chb(red.b, red.a) if op["query"] == "sat" else q.mhb(red.a, red.b)
        tr.count("core.states", q.stats.states_visited)
        tr.count("core.memo_hits", q.stats.memo_hits)
        tr.count("core.search_s", q.stats.elapsed)
        return answer, q

    def check(self, op, outcome):
        if outcome[0] != op["expected"]:
            raise WrongAnswer(f"{op['slot']}: answered {outcome[0]}, expected {op['expected']}")

    def verify(self, op, outcome):
        answer, q = outcome
        red = op["red"]
        if op["query"] == "sat" and answer:  # b CHB a: b ends before a begins
            w = q.chb_witness(red.b, red.a)
            if w is None or not w.happened_before(red.b, red.a):
                raise WrongAnswer(f"{op['slot']}: CHB witness missing")
            replay(w, op["slot"])
        elif op["query"] == "unsat" and not answer:
            w = q.why_not_mhb(red.a, red.b)
            if w is None or w.happened_before(red.a, red.b):
                raise WrongAnswer(f"{op['slot']}: no schedule refutes MHB")
            replay(w, op["slot"])


class ScanJobs2(Workload):
    """``feasible_races`` through a fresh two-worker SupervisedScanner."""

    fault = None
    # most of an op is spawning two workers, on both CPUs: over 20 s the
    # reference slice slowed 2x while these ops slowed 1.35x, so scaling
    # by it would overcorrect
    cpu_bound = False

    def arm(self, fault):
        self.fault = fault  # fires mid-scan, with the pool's workers up

    def classified(self, _c):
        if self.fault is not None:
            self.fault()

    def prepare(self, slot, c):
        return {
            "slot": slot["slot"], "pairs": c["pairs"],
            "races": {tuple(p) for p in c["races"]},
            "exe": execution_of(c["program"], c["model"], c["sched_seed"]),
        }

    def run(self, op, tr):
        detector = RaceDetector(op["exe"])
        if tr is None:
            return detector.feasible_races(
                runner=SupervisedScanner(jobs=2), on_classified=self.classified
            )
        sink = RecordingSink()
        with tr.spans.span("supervise.runner"):
            report = detector.feasible_races(
                runner=SupervisedScanner(jobs=2, tracer=sink),
                on_classified=self.classified,
            )
        spawned: Dict[int, float] = {}
        for rec in sink.drain():
            if rec["kind"] == "worker.spawn":
                spawned[rec["worker"]] = rec["t"]
                tr.count("supervise.spawns")
            elif rec["kind"] == "worker.ready" and rec["worker"] in spawned:
                tr.count("supervise.ready", 1)
                tr.count("supervise.spawn_to_ready_s", rec["t"] - spawned[rec["worker"]])
        tr.planner(report.planner.snapshot())
        tr.count("races.pairs", report.conflicting_pairs_examined)
        return report

    def check(self, op, report):
        check_races(op, report)

    def verify(self, op, report):
        replay_races(op, report)


class ServeRW(Workload):
    """Two clients against an in-process QueryDaemon: warm reads of
    stored executions, writes of never-seen executions."""

    READ_EXECUTIONS = 4  # one race, mhb, chb and ccw query each
    WRITES = 4
    cpu_bound = False  # reads wait out the worker pool's poll

    def __init__(self, slots, rng):
        pool = list(slots[0]["candidates"])
        rng.shuffle(pool)
        cut = self.READ_EXECUTIONS
        self.exes = {}
        self.ops = []
        for i, c in enumerate(pool[:cut]):
            exe = execution_of(c["program"], c["model"], c["sched_seed"])
            self.exes[("read", i)] = exe
            for kind in ("race", "mhb", "chb", "ccw"):
                rel, a, b, expected = rng.choice([q for q in c["queries"] if q[0] == kind])
                self.ops.append({"slot": f"read{i}/{kind}", "write": False, "exe": ("read", i),
                                 "relation": rel, "a": a, "b": b, "expected": expected})
        kinds = ["race", "mhb", "chb", "ccw"]
        # written executions are serialised here, once: an op only swaps
        # in a fresh label, so no client-side serialising is timed
        self.docs = {}
        for i, c in enumerate(pool[cut:cut + self.WRITES]):
            exe = execution_of(c["program"], c["model"], c["sched_seed"])
            self.exes[("write", i)] = exe
            self.docs[("write", i)] = serialize.execution_to_dict(exe)
            rel, a, b, expected = rng.choice([q for q in c["queries"] if q[0] == kinds[i % 4]])
            self.ops.append({"slot": f"write{i}/{rel}", "write": True, "exe": ("write", i),
                             "relation": rel, "a": a, "b": b, "expected": expected})
        rng.shuffle(self.ops)
        self.daemon: Optional[QueryDaemon] = None
        self.store_dir: Optional[str] = None
        self.fingerprints: Dict[Tuple[str, int], str] = {}
        self.sink: Optional[RecordingSink] = None
        self._tags = itertools.count()
        self._local = threading.local()

    def lanes(self):
        return [self.ops[0::2], self.ops[1::2]]

    def open(self, traced=False):
        os.makedirs(OUT, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
        self.sink = RecordingSink() if traced else None
        self.daemon = QueryDaemon(
            WitnessStore(self.store_dir), port=0, workers=2, tracer=self.sink
        ).start()
        for key, exe in self.exes.items():
            if key[0] == "read":
                body = self._post("/executions", serialize.execution_to_dict(exe))
                self.fingerprints[key] = body["fingerprint"]

    def close(self):
        try:
            if self.daemon is not None:
                self.daemon.close()
        finally:
            self.daemon = None
            if self.store_dir is not None:
                shutil.rmtree(self.store_dir, ignore_errors=True)
                self.store_dir = None

    def _post(self, path, doc):
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.daemon.host, self.daemon.port, timeout=60
            )
        try:
            conn.request("POST", path, json.dumps(doc),
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._local.conn = None
            raise OpFailed(f"{path}: {exc!r}")
        if resp.will_close:
            conn.close()
            self._local.conn = None
        if not 200 <= resp.status < 300:
            raise OpFailed(f"{path}: HTTP {resp.status}")
        return json.loads(data)

    def run(self, op, tr):
        body = {"relation": op["relation"], "a": op["a"], "b": op["b"]}
        if op["write"]:
            doc = self.docs[op["exe"]]
            # a fresh label makes a never-seen fingerprint, same answers
            first = dict(doc["events"][0], label=f"perfbench-{next(self._tags)}")
            body["execution"] = dict(doc, events=[first] + doc["events"][1:])
        else:
            body["fingerprint"] = self.fingerprints[op["exe"]]
        reply = self._post("/query", body)
        if tr is not None:
            tr.count("serve.replies")
            tr.count("serve.witness_hits", reply.get("decided_by") == "witness")
            tr.planner(reply.get("planner") or {})
        return reply

    def check(self, op, reply):
        verdict = reply.get("verdict")
        if verdict in (None, "UNKNOWN", "unknown"):
            raise OpFailed(f"{op['slot']}: UNKNOWN ({reply.get('resource')})")
        answer = verdict == FEASIBLE if op["relation"] == "race" else verdict == "TRUE"
        if answer != op["expected"]:
            raise WrongAnswer(f"{op['slot']}: answered {verdict}, expected {op['expected']}")

    def verify(self, op, reply):
        exe = self.exes[op["exe"]]
        if op["relation"] == "race":
            if reply["verdict"] != FEASIBLE:
                return
            w = reply["classification"].get("witness")
            exe = race_execution(exe, op["a"], op["b"])
        else:
            w = reply.get("witness")
        if w is None:
            if op["relation"] in ("chb", "ccw") and op["expected"]:
                raise WrongAnswer(f"{op['slot']}: TRUE without a witness")
            return
        witness = serialize.witness_from_dict(exe, w)
        replay(witness, op["slot"])
        a, b = op["a"], op["b"]
        if op["relation"] in ("race", "ccw") and not witness.concurrent(a, b):
            raise WrongAnswer(f"{op['slot']}: witness does not overlap {a},{b}")
        if op["relation"] == "chb" and not witness.happened_before(a, b):
            raise WrongAnswer(f"{op['slot']}: witness does not order {a} before {b}")

    def begin_trace(self, tr):
        if self.sink is not None:
            self.sink.drain()  # the warm-up pass's records
        tr.wrap(self.daemon, "handle_query", "serve.handle_query")
        tr.wrap(self.daemon.store, "flush", "serve.store_flush")
        # execution_fingerprint serialises through the module attribute:
        # that inner call is fingerprint time, not serialize time
        tr.wrap(serialize, "execution_to_dict", "model.serialize",
                skip_inside="model.fingerprint")
        tr.wrap(serialize, "execution_fingerprint", "model.fingerprint")

    def end_trace(self, tr):
        tr.unwrap()
        records = self.sink.drain() if self.sink is not None else []
        for rec in records:
            kind = rec.get("kind", "")
            if kind.startswith("serve.") and "elapsed" in rec:
                tr.count(f"{kind}_s", rec["elapsed"])
        return records


WORKLOADS = {
    "scan-corpus": ScanCorpus,
    "exact-hard": ExactHard,
    "serve-rw": ServeRW,
    "scan-jobs2": ScanJobs2,
}


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
class Phase:
    """The outcome of driving a workload for a while."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.norm: List[float] = []  # latencies at the reference speed
        self.mids: List[float] = []  # op midpoints, from the phase start
        self.failed = 0
        self.wall = 0.0
        self.last_pass: List[Tuple[Dict[str, Any], Any]] = []

    def timed(self) -> List[float]:
        """The latencies the end-to-end metrics are made of."""
        return self.norm or self.latencies


def drive(wl: Workload, seconds: Optional[float], tr: Optional[Trace] = None,
          inject: Optional[str] = None, speed: Optional[measure.HostSpeed] = None) -> Phase:
    """Closed loop: each lane replays its ops in whole passes, one at a
    time, until ``seconds`` have passed (one pass when ``None``).  With
    ``speed`` (one lane only), reference slices are taken between ops
    and every latency is also kept at the reference speed."""
    phase = Phase()
    lanes = wl.lanes()
    assert speed is None or len(lanes) == 1
    lock = threading.Lock()
    errors: List[BaseException] = []
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds
    done = [0]

    def lane(ops):
        lat: List[float] = []
        mids_l: List[float] = []
        failed = 0
        last: List[Tuple[Dict[str, Any], Any]] = []
        try:
            while True:
                last = []
                for op in ops:
                    if inject and done[0] >= 3:
                        wl.arm(lambda: fire(inject))
                    if speed is not None:
                        speed.maybe_sample()
                    t0 = time.perf_counter()
                    try:
                        outcome = wl.run(op, tr)
                    except OpFailed:
                        outcome = None
                    except Exception as exc:  # noqa: BLE001 - counted as a failed op
                        print(f"perfbench: op {op['slot']} raised {exc!r}", file=sys.stderr)
                        outcome = None
                    t1 = time.perf_counter()
                    lat.append(t1 - t0)
                    mids_l.append((t0 + t1) / 2)
                    done[0] += 1
                    if outcome is None:
                        failed += 1
                        continue
                    try:
                        wl.check(op, outcome)
                    except OpFailed:  # no answer, so nothing to verify
                        failed += 1
                        continue
                    last.append((op, outcome))
                if deadline is None or time.perf_counter() >= deadline:
                    break
        except BaseException as exc:  # WrongAnswer and injected faults end the run
            errors.append(exc)
        with lock:
            phase.latencies += lat
            phase.mids += [m - t_start for m in mids_l]
            phase.failed += failed
            phase.last_pass += last

    if len(lanes) == 1:
        lane(lanes[0])
    else:
        threads = [threading.Thread(target=lane, args=(ops,)) for ops in lanes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    phase.wall = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    if speed is not None:
        speed.sample()  # so the last ops have slices on both sides
        phase.norm = [x * speed.factor(m + t_start)
                      for x, m in zip(phase.latencies, phase.mids)]
    return phase


def fire(inject: str) -> None:
    """Test-only faults, injected after a few timed ops."""
    if inject == "raise":
        raise InjectedFailure("injected failure")
    if inject == "exit":  # die without cleanup: the harness must reap
        live = len(multiprocessing.active_children())
        print(f"perfbench: injected exit with {live} live child process(es)",
              file=sys.stderr, flush=True)
        os._exit(7)


def import_seconds() -> Tuple[float, float]:
    """How long this module's imports take in a fresh interpreter (the
    import share of a set-up, measured again for every repetition):
    ``(as measured, at the reference speed)``.  The interpreter takes
    its own reference slices, since it may run on the other CPU."""
    probe = (f"import sys, statistics; sys.path.insert(0, {HERE!r}); import workloads; "
             f"print(workloads.IMPORT_S, statistics.median("
             f"workloads.measure.reference_slice() for _ in range({SETUP_SLICES})))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, timeout=60)
    seconds, ref = map(float, out.stdout.split()[-2:])
    return seconds, seconds * measure.REFERENCE_S / ref


def verify_all(wl: Workload, outcomes) -> None:
    for op, outcome in outcomes:
        wl.verify(op, outcome)


def end_to_end(phase: Phase, setup_s: float) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    lat = phase.timed()
    # the tail is the median over stretches of each stretch's tail: the
    # ~10 slowest ops of a whole run are mostly ones that a garbage
    # collection or a stall happened to land in (perfbench/README.md)
    k = max(1, min(STRETCHES, len(lat) // MIN_STRETCH_OPS))
    parts: List[List[float]] = [[] for _ in range(k)]
    for m, x in zip(phase.mids, lat):
        parts[min(k - 1, int(m / phase.wall * k))].append(x)
    tails = sorted((measure.tail(p) for p in parts if p), key=lambda t: t[1])
    pct, tail_v, beyond = tails[len(tails) // 2]
    whole_pct, whole_v, whole_beyond = measure.tail(lat)
    # one lane: ops per second of op time (at the reference speed when
    # normalised); two lanes: per second of wall time
    busy = sum(lat) if phase.norm else phase.wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_ms": (ms(statistics.median(lat)), "ms"),
        "latency_tail_ms": (ms(tail_v), "ms"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    notes = [f"latency_tail_ms is the median over {k} stretch(es) of "
             f"{phase.wall / k:.1f} s of each stretch's tail: here p{pct:g} of "
             f"{len(lat) // k} ops ({beyond} beyond it)",
             f"whole_run_tail_ms {ms(whole_v):.4f} (p{whole_pct:g} of {len(lat)} ops, "
             f"{whole_beyond} beyond it)"]
    if phase.norm:
        raw = phase.latencies
        notes.append(
            f"times at the reference host speed; as measured here: "
            f"ops_per_s {len(raw) / sum(raw):.4f}, "
            f"latency_p50_ms {ms(statistics.median(raw)):.4f}, "
            f"latency_tail_ms {ms(measure.tail(raw)[1]):.4f}")
    return metrics, notes


def per_layer(wl: Workload, tr: Trace, traced: Phase, base: Phase) -> Dict[str, Tuple[float, str]]:
    n = len(traced.latencies)
    spans = tr.spans.totals()
    c = dict(tr.counts)
    for name, seconds in spans.items():
        c[f"{name}_s"] = c.get(f"{name}_s", 0.0) + seconds
    op_s = statistics.fmean(traced.latencies)

    def per_op_ms(key):
        return ms(c.get(key, 0.0)) / n

    def share(key):
        return 100.0 * c.get(key, 0.0) / n / op_s

    out: Dict[str, Tuple[float, str]] = {}
    out["lang.parse_ms"] = (per_op_ms("lang.parse_s"), "ms")
    out["lang.interpret_ms"] = (per_op_ms("lang.interpret_s"), "ms")
    out["model.build_ms"] = (per_op_ms("model.build_s"), "ms")
    out["lang.parse_share"] = (share("lang.parse_s"), "%")
    out["lang.interpret_share"] = (share("lang.interpret_s"), "%")
    out["model.build_share"] = (share("model.build_s"), "%")
    out["solve.context_ms"] = (per_op_ms("solve.context_s"), "ms")
    answered = 0.0
    for tier in TIERS:
        out[f"solve.{tier}.decided"] = (c.get(f"solve.{tier}.decided", 0.0) / n, "count")
        out[f"solve.{tier}.ms"] = (per_op_ms(f"solve.{tier}.s"), "ms")
        answered += c.get(f"solve.{tier}.decided", 0.0)
    below = answered - c.get("solve.engine.decided", 0.0)
    out["solve.below_engine_share"] = (100.0 * below / answered if answered else 0.0, "%")
    search_s = c.get("core.search_s", c.get("solve.engine.s", 0.0))
    out["core.states"] = (c.get("core.states", 0.0) / n, "count")
    out["core.states_per_s"] = (c.get("core.states", 0.0) / search_s if search_s else 0.0, "1/s")
    out["core.memo_hits"] = (c.get("core.memo_hits", 0.0) / n, "count")
    out["core.search_ms"] = (ms(search_s) / n, "ms")
    pairs = c.get("races.pairs", 0.0)
    scan_s = c.get("races.scan_s", 0.0) + c.get("supervise.runner_s", 0.0)
    out["races.pairs"] = (pairs / n, "count")
    out["races.pair_ms"] = (ms(scan_s) / pairs if pairs else 0.0, "ms")
    out["supervise.spawns"] = (c.get("supervise.spawns", 0.0) / n, "count")
    ready = c.get("supervise.ready", 0.0)
    out["supervise.spawn_to_ready_ms"] = (
        ms(c.get("supervise.spawn_to_ready_s", 0.0)) / ready if ready else 0.0, "ms")
    out["supervise.runner_ms"] = (per_op_ms("supervise.runner_s"), "ms")
    dispatch = c.get("serve.dispatch_s", 0.0)
    worker = c.get("serve.worker.eval_s", 0.0)
    out["pool.dispatch_wait_ms"] = (ms(dispatch - worker) / n, "ms")
    out["pool.worker_eval_ms"] = (ms(worker) / n, "ms")
    handled = c.get("serve.handle_query_s", 0.0)
    out["serve.http_ms"] = (
        (ms(sum(traced.latencies)) - ms(handled)) / n if handled else 0.0, "ms")
    out["serve.admission_wait_ms"] = (per_op_ms("serve.admission.wait_s"), "ms")
    out["serve.store_read_ms"] = (per_op_ms("serve.store.read_s"), "ms")
    replies = c.get("serve.replies", 0.0)
    out["serve.witness_hit_share"] = (
        100.0 * c.get("serve.witness_hits", 0.0) / replies if replies else 0.0, "%")
    out["model.serialize_ms"] = (per_op_ms("model.serialize_s"), "ms")
    out["model.fingerprint_ms"] = (per_op_ms("model.fingerprint_s"), "ms")
    out["serve.store_write_ms"] = (per_op_ms("serve.store.write_s"), "ms")
    out["serve.store_flush_ms"] = (per_op_ms("serve.store_flush_s"), "ms")
    out["trace.overhead_pct"] = (
        100.0 * (statistics.fmean(traced.timed()) / statistics.fmean(base.timed()) - 1.0), "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("raise", "exit"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    make = WORKLOADS[args.workload]
    wl: Optional[Workload] = None
    setups: List[float] = []  # as measured
    norm_setups: List[float] = []  # at the reference host speed
    setup_speed = measure.HostSpeed(nearest=2 * SETUP_SLICES)
    correct = True
    notes: List[str] = []
    try:
        for rep in range(SETUP_REPS):
            for _ in range(SETUP_SLICES):
                setup_speed.sample()
            imports, norm_imports = import_seconds()
            t0 = time.perf_counter()
            with open(os.path.join(HERE, "inputs", f"{args.workload}.json")) as fh:
                slots = json.load(fh)["slots"]
            wl = make(slots, random.Random(f"{args.workload}:{args.seed}"))
            wl.open()
            verify_all(wl, drive(wl, None).last_pass)
            t1 = time.perf_counter()
            for _ in range(SETUP_SLICES):
                setup_speed.sample()
            setups.append(imports + t1 - t0)
            norm_setups.append(norm_imports + (t1 - t0) * setup_speed.factor((t0 + t1) / 2))
            if rep < SETUP_REPS - 1:
                wl.close()
                wl = None
        # set-up is mostly imports, building inputs and one pass: CPU work
        setup_s = statistics.median(norm_setups)

        def speed():
            return measure.HostSpeed() if wl.cpu_bound else None

        if not args.trace:
            phase = drive(wl, args.seconds, inject=args.inject, speed=speed())
            verify_all(wl, phase.last_pass)
            metrics, notes = end_to_end(phase, setup_s)
        else:
            base = drive(wl, args.seconds / 2, inject=args.inject, speed=speed())
            verify_all(wl, base.last_pass)
            if isinstance(wl, ServeRW):  # daemon tracing is fixed at start
                wl.close()
                wl.open(traced=True)
                drive(wl, None)
            tr = Trace()
            wl.begin_trace(tr)
            try:
                phase = drive(wl, args.seconds / 2, tr, speed=speed())
            finally:
                records = wl.end_trace(tr)
            verify_all(wl, phase.last_pass)
            metrics = per_layer(wl, tr, phase, base)
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tr.spans.dump(path, records)
            notes = [f"spans written to {os.path.relpath(path, ROOT)}"]
    except WrongAnswer as exc:
        print(f"perfbench: WRONG ANSWER: {exc}", file=sys.stderr)
        correct = False
        metrics, phase = {}, Phase()
    finally:
        if wl is not None:
            wl.close()
    live = multiprocessing.active_children()
    if live:
        for proc in live:
            proc.kill()
            proc.join(5)
        print(f"perfbench: {len(live)} child process(es) outlived the run; killed",
              file=sys.stderr)
        return 3
    if not correct:
        print(measure.result_line(False, max(1, len(phase.latencies)), phase.failed, metrics))
        return 1
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(phase.latencies)} ops ({phase.failed} failed) in {phase.wall:.1f} s; "
          f"setup reps {', '.join(f'{s:.3f}' for s in setups)} s as measured, "
          f"{', '.join(f'{s:.3f}' for s in norm_setups)} s at the reference speed")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {unit}")
    print(measure.result_line(True, len(phase.latencies), phase.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
