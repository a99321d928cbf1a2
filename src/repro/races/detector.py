"""Race detectors: apparent (vector clock) and feasible (exact CCW).

The feasible detector is where the paper's hardness bites in practice:
each conflicting pair is an NP-hard CCW query, so the scan degrades
gracefully instead of crashing.  Every pair is classified
``feasible`` / ``infeasible`` / ``unknown`` under a per-pair
:class:`~repro.budget.Budget` (sharing one wall-clock deadline across
the scan), and a single pathological pair can neither raise away the
results already computed nor starve the remaining pairs.

:meth:`RaceDetector.feasible_races` is the one loop that runs a scan,
serial or parallel.  It walks the pairs not already classified
(``precomputed``, the checkpoint/resume path) and hands them to one
executor, which puts each pair through the scan-shared planner's ladder
in this thread.  With a pool
(:class:`repro.supervise.SupervisedScanner`) the ladder stops at the
engine tier, and only the pairs that reach it are shipped to the
pool's crash-isolated, capped workers: the polynomial tiers settle the
rest here, at no per-pair hand-off.  Each :class:`PairResult` that
comes back is handled in one place -- the scan's one
:class:`~repro.solve.planner.PlannerReport` and profile, the ``pair``
trace record, ``on_classified`` (so a journal records a pair the moment
it exists) and the status board -- and one ``try`` turns the first
Ctrl-C anywhere in that loop into a partial report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.approx.vectorclock import VectorClockAnalysis
from repro.budget import Budget, DEADLINE
from repro.core.witness import Witness
from repro.model.execution import ProgramExecution
from repro.solve.context import EMPTY_DROP, SolveContext
from repro.solve.planner import PlannerReport, QueryPlanner

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Race:
    """A pair of conflicting events that may run concurrently.

    ``witness`` (feasible races only) is a schedule in which the two
    events' intervals overlap; ``variables`` lists the shared locations
    both sides touch conflictingly.
    """

    a: int
    b: int
    variables: FrozenSet[str]
    kind: str  # "apparent" or "feasible"
    witness: Optional[Witness] = None

    def describe(self, exe: ProgramExecution) -> str:
        ea, eb = exe.event(self.a), exe.event(self.b)
        vs = ",".join(sorted(self.variables))
        return f"[{self.kind}] {ea.describe()} <-> {eb.describe()} on {{{vs}}}"


@dataclass(frozen=True)
class PairClassification:
    """One conflicting pair's outcome under a budgeted scan."""

    a: int
    b: int
    status: str  # FEASIBLE / INFEASIBLE / UNKNOWN
    variables: FrozenSet[str]
    witness: Optional[Witness] = None
    resource: Optional[str] = None  # exhausted resource when UNKNOWN
    decided_by: Optional[str] = None  # planner tier that settled the pair

    def describe(self, exe: ProgramExecution) -> str:
        ea, eb = exe.event(self.a), exe.event(self.b)
        note = f" (exhausted {self.resource})" if self.resource else ""
        return f"[{self.status}] {ea.describe()} <-> {eb.describe()}{note}"


@dataclass
class RaceReport:
    """The result of one detection run.

    ``classifications`` (feasible scans only) records every conflicting
    pair's three-valued outcome; ``races`` keeps only the confirmed
    ones, so pre-budget callers read the report unchanged.
    ``interrupted`` marks a scan cut short (Ctrl-C): the classified
    prefix is still valid, the missing pairs were never examined.
    """

    execution: ProgramExecution
    races: List[Race]
    kind: str
    conflicting_pairs_examined: int
    classifications: List[PairClassification] = field(default_factory=list)
    interrupted: bool = False
    planner: Optional[PlannerReport] = None  # per-tier tallies (feasible scans)
    # choice-point attribution when the scan ran with profiling (a
    # repro.obs.profile.SearchProfile, duck-typed to keep races below
    # obs in the import layering); None otherwise
    profile: Optional[object] = None

    def pairs(self) -> List[Tuple[int, int]]:
        return [(r.a, r.b) for r in self.races]

    @property
    def unknown_pairs(self) -> List[PairClassification]:
        return [c for c in self.classifications if c.status == UNKNOWN]

    @property
    def complete(self) -> bool:
        """True when no pair was left undecided by a budget."""
        return not self.unknown_pairs and not self.interrupted

    def summary(self) -> str:
        base = (
            f"{self.kind} races: {len(self.races)} / "
            f"{self.conflicting_pairs_examined} conflicting pairs"
        )
        unknown = len(self.unknown_pairs)
        if unknown:
            base += f" ({unknown} unknown: budget exhausted)"
        if self.interrupted:
            base += (
                f" (interrupted: {len(self.classifications)}/"
                f"{self.conflicting_pairs_examined} pairs classified)"
            )
        return base

    def pretty(self) -> str:
        lines = [self.summary()]
        for r in self.races:
            lines.append("  " + r.describe(self.execution))
        for c in self.unknown_pairs:
            lines.append("  " + c.describe(self.execution))
        return "\n".join(lines)


def _conflict_variables(exe: ProgramExecution, a: int, b: int) -> FrozenSet[str]:
    ea, eb = exe.event(a), exe.event(b)
    return frozenset(
        x.variable for x in ea.accesses for y in eb.accesses
        if x.conflicts_with(y)
    )


# ----------------------------------------------------------------------
# what the scan loop hands an executor, and what it gets back
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairScanOptions:
    """How an executor classifies a scan's pairs.

    ``max_states`` and ``pair_timeout`` bound each individual pair;
    ``deadline`` is the scan-wide absolute :func:`time.monotonic`
    instant (pairs not started by then are classified ``unknown`` with
    resource ``"deadline"`` without searching).  ``profile`` asks for
    choice-point attribution of engine search cost.  ``plan`` and
    ``por`` are the detector's tier ladder (``None`` = the default) and
    partial-order-reduction mode.
    """

    drop_racing_dependences: bool = True
    max_states: Optional[int] = None
    pair_timeout: Optional[float] = None
    deadline: Optional[float] = None
    profile: bool = False
    por: str = "sleep"
    plan: Optional[Tuple[str, ...]] = None


#: One unit of scan work: ``(a, b, conflict variables)``.
PairTask = Tuple[int, int, FrozenSet[str]]


class PairResult(NamedTuple):
    """One finished pair from an executor, with the planner and profile
    snapshots of a pool worker that tallied it (in-process results
    carry none: that planner tallies into the scan's own report)."""

    classification: "PairClassification"
    planner: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = None


def racing_drop(
    exe: ProgramExecution, a: int, b: int
) -> FrozenSet[Tuple[int, int]]:
    """The dependence edges between exactly ``a`` and ``b`` -- what a
    race query drops so the observed pairing cannot mask the race under
    test (see :meth:`RaceDetector.feasible_races`)."""
    deps = exe.dependences
    return frozenset(edge for edge in ((a, b), (b, a)) if edge in deps)


def race_witness(exe: ProgramExecution, a: int, b: int, points) -> Witness:
    """A feasible race's witness schedule, bound to the execution it
    replays on: ``exe`` without :func:`racing_drop`.  Every race witness
    -- fresh from :func:`classify_pair`, or rebuilt from a worker
    result, a checkpoint journal or a saved report -- is bound here.  (A
    schedule found with the pair's dependences kept replays there a
    fortiori.)"""
    drop = racing_drop(exe, a, b)
    if drop:
        exe = exe.with_dependences(exe.dependences - drop)
    return Witness(exe, points)


def _pair_budget(
    budget: Optional[Budget], options: PairScanOptions
) -> Optional[Budget]:
    """The budget one pair's query runs under: the scan's, tightened by
    the per-pair limits (``None``: neither applies)."""
    if budget is None:
        if options.max_states is None and options.pair_timeout is None:
            return None
        budget = Budget()
    return budget.per_query(
        max_states=options.max_states, timeout=options.pair_timeout
    )


def classify_pair(
    exe: ProgramExecution,
    a: int,
    b: int,
    *,
    planner: QueryPlanner,
    drop_racing_dependences: bool = True,
    budget: Optional[Budget] = None,
    variables: Optional[FrozenSet[str]] = None,
    stop_at: Optional[str] = None,
) -> Optional[PairClassification]:
    """Classify one conflicting pair (the unit of work of a scan) on
    ``planner``, which a scan or a pool worker shares across its pairs
    (structural bitsets and every witness found so far carry over).

    Module-level (not a method) so worker processes can import it by
    name and run it against their own deserialized copy of the
    execution.  The racing pair's own dependence edges are expressed
    as a ``drop`` on the query rather than a rebuilt execution, so the
    shared precomputation stays valid.

    With ``stop_at`` (see
    :meth:`~repro.solve.planner.QueryPlanner.answer`), a pair whose
    ladder reaches that tier returns ``None``: a pool worker classifies
    it.
    """
    if variables is None:
        variables = _conflict_variables(exe, a, b)
    drop = racing_drop(exe, a, b) if drop_racing_dependences else EMPTY_DROP
    verdict = planner.ccw_verdict(a, b, drop=drop, budget=budget, stop_at=stop_at)
    if verdict is None:
        return None
    if verdict.is_true:
        witness = verdict.witness
        if witness is not None and drop:
            # cached/engine witnesses are anchored to the base execution
            witness = race_witness(exe, a, b, witness.points)
        return PairClassification(
            a, b, FEASIBLE, variables,
            witness=witness, decided_by=verdict.provenance,
        )
    if verdict.is_false:
        return PairClassification(
            a, b, INFEASIBLE, variables, decided_by=verdict.provenance
        )
    return PairClassification(a, b, UNKNOWN, variables, resource=verdict.resource)


class _Ladder:
    """The scan's one executor: each pair climbs the scan-shared
    planner's ladder in this thread, one per ``next()``.

    Given a ``pool`` (a :class:`~repro.supervise.SupervisedScanner`),
    the ladder stops at the ``engine`` tier and such a pair is submitted
    to the pool, which starts at the first one (a scan with none spawns
    no worker), with the base feasibility verdict this planner settled.
    Once every pair has climbed, ``next`` hands back the pool's answers
    and worker lifecycle records.

    ``interrupt`` starts no further pair (the pool drains the pairs in
    flight); ``close`` stops the pool."""

    def __init__(self, planner: QueryPlanner, budget: Optional[Budget],
                 tasks: Sequence[PairTask], options: PairScanOptions,
                 pool=None) -> None:
        self.planner, self.budget, self.pool = planner, budget, pool
        self.exe, self.options = planner.ctx.exe, options
        self.stop_at = "engine" if pool is not None else None
        self._tasks: Iterator[PairTask] = iter(tasks)
        self._shipped = False

    def next(self):
        for a, b, variables in self._tasks:
            if self.budget is not None and self.budget.expired():
                return PairResult(PairClassification(
                    a, b, UNKNOWN, variables, resource=DEADLINE
                ))
            c = classify_pair(
                self.exe, a, b,
                drop_racing_dependences=self.options.drop_racing_dependences,
                budget=_pair_budget(self.budget, self.options),
                variables=variables, planner=self.planner,
                stop_at=self.stop_at,
            )
            if c is not None:
                return PairResult(c)
            self._ship((a, b, variables))
        if not self._shipped:
            return None
        return self.pool.next()

    def _ship(self, task: PairTask) -> None:
        if not self._shipped:
            self.pool.start(
                self.exe, self.options, self.planner.base_feasibility()
            )
            self._shipped = True
        self.pool.submit(task)

    def interrupt(self) -> None:
        self._tasks = iter(())
        if self.pool is not None:
            self.pool.interrupt()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()


class RaceDetector:
    """Detects apparent and feasible races of one execution.

    ``max_states`` / ``budget`` bound each pair's exact search; the
    feasible scan never raises on exhaustion -- undecided pairs are
    reported as ``unknown``.
    """

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        max_states: Optional[int] = None,
        budget: Optional[Budget] = None,
        plan: Optional[Tuple[str, ...]] = None,
        por: str = "sleep",
    ) -> None:
        self.exe = exe
        self.max_states = max_states
        self.budget = budget
        self.plan = tuple(plan) if plan is not None else None
        self.por = por
        self._planner: Optional[QueryPlanner] = None

    @property
    def planner(self) -> QueryPlanner:
        """The scan-shared planner (lazy: apparent-only runs never pay
        for the solve context)."""
        if self._planner is None:
            self._planner = QueryPlanner(
                SolveContext(self.exe, por=self.por), self.plan
            )
        return self._planner

    # ------------------------------------------------------------------
    def apparent_races(self, schedule: Optional[Sequence[int]] = None) -> RaceReport:
        """Conflicting pairs unordered by the observed vector clocks.

        Fast (polynomial) but tied to the observed pairing: it can both
        miss races (a sync edge in this run masked an overlap another
        run allows) and, relative to feasibility, report pairs that
        shared-data dependences actually order.
        """
        vc = VectorClockAnalysis(self.exe, schedule)
        races: List[Race] = []
        pairs = self.exe.conflicting_pairs()
        for a, b in pairs:
            if vc.concurrent(a, b):
                races.append(Race(a, b, _conflict_variables(self.exe, a, b), "apparent"))
        return RaceReport(self.exe, races, "apparent", len(pairs))

    # ------------------------------------------------------------------
    def _effective_budget(self, budget: Optional[Budget]) -> Optional[Budget]:
        if budget is not None:
            return budget
        if self.budget is not None:
            return self.budget
        if self.max_states is not None:
            return Budget(max_states=self.max_states)
        return None

    def feasible_races(
        self,
        *,
        drop_racing_dependences: bool = True,
        budget: Optional[Budget] = None,
        per_pair_max_states: Optional[int] = None,
        per_pair_timeout: Optional[float] = None,
        runner=None,
        precomputed: Optional[Dict[Tuple[int, int], PairClassification]] = None,
        on_classified: Optional[Callable[[PairClassification], None]] = None,
        tracer=None,
        profile=None,
        board=None,
    ) -> RaceReport:
        """Conflicting pairs with ``a CCW b`` -- the paper's notion.

        ``drop_racing_dependences``: a conflicting pair is itself a
        shared-data dependence of the observed execution, and condition
        F3 would freeze its order, masking the very race under test.
        Following the companion race-detection paper [10], the
        dependence between the two *tested* events is dropped while all
        other dependences are kept, so the query asks "could these two
        have overlapped while the rest of the data flow stayed intact".
        Set it False to keep strict F3 semantics.

        Budgeting: each pair runs under its own child budget derived
        from ``budget`` (or the detector's), optionally tightened by
        ``per_pair_max_states`` / ``per_pair_timeout`` so one hard pair
        cannot starve the scan.  Exhaustion marks *that pair* unknown
        and the scan continues; once the shared deadline expires, the
        remaining pairs are classified unknown without searching.  The
        returned report is therefore always complete over the pair set
        -- partial only in the sense that some entries are ``unknown``.

        ``precomputed`` maps ``(a, b)`` to an already-known
        classification (e.g. replayed from a checkpoint journal); those
        pairs are not re-examined.  The rest climb the shared planner's
        ladder in this thread (:func:`classify_pair`); the first pair's
        query resolves base feasibility ("is F non-empty").  Given a
        ``runner`` -- a pool such as
        :class:`~repro.supervise.SupervisedScanner` -- the ladder stops
        at the engine tier, and only the pairs that reach it go to the
        pool's capped workers, with that base feasibility verdict.
        ``on_classified`` is invoked once per *freshly computed*
        classification as soon as it is known, so a journal stays
        current even if the scan is later killed.  The first Ctrl-C
        anywhere in the loop, ``on_classified`` included, stops it: the
        pairs in flight are drained (pool only) and the partial report
        comes back flagged ``interrupted``.  A second Ctrl-C during the
        drain propagates ``KeyboardInterrupt``.

        Observers, each fed from this one loop: ``tracer`` (a
        :class:`~repro.obs.trace.TraceSink`) gets ``scan.start``, one
        ``pair`` record per fresh classification, ``profile`` and
        ``scan.end`` (the shared planner adds its query spans; the pool
        traces its workers to its own tracer -- give it the same
        sink).  ``profile`` (a :class:`~repro.obs.profile.SearchProfile`)
        accumulates choice-point attribution across the scan and rides
        on the report; profiling is a pure observer.  ``board`` (a
        :class:`~repro.obs.server.StatusBoard`) is armed for the scan,
        counts its pairs (``precomputed`` ones with ``fresh=False``),
        reads its report and profile, sees every worker lifecycle record
        and engine tick, and shows ``draining`` while an interrupted pool
        drains, then ``done`` or ``interrupted``.
        """
        budget = self._effective_budget(budget)
        traced = tracer is not None and tracer.enabled
        pairs = self.exe.conflicting_pairs()
        precomputed = precomputed or {}
        classifications: List[PairClassification] = []
        todo: List[PairTask] = []
        report = PlannerReport()
        for a, b in pairs:
            known = precomputed.get((a, b))
            if known is not None:
                classifications.append(known)
            else:
                todo.append((a, b, _conflict_variables(self.exe, a, b)))
        if board is not None:
            board.planner, board.profile = report, profile
            board.begin_scan(total=len(pairs), budget=budget)
            for c in classifications:  # journaled: no fresh work
                board.pair_done(c, fresh=False)
        if traced:
            tracer.emit(
                {"kind": "scan.start", "pairs": len(pairs), "todo": len(todo)}
            )

        def fold(result) -> None:
            if isinstance(result, dict):  # a pool worker's lifecycle record
                if board is not None:
                    board.observe(result)
                return
            c, snapshot, profile_snapshot = result
            if snapshot:
                report.merge(snapshot)
            if profile_snapshot and profile is not None:
                profile.merge(profile_snapshot)
            classifications.append(c)
            if traced:
                rec = {"kind": "pair", "a": c.a, "b": c.b, "status": c.status}
                if c.resource is not None:
                    rec["resource"] = c.resource
                if c.decided_by is not None:
                    rec["decided_by"] = c.decided_by
                tracer.emit(rec)
            try:
                if on_classified is not None:
                    on_classified(c)
            finally:  # a Ctrl-C out of on_classified: c is in the report
                if board is not None:
                    board.pair_done(c)

        interrupted = False
        if todo:
            planner = self.planner
            planner.report = report  # tally this scan only
            if traced:
                planner.attach_tracer(tracer)
            if profile is not None:
                planner.attach_profiler(profile)
            if board is not None:
                planner.attach_board(board)
            options = PairScanOptions(
                drop_racing_dependences=drop_racing_dependences,
                max_states=(
                    per_pair_max_states
                    if per_pair_max_states is not None
                    else (budget.max_states if budget is not None else None)
                ),
                pair_timeout=per_pair_timeout,
                deadline=budget.deadline if budget is not None else None,
                profile=profile is not None,
                por=self.por,
                plan=self.plan,
            )
            executor = _Ladder(planner, budget, todo, options, pool=runner)

            def fold_all() -> None:
                result = executor.next()
                while result is not None:
                    fold(result)
                    result = executor.next()

            try:
                try:
                    fold_all()
                except KeyboardInterrupt:
                    interrupted = True
                    if board is not None:
                        board.set_state("draining")  # /readyz answers 503
                    executor.interrupt()
                    fold_all()  # a second Ctrl-C propagates
            finally:
                executor.close()
                planner.attach_profiler(None)
        if board is not None:
            board.set_state("interrupted" if interrupted else "done")
        order = {pair: i for i, pair in enumerate(pairs)}
        classifications.sort(key=lambda c: order[(c.a, c.b)])
        races = [
            Race(c.a, c.b, c.variables, "feasible", witness=c.witness)
            for c in classifications
            if c.status == FEASIBLE
        ]
        if traced:
            if profile is not None:
                tracer.emit({"kind": "profile", "profile": profile.snapshot()})
            by_status: Dict[str, int] = {}
            for c in classifications:
                by_status[c.status] = by_status.get(c.status, 0) + 1
            tracer.emit(
                {
                    "kind": "scan.end",
                    "done": len(classifications),
                    "feasible": by_status.get(FEASIBLE, 0),
                    "infeasible": by_status.get(INFEASIBLE, 0),
                    "unknown": by_status.get(UNKNOWN, 0),
                    "interrupted": interrupted,
                }
            )
        return RaceReport(
            self.exe,
            races,
            "feasible",
            len(pairs),
            classifications,
            interrupted=interrupted,
            planner=report,
            profile=profile,
        )
