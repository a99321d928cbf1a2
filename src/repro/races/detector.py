"""Race detectors: apparent (vector clock) and feasible (exact CCW).

The feasible detector is where the paper's hardness bites in practice:
each conflicting pair is an NP-hard CCW query, so the scan degrades
gracefully instead of crashing.  Every pair is classified
``feasible`` / ``infeasible`` / ``unknown`` under a per-pair
:class:`~repro.budget.Budget` (sharing one wall-clock deadline across
the scan), and a single pathological pair can neither raise away the
results already computed nor starve the remaining pairs.

The scan itself is *pluggable*: :meth:`RaceDetector.feasible_races`
delegates each undecided pair either to the in-process serial loop or
to a caller-supplied *pair runner* (see :data:`PairRunner`) such as the
crash-isolated worker pool in :mod:`repro.supervise.pool`.  Pairs
already classified by an earlier scan can be injected via
``precomputed`` (the checkpoint/resume path), and every freshly
computed classification is streamed to ``on_classified`` so a journal
can record it the moment it exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

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
    out = set()
    for x in ea.accesses:
        for y in eb.accesses:
            if x.conflicts_with(y):
                out.add(x.variable)
    return frozenset(out)


# ----------------------------------------------------------------------
# the pluggable pair-runner protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairScanOptions:
    """Everything a pair runner needs to classify pairs on the
    detector's behalf.

    ``max_states`` and ``pair_timeout`` bound each individual pair;
    ``deadline`` is the scan-wide absolute :func:`time.monotonic`
    instant (pairs not started by then are classified ``unknown`` with
    resource ``"deadline"`` without searching).  ``profile`` asks the
    runner to attribute engine search cost to branch choice points (a
    :class:`~repro.obs.profile.SearchProfile` per worker, merged and
    shipped home in the runner's tier snapshot under ``"profile"``).
    ``plan`` and ``por`` are the detector's tier ladder (``None`` = the
    default) and partial-order-reduction mode.
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

#: A pair runner classifies a batch of tasks and returns
#: ``(classifications, interrupted)`` -- optionally with a third element,
#: a :meth:`~repro.solve.planner.PlannerReport.snapshot` dict aggregating
#: the tiers that answered (the supervised pool ships these home from its
#: workers).  It must invoke the callback (when not ``None``) once per
#: classification, as soon as it is known, and on interruption return
#: whatever prefix it managed to classify.
PairRunner = Callable[
    [ProgramExecution, Sequence[PairTask], PairScanOptions,
     Optional[Callable[[PairClassification], None]]],
    Tuple[List[PairClassification], bool],
]


def race_execution(exe: ProgramExecution, a: int, b: int) -> ProgramExecution:
    """The execution a race of ``a`` and ``b`` is judged on: ``exe``
    without the dependence edges between exactly ``a`` and ``b`` (see
    :meth:`RaceDetector.feasible_races`)."""
    drop = {(x, y) for (x, y) in exe.dependences if {x, y} == {a, b}}
    return exe.with_dependences(exe.dependences - drop) if drop else exe


def race_witness(exe: ProgramExecution, a: int, b: int, points) -> Witness:
    """A feasible race's witness schedule, bound to the execution it
    replays on: :func:`race_execution`.  Every race witness -- fresh
    from :func:`classify_pair`, or rebuilt from a worker result, a
    checkpoint journal or a saved report -- is bound here.  (A schedule
    found with the pair's dependences kept replays there a fortiori.)"""
    return Witness(race_execution(exe, a, b), points)


def classify_pair(
    exe: ProgramExecution,
    a: int,
    b: int,
    *,
    drop_racing_dependences: bool = True,
    budget: Optional[Budget] = None,
    variables: Optional[FrozenSet[str]] = None,
    planner: Optional[QueryPlanner] = None,
    por: str = "sleep",
) -> PairClassification:
    """Classify one conflicting pair (the unit of work of a scan).

    Module-level (not a method) so worker processes can import it by
    name and run it against their own deserialized copy of the
    execution.  ``planner`` lets a scan share one
    :class:`~repro.solve.planner.QueryPlanner` across pairs (structural
    bitsets, the conflict index and every witness found so far carry
    over); without one, an ephemeral planner is built for the pair.
    The racing pair's own dependence edges are expressed as a ``drop``
    on the query rather than a rebuilt execution, so the shared
    precomputation stays valid.  ``por`` selects the exact engine's
    partial-order-reduction mode for the ephemeral planner; a provided
    ``planner`` already carries its own mode and ``por`` is ignored.
    """
    if planner is None:
        planner = QueryPlanner(SolveContext(exe, por=por))
    ctx = planner.ctx
    if variables is None:
        variables = ctx.conflict_variables(a, b)
    drop = ctx.racing_drop(a, b) if drop_racing_dependences else EMPTY_DROP
    verdict = planner.ccw_verdict(a, b, drop=drop, budget=budget)
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
            ctx = SolveContext(self.exe, por=self.por)
            if self.plan is not None:
                self._planner = QueryPlanner(ctx, self.plan)
            else:
                self._planner = QueryPlanner(ctx)
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
        runner: Optional[PairRunner] = None,
        precomputed: Optional[Dict[Tuple[int, int], PairClassification]] = None,
        on_classified: Optional[Callable[[PairClassification], None]] = None,
        tracer=None,
        profile=None,
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

        Supervision hooks: ``precomputed`` maps ``(a, b)`` to an
        already-known classification (e.g. replayed from a checkpoint
        journal) -- those pairs are not re-examined.  The remaining
        pairs go to ``runner`` (a :data:`PairRunner`, e.g. the
        crash-isolated pool in :mod:`repro.supervise.pool`) when given,
        else to the in-process serial loop.  ``on_classified`` is
        invoked once per *freshly computed* classification as soon as
        it is known, so a journal stays current even if the scan is
        later killed.  A Ctrl-C during the serial loop (or an
        interrupted runner) yields a partial report flagged
        ``interrupted`` instead of propagating ``KeyboardInterrupt``.

        ``tracer`` (a :class:`~repro.obs.trace.TraceSink`) records the
        scan as structured spans: ``scan.start``/``scan.end`` bounds,
        one ``pair`` record per fresh classification, and -- on the
        serial path -- the shared planner's per-query spans.  (A
        parallel runner traces its own workers; give the
        :class:`~repro.supervise.pool.SupervisedScanner` the same sink.)

        ``profile`` (a :class:`~repro.obs.profile.SearchProfile`)
        accumulates choice-point attribution across the whole scan: the
        serial loop attaches it to the shared planner, a parallel
        runner ships per-worker profiles home in its tier snapshot and
        they are merged here.  One ``profile`` trace record carrying
        the merged snapshot is emitted before ``scan.end``, and the
        profile rides on the returned report.  Profiling is a pure
        observer -- classifications and ``states_visited`` are
        identical with it on or off.
        """
        budget = self._effective_budget(budget)
        traced = tracer is not None and tracer.enabled
        pairs = self.exe.conflicting_pairs()
        precomputed = dict(precomputed or {})
        classifications: List[PairClassification] = []
        todo: List[PairTask] = []
        planner_report = PlannerReport()
        for a, b in pairs:
            known = precomputed.get((a, b))
            if known is not None:
                classifications.append(known)
            else:
                todo.append((a, b, _conflict_variables(self.exe, a, b)))
        interrupted = False
        if traced:
            tracer.emit(
                {"kind": "scan.start", "pairs": len(pairs), "todo": len(todo)}
            )

        def notify(c: PairClassification) -> None:
            if traced:
                rec = {"kind": "pair", "a": c.a, "b": c.b, "status": c.status}
                if c.resource is not None:
                    rec["resource"] = c.resource
                if c.decided_by is not None:
                    rec["decided_by"] = c.decided_by
                tracer.emit(rec)
            if on_classified is not None:
                on_classified(c)
        if runner is not None and todo:
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
            result = runner(self.exe, todo, options, notify)
            if len(result) == 3:
                fresh, interrupted, tier_counts = result
                if tier_counts:
                    profile_snap = tier_counts.pop("profile", None)
                    if profile is not None and profile_snap:
                        profile.merge(profile_snap)
                    planner_report.merge(tier_counts)
            else:
                fresh, interrupted = result
            classifications.extend(fresh)
        else:
            planner = self.planner
            planner.report = planner_report  # tally this scan only
            if traced:
                planner.attach_tracer(tracer)
            if profile is not None:
                planner.attach_profiler(profile)
            for a, b, variables in todo:
                if budget is not None and budget.expired():
                    c = PairClassification(
                        a, b, UNKNOWN, variables, resource=DEADLINE
                    )
                else:
                    pair_budget = None
                    if budget is not None:
                        pair_budget = budget.per_query(
                            max_states=per_pair_max_states,
                            timeout=per_pair_timeout,
                        )
                    try:
                        c = classify_pair(
                            self.exe,
                            a,
                            b,
                            drop_racing_dependences=drop_racing_dependences,
                            budget=pair_budget,
                            variables=variables,
                            planner=planner,
                        )
                    except KeyboardInterrupt:
                        interrupted = True
                        break
                classifications.append(c)
                notify(c)
            if profile is not None:
                planner.attach_profiler(None)
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
            planner=planner_report,
            profile=profile,
        )
