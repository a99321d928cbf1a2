"""The tiered query planner: one escalation ladder for every caller.

:class:`QueryPlanner` answers the primitive queries of
:mod:`repro.solve.query` by consulting its plan's backends cheapest
first, under the caller's per-call :class:`~repro.budget.Budget`.  On
top of the primitives it exposes the three-valued relation facades
(``chb_verdict`` ... ``mcb_verdict``, via the Table 1 dualities) that
``OrderingQueries`` reads its booleans and witnesses off, so the query
layer, the race detector and the query daemon all route through one
place.

Invariants the planner maintains:

* **soundness**: a definite verdict agrees with brute-force
  enumeration -- every backend is individually sound, so the first
  definite answer wins;
* **base feasibility first**: confirmation tiers need to know ``F`` is
  non-empty; the planner resolves that one fact lazily *through the
  ladder itself* (typically free via the observed schedule) and shares
  it in the context;
* **budget-independent memoization**: only definite verdicts are
  memoized (facts about the execution, not about a budget), so a query
  that came back ``UNKNOWN`` is genuinely retried when the caller
  relaxes the budget;
* **accounting**: every query is tallied per tier in a
  :class:`PlannerReport` -- supervised workers ship these home so a
  parallel scan still reports where its answers came from;
* **tracing**: with a :mod:`repro.obs.trace` sink attached
  (:meth:`QueryPlanner.attach_tracer`), every query emits one ``query``
  span whose per-tier entries are exactly the increments recorded into
  the report -- a trace re-aggregates into the same table.  The sink is
  duck-typed (``enabled`` + ``emit``) so this module never imports
  :mod:`repro.obs`, which imports it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.budget import Budget, Verdict
from repro.solve.backends import DEFAULT_PLAN, resolve_plan
from repro.solve.context import EMPTY_DROP, SolveContext
from repro.solve.query import CCB, CCW, CHB, FEASIBLE, RelationQuery


def tier_of(provenance: str) -> str:
    """Map a verdict's provenance tag back to its ladder tier name."""
    return "engine" if provenance == "exact" else provenance


def _costlier(first: Verdict, second: Verdict) -> str:
    """The provenance of whichever verdict the ladder settled later: a
    conjunction of two decided queries is only as cheap as its costlier
    half (``trivial`` ranks below every tier)."""

    def rank(v: Verdict) -> int:
        tier = tier_of(v.provenance)
        return DEFAULT_PLAN.index(tier) if tier in DEFAULT_PLAN else -1

    return max(first, second, key=rank).provenance


@dataclass
class TierTally:
    """Per-tier accounting: queries settled and what they cost."""

    answered: int = 0
    states: int = 0
    elapsed: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "answered": self.answered,
            "states": self.states,
            "elapsed": self.elapsed,
        }


class PlannerReport:
    """Where a run's answers came from and what each tier cost.

    ``queries`` counts every primitive query posed (including the
    planner's internal feasibility resolution); ``unknown`` counts
    ladder fall-throughs.  Reports merge associatively, so per-worker
    and per-pair tallies aggregate into one scan-wide report.
    """

    def __init__(self) -> None:
        self.tiers: Dict[str, TierTally] = {}
        self.queries = 0
        self.unknown = 0

    # ------------------------------------------------------------------
    def _tally(self, tier: str) -> TierTally:
        tally = self.tiers.get(tier)
        if tally is None:
            tally = self.tiers[tier] = TierTally()
        return tally

    def record_answer(self, tier: str, *, states: int = 0, elapsed: float = 0.0) -> None:
        tally = self._tally(tier)
        tally.answered += 1
        tally.states += states
        tally.elapsed += elapsed

    def record_cost(self, tier: str, *, states: int = 0, elapsed: float = 0.0) -> None:
        """Charge a tier that tried and declined (or ran out)."""
        tally = self._tally(tier)
        tally.states += states
        tally.elapsed += elapsed

    def fold_query(self, record: Dict[str, object]) -> None:
        """Fold one traced ``query`` span (its ``decided`` flag and
        per-tier entries) into the tallies -- how a trace reader
        rebuilds exactly the report the live run printed."""
        self.queries += 1
        if not record["decided"]:
            self.unknown += 1
        for entry in record["tiers"]:
            if entry["answered"]:
                self.record_answer(
                    entry["tier"],
                    states=entry["states"],
                    elapsed=entry["elapsed"],
                )
            else:
                self.record_cost(
                    entry["tier"],
                    states=entry["states"],
                    elapsed=entry["elapsed"],
                )

    # ------------------------------------------------------------------
    @property
    def answered(self) -> int:
        return sum(t.answered for t in self.tiers.values())

    def answered_below(self, tier: str = "engine") -> int:
        """Queries settled without reaching ``tier`` (the perf headline:
        how much of the truth was cheap)."""
        return sum(t.answered for name, t in self.tiers.items() if name != tier)

    def engine_states(self) -> int:
        tally = self.tiers.get("engine")
        return tally.states if tally is not None else 0

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "unknown": self.unknown,
            "tiers": {name: t.to_dict() for name, t in sorted(self.tiers.items())},
        }

    def merge(self, other) -> None:
        """Fold another report (or a snapshot dict) into this one."""
        data = other.snapshot() if isinstance(other, PlannerReport) else other
        self.queries += int(data.get("queries", 0))
        self.unknown += int(data.get("unknown", 0))
        for name, rec in data.get("tiers", {}).items():
            tally = self._tally(name)
            tally.answered += int(rec.get("answered", 0))
            tally.states += int(rec.get("states", 0))
            tally.elapsed += float(rec.get("elapsed", 0.0))

    @classmethod
    def from_snapshot(cls, data: Dict[str, object]) -> "PlannerReport":
        report = cls()
        report.merge(data)
        return report

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [
            f"planner: {self.queries} queries, {self.answered} answered, "
            f"{self.unknown} unknown"
        ]
        for name, tally in sorted(self.tiers.items()):
            lines.append(
                f"  {name:<11} answered={tally.answered:<5} "
                f"states={tally.states:<8} elapsed={tally.elapsed * 1e3:.1f}ms"
            )
        return "\n".join(lines)


class QueryPlanner:
    """Cheapest-first escalation over a plan of registered backends
    (``plan=None`` means :data:`~repro.solve.backends.DEFAULT_PLAN`)."""

    def __init__(
        self,
        ctx: SolveContext,
        plan: Optional[Sequence[str]] = None,
        *,
        tracer=None,
    ) -> None:
        self.ctx = ctx
        self.plan = DEFAULT_PLAN if plan is None else tuple(plan)
        self.backends = resolve_plan(self.plan)
        self.report = PlannerReport()
        self.tracer = tracer  # duck-typed TraceSink (enabled + emit)
        self.board = None  # duck-typed StatusBoard (engine_tick)
        self._tick_min_interval = 0.25
        self._memo: Dict[RelationQuery, Verdict] = {}
        self._resolving_feasibility = False
        # the tier a stopped ladder left base feasibility to, if any
        self._feasibility_left_to: Optional[str] = None

    # ------------------------------------------------------------------
    def attach_tracer(self, sink, *, tick_min_interval: float = 0.25) -> None:
        """Route query spans to ``sink`` and arm the engine's progress
        ticks (throttled to one ``engine.tick`` per
        ``tick_min_interval`` seconds so deep searches stay cheap)."""
        self.tracer = sink
        self._tick_min_interval = tick_min_interval
        self._rearm_progress()

    def attach_board(self, board) -> None:
        """Publish engine progress to a live
        :class:`~repro.obs.server.StatusBoard` (duck-typed:
        ``engine_tick``) alongside any tracer; ``None`` detaches.  Both
        consumers share one ``on_progress`` callback so attaching one
        never silently disarms the other."""
        self.board = board
        self._rearm_progress()

    def _rearm_progress(self) -> None:
        hooks = []
        sink = self.tracer
        if sink is not None and sink.enabled:
            # -inf, not 0.0: monotonic clocks can start near zero (a
            # freshly booted host), and 0.0 would then swallow the
            # first tick for up to a full interval
            last = [float("-inf")]
            interval = self._tick_min_interval

            def trace_tick(stats) -> None:
                now = time.monotonic()
                if now - last[0] >= interval:
                    last[0] = now
                    sink.emit(
                        {"kind": "engine.tick", "states": stats.states_visited}
                    )

            hooks.append(trace_tick)
        if self.board is not None:
            hooks.append(self.board.engine_tick)  # throttles internally
        if not hooks:
            self.ctx.on_progress = None
        elif len(hooks) == 1:
            self.ctx.on_progress = hooks[0]
        else:
            self.ctx.on_progress = lambda stats: [h(stats) for h in hooks]

    def attach_profiler(self, profile) -> None:
        """Hand ``profile`` (a :class:`repro.obs.profile.SearchProfile`,
        duck-typed here) to every subsequent engine search so visited
        states are attributed to branch choice points.  ``None``
        detaches.  Profiling is a pure observer -- verdicts and
        ``states_visited`` are identical with it on or off."""
        self.ctx.profile = profile

    def _settle(
        self, query: RelationQuery, verdict: Verdict, attempts: List[Dict]
    ) -> Verdict:
        """Tally one finished query and emit its ``query`` span: the
        report folds the very record the trace gets, so a trace
        re-aggregates into exactly the live table."""
        decided = not verdict.is_unknown
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            record = {
                "kind": "query",
                "relation": query.relation,
                "a": query.a,
                "b": query.b,
                "drop": len(query.drop),
                "decided": decided,
                "verdict": str(verdict.truth),
                "decided_by": verdict.provenance if decided else None,
                "tiers": attempts,
            }
        else:
            record = {"decided": decided, "tiers": attempts}
        self.report.fold_query(record)
        if traced:
            self.tracer.emit(record)
        return verdict

    def base_feasibility(self) -> Optional[Verdict]:
        """The definite "is F non-empty" verdict, if the ladder settled
        it (read without posing or tallying a query)."""
        return self._memo.get(RelationQuery(FEASIBLE))

    # ------------------------------------------------------------------
    def answer(
        self,
        query: RelationQuery,
        *,
        budget: Optional[Budget] = None,
        max_states: Optional[int] = None,
        stop_at: Optional[str] = None,
    ) -> Optional[Verdict]:
        """Run the ladder for one primitive query (never raises).

        ``stop_at`` names a tier the caller runs elsewhere (a pool
        worker running the same plan): a ladder that reaches it returns
        ``None``, with nothing tallied or traced, and the query is the
        worker's to answer, as one query.  The tiers below the engine
        decline without charging a cost, so stopping at the engine loses
        no tally.  Base feasibility is
        resolved under the same ``stop_at``; a check that stops there is
        left to that tier and not retried below it."""
        # per-tier attempts, one entry per report increment, so
        # summarize(trace) reproduces the report exactly
        attempts: List[Dict] = []

        def entry(tier: str, answered: bool, states: int = 0,
                  elapsed: float = 0.0) -> Dict:
            return {"tier": tier, "states": states, "elapsed": elapsed,
                    "answered": answered}

        memo = self._memo.get(query)
        if memo is not None:
            attempts.append(entry(tier_of(memo.provenance), True))
            return self._settle(query, memo, attempts)
        if query.relation != FEASIBLE:
            self._ensure_base_feasibility(
                budget=budget, max_states=max_states, stop_at=stop_at
            )
            if self.ctx.feasible is False and not query.drop:
                # F is empty: every existential primitive is false.
                # (Relaxed drops have a larger F; their ladder decides.)
                verdict = Verdict.false(
                    self.ctx.feasible_provenance or "exact", stats=self.ctx.stats
                )
                self._memo[query] = verdict
                attempts.append(entry(tier_of(verdict.provenance), True))
                return self._settle(query, verdict, attempts)
        resource: Optional[str] = None
        try:
            for backend in self.backends:
                if backend.name == stop_at:
                    return None
                ans = backend.answer(
                    query, self.ctx, budget=budget, max_states=max_states
                )
                if ans is None:
                    continue
                attempts.append(
                    entry(backend.name, ans.decided, ans.states, ans.elapsed)
                )
                if ans.decided:
                    self._memo[query] = ans.verdict
                    if query.relation == FEASIBLE and not query.drop:
                        self.ctx.feasible = ans.verdict.is_true
                        self.ctx.feasible_provenance = ans.verdict.provenance
                    return self._settle(query, ans.verdict, attempts)
                resource = ans.verdict.resource or resource
        except BaseException:
            # an interrupted ladder (Ctrl-C mid-search) still flushes the
            # costs already charged, keeping the trace and the report in
            # agreement even on partial scans
            self._settle(query, Verdict.unknown(), attempts)
            raise
        return self._settle(
            query, Verdict.unknown(resource=resource, stats=self.ctx.stats),
            attempts,
        )

    def _ensure_base_feasibility(self, *, budget, max_states, stop_at) -> None:
        """Resolve "is F non-empty" once, through the ladder itself."""
        if (
            self.ctx.feasible is not None
            or self._resolving_feasibility
            or (stop_at is not None and stop_at == self._feasibility_left_to)
        ):
            return
        self._resolving_feasibility = True
        try:
            checked = self.answer(
                RelationQuery(FEASIBLE), budget=budget, max_states=max_states,
                stop_at=stop_at,
            )
            if checked is None:
                self._feasibility_left_to = stop_at
        finally:
            self._resolving_feasibility = False

    # ------------------------------------------------------------------
    # relation facades (the Table 1 dualities, in Kleene logic); a
    # refuted universal carries the counterexample schedule as witness
    # ------------------------------------------------------------------
    def feasible_verdict(
        self,
        *,
        drop: FrozenSet[Tuple[int, int]] = EMPTY_DROP,
        budget: Optional[Budget] = None,
        max_states: Optional[int] = None,
    ) -> Verdict:
        return self.answer(
            RelationQuery(FEASIBLE, drop=drop), budget=budget, max_states=max_states
        )

    def chb_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            return Verdict.false("trivial")
        drop = kw.pop("drop", EMPTY_DROP)
        return self.answer(RelationQuery(CHB, a, b, drop), **kw)

    def ccb_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            return Verdict.false("trivial")
        drop = kw.pop("drop", EMPTY_DROP)
        return self.answer(RelationQuery(CCB, a, b, drop), **kw)

    def ccw_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            # an event overlaps itself in every member of F
            drop = kw.pop("drop", EMPTY_DROP)
            fv = self.feasible_verdict(drop=drop, **kw)
            if fv.is_unknown:
                return fv
            return Verdict(
                fv.truth, fv.provenance, witness=fv.witness, stats=self.ctx.stats
            )
        drop = kw.pop("drop", EMPTY_DROP)
        # CCW is symmetric: one memo entry (and one search) per pair
        return self.answer(RelationQuery(CCW, min(a, b), max(a, b), drop), **kw)

    def cow_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            return Verdict.false("trivial")
        first = self.chb_verdict(a, b, **kw)
        if first.is_true:
            return first
        second = self.chb_verdict(b, a, **kw)
        if second.is_true:
            return second
        if first.is_false and second.is_false:
            return Verdict.false(_costlier(first, second), stats=self.ctx.stats)
        resource = first.resource or second.resource
        return Verdict.unknown(resource=resource, stats=self.ctx.stats)

    def mhb_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            fv = self.feasible_verdict(**kw)
            if fv.is_unknown:
                return Verdict.unknown(resource=fv.resource, stats=self.ctx.stats)
            # refuted by any member of F, which overlaps a with itself
            return Verdict.of_bool(
                fv.is_false, "trivial", witness=fv.witness, stats=self.ctx.stats
            )
        rev = self.chb_verdict(b, a, **kw)
        if rev.is_true:
            return Verdict.false(rev.provenance, witness=rev.witness, stats=self.ctx.stats)
        overlap = self.ccw_verdict(a, b, **kw)
        if overlap.is_true:
            return Verdict.false(
                overlap.provenance, witness=overlap.witness, stats=self.ctx.stats
            )
        if rev.is_false and overlap.is_false:
            return Verdict.true(_costlier(rev, overlap), stats=self.ctx.stats)
        resource = rev.resource or overlap.resource
        return Verdict.unknown(resource=resource, stats=self.ctx.stats)

    def mow_verdict(self, a: int, b: int, **kw) -> Verdict:
        return self.ccw_verdict(a, b, **kw).negate()

    def mcw_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            return Verdict.true("trivial")
        return self.cow_verdict(a, b, **kw).negate()

    def mcb_verdict(self, a: int, b: int, **kw) -> Verdict:
        if a == b:
            fv = self.feasible_verdict(**kw)
            if fv.is_unknown:
                return Verdict.unknown(resource=fv.resource, stats=self.ctx.stats)
            return Verdict.of_bool(fv.is_false, "trivial", stats=self.ctx.stats)
        return self.ccb_verdict(b, a, **kw).negate()

    def relation_verdicts(self, a: int, b: int, **kw) -> Dict[str, Verdict]:
        return {
            "MHB": self.mhb_verdict(a, b, **kw),
            "CHB": self.chb_verdict(a, b, **kw),
            "MCW": self.mcw_verdict(a, b, **kw),
            "CCW": self.ccw_verdict(a, b, **kw),
            "MOW": self.mow_verdict(a, b, **kw),
            "COW": self.cow_verdict(a, b, **kw),
        }


__all__ = ["QueryPlanner", "PlannerReport", "TierTally", "tier_of"]
