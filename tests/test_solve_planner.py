"""The solver portfolio: planner soundness, witness reuse, accounting.

The tiered :class:`~repro.solve.planner.QueryPlanner` promises exactly
what the exact layer promises -- a definite verdict is *true of the
execution* -- while answering most queries below the exponential tier.
These tests pin that contract:

* property tests against brute-force enumeration (the planner may be
  cleverer than the engine, never different);
* every witness a verdict carries replays through the reference
  semantics and actually exhibits its relation;
* drop-relaxed queries (the race detector's mode) stay sound;
* per-tier accounting survives snapshot/merge round-trips and the
  wire format the supervised pool ships home.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budget import Budget
from repro.core.enumerate import relations_by_enumeration
from repro.core.queries import OrderingQueries
from repro.core.relations import RelationName
from repro.core.witness import replay_schedule
from repro.encoding.order_sat import OrderSatEncoder
from repro.model.builder import ExecutionBuilder
from repro.races.detector import RaceDetector, racing_drop
from repro.sat.cnf import parse_dimacs
from repro.sat.dpll import DPLLSolver, SolveBudgetExceeded
from repro.solve import (
    BACKENDS,
    DEFAULT_PLAN,
    PlannerReport,
    QueryPlanner,
    SolveContext,
    WitnessCache,
    resolve_plan,
    tier_of,
)

from repro.workloads import random_semaphore_execution

from tests.strategies import (
    small_event_executions,
    small_semaphore_executions,
    tiny_overlay_executions,
)


def fresh_planner(exe, plan=DEFAULT_PLAN):
    return QueryPlanner(SolveContext(exe), plan)


def conflict_execution():
    """Two independent processes, one write of ``x`` each, a dependence
    ``x -> y`` and the serial observed schedule: the race detector's
    minimal drop-relaxation workload."""
    b = ExecutionBuilder()
    x = b.process("A").write("x")
    y = b.process("B").write("x")
    exe = b.build(observed_schedule=[x, y])
    return exe.with_dependences([(x, y)]), x, y


# ----------------------------------------------------------------------
# soundness: the planner agrees with brute-force enumeration
# ----------------------------------------------------------------------
class TestAgreesWithEnumeration:
    def check(self, exe, plan=DEFAULT_PLAN):
        ref = relations_by_enumeration(exe)
        planner = fresh_planner(exe, plan=plan)
        for a in range(len(exe)):
            for b in range(len(exe)):
                if a == b:
                    continue
                for name, v in planner.relation_verdicts(a, b).items():
                    assert not v.is_unknown, "unbudgeted ladder must decide"
                    expected = (a, b) in ref[RelationName[name]]
                    assert v.to_bool() == expected, (
                        f"{name}({a},{b}): planner={v.to_bool()} "
                        f"[{v.provenance}], enumeration={expected}"
                    )

    @given(small_semaphore_executions())
    @settings(max_examples=20, deadline=None)
    def test_semaphore_executions(self, exe):
        self.check(exe)

    @given(small_event_executions())
    @settings(max_examples=20, deadline=None)
    def test_event_executions(self, exe):
        self.check(exe)

    @pytest.mark.parametrize("tier", sorted(set(BACKENDS) - {"engine"}))
    @given(
        exe=st.one_of(
            small_semaphore_executions(),
            small_event_executions(),
            tiny_overlay_executions(),
        ),
        model=st.sampled_from(("sc", "tso")),
    )
    @settings(max_examples=20, deadline=None)
    def test_each_tier_alone_is_sound(self, tier, exe, model):
        """Each tier answers first, with only the engine behind it, so
        no cheaper tier can mask a wrong definite answer."""
        self.check(exe.with_memory_model(model), plan=(tier, "engine"))

    @given(small_semaphore_executions())
    @settings(max_examples=10, deadline=None)
    def test_every_plan_prefix_is_sound(self, exe):
        """Dropping cheap tiers changes cost, never definite answers."""
        ref = relations_by_enumeration(exe)
        planner = fresh_planner(exe, plan=("engine",))
        for a in range(len(exe)):
            for b in range(len(exe)):
                if a != b:
                    for name, v in planner.relation_verdicts(a, b).items():
                        assert v.to_bool() == ((a, b) in ref[RelationName[name]])


class TestWitnessesReplay:
    @given(small_semaphore_executions())
    @settings(max_examples=20, deadline=None)
    def test_existential_witnesses_are_legal_and_exhibit(self, exe):
        planner = fresh_planner(exe)
        for a in range(len(exe)):
            for b in range(len(exe)):
                if a == b:
                    continue
                chb = planner.chb_verdict(a, b)
                if chb.is_true and chb.witness is not None:
                    chb.witness.validate()
                    assert chb.witness.happened_before(a, b)
                ccw = planner.ccw_verdict(a, b)
                if ccw.is_true and ccw.witness is not None:
                    ccw.witness.validate()
                    assert ccw.witness.concurrent(a, b)

    @given(small_semaphore_executions())
    @settings(max_examples=20, deadline=None)
    def test_cached_schedules_replay(self, exe):
        """Nothing illegal ever enters the shared witness cache."""
        planner = fresh_planner(exe)
        for a in range(len(exe)):
            for b in range(len(exe)):
                if a != b:
                    planner.relation_verdicts(a, b)
        for entry in planner.ctx.witnesses.entries_for(
            frozenset(exe.dependences)
        ):
            replay_schedule(exe, entry.witness.points, include_dependences=False)


# ----------------------------------------------------------------------
# cross-query reuse: later queries ride earlier discoveries
# ----------------------------------------------------------------------
class TestWitnessReuse:
    def test_observed_schedule_seeds_the_cache(self):
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe)
        v = planner.chb_verdict(x, y)
        assert v.is_true and v.provenance in ("structural", "observed")
        assert planner.report.engine_states() == 0

    def test_widening_answers_ccw_without_search(self):
        """The adjacent-swap transformation turns the serial observed
        schedule into an overlap witness: decided with zero states."""
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe)
        drop = racing_drop(exe, x, y)
        v = planner.ccw_verdict(x, y, drop=drop)
        assert v.is_true and v.provenance == "witness"
        assert v.witness.concurrent(x, y)
        assert planner.report.engine_states() == 0

    def test_widening_is_validated_not_assumed(self):
        exe, x, y = conflict_execution()
        cache = WitnessCache(exe)
        w = SolveContext(exe).observed_witness()
        assert w is not None
        assert cache.add_witness(w) is not None
        widened = cache.widen_overlap(x, y, frozenset(exe.dependences))
        assert widened is not None
        widened.validate(include_dependences=False)
        assert widened.concurrent(x, y)

    def test_cache_rejects_illegal_schedules(self):
        exe, x, y = conflict_execution()
        cache = WitnessCache(exe)
        w = SolveContext(exe).observed_witness()
        assert cache.add(tuple(reversed(w.points))) is None
        assert cache.rejected == 1

    @staticmethod
    def _count_replays(monkeypatch):
        from repro.solve import witnesses as witnesses_mod

        real, calls = witnesses_mod.replay_schedule, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(witnesses_mod, "replay_schedule", counting)
        return calls

    def test_duplicate_add_returns_its_entry_without_replay(self, monkeypatch):
        exe, x, y = conflict_execution()
        cache = WitnessCache(exe)
        w = SolveContext(exe).observed_witness()
        first = cache.add(w.points)
        replays = self._count_replays(monkeypatch)
        assert cache.add(list(w.points)) is first
        assert replays == []
        assert len(cache) == 1 and cache.version == 1

    def test_evicted_schedule_is_replayed_when_added_again(self, monkeypatch):
        exe, x, y = conflict_execution()
        cache = WitnessCache(exe, capacity=1)
        w = SolveContext(exe).observed_witness()
        first = cache.add(w.points)
        # the widened overlap is a second member of F; it evicts the first
        widened = cache.widen_overlap(x, y, frozenset(exe.dependences))
        assert widened is not None and widened.points != w.points
        assert len(cache) == 1 and cache.version == 2
        replays = self._count_replays(monkeypatch)
        again = cache.add(w.points)
        assert again is not None and again is not first
        assert len(replays) == 1
        assert cache.version == 3
        # ... and the widened schedule, evicted in turn, is replayed too
        assert cache.add(widened.points) is not None
        assert len(replays) == 2

    def test_invalid_schedule_is_rejected_every_time(self):
        exe, x, y = conflict_execution()
        cache = WitnessCache(exe)
        w = SolveContext(exe).observed_witness()
        bad = tuple(reversed(w.points))
        assert cache.add(bad) is None
        assert cache.add(bad) is None  # never indexed as a known entry
        assert cache.rejected == 2
        assert len(cache) == 0 and cache.version == 0

    def test_unknown_is_not_memoized_retry_decides(self):
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe, plan=("engine",))
        drop = racing_drop(exe, x, y)
        first = planner.ccw_verdict(x, y, drop=drop, budget=Budget.of(max_states=1))
        assert first.is_unknown
        second = planner.ccw_verdict(x, y, drop=drop)
        assert second.is_true
        # ...and the definite answer IS memoized: a later budgeted call
        # returns it instead of conceding again
        third = planner.ccw_verdict(x, y, drop=drop, budget=Budget.of(max_states=1))
        assert third.is_true


# ----------------------------------------------------------------------
# drop relaxations (the race detector's query mode)
# ----------------------------------------------------------------------
class TestDropQueries:
    def test_drop_enlarges_f_monotonically(self):
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe)
        base = planner.ccw_verdict(x, y)
        relaxed = planner.ccw_verdict(x, y, drop=racing_drop(exe, x, y))
        # the dependence orders them in every member of F; dropping it
        # frees the overlap
        assert base.is_false
        assert relaxed.is_true

    def test_drop_queries_memoize_separately(self):
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe)
        assert planner.ccw_verdict(x, y, drop=racing_drop(exe, x, y)).is_true
        assert planner.ccw_verdict(x, y).is_false


# ----------------------------------------------------------------------
# plans and accounting
# ----------------------------------------------------------------------
class TestPlans:
    def test_unknown_backend_name_raises(self):
        try:
            resolve_plan(("structural", "nosuch"))
        except ValueError as exc:
            assert "nosuch" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_registry_covers_every_strategy(self):
        assert set(BACKENDS) == {
            "structural", "observed", "witness", "hmw", "engine",
        }
        assert set(DEFAULT_PLAN) == set(BACKENDS)

    def test_named_plans_resolve(self):
        assert len(resolve_plan(DEFAULT_PLAN)) == len(DEFAULT_PLAN)
        plan = ("structural", "observed", "hmw", "engine")
        assert len(resolve_plan(plan)) == len(plan)

    def test_tier_of_maps_exact_to_engine(self):
        assert tier_of("exact") == "engine"
        assert tier_of("structural") == "structural"


class TestFacades:
    def test_conjunction_is_tagged_by_its_costlier_conjunct(self):
        # MHB(3, 1) = not CHB(1, 3) [hmw] and not CCW(3, 1) [exact]: the
        # engine searched, so the verdict must not read "structural"
        exe = random_semaphore_execution(
            processes=3, events_per_process=3, semaphores=2, seed=7
        )
        planner = fresh_planner(exe)
        assert planner.chb_verdict(1, 3).provenance == "hmw"
        assert planner.ccw_verdict(3, 1).provenance == "exact"
        verdict = planner.mhb_verdict(3, 1)
        assert verdict.is_true
        assert verdict.provenance == "exact"

    def test_ccw_is_one_query_per_pair(self):
        exe, x, y = conflict_execution()
        planner = fresh_planner(exe, plan=("engine",))
        assert planner.ccw_verdict(x, y).is_false
        states = planner.ctx.stats.states_visited
        assert states > 0
        # CCW is symmetric: the reversed pair reads the same memo entry
        assert planner.ccw_verdict(y, x).is_false
        assert planner.ctx.stats.states_visited == states


class TestPlannerReport:
    def test_snapshot_merge_round_trip(self):
        r = PlannerReport()
        r.queries = 3
        r.unknown = 1
        r.record_answer("structural")
        r.record_answer("engine", states=40, elapsed=0.5)
        r.record_cost("hmw", elapsed=0.1)
        again = PlannerReport.from_snapshot(r.snapshot())
        assert again.snapshot() == r.snapshot()
        assert again.answered == 2
        assert again.answered_below("engine") == 1
        assert again.engine_states() == 40

    def test_merge_is_associative_accumulation(self):
        a, b = PlannerReport(), PlannerReport()
        a.record_answer("observed", states=1)
        b.record_answer("observed", states=2)
        b.record_answer("engine", states=10)
        total = PlannerReport()
        total.merge(a)
        total.merge(b.snapshot())
        assert total.tiers["observed"].answered == 2
        assert total.tiers["observed"].states == 3
        assert total.engine_states() == 10

    def test_race_scan_emits_report(self):
        exe, _, _ = conflict_execution()
        report = RaceDetector(exe).feasible_races()
        assert report.planner is not None
        assert report.planner.queries > 0
        assert report.planner.answered_below("engine") > 0

    def test_supervised_scan_ships_tier_counts_home(self):
        from repro.supervise import SupervisedScanner

        exe, _, _ = conflict_execution()
        serial = RaceDetector(exe).feasible_races()
        pooled = RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2)
        )
        assert pooled.planner is not None
        assert pooled.planner.answered == serial.planner.answered
        assert pooled.planner.answered_below("engine") > 0


# ----------------------------------------------------------------------
# serialization (satellite: journals record which tier answered)
# ----------------------------------------------------------------------
class TestSerialization:
    def test_planner_report_round_trip(self):
        from repro.model import serialize

        r = PlannerReport()
        r.queries = 2
        r.record_answer("witness")
        r.record_answer("engine", states=7)
        doc = serialize.planner_report_to_dict(r)
        assert doc["format"] == "repro-planner-report"
        assert serialize.planner_report_from_dict(doc).snapshot() == r.snapshot()

    def test_planner_report_rejects_unknown_version(self):
        from repro.model import serialize

        doc = serialize.planner_report_to_dict(PlannerReport())
        doc["version"] = 99
        try:
            serialize.planner_report_from_dict(doc)
        except ValueError as exc:
            assert "version" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_race_report_round_trips_provenance(self):
        from repro.model import serialize

        exe, _, _ = conflict_execution()
        report = RaceDetector(exe).feasible_races()
        loaded = serialize.report_from_dict(serialize.report_to_dict(report))
        assert [c.decided_by for c in loaded.classifications] == [
            c.decided_by for c in report.classifications
        ]
        assert all(c.decided_by is not None for c in loaded.classifications)
        assert loaded.planner is not None
        assert loaded.planner.snapshot() == report.planner.snapshot()

    def test_version1_report_still_loads(self):
        """Old journals (no decided_by, no planner block) stay readable."""
        from repro.model import serialize

        exe, _, _ = conflict_execution()
        doc = serialize.report_to_dict(RaceDetector(exe).feasible_races())
        doc["version"] = 1
        doc["planner"] = None
        for rec in doc["classifications"]:
            del rec["decided_by"]
        loaded = serialize.report_from_dict(doc)
        assert loaded.planner is None
        assert all(c.decided_by is None for c in loaded.classifications)


# ----------------------------------------------------------------------
# the SAT tier's budget awareness (satellite: first-class backend)
# ----------------------------------------------------------------------
class TestSatBudgets:
    HARD = "p cnf 6 8\n" + "".join(
        f"{a} {b} {c} 0\n-{a} -{b} -{c} 0\n"
        for a, b, c in [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)]
    )

    def test_decision_cap_raises_with_resource(self):
        cnf = parse_dimacs(self.HARD).to_3cnf()
        try:
            DPLLSolver(cnf, max_decisions=0).solve()
        except SolveBudgetExceeded as exc:
            assert exc.resource == "decisions"
        else:
            raise AssertionError("expected SolveBudgetExceeded")

    def test_deadline_raises_with_resource(self):
        cnf = parse_dimacs(self.HARD).to_3cnf()
        try:
            DPLLSolver(cnf, deadline=0.0).solve()
        except SolveBudgetExceeded as exc:
            assert exc.resource == "deadline"
        else:
            raise AssertionError("expected SolveBudgetExceeded")

    def test_encoder_clause_cap_raises(self):
        # enough unordered events that the O(n^3) transitivity clauses
        # must blow a one-clause cap during encoding
        b = ExecutionBuilder()
        for p in ("A", "B", "C", "D"):
            b.process(p).skip()
        exe = b.build()
        try:
            OrderSatEncoder(exe, budget=Budget.of(max_states=1))
        except SolveBudgetExceeded as exc:
            assert exc.resource == "clauses"
        else:
            raise AssertionError("expected SolveBudgetExceeded")

    def test_unbudgeted_encoder_still_solves(self):
        exe, x, y = conflict_execution()
        order = OrderSatEncoder(exe).solve()
        assert order is not None
        assert order.index(x) < order.index(y)  # respects the dependence
