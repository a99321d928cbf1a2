"""Unit + property tests for the feasibility engine."""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budget import Budget
from repro.core.engine import (
    TERMINATED_COMPLETE,
    TERMINATED_DEADLINE,
    TERMINATED_STATES,
    FeasibilityEngine,
    Point,
    SearchBudgetExceeded,
    SearchStats,
    begin_point,
    end_point,
)
from repro.core.witness import replay_schedule
from repro.model.builder import ExecutionBuilder
from repro.workloads.generators import (
    random_event_execution,
    random_semaphore_execution,
)

from tests.strategies import medium_semaphore_executions, small_event_executions


class TestBasicSearch:
    def test_single_event(self):
        b = ExecutionBuilder()
        b.process("p").skip()
        pts = FeasibilityEngine(b.build()).search()
        assert pts == [Point(0, False), Point(0, True)]

    def test_program_order_respected(self):
        b = ExecutionBuilder()
        p = b.process("p")
        p.skip(), p.skip()
        pts = FeasibilityEngine(b.build()).search()
        assert pts.index(Point(0, True)) < pts.index(Point(1, False))

    def test_deadlock_returns_none(self):
        b = ExecutionBuilder()
        b.process("p").sem_p("nothing")
        assert FeasibilityEngine(b.build()).search() is None

    def test_cross_deadlock_returns_none(self):
        # each process waits on a variable only the other would post later
        b = ExecutionBuilder()
        p1, p2 = b.process("p1"), b.process("p2")
        p1.wait("v1"), p1.post("v2")
        p2.wait("v2"), p2.post("v1")
        assert FeasibilityEngine(b.build()).search() is None

    def test_semaphore_ordering_enforced(self):
        b = ExecutionBuilder()
        v = b.process("p1").sem_v("s")
        p = b.process("p2").sem_p("s")
        pts = FeasibilityEngine(b.build()).search()
        assert pts.index(Point(v, True)) < pts.index(Point(p, True))

    def test_fork_join_ordering(self):
        b = ExecutionBuilder()
        main = b.process("main")
        f = main.fork()
        c = b.process("c", parent=f).skip()
        j = main.join(f)
        pts = FeasibilityEngine(b.build()).search()
        assert pts.index(Point(f.eid, True)) < pts.index(Point(c, False))
        assert pts.index(Point(c, True)) < pts.index(Point(j, True))

    def test_dependence_ordering(self):
        b = ExecutionBuilder()
        w = b.process("p1").write("x")
        r = b.process("p2").read("x")
        b.dependence(w, r)
        pts = FeasibilityEngine(b.build()).search()
        assert pts.index(Point(w, True)) < pts.index(Point(r, False))

    def test_dependences_can_be_ignored(self):
        b = ExecutionBuilder()
        w = b.process("p1").write("x")
        r = b.process("p2").read("x")
        b.dependence(w, r)
        exe = b.build()
        # with D: r cannot precede w
        with_d = FeasibilityEngine(exe).search(
            constraints=[(end_point(r), begin_point(w))]
        )
        assert with_d is None
        # ignoring D (Section 5.3): it can
        without_d = FeasibilityEngine(exe, include_dependences=False).search(
            constraints=[(end_point(r), begin_point(w))]
        )
        assert without_d is not None


class TestConstraints:
    def test_unsatisfiable_self_constraint(self):
        b = ExecutionBuilder()
        x = b.process("p").skip()
        pts = FeasibilityEngine(b.build()).search(
            constraints=[(end_point(x), begin_point(x))]
        )
        assert pts is None

    def test_ordering_constraint_respected(self):
        b = ExecutionBuilder()
        x = b.process("A").skip()
        y = b.process("B").skip()
        pts = FeasibilityEngine(b.build()).search(
            constraints=[(end_point(y), begin_point(x))]
        )
        assert pts.index(Point(y, True)) < pts.index(Point(x, False))

    def test_conflicting_constraints_unsat(self):
        b = ExecutionBuilder()
        x = b.process("A").skip()
        y = b.process("B").skip()
        pts = FeasibilityEngine(b.build()).search(
            constraints=[
                (end_point(y), begin_point(x)),
                (end_point(x), begin_point(y)),
            ]
        )
        assert pts is None

    def test_overlap_constraints_with_intervals(self):
        b = ExecutionBuilder()
        x = b.process("A").skip()
        y = b.process("B").skip()
        pts = FeasibilityEngine(b.build()).search(
            interval_events=(x, y),
            constraints=[
                (begin_point(x), end_point(y)),
                (begin_point(y), end_point(x)),
            ],
        )
        pos = {p: i for i, p in enumerate(pts)}
        assert pos[Point(x, False)] < pos[Point(y, True)]
        assert pos[Point(y, False)] < pos[Point(x, True)]

    def test_end_end_constraint(self):
        b = ExecutionBuilder()
        x = b.process("A").skip()
        y = b.process("B").skip()
        pts = FeasibilityEngine(b.build()).search(
            constraints=[(end_point(y), end_point(x))]
        )
        assert pts.index(Point(y, True)) < pts.index(Point(x, True))


@pytest.fixture(scope="module")
def long_chain():
    b = ExecutionBuilder()
    p = b.process("p")
    for _ in range(2000):
        p.skip()
    return b.build()


class TestDeepSearch:
    @pytest.mark.parametrize("por", ["sleep", "off"])
    def test_long_chain_needs_no_recursion_limit(self, monkeypatch, long_chain, por):
        # the search keeps its own stack: a depth far past the default
        # recursion limit must not touch the interpreter's
        def refuse(limit):
            raise AssertionError(f"search changed the recursion limit to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        stats = SearchStats()
        pts = FeasibilityEngine(long_chain, por=por).search(stats=stats)
        assert pts == [Point(e, end) for e in range(2000) for end in (False, True)]
        assert stats.states_visited == 2001


class TestBudgetAndStats:
    def test_budget_exceeded_raises(self):
        exe = random_semaphore_execution(processes=3, events_per_process=4, seed=1)
        with pytest.raises(SearchBudgetExceeded):
            FeasibilityEngine(exe).search(max_states=1)

    def test_stats_populated(self):
        exe = random_semaphore_execution(seed=2)
        stats = SearchStats()
        FeasibilityEngine(exe).search(stats=stats)
        assert stats.states_visited > 0
        assert stats.found

    def test_stats_merge(self):
        a = SearchStats(states_visited=1, actions_tried=2, memo_hits=3, dead_ends=4, hoisted=5)
        b = SearchStats(states_visited=10, actions_tried=20, memo_hits=30, dead_ends=40, hoisted=50)
        a.merge(b)
        assert (a.states_visited, a.actions_tried, a.memo_hits, a.dead_ends, a.hoisted) == (
            11, 22, 33, 44, 55,
        )

    def test_stats_merge_is_commutative(self):
        # jobs=N reports merge in worker arrival order; the result must
        # not depend on it -- field for field
        a = SearchStats(
            states_visited=1, actions_tried=2, memo_hits=3, dead_ends=4,
            hoisted=5, memo_suppressed=6, found=True,
            termination=TERMINATED_STATES, elapsed=0.5,
        )
        b = SearchStats(
            states_visited=10, actions_tried=20, memo_hits=30, dead_ends=40,
            hoisted=50, memo_suppressed=60, found=False,
            termination=TERMINATED_DEADLINE, elapsed=0.25,
        )
        ab = dataclasses.replace(a)
        ab.merge(dataclasses.replace(b))
        ba = dataclasses.replace(b)
        ba.merge(dataclasses.replace(a))
        assert dataclasses.asdict(ab) == dataclasses.asdict(ba)
        # found OR-merges; termination takes the worst abort
        assert ab.found is True
        assert ab.termination == TERMINATED_DEADLINE

    def test_stats_merge_termination_precedence(self):
        # deadline > states > completed, in any merge order
        import itertools

        kinds = (TERMINATED_COMPLETE, TERMINATED_STATES, TERMINATED_DEADLINE)
        for perm in itertools.permutations(kinds):
            acc = SearchStats(termination=perm[0])
            for t in perm[1:]:
                acc.merge(SearchStats(termination=t))
            assert acc.termination == TERMINATED_DEADLINE
        acc = SearchStats(termination=TERMINATED_STATES)
        acc.merge(SearchStats(termination=TERMINATED_COMPLETE))
        assert acc.termination == TERMINATED_STATES

    def test_on_progress_fires_at_least_once(self):
        # searches shorter than one check_interval must still tick
        b = ExecutionBuilder()
        b.process("p").skip()
        ticks = []
        FeasibilityEngine(b.build()).search(
            budget=Budget.of(check_interval=10_000),
            on_progress=lambda stats: ticks.append(stats.states_visited),
        )
        assert len(ticks) == 1 and ticks[0] >= 1

    def test_on_progress_fires_on_failed_and_aborted_searches(self):
        b = ExecutionBuilder()
        b.process("p").sem_p("nothing")  # deadlocks: search returns None
        ticks = []
        FeasibilityEngine(b.build()).search(on_progress=ticks.append)
        assert len(ticks) >= 1
        exe = random_semaphore_execution(processes=3, events_per_process=4, seed=1)
        ticks = []
        with pytest.raises(SearchBudgetExceeded):
            FeasibilityEngine(exe).search(
                max_states=1, on_progress=ticks.append
            )
        assert len(ticks) >= 1  # budget aborts tick on the way out

    def test_memoization_can_be_disabled(self):
        exe = random_semaphore_execution(processes=2, events_per_process=3, seed=3)
        on, off = SearchStats(), SearchStats()
        eng = FeasibilityEngine(exe)
        assert (eng.search(stats=on) is None) == (eng.search(stats=off, memoize=False) is None)


class TestBinarySemaphores:
    def test_clamped_v_loses_token(self):
        # V V P P on a binary semaphore: consecutive Vs clamp, so both
        # Ps can only complete when consumption interleaves -- and the
        # engine must find that interleaving
        b = ExecutionBuilder()
        p1 = b.process("p1")
        p1.sem_v("s"), p1.sem_v("s")
        p2 = b.process("p2")
        p2.sem_p("s"), p2.sem_p("s")
        exe = b.build()
        assert FeasibilityEngine(exe, binary_semaphores=True).search() is not None

    def test_forced_clamp_deadlocks(self):
        # program order forces both Vs before the P: second V is lost
        b = ExecutionBuilder()
        p1 = b.process("p1")
        v1, v2 = p1.sem_v("s"), p1.sem_v("s")
        p2 = b.process("p2")
        pa = p2.sem_p("s")
        pb = p2.sem_p("s")
        exe = b.build()
        # force v2 to complete before pa begins
        pts = FeasibilityEngine(exe, binary_semaphores=True).search(
            constraints=[(end_point(v2), begin_point(pa))]
        )
        assert pts is None
        # counting mode has no trouble
        assert (
            FeasibilityEngine(exe, binary_semaphores=False).search(
                constraints=[(end_point(v2), begin_point(pa))]
            )
            is not None
        )


class TestPartialOrderReductionModes:
    def test_unknown_mode_rejected(self):
        b = ExecutionBuilder()
        b.process("p").skip()
        with pytest.raises(ValueError):
            FeasibilityEngine(b.build(), por="persistent")

    @pytest.mark.parametrize("por", ["sleep", "hoist", "off"])
    def test_verdicts_and_witnesses_agree(self, por):
        for seed in range(6):
            exe = random_semaphore_execution(
                processes=3, events_per_process=3, seed=seed
            )
            pts = FeasibilityEngine(exe, por=por).search()
            assert pts is not None
            replay_schedule(exe, pts)  # any returned path must be legal

    def test_sleep_never_beats_off_on_exhaustive_search(self):
        # force an exhaustive (infeasible) search: chain every event
        # through semaphores, then ask for the reverse order
        b = ExecutionBuilder()
        v = b.process("p1").sem_v("s")
        p = b.process("p2").sem_p("s")
        others = [b.process(f"q{k}").skip() for k in range(3)]
        exe = b.build()
        cons = [(end_point(p), begin_point(v))]  # contradicts the P/V order
        visits = {}
        for por in ("sleep", "hoist", "off"):
            stats = SearchStats()
            assert (
                FeasibilityEngine(exe, por=por).search(
                    constraints=cons, stats=stats
                )
                is None
            )
            visits[por] = stats.states_visited
        assert visits["sleep"] <= visits["off"]
        assert visits["hoist"] <= visits["off"]


class TestWitnessReplay:
    @given(medium_semaphore_executions())
    @settings(max_examples=40, deadline=None)
    def test_semaphore_witnesses_replay(self, exe):
        pts = FeasibilityEngine(exe).search()
        assert pts is not None  # generated executions are feasible
        replay_schedule(exe, pts)  # raises on any violation

    @given(small_event_executions())
    @settings(max_examples=40, deadline=None)
    def test_event_witnesses_replay(self, exe):
        pts = FeasibilityEngine(exe).search()
        assert pts is not None
        replay_schedule(exe, pts)

    def test_observed_schedule_replays(self):
        # generated executions carry their generating schedule; replaying
        # it through the reference semantics must succeed
        for seed in range(5):
            exe = random_event_execution(seed=seed)
            points = []
            for eid in exe.observed_schedule:
                points.append(Point(eid, False))
                points.append(Point(eid, True))
            replay_schedule(exe, points)
