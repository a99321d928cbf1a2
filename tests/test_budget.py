"""Units for the resource-governance layer (repro.budget + engine)."""

import time

import pytest

from repro.budget import DEADLINE, STATES, Budget, Truth, Verdict
from repro.core.engine import (
    TERMINATED_COMPLETE,
    TERMINATED_DEADLINE,
    TERMINATED_STATES,
    SearchBudgetExceeded,
    SearchStats,
)
from repro.core.queries import OrderingQueries
from repro.reductions import semaphore_reduction
from repro.sat.cnf import CNF

UNSAT_FORMULA = CNF([(1, 1, 1), (-1, -1, -1)])


class TestTruth:
    def test_of_bool(self):
        assert Truth.of(True) is Truth.TRUE
        assert Truth.of(False) is Truth.FALSE

    def test_negate(self):
        assert Truth.TRUE.negate() is Truth.FALSE
        assert Truth.FALSE.negate() is Truth.TRUE
        assert Truth.UNKNOWN.negate() is Truth.UNKNOWN

    def test_is_known(self):
        assert Truth.TRUE.is_known and Truth.FALSE.is_known
        assert not Truth.UNKNOWN.is_known

    def test_str(self):
        assert str(Truth.UNKNOWN) == "UNKNOWN"


class TestBudget:
    def test_unlimited(self):
        assert Budget().unlimited()
        assert not Budget(max_states=10).unlimited()
        assert not Budget.of(timeout=10.0).unlimited()

    def test_of_builds_absolute_deadline(self):
        before = time.monotonic()
        b = Budget.of(timeout=100.0)
        assert b.deadline is not None
        assert b.deadline >= before + 99.0
        assert not b.expired()
        assert 0.0 < b.remaining_seconds() <= 100.0

    def test_expired(self):
        assert Budget.of(timeout=0.0).expired()
        assert not Budget(max_states=3).expired()
        assert Budget(max_states=3).remaining_seconds() is None

    def test_per_query_shares_deadline(self):
        parent = Budget.of(max_states=100, timeout=50.0)
        child = parent.per_query(max_states=7)
        assert child.max_states == 7
        assert child.deadline == parent.deadline

    def test_per_query_tightens_deadline(self):
        parent = Budget.of(timeout=1000.0)
        child = parent.per_query(timeout=0.5)
        assert child.deadline < parent.deadline
        # a tighter parent is never loosened by a longer per-query timeout
        tight = Budget.of(timeout=0.0)
        assert tight.per_query(timeout=1000.0).deadline == tight.deadline

    def test_describe(self):
        assert Budget().describe() == "unlimited"
        assert "max_states=5" in Budget(max_states=5).describe()
        assert "deadline" in Budget.of(timeout=5.0).describe()


class TestVerdict:
    def test_constructors_and_predicates(self):
        assert Verdict.true().is_true
        assert Verdict.false().is_false
        assert Verdict.unknown(resource=STATES).is_unknown
        assert Verdict.of_bool(True).truth is Truth.TRUE

    def test_negate_keeps_unknown(self):
        assert Verdict.true().negate().is_false
        assert Verdict.unknown().negate().is_unknown

    def test_to_bool_raises_on_unknown(self):
        assert Verdict.true().to_bool() is True
        with pytest.raises(ValueError):
            Verdict.unknown(resource=DEADLINE).to_bool()

    def test_truthiness_is_forbidden(self):
        with pytest.raises(TypeError):
            bool(Verdict.true())

    def test_describe(self):
        assert "UNKNOWN" in Verdict.unknown(resource=STATES).describe()
        assert "structural" in Verdict.true("structural").describe()


class TestEngineBudgets:
    def _queries(self, budget):
        red = semaphore_reduction(UNSAT_FORMULA)
        return red, OrderingQueries(red.execution, budget=budget)

    def test_states_exhaustion_records_termination(self):
        red, q = self._queries(Budget(max_states=5))
        with pytest.raises(SearchBudgetExceeded) as exc:
            q.mhb(red.a, red.b)
        assert exc.value.resource == STATES
        assert q.stats.termination == TERMINATED_STATES

    def test_expired_deadline_aborts_before_searching(self):
        red, q = self._queries(Budget.of(timeout=0.0))
        with pytest.raises(SearchBudgetExceeded) as exc:
            q.has_feasible_execution()
        assert exc.value.resource == DEADLINE
        assert q.stats.termination == TERMINATED_DEADLINE
        assert q.stats.states_visited == 0

    def test_deadline_checked_amortized_mid_search(self):
        # a deadline that expires during the search: make the clock
        # check fire on every state so the abort is prompt
        red = semaphore_reduction(UNSAT_FORMULA)
        budget = Budget(
            deadline=time.monotonic() + 0.005, check_interval=1
        )
        with pytest.raises(SearchBudgetExceeded) as exc:
            while True:  # burn until the 5ms deadline lapses
                # a fresh object each round: a decided verdict is
                # memoized, so only a new one searches again
                q = OrderingQueries(red.execution, budget=budget)
                q.chb(red.b, red.a)
        assert exc.value.resource == DEADLINE
        assert q.stats.termination == TERMINATED_DEADLINE

    @pytest.mark.parametrize(
        "budget, resource",
        [(Budget(max_states=1), STATES), (Budget.of(timeout=0.0), DEADLINE)],
    )
    def test_witness_helpers_raise_when_the_ladder_concedes(self, budget, resource):
        # None would claim "no such schedule" (or "MHB holds"); under a
        # blown budget that is a guess, so each helper must raise
        red, q = self._queries(budget)
        for call in (
            q.feasible_witness,
            lambda: q.chb_witness(red.b, red.a),
            lambda: q.ccw_witness(red.a, red.b),
            lambda: q.why_not_mhb(red.a, red.b),
        ):
            with pytest.raises(SearchBudgetExceeded) as exc:
                call()
            assert exc.value.resource == resource

    def test_plan_without_engine_names_no_spent_resource(self):
        red = semaphore_reduction(UNSAT_FORMULA)
        q = OrderingQueries(red.execution, plan=("structural",))
        with pytest.raises(SearchBudgetExceeded, match="no tier of the plan") as exc:
            q.mhb(red.a, red.b)
        assert exc.value.resource is None

    def test_memo_cap_degrades_but_stays_exact(self):
        red = semaphore_reduction(UNSAT_FORMULA)
        capped = OrderingQueries(
            red.execution, budget=Budget(max_memo_entries=0)
        )
        exact = OrderingQueries(red.execution)
        assert capped.mhb(red.a, red.b) == exact.mhb(red.a, red.b) is True
        assert capped.stats.memo_suppressed > 0
        assert capped.stats.termination == TERMINATED_COMPLETE

    def test_completed_search_records_elapsed(self):
        red, q = self._queries(None)
        assert q.mhb(red.a, red.b) is True
        assert q.stats.termination == TERMINATED_COMPLETE
        assert q.stats.elapsed >= 0.0
        assert q.stats.found or q.stats.states_visited > 0

    def test_stats_merge_adopts_failure_termination(self):
        a = SearchStats()
        b = SearchStats(termination=TERMINATED_DEADLINE, memo_suppressed=3)
        a.merge(b)
        assert a.termination == TERMINATED_DEADLINE
        assert a.memo_suppressed == 3
