"""Unit tests for the six relation queries (Table 1 semantics)."""

import pytest

from repro.core.queries import OrderingQueries
from repro.model.builder import ExecutionBuilder


class TestVPSemantics:
    """The canonical V/P pair on a zero semaphore (paper's interval T)."""

    def test_v_could_precede_p(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        assert q.chb(v, p)

    def test_p_never_precedes_v(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        assert not q.chb(p, v)

    def test_blocked_p_overlaps_v(self, vp_execution):
        """A P issued before the V completes has *begun*: the two
        operations can run concurrently (interval semantics)."""
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        assert q.ccw(v, p)

    def test_hence_no_must_happened_before(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        assert not q.mhb(v, p)
        assert not q.mhb(p, v)

    def test_but_v_must_complete_before_p(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        assert q.mcb(v, p)
        assert not q.mcb(p, v)
        assert q.ccb(v, p)
        assert not q.ccb(p, v)


class TestIndependentPair:
    def test_fully_unordered(self, independent_pair):
        exe, x, y = independent_pair
        q = OrderingQueries(exe)
        assert q.chb(x, y) and q.chb(y, x)
        assert q.ccw(x, y)
        assert q.cow(x, y)
        assert not q.mhb(x, y) and not q.mhb(y, x)
        assert not q.mcw(x, y)
        assert not q.mow(x, y)


class TestProgramOrder:
    def test_same_process_must_order(self):
        b = ExecutionBuilder()
        proc = b.process("p")
        x, y = proc.skip(), proc.skip()
        q = OrderingQueries(b.build())
        assert q.mhb(x, y)
        assert not q.chb(y, x)
        assert not q.ccw(x, y)
        assert q.mow(x, y)
        assert q.cow(x, y)


class TestEmptyFeasibleSet:
    """Universal relations hold vacuously; existentials are false."""

    def test_vacuous_semantics(self, deadlocked_execution):
        exe, x, y = deadlocked_execution
        q = OrderingQueries(exe)
        assert not q.has_feasible_execution()
        assert q.mhb(x, y) and q.mhb(y, x)
        assert q.mcw(x, y) and q.mow(x, y)
        assert not q.chb(x, y) and not q.ccw(x, y) and not q.cow(x, y)
        assert q.mcb(x, y) and not q.ccb(x, y)


class TestSelfPairs:
    def test_degenerate_self_semantics(self, independent_pair):
        exe, x, _ = independent_pair
        q = OrderingQueries(exe)
        assert not q.chb(x, x)
        assert not q.mhb(x, x)
        assert q.ccw(x, x)  # an event overlaps itself
        assert q.mcw(x, x)
        assert not q.cow(x, x)
        assert not q.mow(x, x)


class TestForkJoinOrderings:
    def test_fork_before_children_before_join(self, fork_join_execution):
        exe, f, c1, c2, j = fork_join_execution
        q = OrderingQueries(exe)
        # children begin only after the fork completes: interval ordering
        assert q.mhb(f.eid, c1) and q.mhb(f.eid, c2)
        # the join's *completion* waits for the children...
        assert q.mcb(c1, j) and q.mcb(c2, j)
        assert not q.chb(j, c1)
        # ... but the join can begin (blocked) while a child still runs,
        # so it is not must-happened-before in the interval sense
        assert not q.mhb(c1, j)
        assert q.ccw(c1, j)
        # the join is po-after the fork: genuine interval ordering
        assert q.mhb(f.eid, j)

    def test_siblings_unordered(self, fork_join_execution):
        exe, f, c1, c2, j = fork_join_execution
        q = OrderingQueries(exe)
        assert q.ccw(c1, c2)
        assert q.chb(c1, c2) and q.chb(c2, c1)
        assert not q.mow(c1, c2)


class TestDependenceOrderings:
    def build(self, include):
        b = ExecutionBuilder()
        w = b.process("writer").write("x")
        r = b.process("reader").read("x")
        b.dependence(w, r)
        return OrderingQueries(b.build(), include_dependences=include), w, r

    def test_dependence_forces_order(self):
        q, w, r = self.build(True)
        assert q.mhb(w, r)
        assert not q.ccw(w, r)

    def test_ignoring_dependences_releases_order(self):
        q, w, r = self.build(False)
        assert not q.mhb(w, r)
        assert q.ccw(w, r)
        assert q.chb(r, w)


class TestExplanations:
    def test_why_not_mhb_gives_counterexample(self, independent_pair):
        exe, x, y = independent_pair
        q = OrderingQueries(exe)
        w = q.why_not_mhb(x, y)
        assert w is not None
        assert w.happened_before(y, x) or w.concurrent(x, y)

    def test_why_not_mhb_none_when_mhb_holds(self):
        b = ExecutionBuilder()
        proc = b.process("p")
        x, y = proc.skip(), proc.skip()
        q = OrderingQueries(b.build())
        assert q.mhb(x, y)
        assert q.why_not_mhb(x, y) is None

    def test_relation_values_consistent(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        vals = q.relation_values(v, p)
        assert vals == {
            "MHB": False, "CHB": True, "MCW": False,
            "CCW": True, "MOW": False, "COW": True,
        }


class TestWitnesses:
    def test_chb_witness_exhibits_ordering(self, independent_pair):
        exe, x, y = independent_pair
        q = OrderingQueries(exe)
        w = q.chb_witness(y, x)
        assert w is not None and w.happened_before(y, x)
        w.validate()

    def test_ccw_witness_exhibits_overlap(self, vp_execution):
        exe, v, p = vp_execution
        q = OrderingQueries(exe)
        w = q.ccw_witness(v, p)
        assert w is not None and w.concurrent(v, p)
        w.validate()

    def test_statically_ordered_pairs_short_circuit(self):
        b = ExecutionBuilder()
        proc = b.process("p")
        x, y = proc.skip(), proc.skip()
        q = OrderingQueries(b.build())
        assert q.statically_ordered(x, y)
        assert not q.statically_ordered(y, x)
        assert q.feasible_witness() is not None
        states = q.stats.states_visited
        # answered by structure alone: no search, yet a witness schedule
        w = q.chb_witness(x, y)
        assert q.stats.states_visited == states
        assert q.chb_verdict(x, y).provenance == "structural"
        assert w is not None and w.happened_before(x, y)
        w.validate()
