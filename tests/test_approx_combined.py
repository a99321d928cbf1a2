"""Tests for the layered best-effort analyzer."""

from hypothesis import given, settings

from repro.approx.combined import BestEffortOrdering
from repro.core.queries import OrderingQueries
from repro.model.builder import ExecutionBuilder
from repro.reductions import event_reduction
from repro.sat.cnf import CNF

from tests.strategies import medium_semaphore_executions


class TestLayerSelection:
    def test_program_order_decided_structurally(self):
        b = ExecutionBuilder()
        p = b.process("p")
        x, y = p.skip(), p.skip()
        best = BestEffortOrdering(b.build())
        assert best.mcb(x, y) is True
        assert best.decided_by[(x, y)] == "structural"
        assert best.mcb(y, x) is False
        assert best.decided_by[(y, x)] == "structural"

    def test_semaphore_ordering_via_hmw(self):
        b = ExecutionBuilder()
        v = b.process("A").sem_v("s")
        p = b.process("B").sem_p("s")
        best = BestEffortOrdering(b.build())
        assert best.mcb(v, p) is True
        assert best.decided_by[(v, p)] == "hmw"

    def test_exact_fallback(self):
        # the deadlock-avoidance ordering HMW cannot see
        b = ExecutionBuilder()
        v1 = b.process("A").sem_v("s")
        proc_b = b.process("B")
        p1, v2 = proc_b.sem_p("s"), proc_b.sem_v("s")
        p2 = b.process("C").sem_p("s")
        best = BestEffortOrdering(b.build())
        assert best.mcb(p1, p2) is True
        assert best.decided_by[(p1, p2)] == "exact"

    def test_unknown_under_tiny_budget(self):
        # event style: HMW is out of scope, so the marker pair needs
        # real search, and budget 3 cannot decide it
        red = event_reduction(CNF([(1, 1, 1), (-1, -1, -1)]))
        best = BestEffortOrdering(red.execution, max_states=3)
        assert best.mcb(red.a, red.b) is None
        assert best.decided_by[(red.a, red.b)] == "unknown"

    def test_self_pair(self):
        b = ExecutionBuilder()
        x = b.process("p").skip()
        assert BestEffortOrdering(b.build()).mcb(x, x) is False


class TestSoundness:
    @given(medium_semaphore_executions())
    @settings(max_examples=15, deadline=None)
    def test_never_wrong_when_decided(self, exe):
        best = BestEffortOrdering(exe)
        exact = OrderingQueries(exe)
        n = len(exe)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                answer = best.mcb(a, b)
                if answer is not None:
                    assert answer == exact.mcb(a, b), (a, b)

    def test_provenance_counts(self):
        b = ExecutionBuilder()
        v = b.process("A").sem_v("s")
        p = b.process("B").sem_p("s")
        b.process("C").skip()
        out = BestEffortOrdering(b.build()).relation_with_provenance()
        assert sum(out["layers"].values()) == len(out["relation"])
        assert out["layers"].get("hmw", 0) >= 1
        assert out["layers"].get("exact", 0) >= 1

    def test_event_style_skips_hmw(self):
        b = ExecutionBuilder()
        post = b.process("A").post("v")
        wait = b.process("B").wait("v")
        best = BestEffortOrdering(b.build())
        assert best.queries.ctx.hmw_relation() is None
        assert best.mcb(post, wait) is True  # exact layer handles it
        assert best.decided_by[(post, wait)] == "exact"
