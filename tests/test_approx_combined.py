"""Must-complete-before on the best-effort ladder.

The paper's hardness results mean polynomial methods decide only some
orderings.  ``OrderingQueries`` on the plan structural -> observed ->
HMW -> engine answers each query on the cheapest tier that decides it,
says which one in the verdict's provenance, and answers UNKNOWN (never
a guess) when the engine's state budget runs out first.
"""

from hypothesis import given, settings

from repro.core.queries import OrderingQueries
from repro.model.builder import ExecutionBuilder
from repro.reductions import event_reduction
from repro.sat.cnf import CNF

from tests.strategies import medium_semaphore_executions

#: no witness tier: an mcb answer is credited to the tier that found
#: the schedule, not to the cache that kept it
PLAN = ("structural", "observed", "hmw", "engine")


def best_effort(exe, max_states=50_000):
    return OrderingQueries(exe, plan=PLAN, max_states=max_states)


class TestLayerSelection:
    def test_program_order_decided_structurally(self):
        b = ExecutionBuilder()
        p = b.process("p")
        x, y = p.skip(), p.skip()
        best = best_effort(b.build())
        forward = best.mcb_verdict(x, y)
        assert forward.is_true
        assert forward.provenance == "structural"
        backward = best.mcb_verdict(y, x)
        assert backward.is_false
        assert backward.provenance == "structural"

    def test_semaphore_ordering_via_hmw(self):
        b = ExecutionBuilder()
        v = b.process("A").sem_v("s")
        p = b.process("B").sem_p("s")
        verdict = best_effort(b.build()).mcb_verdict(v, p)
        assert verdict.is_true
        assert verdict.provenance == "hmw"

    def test_exact_fallback(self):
        # the deadlock-avoidance ordering HMW cannot see
        b = ExecutionBuilder()
        v1 = b.process("A").sem_v("s")
        proc_b = b.process("B")
        p1, v2 = proc_b.sem_p("s"), proc_b.sem_v("s")
        p2 = b.process("C").sem_p("s")
        verdict = best_effort(b.build()).mcb_verdict(p1, p2)
        assert verdict.is_true
        assert verdict.provenance == "exact"

    def test_unknown_under_tiny_budget(self):
        # event style: HMW is out of scope, so the marker pair needs
        # real search, and budget 3 cannot decide it
        red = event_reduction(CNF([(1, 1, 1), (-1, -1, -1)]))
        verdict = best_effort(red.execution, max_states=3).mcb_verdict(red.a, red.b)
        assert verdict.is_unknown
        assert verdict.resource == "states"

    def test_self_pair(self):
        b = ExecutionBuilder()
        x = b.process("p").skip()
        verdict = best_effort(b.build()).mcb_verdict(x, x)
        assert verdict.is_false
        assert verdict.provenance == "trivial"


class TestSoundness:
    @given(medium_semaphore_executions())
    @settings(max_examples=15, deadline=None)
    def test_never_wrong_when_decided(self, exe):
        best = best_effort(exe)
        exact = OrderingQueries(exe)
        n = len(exe)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                verdict = best.mcb_verdict(a, b)
                if not verdict.is_unknown:
                    assert verdict.is_true == exact.mcb(a, b), (a, b)

    def test_provenance_counts(self):
        b = ExecutionBuilder()
        b.process("A").sem_v("s")
        b.process("B").sem_p("s")
        b.process("C").skip()
        exe = b.build()
        best = best_effort(exe)
        layers = {}
        pairs = [(x, y) for x in range(len(exe)) for y in range(len(exe)) if x != y]
        for x, y in pairs:
            verdict = best.mcb_verdict(x, y)
            assert not verdict.is_unknown, (x, y)
            layers[verdict.provenance] = layers.get(verdict.provenance, 0) + 1
        assert sum(layers.values()) == len(pairs)
        assert layers.get("hmw", 0) >= 1
        assert layers.get("exact", 0) >= 1

    def test_event_style_skips_hmw(self):
        b = ExecutionBuilder()
        post = b.process("A").post("v")
        wait = b.process("B").wait("v")
        best = best_effort(b.build())
        assert best.ctx.hmw_relation() is None
        verdict = best.mcb_verdict(post, wait)
        assert verdict.is_true  # exact layer handles it
        assert verdict.provenance == "exact"
