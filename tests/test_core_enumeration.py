"""The engine against definition-level enumeration (ground truth).

These are the most important tests in the suite: every Table 1
relation computed by the targeted search engine must coincide with the
relation read directly off the explicitly enumerated feasible set.
"""

from hypothesis import given, settings

from repro.core.enumerate import (
    enumerate_point_schedules,
    enumerate_serial_schedules,
    relations_by_enumeration,
)
from repro.core.relations import ALL_RELATIONS, OrderingAnalyzer, RelationName
from repro.core.witness import replay_schedule
from repro.model.builder import ExecutionBuilder

from tests.strategies import (
    small_event_executions,
    small_semaphore_executions,
    tiny_overlay_executions,
)


class TestEnumerationBasics:
    def test_two_independent_events(self):
        b = ExecutionBuilder()
        b.process("A").skip()
        b.process("B").skip()
        exe = b.build()
        serial = list(enumerate_serial_schedules(exe))
        assert sorted(serial) == [(0, 1), (1, 0)]
        # point schedules: all interleavings of B0 E0 B1 E1 with B<E
        points = list(enumerate_point_schedules(exe))
        assert len(points) == 6  # 4!/(2!2!) = 6 interleavings

    def test_program_order_restricts(self):
        b = ExecutionBuilder()
        p = b.process("p")
        p.skip(), p.skip()
        exe = b.build()
        assert list(enumerate_serial_schedules(exe)) == [(0, 1)]
        assert len(list(enumerate_point_schedules(exe))) == 1

    def test_semaphore_restricts(self):
        b = ExecutionBuilder()
        v = b.process("p1").sem_v("s")
        p = b.process("p2").sem_p("s")
        exe = b.build()
        serial = list(enumerate_serial_schedules(exe))
        assert serial == [(v, p)]
        # point schedules allow the P to *begin* first
        assert len(list(enumerate_point_schedules(exe))) > 1

    def test_deadlocked_set_has_no_schedules(self):
        b = ExecutionBuilder()
        b.process("p").sem_p("never")
        exe = b.build()
        assert list(enumerate_serial_schedules(exe)) == []
        assert list(enumerate_point_schedules(exe)) == []

    def test_limit_caps_output(self):
        b = ExecutionBuilder()
        for name in "ABC":
            b.process(name).skip()
        exe = b.build()
        assert len(list(enumerate_serial_schedules(exe, limit=2))) == 2

    def test_every_point_schedule_replays(self):
        b = ExecutionBuilder()
        v = b.process("p1").sem_v("s")
        b.process("p2").sem_p("s")
        exe = b.build()
        for sched in enumerate_point_schedules(exe):
            replay_schedule(exe, sched)


class TestVacuousRelations:
    def test_empty_feasible_set_semantics(self):
        b = ExecutionBuilder()
        b.process("p").sem_p("never")
        b.process("q").skip()
        exe = b.build()
        rels = relations_by_enumeration(exe)
        n_pairs = len(exe) * (len(exe) - 1)
        assert len(rels[RelationName.MHB]) == n_pairs
        assert len(rels[RelationName.MCW]) == n_pairs
        assert len(rels[RelationName.MOW]) == n_pairs
        assert len(rels[RelationName.CHB]) == 0
        assert len(rels[RelationName.CCW]) == 0
        assert len(rels[RelationName.COW]) == 0


class TestEngineMatchesEnumeration:
    @given(small_semaphore_executions())
    @settings(max_examples=20, deadline=None)
    def test_semaphore_executions(self, exe):
        ref = relations_by_enumeration(exe)
        ana = OrderingAnalyzer(exe)
        for name in ALL_RELATIONS:
            assert ana.relation(name) == ref[name], name

    @given(small_event_executions())
    @settings(max_examples=15, deadline=None)
    def test_event_executions(self, exe):
        ref = relations_by_enumeration(exe)
        ana = OrderingAnalyzer(exe)
        for name in ALL_RELATIONS:
            assert ana.relation(name) == ref[name], name

    @given(tiny_overlay_executions())
    @settings(max_examples=15, deadline=None)
    def test_overlay_executions_under_each_memory_model(self, exe):
        # the whole default ladder (structural, observed, witness, hmw
        # under SC only, engine) against F enumerated under each model;
        # every TRUE existential and every refuted MHB shows its schedule
        for model in ("sc", "tso"):
            m_exe = exe.with_memory_model(model)
            ref = relations_by_enumeration(m_exe)
            ana = OrderingAnalyzer(m_exe)
            for name in ALL_RELATIONS:
                assert ana.relation(name) == ref[name], (model, name)
            q = ana.queries
            for a in m_exe.eids:
                for b in m_exe.eids:
                    if a == b:
                        continue
                    if q.chb(a, b):
                        w = q.chb_witness(a, b)
                        assert w.happened_before(a, b), (model, a, b)
                        w.validate()
                    if q.ccw(a, b):
                        w = q.ccw_witness(a, b)
                        assert w.concurrent(a, b), (model, a, b)
                        w.validate()
                    if not q.mhb(a, b):
                        w = q.why_not_mhb(a, b)
                        assert not w.happened_before(a, b), (model, a, b)
                        w.validate()

    @given(small_semaphore_executions())
    @settings(max_examples=12, deadline=None)
    def test_ignoring_dependences_agrees_too(self, exe):
        ref = relations_by_enumeration(exe, include_dependences=False)
        ana = OrderingAnalyzer(exe, include_dependences=False)
        for name in ALL_RELATIONS:
            assert ana.relation(name) == ref[name], name
