"""Unit tests for ProgramExecution invariants and views."""

import pytest

from repro.model.builder import ExecutionBuilder
from repro.model.events import Access, Event, EventKind
from repro.model.execution import ProgramExecution


def two_proc_execution():
    b = ExecutionBuilder()
    p = b.process("p")
    q = b.process("q")
    p.sem_v("s")
    p.write("x")
    q.sem_p("s")
    q.read("x")
    b.dependence(1, 3)
    return b.build()


class TestConstructionValidation:
    def test_eids_must_be_dense(self):
        e = Event(1, "p", 0, EventKind.COMPUTATION)
        with pytest.raises(ValueError):
            ProgramExecution([e], {"p": [1]})

    def test_event_process_mismatch(self):
        e = Event(0, "other", 0, EventKind.COMPUTATION)
        with pytest.raises(ValueError):
            ProgramExecution([e], {"p": [0]})

    def test_index_mismatch(self):
        e = Event(0, "p", 5, EventKind.COMPUTATION)
        with pytest.raises(ValueError):
            ProgramExecution([e], {"p": [0]})

    def test_unassigned_event(self):
        e0 = Event(0, "p", 0, EventKind.COMPUTATION)
        e1 = Event(1, "q", 0, EventKind.COMPUTATION)
        with pytest.raises(ValueError):
            ProgramExecution([e0, e1], {"p": [0]})

    def test_fork_without_children_entry(self):
        e = Event(0, "p", 0, EventKind.FORK)
        with pytest.raises(ValueError):
            ProgramExecution([e], {"p": [0]})

    def test_join_without_targets_entry(self):
        e = Event(0, "p", 0, EventKind.JOIN)
        with pytest.raises(ValueError):
            ProgramExecution([e], {"p": [0]})


class TestAccessors:
    def test_program_order_navigation(self):
        exe = two_proc_execution()
        p_events = exe.process_events("p")
        assert exe.po_predecessor(p_events[0]) is None
        assert exe.po_predecessor(p_events[1]) == p_events[0]
        assert exe.po_successor(p_events[0]) == p_events[1]
        assert exe.po_successor(p_events[1]) is None

    def test_semaphore_listing(self):
        exe = two_proc_execution()
        assert exe.semaphores == ("s",)
        assert len(exe.sem_events("s")) == 2

    def test_classification_views(self):
        exe = two_proc_execution()
        assert set(exe.computation_events()) | set(exe.synchronization_events()) == set(
            exe.eids
        )

    def test_conflicting_pairs(self):
        exe = two_proc_execution()
        pairs = exe.conflicting_pairs()
        assert pairs == [(1, 3)]

    def test_dependence_predecessors(self):
        exe = two_proc_execution()
        assert exe.dependence_predecessors(3) == (1,)
        assert exe.dependence_predecessors(1) == ()

    def test_by_label(self):
        b = ExecutionBuilder()
        eid = b.process("p").skip(label="marker")
        exe = b.build()
        assert exe.by_label("marker").eid == eid
        assert exe.labels == {"marker": eid}


class TestStaticOrderGraph:
    def test_contains_program_order(self):
        exe = two_proc_execution()
        g = exe.static_order_graph()
        p = exe.process_events("p")
        assert g.has_edge(p[0], p[1])

    def test_contains_dependences_when_asked(self):
        exe = two_proc_execution()
        assert exe.static_order_graph(include_dependences=True).has_edge(1, 3)
        assert not exe.static_order_graph(include_dependences=False).has_edge(1, 3)

    def test_fork_join_edges(self):
        b = ExecutionBuilder()
        main = b.process("main")
        f = main.fork()
        c = b.process("c", parent=f)
        ce = c.skip()
        j = main.join(f)
        g = b.build().static_order_graph()
        assert g.has_edge(f.eid, ce)
        assert g.has_edge(ce, j)

    def test_structural_consistency(self):
        exe = two_proc_execution()
        assert exe.is_structurally_consistent()

    def test_cyclic_dependences_detected(self):
        b = ExecutionBuilder()
        x = b.process("p").write("v")
        y = b.process("q").write("v")
        b.dependence(x, y)
        b.dependence(y, x)
        exe = b.build()
        assert not exe.is_structurally_consistent()


class TestDerivedCopies:
    def test_without_dependences(self):
        exe = two_proc_execution()
        bare = exe.without_dependences()
        assert bare.dependences == frozenset()
        assert len(bare) == len(exe)

    def test_with_dependences_replaces(self):
        exe = two_proc_execution()
        copy = exe.with_dependences([(3, 1)])
        assert copy.dependences == {(3, 1)}
        assert copy.dependence_predecessors(1) == (3,)
        assert copy.dependence_predecessors(3) == ()
        # original untouched
        assert exe.dependences == {(1, 3)}
        assert exe.dependence_predecessors(3) == (1,)

    def test_with_dependences_validates_the_new_relation(self):
        exe = two_proc_execution()
        with pytest.raises(ValueError):
            exe.with_dependences([(1, 99)])
        with pytest.raises(ValueError):
            exe.with_dependences([(2, 2)])

    def test_repr(self):
        assert "4 events" in repr(two_proc_execution())
