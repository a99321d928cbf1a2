"""The memory-model axis: SC vs TSO across every layer.

The paper's relations are defined over sequentially consistent
processors; :mod:`repro.memmodel` makes that assumption explicit and
swappable.  These tests pin the whole axis:

* the registry (resolution, the one-line unknown-model error);
* program-order constraint derivation (SC = the adjacent chain; TSO
  relaxes exactly W -> R over disjoint variables);
* the ``fence`` statement through parse -> unparse -> parse;
* the simulator's store buffers (determinism under a seeded scheduler,
  drained buffers at exit);
* the store-buffering litmus end-to-end: race-free under SC, racy
  under TSO, repaired by a fence -- the acceptance criterion;
* differential agreement between the planner and brute-force
  enumeration under *both* models;
* planner gating: under TSO the SC-only ``hmw`` tier declines every
  query and the engine answers instead;
* serialization (version bump, back-compat default, fingerprints);
* the CLI flag and the daemon's strict model claims.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.enumerate import relations_by_enumeration
from repro.core.queries import OrderingQueries
from repro.core.relations import RelationName
from repro.lang import ast as A
from repro.lang.interpreter import run_program
from repro.lang.parser import ParseError, parse_program
from repro.lang.scheduler import PriorityScheduler, RandomScheduler
from repro.lang.unparse import unparse_program
from repro.memmodel import (
    MEMORY_MODELS,
    MemoryModel,
    SC,
    TSO,
    po_constraint_pairs,
    resolve_memory_model,
)
from repro.model import serialize
from repro.model.builder import ExecutionBuilder
from repro.model.events import Access, Event, EventKind
from repro.races.detector import FEASIBLE, INFEASIBLE, RaceDetector

from tests.strategies import tiny_overlay_executions


LITMUS_SRC = """
proc A {
  x := 1 @aw
  $t := y @ar
}
proc B {
  y := 2 @bw
  x := 2 @bx
}
"""

LITMUS_FENCED_SRC = LITMUS_SRC.replace("x := 1 @aw", "x := 1 @aw\n  fence")


def litmus_execution(memory_model, *, fenced=False):
    """The store-buffering litmus, A prioritized so the recorded
    dependences are ``aw -> bx`` and ``ar -> bw``."""
    src = LITMUS_FENCED_SRC if fenced else LITMUS_SRC
    trace = run_program(
        parse_program(src),
        PriorityScheduler(["A"]),
        memory_model=memory_model,
    )
    return trace.to_execution()


def by_label(exe):
    return {exe.event(e).label: e for e in exe.eids if exe.event(e).label}


def classify(exe):
    report = RaceDetector(exe).feasible_races()
    labels = {e: exe.event(e).label for e in exe.eids}
    return {
        frozenset((labels[c.a], labels[c.b])): c.status
        for c in report.classifications
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_known_models(self):
        assert set(MEMORY_MODELS) == {"sc", "tso"}
        assert resolve_memory_model("sc") is SC
        assert resolve_memory_model("TSO") is TSO  # case-insensitive

    def test_unknown_model_is_a_one_line_value_error(self):
        with pytest.raises(ValueError) as exc:
            resolve_memory_model("pso")
        msg = str(exc.value)
        assert msg == "unknown memory model 'pso' (known models: sc, tso)"
        assert "\n" not in msg


# ----------------------------------------------------------------------
# constraint derivation
# ----------------------------------------------------------------------
class TestConstraintPairs:
    def test_sc_is_the_adjacent_chain(self):
        exe = litmus_execution("sc")
        for proc in exe.process_names:
            events = [exe.event(e) for e in exe.process_events(proc)]
            n = len(events)
            assert po_constraint_pairs(events, SC) == [
                (i, i + 1) for i in range(n - 1)
            ]

    def test_tso_relaxes_store_then_load(self):
        exe = litmus_execution("tso")
        ids = by_label(exe)
        # A = [aw (W x), ar (R y)]: the relaxed pair -- no constraint
        a_events = [exe.event(e) for e in exe.process_events("A")]
        assert po_constraint_pairs(a_events, TSO) == []
        # and the engine-facing accessor agrees
        assert exe.po_begin_predecessors(ids["ar"]) == ()
        # B = [bw (W y), bx (W x)]: store-store order is preserved
        b_events = [exe.event(e) for e in exe.process_events("B")]
        assert po_constraint_pairs(b_events, TSO) == [(0, 1)]

    def test_tso_keeps_same_variable_store_load_ordered(self):
        b = ExecutionBuilder()
        p = b.process("A")
        w = p.write("x")
        r = p.read("x")  # store-to-load forwarding: stays ordered
        b.memory_model("tso")
        exe = b.build()
        assert exe.po_begin_predecessors(r) == (w,)

    def test_tso_fence_restores_order_transitively(self):
        exe = litmus_execution("tso", fenced=True)
        ids = by_label(exe)
        a_events = [exe.event(e) for e in exe.process_events("A")]
        # aw -> fence -> ar: the adjacent chain is back
        assert po_constraint_pairs(a_events, TSO) == [(0, 1), (1, 2)]
        fence_eid = next(
            e for e in exe.process_events("A")
            if exe.event(e).kind is EventKind.FENCE
        )
        assert exe.po_begin_predecessors(ids["ar"]) == (fence_eid,)

    def test_sync_operations_are_implicit_fences(self):
        b = ExecutionBuilder()
        p = b.process("A")
        w = p.write("x")
        v = p.sem_v("s")
        b.memory_model("tso")
        exe = b.build()
        assert exe.po_begin_predecessors(v) == (w,)


def cubic_po_constraint_pairs(events, model):
    """The original O(n^3) derivation, kept as the reference: an
    ordered pair is kept unless some intermediate k is ordered after
    i and before j."""
    n = len(events)
    ordered = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ordered[i][j] = model.orders(events[i], events[j])
    pairs = []
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            if not ordered[i][j]:
                continue
            if any(
                ordered[i][k] and ordered[k][j] for k in range(i + 1, j)
            ):
                continue
            pairs.append((i, j))
    return pairs


class _TableModel(MemoryModel):
    """An arbitrary (not necessarily transitive) ordering predicate."""

    def __init__(self, unordered):
        super().__init__("table")
        object.__setattr__(self, "unordered", frozenset(unordered))

    def orders(self, first, second):
        return (first.index, second.index) not in self.unordered


@st.composite
def process_events(draw):
    """One process's events: reads/writes of three variables, skips,
    fences and semaphore operations, in program order."""
    events = []
    for index in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(["compute", "fence", "P", "V"]))
        if shape == "compute":
            accesses = tuple(
                Access(var, draw(st.booleans()))
                for var in draw(st.sets(st.sampled_from("xyz"), max_size=2))
            )
            events.append(Event(index, "A", index, EventKind.COMPUTATION,
                                accesses=accesses))
        elif shape == "fence":
            events.append(Event(index, "A", index, EventKind.FENCE))
        else:
            kind = EventKind.SEM_P if shape == "P" else EventKind.SEM_V
            events.append(Event(index, "A", index, kind, obj="s"))
    return events


class TestConstraintPairsReference:
    @settings(max_examples=300, deadline=None)
    @given(process_events(), st.sampled_from([SC, TSO]))
    def test_matches_cubic_reference(self, events, model):
        assert po_constraint_pairs(events, model) == (
            cubic_po_constraint_pairs(events, model)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.tuples(st.integers(0, n), st.integers(0, n))),
            )
        )
    )
    def test_matches_cubic_reference_for_any_predicate(self, shape):
        n, unordered = shape
        events = [
            Event(i, "A", i, EventKind.COMPUTATION) for i in range(n)
        ]
        model = _TableModel(unordered)
        assert po_constraint_pairs(events, model) == (
            cubic_po_constraint_pairs(events, model)
        )


# ----------------------------------------------------------------------
# the fence statement in the language
# ----------------------------------------------------------------------
class TestFenceLanguage:
    def test_parse_unparse_parse_round_trip(self):
        prog = parse_program(LITMUS_FENCED_SRC)
        text = unparse_program(prog)
        assert "fence" in text
        assert parse_program(text) == prog

    def test_fence_label_survives_round_trip(self):
        prog = parse_program("proc A { fence @f1 }")
        stmt = prog.processes[0].body[0]
        assert isinstance(stmt, A.Fence) and stmt.label == "f1"
        assert parse_program(unparse_program(prog)) == prog

    def test_fence_records_a_fence_event(self):
        exe = litmus_execution("sc", fenced=True)
        kinds = [exe.event(e).kind for e in exe.process_events("A")]
        assert kinds.count(EventKind.FENCE) == 1

    def test_unknown_statement_points_at_the_typo(self):
        with pytest.raises(ParseError) as exc:
            parse_program("proc A {\n  x := 1\n  fense\n}")
        msg = str(exc.value)
        assert "line 3" in msg and "unknown statement 'fense'" in msg

    def test_malformed_sync_op_names_the_expectation(self):
        with pytest.raises(ParseError, match="after 'P'"):
            parse_program("proc A { P x }")
        with pytest.raises(ParseError, match="event-variable name"):
            parse_program("proc A { post }")


# ----------------------------------------------------------------------
# the simulator's store buffers
# ----------------------------------------------------------------------
class TestStoreBuffer:
    @pytest.mark.parametrize("fenced", [False, True])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_seeded_runs_are_deterministic(self, seed, fenced):
        src = LITMUS_FENCED_SRC if fenced else LITMUS_SRC

        def run():
            return run_program(
                parse_program(src),
                RandomScheduler(seed),
                memory_model="tso",
            )

        t1, t2 = run(), run()
        assert t1.steps == t2.steps
        assert t1.final_shared == t2.final_shared
        assert serialize.execution_to_dict(
            t1.to_execution()
        ) == serialize.execution_to_dict(t2.to_execution())

    @pytest.mark.parametrize("seed", range(8))
    def test_buffers_always_drain(self, seed):
        # whatever the interleaving, the run only terminates once every
        # buffered store has reached shared memory
        trace = run_program(
            parse_program(LITMUS_SRC), RandomScheduler(seed),
            memory_model="tso",
        )
        assert trace.final_shared["x"] in (1, 2)
        assert trace.final_shared["y"] == 2
        assert trace.memory_model == "tso"

    def test_store_to_load_forwarding_reads_own_buffer(self):
        # A's read of x must see its own buffered store, not the
        # initial value, even though the store has not drained
        trace = run_program(
            parse_program("proc A { x := 41\n $t := x\n y := $t + 1 }"),
            PriorityScheduler(["A"]),
            memory_model="tso",
        )
        assert trace.final_shared["y"] == 42

    def test_sc_runs_carry_the_sc_model(self):
        trace = run_program(
            parse_program(LITMUS_SRC), PriorityScheduler(["A"])
        )
        assert trace.memory_model == "sc"
        assert trace.to_execution().memory_model == "sc"


# ----------------------------------------------------------------------
# the acceptance litmus, end to end
# ----------------------------------------------------------------------
class TestStoreBufferingLitmus:
    def test_sc_proves_the_write_write_pair_infeasible(self):
        status = classify(litmus_execution("sc"))
        assert status[frozenset(("aw", "bx"))] == INFEASIBLE
        assert status[frozenset(("ar", "bw"))] == FEASIBLE

    def test_tso_exposes_the_store_buffered_race(self):
        status = classify(litmus_execution("tso"))
        assert status[frozenset(("aw", "bx"))] == FEASIBLE
        assert status[frozenset(("ar", "bw"))] == FEASIBLE

    def test_fence_restores_the_sc_verdicts(self):
        status = classify(litmus_execution("tso", fenced=True))
        assert status[frozenset(("aw", "bx"))] == INFEASIBLE
        assert status[frozenset(("ar", "bw"))] == FEASIBLE


# ----------------------------------------------------------------------
# differential: planner vs enumeration, under both models
# ----------------------------------------------------------------------
class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(tiny_overlay_executions())
    def test_planner_matches_enumeration_under_both_models(self, exe):
        for model in ("sc", "tso"):
            m_exe = exe.with_memory_model(model)
            truth = relations_by_enumeration(m_exe)
            queries = OrderingQueries(m_exe)
            n = len(m_exe)
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    assert queries.ccw(a, b) == truth[RelationName.CCW](
                        a, b
                    ), (model, a, b)
                    assert queries.mhb(a, b) == truth[RelationName.MHB](
                        a, b
                    ), (model, a, b)

    @settings(max_examples=25, deadline=None)
    @given(tiny_overlay_executions())
    def test_sc_relaxes_nothing_tso_only_relaxes(self, exe):
        # SC rebuild is a no-op; the TSO feasible set only ever grows
        assert exe.with_memory_model("sc") is exe
        t_exe = exe.with_memory_model("tso")
        sc_truth = relations_by_enumeration(exe)
        tso_truth = relations_by_enumeration(t_exe)
        assert sc_truth[RelationName.CCW].pairs <= tso_truth[
            RelationName.CCW
        ].pairs


# ----------------------------------------------------------------------
# planner gating: the SC-only hmw tier declines under TSO
# ----------------------------------------------------------------------
VP_SRC = """
sem s = 0
proc A { V(s) @v }
proc B { P(s) @p }
"""


def vp_execution(memory_model):
    trace = run_program(
        parse_program(VP_SRC), RandomScheduler(0), memory_model=memory_model
    )
    return trace.to_execution()


def infeasible_race_execution():
    """A conflicting pair behind two P's that one V cannot serve: HMW's
    counting rules prove ``F`` empty without a search."""
    b = ExecutionBuilder()
    a = b.process("A")
    a.write("x")
    a.sem_v("s")
    c = b.process("B")
    c.sem_p("s")
    c.sem_p("s")
    c.write("x")
    return b.build()


class TestPlannerGating:
    PLAN = ("hmw", "engine")

    def test_sc_hmw_refutes_the_vp_pair(self):
        exe = vp_execution("sc")
        labels = by_label(exe)
        q = OrderingQueries(exe, plan=self.PLAN)
        v = q.chb_verdict(labels["p"], labels["v"])
        assert v.is_false and v.provenance == "hmw"
        assert q.planner.report.tiers["hmw"].answered == 1

    def test_tso_vp_pair_reaches_the_engine(self):
        exe = vp_execution("tso")
        labels = by_label(exe)
        q = OrderingQueries(exe, plan=self.PLAN)
        v = q.chb_verdict(labels["p"], labels["v"])
        assert v.is_false and v.provenance == "exact"
        assert "hmw" not in q.planner.report.tiers
        assert q.ctx.hmw_relation() is None

    def test_tso_scan_report_never_tallies_an_sc_only_tier(self):
        exe = infeasible_race_execution()
        # non-vacuous: under SC the same scan is settled by hmw
        sc = RaceDetector(exe, plan=self.PLAN).feasible_races()
        assert sc.planner.tiers["hmw"].answered > 0
        tso = RaceDetector(
            exe.with_memory_model("tso"), plan=self.PLAN
        ).feasible_races()
        assert "hmw" not in tso.planner.tiers
        assert tso.planner.answered > 0  # the scan still concluded
        assert [c.status for c in tso.classifications] == [
            c.status for c in sc.classifications
        ]


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestSerialization:
    def test_round_trip_preserves_the_model(self):
        exe = litmus_execution("tso")
        doc = serialize.execution_to_dict(exe)
        assert doc["version"] == serialize.FORMAT_VERSION
        assert doc["memory_model"] == "tso"
        back = serialize.execution_from_dict(doc)
        assert back.memory_model == "tso"
        assert serialize.execution_to_dict(back) == doc

    def test_version_1_documents_default_to_sc(self):
        exe = litmus_execution("sc")
        doc = serialize.execution_to_dict(exe)
        doc["version"] = 1
        del doc["memory_model"]
        back = serialize.execution_from_dict(doc)
        assert back.memory_model == "sc"
        assert serialize.execution_to_dict(back) == serialize.execution_to_dict(exe)

    def test_unknown_model_in_a_document_is_loud(self):
        doc = serialize.execution_to_dict(litmus_execution("sc"))
        doc["memory_model"] = "alpha21264"
        with pytest.raises(ValueError, match="unknown memory model"):
            serialize.execution_from_dict(doc)

    def test_fingerprint_folds_the_model_in(self):
        sc_exe = litmus_execution("sc")
        assert serialize.execution_fingerprint(
            sc_exe
        ) != serialize.execution_fingerprint(sc_exe.with_memory_model("tso"))


# ----------------------------------------------------------------------
# the CLI flag
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def litmus_file(self, tmp_path):
        path = tmp_path / "sb.rp"
        path.write_text(LITMUS_SRC)
        return str(path)

    def _run(self, litmus_file, tmp_path, model):
        out = tmp_path / f"sb_{model}.json"
        rc = main(["run", litmus_file, "--priority", "A",
                   "--memory-model", model, "--save", str(out)])
        assert rc == 0
        return str(out)

    def test_races_reports_the_tso_only_race(self, litmus_file, tmp_path,
                                             capsys):
        sc_path = self._run(litmus_file, tmp_path, "sc")
        tso_path = self._run(litmus_file, tmp_path, "tso")
        capsys.readouterr()
        assert main(["races", sc_path, "--feasible"]) == 0
        sc_out = capsys.readouterr().out
        assert "feasible races: 1 / 2" in sc_out
        assert main(["races", tso_path, "--feasible"]) == 0
        tso_out = capsys.readouterr().out
        assert "feasible races: 2 / 2" in tso_out

    def test_races_can_reinterpret_a_saved_execution(self, litmus_file,
                                                     tmp_path, capsys):
        sc_path = self._run(litmus_file, tmp_path, "sc")
        assert main(["races", sc_path, "--feasible",
                     "--memory-model", "tso"]) == 0
        assert "feasible races: 2 / 2" in capsys.readouterr().out

    def test_unknown_model_exits_2_with_one_line(self, litmus_file,
                                                 tmp_path, capsys):
        sc_path = self._run(litmus_file, tmp_path, "sc")
        capsys.readouterr()
        assert main(["races", sc_path, "--memory-model", "pso"]) == 2
        err = capsys.readouterr().err
        assert "unknown memory model 'pso'" in err

    def test_resume_refuses_a_different_model(self, litmus_file, tmp_path,
                                              capsys):
        sc_path = self._run(litmus_file, tmp_path, "sc")
        journal = str(tmp_path / "scan.journal")
        assert main(["races", sc_path, "--feasible",
                     "--checkpoint", journal]) == 0
        capsys.readouterr()
        rc = main(["races", sc_path, "--feasible", "--checkpoint", journal,
                   "--resume", "--memory-model", "tso"])
        assert rc == 2
        assert "refusing to resume" in capsys.readouterr().err
