"""Differential tests for sleep-set partial-order reduction.

The reference enumerator (``core/enumerate.py``) stays unreduced on
purpose: it is the oracle here.  The properties pin what DESIGN.md
Section 4.2c argues -- all three ``por`` modes return the same verdicts
as brute force (feasibility AND race classifications, under both memory
models), and on a search that exhausts without a witness hoisting only
ever removes search states.
"""

from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.engine import FeasibilityEngine, SearchStats, begin_point, end_point
from repro.core.enumerate import (
    enumerate_serial_schedules,
    relations_by_enumeration,
)
from repro.core.relations import RelationName
from repro.core.witness import replay_schedule
from repro.obs.trace import RecordingSink
from repro.races.detector import FEASIBLE, RaceDetector
from repro.workloads.generators import random_computation_overlay

from tests.strategies import tiny_overlay_executions

POR_MODES = ("sleep", "hoist", "off")
MODELS = ("sc", "tso")


def small_overlay_executions():
    """Engine-tractable overlays for the scan-level differentials."""
    return st.builds(
        random_computation_overlay,
        processes=st.integers(2, 3),
        events_per_process=st.integers(2, 3),
        semaphores=st.integers(1, 2),
        shared_vars=st.integers(1, 2),
        seed=st.integers(0, 10_000),
    )


def _classifications(exe, por, **kw):
    report = RaceDetector(exe, por=por).feasible_races(**kw)
    return [(c.a, c.b, c.status) for c in report.classifications]


@given(tiny_overlay_executions())
@settings(max_examples=40, deadline=None)
def test_feasibility_matches_brute_force_under_both_models(exe_sc):
    for model in MODELS:
        exe = exe_sc.with_memory_model(model)
        brute = next(enumerate_serial_schedules(exe, limit=1), None) is not None
        for por in POR_MODES:
            pts = FeasibilityEngine(exe, por=por).search()
            assert (pts is not None) == brute, (model, por)
            if pts is not None:
                replay_schedule(exe, pts)  # the witness must be real


@given(tiny_overlay_executions())
@settings(max_examples=15, deadline=None)
def test_race_verdicts_match_brute_force_ccw(exe_sc):
    # drop_racing_dependences=False so the oracle relation is plain CCW
    # over the same execution the detector searches
    for model in MODELS:
        exe = exe_sc.with_memory_model(model)
        ccw = relations_by_enumeration(exe)[RelationName.CCW]
        for por in POR_MODES:
            for a, b, status in _classifications(
                exe, por, drop_racing_dependences=False
            ):
                assert (status == FEASIBLE) == ccw(a, b), (model, por, a, b)


def _exhausted_engine_states(report_records):
    """Engine states per query that the engine answered FALSE: a race
    scan's ``feasible``/``ccw`` query is FALSE exactly when its search
    exhausted without a witness."""
    out = {}
    for r in report_records:
        if r["kind"] == "query" and r["verdict"] == "FALSE":
            for t in r["tiers"]:
                if t["tier"] == "engine" and t["answered"]:
                    out[(r["relation"], r["a"], r["b"], r["drop"])] = t["states"]
    return out


# Every engine search here is satisfiable: the unreduced search reaches
# its first witness in 38 states (12 + 12 + 14), the reduced ones in 39,
# because hoisting changes which witness comes first (DESIGN 4.2c).
@example(random_computation_overlay(
    processes=3, events_per_process=3, semaphores=1, shared_vars=1, seed=127
))
@given(small_overlay_executions())
@settings(max_examples=25, deadline=None)
def test_scan_classifications_agree_and_por_only_removes_states(exe_sc):
    # the proven claim (DESIGN 4.2c): a search that exhausts without a
    # witness visits, under hoisting, a subset of the distinct states the
    # unreduced search visits, each once.  Satisfiable searches stop at
    # their first witness, whose position depends on exploration order,
    # and sleep sets may expand a state again under a smaller sleep set,
    # so neither is bounded by this argument.
    for model in MODELS:
        exe = exe_sc.with_memory_model(model)
        exhausted = {}
        verdicts = {}
        for por in POR_MODES:
            # engine-only ladder: every pair pays the exact search, so
            # the states comparison measures the reduction, not the
            # cheaper tiers
            det = RaceDetector(exe, plan=("structural", "engine"), por=por)
            sink = RecordingSink()
            report = det.feasible_races(tracer=sink)
            verdicts[por] = [
                (c.a, c.b, c.status) for c in report.classifications
            ]
            exhausted[por] = _exhausted_engine_states(sink.records)
        # the scan decides most infeasible pairs structurally, so also
        # pose every overlap question to the engine directly
        for a, b in combinations(range(len(exe)), 2):
            cons = [(begin_point(a), end_point(b)), (begin_point(b), end_point(a))]
            for por in POR_MODES:
                stats = SearchStats()
                FeasibilityEngine(exe, include_dependences=False, por=por).search(
                    interval_events=(a, b), constraints=cons, stats=stats
                )
                if not stats.found:
                    exhausted[por][("engine", a, b)] = stats.states_visited
        assert verdicts["sleep"] == verdicts["hoist"] == verdicts["off"]
        assert exhausted["sleep"].keys() == exhausted["hoist"].keys() == exhausted["off"].keys()
        for query, states in exhausted["off"].items():
            assert exhausted["hoist"][query] <= states, (model, query, exhausted)


@given(tiny_overlay_executions())
@settings(max_examples=25, deadline=None)
def test_exhausted_overlap_search_states_bounded_by_unreduced_search(exe_sc):
    # the single-search property behind the scan-level one (DESIGN
    # 4.2c): on the same engine question every mode reaches the same
    # verdict, and a search that exhausts without a witness visits no
    # more states under hoisting than "off".  A satisfiable search stops
    # at its first witness, whose position depends on exploration order,
    # so it carries no such bound.
    for model in MODELS:
        exe = exe_sc.with_memory_model(model)
        for a, b in combinations(range(len(exe)), 2):
            cons = [(begin_point(a), end_point(b)), (begin_point(b), end_point(a))]
            found, visited = {}, {}
            for por in POR_MODES:
                stats = SearchStats()
                FeasibilityEngine(exe, por=por).search(
                    interval_events=(a, b), constraints=cons, stats=stats
                )
                found[por], visited[por] = stats.found, stats.states_visited
            assert found["sleep"] == found["hoist"] == found["off"], (model, a, b)
            if not found["off"]:
                assert visited["hoist"] <= visited["off"], (model, a, b, visited)
