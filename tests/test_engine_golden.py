"""Golden pins of the exact engine's exploration order.

``FeasibilityEngine.search`` is a depth-first search whose every
counter -- states visited, actions tried, memo hits, dead ends, hoists,
suppressed memo insertions -- and whose first witness depend on the
order in which it expands successors.  The literals below were captured
once from the recursive engine that preceded the explicit-stack loop;
any rewrite of the search must reproduce them exactly, in every ``por``
mode, under budgets, memo caps, progress ticks and the profiler.

Schedules are pinned in a compact form: an atomic event (its begin
immediately followed by its end) is written as its eid, an interval
event's separate begin and end points as ``<eid`` and ``>eid``.
"""

import pytest

from repro.budget import Budget
from repro.core.engine import (
    FeasibilityEngine,
    SearchBudgetExceeded,
    SearchStats,
    begin_point,
    end_point,
)
from repro.lang.ast import Assign, Const, ProcessDef, Program, SemP, SemV
from repro.lang.interpreter import run_program
from repro.lang.scheduler import FixedScheduler
from repro.obs.profile import SearchProfile
from repro.reductions.theorem1 import semaphore_reduction
from repro.reductions.theorem3 import event_reduction
from repro.sat.generators import random_ksat
from repro.workloads.generators import random_computation_overlay


def _theorem(build, num_vars, num_clauses, seed):
    """A Theorem 1/2 (semaphore) or 3/4 (event) reduction and its
    ``b CHB a`` constraint: satisfiable iff the formula is."""
    red = build(random_ksat(num_vars, num_clauses, seed=seed))
    return red.execution, [(end_point(red.b), begin_point(red.a))]


def _brawl(width):
    """``width`` writers of ``x``, paired on lock cells fed by suppliers
    (the contended brawl of ``benchmarks/bench_race_detection.py``)."""
    procs, schedule = [], []
    for g in range((width + 1) // 2):
        procs.append(ProcessDef(f"s{g}", [SemV(f"m{g}")]))
        schedule.append(f"s{g}")
    for k in range(width):
        procs.append(ProcessDef(
            f"w{k}", [SemP(f"m{k // 2}"), Assign("x", Const(k)), SemV(f"m{k // 2}")]
        ))
        schedule += [f"w{k}"] * 3
    return run_program(Program(procs), FixedScheduler(schedule)).to_execution()


def _race(exe, a, b, extra=()):
    """The overlap (CCW) search for ``a``/``b`` plus ``end < begin``
    constraints ``extra``, as the race scan poses it."""
    cons = [(begin_point(a), end_point(b)), (begin_point(b), end_point(a))]
    cons += [(end_point(x), begin_point(y)) for x, y in extra]
    return {"interval_events": (a, b), "constraints": cons}


def _case(exe_and_constraints=None, *, exe=None, por="sleep", engine=None, **search):
    if exe_and_constraints is not None:
        exe, constraints = exe_and_constraints
        search.setdefault("constraints", constraints)
    return exe, dict(engine or {}, por=por), search


T1_SAT = (semaphore_reduction, 4, 10, 4)  # 126 events
T1_UNSAT = (semaphore_reduction, 3, 11, 4)  # 130 events
T3_SAT = (event_reduction, 4, 10, 4)  # 120 events
T3_UNSAT = (event_reduction, 3, 11, 4)  # 115 events
T1_SMALL_SAT = (semaphore_reduction, 3, 8, 0)  # 100 events
T1_BINARY_SAT = (semaphore_reduction, 3, 8, 2)  # 100 events


def _cases():
    cases = {}
    for por in ("sleep", "hoist"):
        for name, spec in (("t1-sat", T1_SAT), ("t1-unsat", T1_UNSAT),
                           ("t3-sat", T3_SAT), ("t3-unsat", T3_UNSAT)):
            cases[f"{name}-{por}"] = _case(_theorem(*spec), por=por)
    # the unreduced search is exponential on the reductions: pin where
    # its state budget runs out
    cases["t1-sat-off-abort"] = _case(_theorem(*T1_SMALL_SAT), por="off", max_states=3000)
    cases["t3-sat-off-abort"] = _case(_theorem(*T3_SAT), por="off", max_states=2500)
    # binary semaphores: V is no longer free and the token-supply dead
    # end fires
    cases["t1-sat-binary"] = _case(
        _theorem(*T1_BINARY_SAT), engine={"binary_semaphores": True}
    )
    cases["t1-sat-binary-hoist"] = _case(
        _theorem(*T1_BINARY_SAT), por="hoist", engine={"binary_semaphores": True}
    )
    cases["t1-sat-binary-abort"] = _case(
        _theorem(*T1_SAT), engine={"binary_semaphores": True}, max_states=1500
    )
    cases["t3-unsat-memo-cap"] = _case(
        _theorem(*T3_UNSAT), budget=Budget(max_memo_entries=40)
    )
    cases["t1-sat-off-memo-cap-abort"] = _case(
        _theorem(*T1_SMALL_SAT), por="off", budget=Budget(max_states=4000, max_memo_entries=500)
    )
    cases["t1-unsat-sleep-abort"] = _case(_theorem(*T1_UNSAT), max_states=700)
    # race searches drop the dependences between the racing accesses;
    # these drop them all so the writes can overlap
    brawl = _brawl(6)
    writes = [e.eid for e in brawl.events if e.accesses]
    no_deps = {"include_dependences": False}
    for model in ("sc", "tso"):
        exe = brawl.with_memory_model(model)
        overlay = random_computation_overlay(
            processes=3, events_per_process=6, semaphores=2, shared_vars=2, seed=0
        ).with_memory_model(model)
        for por in ("sleep", "hoist", "off"):
            # same lock cell: mutual exclusion makes the overlap infeasible
            cases[f"brawl6-{model}-{por}-locked"] = _case(
                exe=exe, por=por, engine=no_deps, **_race(exe, writes[0], writes[1])
            )
            cases[f"brawl6-{model}-{por}-ordered"] = _case(
                exe=exe, por=por, engine=no_deps,
                **_race(exe, writes[1], writes[4], extra=[(writes[5], writes[0])]),
            )
            # 4 writes x1 just before its process reads x0 (5): TSO lets
            # that pair reorder
            cases[f"overlay-{model}-{por}"] = _case(
                exe=overlay, por=por, engine=no_deps, **_race(overlay, 4, 8)
            )
            cases[f"overlay-{model}-{por}-ordered"] = _case(
                exe=overlay, por=por, engine=no_deps,
                **_race(overlay, 4, 8, extra=[(12, 1)]),
            )
    return cases


CASES = _cases()
PROFILED = {"t1-sat-sleep", "t3-unsat-hoist", "brawl6-tso-off-locked", "t1-unsat-sleep-abort"}
TICKED = {
    "t1-unsat-sleep": 64,
    "t3-sat-off-abort": 200,
    "brawl6-sc-hoist-locked": 4,
}


def _compact(points):
    out, i = [], 0
    while i < len(points):
        p = points[i]
        if not p.is_end and i + 1 < len(points) and points[i + 1] == end_point(p.eid):
            out.append(str(p.eid))
            i += 2
        else:
            out.append(f"{'>' if p.is_end else '<'}{p.eid}")
            i += 1
    return " ".join(out)


def observe(name):
    """Everything the search exposes for case ``name``."""
    exe, engine_kw, search_kw = CASES[name]
    search_kw = dict(search_kw)
    stats = SearchStats()
    profile = SearchProfile() if name in PROFILED else None
    ticks = []
    if name in TICKED:
        search_kw["budget"] = Budget(check_interval=TICKED[name], **(
            {"max_states": search_kw.pop("max_states")} if "max_states" in search_kw else {}
        ))
        search_kw["on_progress"] = lambda s: ticks.append(s.states_visited)
    raised = None
    try:
        pts = FeasibilityEngine(exe, **engine_kw).search(
            stats=stats, profile=profile, **search_kw
        )
    except SearchBudgetExceeded as exc:
        pts, raised = None, exc.resource
    out = {
        "stats": (stats.states_visited, stats.actions_tried, stats.memo_hits,
                  stats.dead_ends, stats.hoisted, stats.memo_suppressed,
                  stats.termination),
        "schedule": None if pts is None else _compact(pts),
        "raised": raised,
    }
    if profile is not None:
        out["profile"] = profile.snapshot()
    if ticks:
        out["ticks"] = ticks
    return out


EXPECTED = {
    "brawl6-sc-hoist-locked": {
        "stats": (143, 163, 21, 2, 131, 0, "completed"),
        "schedule": None,
        "raised": None,
        "ticks": [
            4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68,
            72, 76, 80, 84, 88, 92, 96, 100, 104, 108, 112, 116, 120, 124, 128,
            132, 136, 140, 143
        ],
    },
    "brawl6-sc-hoist-ordered": {
        "stats": (26, 25, 0, 1, 21, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "brawl6-sc-off-locked": {
        "stats": (1014, 2873, 1860, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "brawl6-sc-off-ordered": {
        "stats": (26, 25, 0, 1, 0, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "brawl6-sc-sleep-locked": {
        "stats": (143, 163, 21, 2, 131, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "brawl6-sc-sleep-ordered": {
        "stats": (26, 25, 0, 1, 21, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "brawl6-tso-hoist-locked": {
        "stats": (143, 163, 21, 2, 131, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "brawl6-tso-hoist-ordered": {
        "stats": (26, 25, 0, 1, 21, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "brawl6-tso-off-locked": {
        "stats": (1014, 2873, 1860, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
        "profile": {
            "version": 1, "searches": 1,
            "choices": {
                "-1|(root)|": {"chosen": 0, "states": 1, "dead_ends": 0, "backtracks": 0},
                "0|V|m0": {"chosen": 1, "states": 1, "dead_ends": 0, "backtracks": 1},
                "1|V|m1": {"chosen": 2, "states": 2, "dead_ends": 0, "backtracks": 2},
                "2|V|m2": {"chosen": 4, "states": 4, "dead_ends": 0, "backtracks": 4},
                "3|P|m0": {"chosen": 4, "states": 4, "dead_ends": 0, "backtracks": 4},
                "4|comp|": {"chosen": 4, "states": 4, "dead_ends": 0, "backtracks": 4},
                "6|P|m0": {"chosen": 4, "states": 4, "dead_ends": 0, "backtracks": 4},
                "7|comp|": {"chosen": 4, "states": 4, "dead_ends": 0, "backtracks": 4},
                "9|P|m1": {"chosen": 24, "states": 24, "dead_ends": 0, "backtracks": 24},
                "10|comp|": {"chosen": 24, "states": 24, "dead_ends": 0, "backtracks": 24},
                "11|V|m1": {"chosen": 12, "states": 12, "dead_ends": 0, "backtracks": 12},
                "12|P|m1": {"chosen": 24, "states": 24, "dead_ends": 0, "backtracks": 24},
                "13|comp|": {"chosen": 24, "states": 24, "dead_ends": 0, "backtracks": 24},
                "14|V|m1": {"chosen": 24, "states": 24, "dead_ends": 0, "backtracks": 24},
                "15|P|m2": {"chosen": 154, "states": 164, "dead_ends": 2, "backtracks": 154},
                "16|comp|": {"chosen": 152, "states": 152, "dead_ends": 0, "backtracks": 152},
                "17|V|m2": {"chosen": 76, "states": 76, "dead_ends": 0, "backtracks": 76},
                "18|P|m2": {"chosen": 154, "states": 162, "dead_ends": 0, "backtracks": 154},
                "19|comp|": {"chosen": 152, "states": 152, "dead_ends": 0, "backtracks": 152},
                "20|V|m2": {"chosen": 152, "states": 152, "dead_ends": 0, "backtracks": 152},
            },
        },
    },
    "brawl6-tso-off-ordered": {
        "stats": (26, 25, 0, 1, 0, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "brawl6-tso-sleep-locked": {
        "stats": (143, 163, 21, 2, 131, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "brawl6-tso-sleep-ordered": {
        "stats": (26, 25, 0, 1, 21, 0, "completed"),
        "schedule": "0 1 2 3 9 10 11 12 13 14 18 19 4 5 6 <7 20 15 <16 >7 8 >16 17",
        "raised": None,
    },
    "overlay-sc-hoist": {
        "stats": (15, 14, 0, 2, 11, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-sc-hoist-ordered": {
        "stats": (15, 14, 0, 2, 11, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-sc-off": {
        "stats": (78, 158, 81, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-sc-off-ordered": {
        "stats": (77, 156, 80, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-sc-sleep": {
        "stats": (15, 14, 0, 2, 11, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-sc-sleep-ordered": {
        "stats": (15, 14, 0, 2, 11, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-hoist": {
        "stats": (16, 15, 0, 2, 12, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-hoist-ordered": {
        "stats": (16, 15, 0, 2, 12, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-off": {
        "stats": (88, 181, 94, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-off-ordered": {
        "stats": (87, 179, 93, 2, 0, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-sleep": {
        "stats": (16, 15, 0, 2, 12, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "overlay-tso-sleep-ordered": {
        "stats": (16, 15, 0, 2, 12, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "t1-sat-binary": {
        "stats": (135, 134, 0, 34, 36, 0, "completed"),
        "schedule": (
            "10 0 1 23 13 14 36 26 27 39 2 40 91 41 42 28 49 3 50 92 53 29 54 "
            "93 55 56 4 57 5 58 94 59 60 30 61 62 15 63 31 64 95 65 66 6 79 67 "
            "68 16 71 17 81 72 96 73 74 32 75 76 97 80 82 98 99 87 88 11 12 7 8 "
            "69 70 9 85 86 89 24 25 18 19 43 44 20 45 46 21 51 52 22 77 78 90 "
            "37 38 33 34 47 48 35 83 84"
        ),
        "raised": None,
    },
    "t1-sat-binary-abort": {
        "stats": (1501, 1797, 297, 25, 258, 0, "states-exhausted"),
        "schedule": None,
        "raised": "states",
    },
    "t1-sat-binary-hoist": {
        "stats": (175, 174, 0, 74, 36, 0, "completed"),
        "schedule": (
            "10 0 1 23 13 14 36 26 27 39 2 40 91 41 42 28 49 3 50 92 53 29 54 "
            "93 55 56 4 57 5 58 94 59 60 30 61 62 15 63 31 64 95 65 66 6 79 67 "
            "68 16 71 17 81 72 96 73 74 32 75 76 97 80 82 98 99 87 88 11 12 7 8 "
            "69 70 9 85 86 89 24 25 18 19 43 44 20 45 46 21 51 52 22 77 78 90 "
            "37 38 33 34 47 48 35 83 84"
        ),
        "raised": None,
    },
    "t1-sat-hoist": {
        "stats": (777, 804, 28, 8, 745, 0, "completed"),
        "schedule": (
            "10 25 38 47 2 3 4 5 6 7 8 9 56 57 66 67 68 69 76 77 84 85 88 89 "
            "102 103 13 14 15 16 17 18 64 65 72 73 78 79 100 101 108 109 28 29 "
            "30 31 32 60 61 70 71 96 97 98 99 41 42 43 44 52 53 94 95 104 105 "
            "115 116 117 118 119 120 121 122 123 124 125 110 111 112 113 114 11 "
            "12 0 1 26 27 19 20 21 22 23 24 39 40 33 34 35 36 37 48 49 45 46 50 "
            "51 54 55 58 59 62 63 74 75 80 81 82 83 86 87 90 91 92 93 106 107"
        ),
        "raised": None,
    },
    "t1-sat-off-abort": {
        "stats": (3001, 14810, 11810, 1, 0, 0, "states-exhausted"),
        "schedule": None,
        "raised": "states",
    },
    "t1-sat-off-memo-cap-abort": {
        "stats": (4001, 11785, 7785, 1, 0, 3466, "states-exhausted"),
        "schedule": None,
        "raised": "states",
    },
    "t1-sat-sleep": {
        "stats": (777, 804, 28, 8, 745, 0, "completed"),
        "schedule": (
            "10 25 38 47 2 3 4 5 6 7 8 9 56 57 66 67 68 69 76 77 84 85 88 89 "
            "102 103 13 14 15 16 17 18 64 65 72 73 78 79 100 101 108 109 28 29 "
            "30 31 32 60 61 70 71 96 97 98 99 41 42 43 44 52 53 94 95 104 105 "
            "115 116 117 118 119 120 121 122 123 124 125 110 111 112 113 114 11 "
            "12 0 1 26 27 19 20 21 22 23 24 39 40 33 34 35 36 37 48 49 45 46 50 "
            "51 54 55 58 59 62 63 74 75 80 81 82 83 86 87 90 91 92 93 106 107"
        ),
        "raised": None,
        "profile": {
            "version": 1, "searches": 1,
            "choices": {
                "-1|(root)|": {"chosen": 0, "states": 5, "dead_ends": 0, "backtracks": 0},
                "0|P|A1": {"chosen": 1, "states": 5, "dead_ends": 0, "backtracks": 1},
                "2|P|A1": {"chosen": 1, "states": 22, "dead_ends": 0, "backtracks": 0},
                "13|P|A2": {"chosen": 10, "states": 152, "dead_ends": 0, "backtracks": 9},
                "19|P|A2": {"chosen": 9, "states": 142, "dead_ends": 0, "backtracks": 9},
                "28|P|A3": {"chosen": 10, "states": 139, "dead_ends": 0, "backtracks": 9},
                "33|P|A3": {"chosen": 9, "states": 114, "dead_ends": 0, "backtracks": 9},
                "41|P|A4": {"chosen": 10, "states": 161, "dead_ends": 4, "backtracks": 9},
                "45|P|A4": {"chosen": 9, "states": 37, "dead_ends": 4, "backtracks": 9},
            },
        },
    },
    "t1-unsat-hoist": {
        "stats": (974, 1001, 28, 8, 947, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
    "t1-unsat-sleep": {
        "stats": (974, 1001, 28, 8, 947, 0, "completed"),
        "schedule": None,
        "raised": None,
        "ticks": [
            64, 128, 192, 256, 320, 384, 448, 512, 576, 640, 704, 768, 832, 896,
            960, 974
        ],
    },
    "t1-unsat-sleep-abort": {
        "stats": (701, 716, 16, 8, 677, 0, "states-exhausted"),
        "schedule": None,
        "raised": "states",
        "profile": {
            "version": 1, "searches": 1,
            "choices": {
                "-1|(root)|": {"chosen": 0, "states": 4, "dead_ends": 0, "backtracks": 0},
                "0|P|A1": {"chosen": 5, "states": 76, "dead_ends": 0, "backtracks": 5},
                "6|P|A1": {"chosen": 5, "states": 97, "dead_ends": 0, "backtracks": 5},
                "16|P|A2": {"chosen": 7, "states": 153, "dead_ends": 0, "backtracks": 7},
                "24|P|A2": {"chosen": 7, "states": 89, "dead_ends": 0, "backtracks": 6},
                "32|P|A3": {"chosen": 8, "states": 160, "dead_ends": 4, "backtracks": 7},
                "39|P|A3": {"chosen": 7, "states": 122, "dead_ends": 4, "backtracks": 7},
            },
        },
    },
    "t3-sat-hoist": {
        "stats": (1938, 2113, 176, 8, 1800, 0, "completed"),
        "schedule": (
            "0 1 2 6 7 3 8 46 47 56 57 58 59 66 67 74 75 78 79 92 93 10 11 12 "
            "13 14 15 16 54 55 62 63 68 69 90 91 98 99 20 21 22 23 24 25 26 50 "
            "51 60 61 86 87 88 89 30 31 32 33 34 35 36 42 43 84 85 94 95 109 "
            "110 111 112 113 114 115 116 117 118 119 100 101 102 4 5 9 44 45 "
            "103 17 18 19 40 41 48 49 72 73 80 81 82 83 104 105 27 28 29 52 53 "
            "64 65 76 77 96 97 106 107 37 38 39 70 71 108"
        ),
        "raised": None,
    },
    "t3-sat-off-abort": {
        "stats": (2501, 11072, 8572, 1, 0, 0, "states-exhausted"),
        "schedule": None,
        "raised": "states",
        "ticks": [
            200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000, 2200, 2400,
            2501
        ],
    },
    "t3-sat-sleep": {
        "stats": (1358, 1445, 88, 8, 1220, 0, "completed"),
        "schedule": (
            "0 1 2 6 7 3 8 46 47 56 57 58 59 66 67 74 75 78 79 92 93 10 11 12 "
            "13 14 15 16 54 55 62 63 68 69 90 91 98 99 20 21 22 23 24 25 26 50 "
            "51 60 61 86 87 88 89 30 31 32 33 34 35 36 42 43 84 85 94 95 109 "
            "110 111 112 113 114 115 116 117 118 119 100 101 102 4 5 9 44 45 "
            "103 17 18 19 40 41 48 49 72 73 80 81 82 83 104 105 27 28 29 52 53 "
            "64 65 76 77 96 97 106 107 37 38 39 70 71 108"
        ),
        "raised": None,
    },
    "t3-unsat-hoist": {
        "stats": (2435, 2610, 176, 8, 2310, 0, "completed"),
        "schedule": None,
        "raised": None,
        "profile": {
            "version": 1, "searches": 1,
            "choices": {
                "-1|(root)|": {"chosen": 0, "states": 1, "dead_ends": 0, "backtracks": 0},
                "0|post|A1": {"chosen": 1, "states": 1, "dead_ends": 0, "backtracks": 1},
                "1|post|B1": {"chosen": 21, "states": 22, "dead_ends": 0, "backtracks": 21},
                "3|clear|A1": {"chosen": 25, "states": 326, "dead_ends": 0, "backtracks": 25},
                "6|clear|B1": {"chosen": 25, "states": 413, "dead_ends": 0, "backtracks": 25},
                "10|post|A2": {"chosen": 5, "states": 5, "dead_ends": 0, "backtracks": 5},
                "11|post|B2": {"chosen": 21, "states": 26, "dead_ends": 0, "backtracks": 21},
                "13|clear|A2": {"chosen": 25, "states": 452, "dead_ends": 0, "backtracks": 25},
                "16|clear|B2": {"chosen": 25, "states": 290, "dead_ends": 0, "backtracks": 25},
                "20|post|A3": {"chosen": 21, "states": 21, "dead_ends": 0, "backtracks": 21},
                "21|post|B3": {"chosen": 21, "states": 42, "dead_ends": 0, "backtracks": 21},
                "23|clear|A3": {"chosen": 25, "states": 466, "dead_ends": 4, "backtracks": 25},
                "26|clear|B3": {"chosen": 25, "states": 370, "dead_ends": 4, "backtracks": 25},
            },
        },
    },
    "t3-unsat-memo-cap": {
        "stats": (8622, 8696, 75, 242, 7932, 8581, "completed"),
        "schedule": None,
        "raised": None,
    },
    "t3-unsat-sleep": {
        "stats": (1765, 1852, 88, 8, 1640, 0, "completed"),
        "schedule": None,
        "raised": None,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_reproduces_golden_exploration(name):
    assert observe(name) == EXPECTED[name]
