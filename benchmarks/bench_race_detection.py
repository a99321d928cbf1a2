"""Experiment X4 -- the race-detection corollary (Conclusion).

"An implication of these results is that exhaustively detecting all
data races potentially exhibited by a given program execution is an
intractable problem."

Regenerated as a head-to-head between the polynomial *apparent*
detector (vector clocks on the observed pairing) and the exact
*feasible* detector (a CCW query per conflicting pair):

* on the masking family, apparent detection under-reports -- the
  observed V/P pairing hides races other feasible executions expose;
* the exact detector backs every report with a validated overlap
  witness;
* cost columns show the price of exactness growing with conflicting
  pairs, while the apparent detector stays flat;
* a ``jobs=2`` column scans the same pairs through the crash-isolated
  worker pool -- identical classifications, and the worker start-up
  overhead shows when parallelism starts paying (many/hard pairs, not
  these toy widths).
"""

import json
import os
import time

from conftest import RESULTS_DIR, report, table

from repro.lang.ast import (
    Assign,
    Const,
    Fence,
    LocalAssign,
    ProcessDef,
    Program,
    SemP,
    SemV,
    Shared,
)
from repro.lang.interpreter import run_program
from repro.lang.scheduler import FixedScheduler, PriorityScheduler
from repro.races.detector import RaceDetector
from repro.supervise import SupervisedScanner
from repro.workloads.programs import figure1_execution


def masking_family(width: int):
    """``width`` writers each V once; a reader P's once then reads all
    written variables.  The observed run pairs the P with writer 0's V,
    apparently ordering that writer's data below the read -- feasibly,
    any single writer could have supplied the token."""
    procs = [
        ProcessDef(f"w{k}", [Assign(f"x{k}", Const(1)), SemV("s")])
        for k in range(width)
    ]
    reader_body = [SemP("s")] + [
        Assign(f"y{k}", Shared(f"x{k}")) for k in range(width)
    ]
    procs.append(ProcessDef("r", reader_body))
    prog = Program(procs)
    schedule = ["w0", "w0", "r"] + [
        x for k in range(1, width) for x in (f"w{k}", f"w{k}")
    ] + ["r"] * width
    return run_program(prog, FixedScheduler(schedule)).to_execution()


def run_study():
    workloads = [("figure1", figure1_execution())] + [
        (f"masking x{w}", masking_family(w)) for w in (2, 3, 4)
    ]
    rows = []
    for name, exe in workloads:
        detector = RaceDetector(exe)
        t0 = time.perf_counter()
        apparent = detector.apparent_races()
        t_apparent = time.perf_counter() - t0
        t0 = time.perf_counter()
        feasible = detector.feasible_races()
        t_feasible = time.perf_counter() - t0
        for race in feasible.races:
            race.witness.validate(include_dependences=False)
        t0 = time.perf_counter()
        supervised = RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2)
        )
        t_jobs2 = time.perf_counter() - t0
        rows.append(
            dict(
                name=name, exe=exe,
                pairs=feasible.conflicting_pairs_examined,
                apparent=len(apparent.races), feasible=len(feasible.races),
                missed=len(
                    set(map(frozenset, feasible.pairs()))
                    - set(map(frozenset, apparent.pairs()))
                ),
                supervised=supervised,
                serial_status=[
                    (c.a, c.b, c.status) for c in feasible.classifications
                ],
                t_apparent=t_apparent, t_feasible=t_feasible, t_jobs2=t_jobs2,
            )
        )
    return rows


def test_feasible_vs_apparent_races(benchmark):
    rows = benchmark(run_study)

    for r in rows:
        assert r["feasible"] >= r["apparent"] - 0  # exactness never under the masking family
        if r["name"].startswith("masking"):
            width = int(r["name"].split("x")[-1])
            # the race on x0 is masked by the accidental pairing
            assert r["missed"] >= 1
            assert r["feasible"] == width  # every writer's data races with its read
        # the crash-isolated pool is an execution strategy, not a
        # different detector: classifications must match the serial scan
        assert [
            (c.a, c.b, c.status) for c in r["supervised"].classifications
        ] == r["serial_status"]

    body = [
        [
            r["name"], len(r["exe"]), r["pairs"], r["apparent"], r["feasible"],
            r["missed"],
            f"{r['t_apparent'] * 1e3:.1f}ms", f"{r['t_feasible'] * 1e3:.1f}ms",
            f"{r['t_jobs2'] * 1e3:.1f}ms",
        ]
        for r in rows
    ]
    lines = table(
        ["workload", "|E|", "conflicting pairs", "apparent", "feasible",
         "missed by apparent", "apparent time", "feasible time",
         "feasible jobs=2"],
        body,
    )
    lines.append("")
    lines.append("every feasible race carries a replayed overlap witness; the")
    lines.append("apparent detector misses the pairing-masked races, and the")
    lines.append("exact detector's cost is what the corollary says it must be")
    report("race_detection", lines)


# ----------------------------------------------------------------------
# SC vs TSO: the store-buffering family separates the memory models
# ----------------------------------------------------------------------
def store_buffering_family(width: int, *, fenced: bool = False,
                           memory_model: str = "sc"):
    """``width`` independent store-buffering litmus pairs: ``A_k``
    writes ``x_k`` then reads ``y_k`` while ``B_k`` writes ``y_k`` then
    ``x_k``.  Run with every ``A`` prioritized, the recorded
    dependences per pair are ``aw_k -> bx_k`` and ``ar_k -> bw_k``;
    under SC the ``(aw_k, bx_k)`` conflict is provably infeasible
    through the program-order edge ``aw_k -> ar_k``, and under TSO that
    edge is exactly the one the store buffer relaxes.  ``fenced=True``
    drains the buffer between the two, restoring the SC verdicts."""
    procs = []
    for k in range(width):
        a_body = [Assign(f"x{k}", Const(1), label=f"aw{k}")]
        if fenced:
            a_body.append(Fence())
        a_body.append(LocalAssign(f"$t{k}", Shared(f"y{k}"), label=f"ar{k}"))
        procs.append(ProcessDef(f"A{k}", a_body))
        procs.append(
            ProcessDef(
                f"B{k}",
                [
                    Assign(f"y{k}", Const(2), label=f"bw{k}"),
                    Assign(f"x{k}", Const(2), label=f"bx{k}"),
                ],
            )
        )
    prog = Program(procs)
    scheduler = PriorityScheduler([f"A{k}" for k in range(width)])
    return run_program(
        prog, scheduler, memory_model=memory_model
    ).to_execution()


def run_memory_model_study():
    workloads = [
        ("store-buffer x1", 1, False),
        ("store-buffer x2", 2, False),
        ("store-buffer x3", 3, False),
        ("store-buffer x3 fenced", 3, True),
    ]
    rows = []
    for name, width, fenced in workloads:
        row = dict(name=name, width=width, fenced=fenced)
        for model in ("sc", "tso"):
            exe = store_buffering_family(
                width, fenced=fenced, memory_model=model
            )
            t0 = time.perf_counter()
            feasible = RaceDetector(exe).feasible_races()
            row[f"t_{model}"] = time.perf_counter() - t0
            row[f"exe_{model}"] = exe
            row[f"feasible_{model}"] = feasible
        # the two runs interleave differently (a TSO fence blocks its
        # process mid-body), so compare races by event *label*, not eid
        row["tso_only"] = len(
            _label_pairs(row["exe_tso"], row["feasible_tso"])
            - _label_pairs(row["exe_sc"], row["feasible_sc"])
        )
        rows.append(row)
    return rows


def _label_pairs(exe, feasible_report):
    return {
        frozenset((exe.event(a).label, exe.event(b).label))
        for a, b in feasible_report.pairs()
    }


def test_sc_vs_tso_store_buffering(benchmark):
    rows = benchmark(run_memory_model_study)

    for r in rows:
        width = r["width"]
        sc, tso = r["feasible_sc"], r["feasible_tso"]
        # SC proves one conflicting pair per litmus infeasible; every
        # SC race is also a TSO race (relaxation only removes orderings)
        assert len(sc.races) == width
        sc_pairs = _label_pairs(r["exe_sc"], sc)
        tso_pairs = _label_pairs(r["exe_tso"], tso)
        assert sc_pairs <= tso_pairs
        if r["fenced"]:
            # the fence re-orders the store below the read: TSO agrees
            # with SC pair for pair
            assert tso_pairs == sc_pairs
            assert r["tso_only"] == 0
        else:
            # each litmus contributes exactly one TSO-only race -- the
            # write/write conflict the store buffer un-orders
            assert len(tso.races) == 2 * width
            assert r["tso_only"] == width

    body = [
        [
            r["name"], len(r["exe_sc"]),
            r["feasible_sc"].conflicting_pairs_examined,
            len(r["feasible_sc"].races), len(r["feasible_tso"].races),
            r["tso_only"],
            f"{r['t_sc'] * 1e3:.1f}ms", f"{r['t_tso'] * 1e3:.1f}ms",
        ]
        for r in rows
    ]
    lines = table(
        ["workload", "|E|", "conflicting pairs", "feasible (sc)",
         "feasible (tso)", "tso-only", "sc time", "tso time"],
        body,
    )
    lines.append("")
    lines.append("the same observed run, reinterpreted under TSO, exposes one")
    lines.append("extra race per litmus -- the store-buffered write/write pair")
    lines.append("SC proves infeasible; a fence restores the SC verdicts")
    report("race_memory_models", lines)


# ----------------------------------------------------------------------
# the solver portfolio against the engine-only scan
# ----------------------------------------------------------------------
def brawl_family(width: int, *, contended: bool = False):
    """``width`` unsynchronized single-write processes all hitting
    ``x``: every pair conflicts, and the observed schedule's widenings
    hand the portfolio most answers for free.

    With ``contended=True`` the brawl on ``x`` is unchanged but writers
    ``2g`` and ``2g+1`` guard their write with the same lock cell
    ``m_g`` (fed a single token by a supplier).  The contested P's are
    never free -- hoisting cannot touch them -- yet P's on *different*
    cells commute, so the workload has exactly the branching structure
    sleep-set pruning exists for.  This is the POR column's subject."""
    procs = []
    schedule = []
    if contended:
        for g in range((width + 1) // 2):
            procs.append(ProcessDef(f"s{g}", [SemV(f"m{g}")]))
            schedule.append(f"s{g}")
        for k in range(width):
            procs.append(
                ProcessDef(
                    f"w{k}",
                    [SemP(f"m{k // 2}"), Assign("x", Const(k)),
                     SemV(f"m{k // 2}")],
                )
            )
            schedule += [f"w{k}"] * 3
    else:
        procs = [
            ProcessDef(f"w{k}", [Assign("x", Const(k))])
            for k in range(width)
        ]
        schedule = [f"w{k}" for k in range(width)]
    return run_program(
        Program(procs), FixedScheduler(schedule)
    ).to_execution()


def scan_with_plan(exe, plan, por="sleep"):
    detector = RaceDetector(exe, plan=plan, por=por)
    t0 = time.perf_counter()
    feasible = detector.feasible_races()
    elapsed = time.perf_counter() - t0
    return feasible, elapsed


POR_MODES = ("off", "hoist", "sleep")
POR_MODELS = ("sc", "tso")
POR_BASELINE = os.path.join(RESULTS_DIR, "por_baseline.json")


def run_planner_study():
    workloads = [
        ("figure1", figure1_execution()),
        ("masking x3", masking_family(3)),
        ("brawl x4", brawl_family(4)),
        ("brawl x5", brawl_family(5)),
        ("brawl x5 locked", brawl_family(5, contended=True)),
        ("brawl x6 locked", brawl_family(6, contended=True)),
    ]
    rows = []
    for name, exe in workloads:
        # the pre-refactor scan: structural shortcut, then the exact
        # engine per pair -- no observed/witness/HMW tiers
        baseline, t_base = scan_with_plan(exe, ("structural", "engine"))
        portfolio, t_port = scan_with_plan(exe, None)  # DEFAULT_PLAN
        # the POR column: the same engine-only scan per reduction mode,
        # under both memory models -- classifications must not move
        por = {}
        for model in POR_MODELS:
            m_exe = exe.with_memory_model(model)
            for mode in POR_MODES:
                por[(model, mode)], _ = scan_with_plan(
                    m_exe, ("structural", "engine"), por=mode
                )
        rows.append(
            dict(
                name=name,
                pairs=portfolio.conflicting_pairs_examined,
                baseline=baseline, portfolio=portfolio, por=por,
                t_base=t_base, t_port=t_port,
            )
        )
    return rows


def test_planner_portfolio_vs_engine_only(benchmark):
    rows = benchmark(run_planner_study)

    total_pairs = total_below = 0
    for r in rows:
        base, port = r["baseline"], r["portfolio"]
        # the portfolio is an execution strategy, not a different
        # detector: classifications must match the engine-only scan
        assert [(c.a, c.b, c.status) for c in port.classifications] == [
            (c.a, c.b, c.status) for c in base.classifications
        ]
        # cheaper tiers may only ever SAVE exact search
        assert port.planner.engine_states() <= base.planner.engine_states()
        total_pairs += r["pairs"]
        total_below += port.planner.answered_below("engine")
    # the headline: a healthy share of CCW answers never touch the
    # exponential tier (each pair also costs feasibility queries, so
    # compare against the pair count, the scan's unit of work)
    assert total_below >= 0.3 * total_pairs

    # --- the POR column ------------------------------------------------
    # reduction is an execution strategy too: under BOTH memory models,
    # every mode must classify pair for pair like the unreduced scan,
    # and may only ever remove engine states
    brawl_states = {
        (model, mode): 0 for model in POR_MODELS for mode in POR_MODES
    }
    for r in rows:
        for model in POR_MODELS:
            off = r["por"][(model, "off")]
            for mode in ("hoist", "sleep"):
                red = r["por"][(model, mode)]
                assert [
                    (c.a, c.b, c.status) for c in red.classifications
                ] == [
                    (c.a, c.b, c.status) for c in off.classifications
                ], (r["name"], model, mode)
                assert (
                    red.planner.engine_states()
                    <= off.planner.engine_states()
                ), (r["name"], model, mode)
            if r["name"].startswith("brawl"):
                for mode in POR_MODES:
                    brawl_states[(model, mode)] += r["por"][
                        (model, mode)
                    ].planner.engine_states()
    # the acceptance headline: >= 2x states-visited collapse across the
    # brawl family with POR on, under both memory models
    for model in POR_MODELS:
        assert (
            brawl_states[(model, "off")]
            >= 2 * brawl_states[(model, "sleep")]
        ), (model, brawl_states)

    # --- the regression gate vs the checked-in baseline ----------------
    # the engine is deterministic, so the sleep-mode state counts are
    # exact; a count above the baseline means the reduction regressed
    with open(POR_BASELINE) as fh:
        baseline_states = json.load(fh)["engine_states_sleep"]
    for r in rows:
        for model in POR_MODELS:
            key = f"{r['name']}/{model}"
            states = r["por"][(model, "sleep")].planner.engine_states()
            assert states <= baseline_states[key], (
                key, states, baseline_states[key],
            )

    body = [
        [
            r["name"], r["pairs"],
            r["baseline"].planner.engine_states(),
            r["portfolio"].planner.engine_states(),
            r["portfolio"].planner.answered_below("engine"),
            f"{r['t_base'] * 1e3:.1f}ms", f"{r['t_port'] * 1e3:.1f}ms",
        ]
        for r in rows
    ]
    lines = table(
        ["workload", "conflicting pairs", "engine states (engine-only)",
         "engine states (portfolio)", "answered below exact",
         "engine-only time", "portfolio time"],
        body,
    )
    lines.append("")
    lines.append(
        f"portfolio answered {total_below} quer(ies) across "
        f"{total_pairs} conflicting pairs without the exact engine "
        f"(>= 30% required)"
    )
    lines.append("identical classifications on every workload; the ladder")
    lines.append("only ever removes exact-search states, never adds them")
    report("race_planner", lines)

    def _collapse(r, model):
        off = r["por"][(model, "off")].planner.engine_states()
        sleep = r["por"][(model, "sleep")].planner.engine_states()
        return f"{off / sleep:.1f}x" if sleep else "-"

    por_body = [
        [
            r["name"], model,
            r["por"][(model, "off")].planner.engine_states(),
            r["por"][(model, "hoist")].planner.engine_states(),
            r["por"][(model, "sleep")].planner.engine_states(),
            _collapse(r, model),
        ]
        for r in rows
        for model in POR_MODELS
    ]
    por_lines = table(
        ["workload", "model", "engine states (por=off)",
         "engine states (por=hoist)", "engine states (por=sleep)",
         "collapse"],
        por_body,
    )
    por_lines.append("")
    for model in POR_MODELS:
        por_lines.append(
            f"brawl family under {model}: "
            f"{brawl_states[(model, 'off')]} states unreduced vs "
            f"{brawl_states[(model, 'sleep')]} with sleep sets "
            f"(>= 2x collapse required)"
        )
    por_lines.append("pair-for-pair identical classifications in every")
    por_lines.append("mode, under both memory models; reduction only ever")
    por_lines.append("removes exact-search states, never adds them")
    report("race_por", por_lines)


# ----------------------------------------------------------------------
# observability overhead: tracing must watch the scan, not change it
# ----------------------------------------------------------------------
def run_traced_study(tmp_dir):
    from repro.obs import JsonlTraceSink, summarize_trace

    workloads = [
        ("figure1", figure1_execution()),
        ("masking x3", masking_family(3)),
        ("brawl x4", brawl_family(4)),
    ]
    rows = []
    for i, (name, exe) in enumerate(workloads):
        t0 = time.perf_counter()
        untraced = RaceDetector(exe).feasible_races()
        t_plain = time.perf_counter() - t0
        path = str(tmp_dir / f"trace{i}.jsonl")
        t0 = time.perf_counter()
        with JsonlTraceSink(path) as sink:
            traced = RaceDetector(exe).feasible_races(tracer=sink)
        t_traced = time.perf_counter() - t0
        rows.append(
            dict(
                name=name, path=path,
                untraced=untraced, traced=traced,
                summary=summarize_trace(path),
                t_plain=t_plain, t_traced=t_traced,
            )
        )
    return rows


def test_tracing_is_a_pure_observer(benchmark, tmp_path):
    rows = benchmark(lambda: run_traced_study(tmp_path))

    for r in rows:
        # tracing is observation only: identical classifications
        assert [
            (c.a, c.b, c.status) for c in r["traced"].classifications
        ] == [(c.a, c.b, c.status) for c in r["untraced"].classifications]
        # and the trace re-aggregates into EXACTLY the live per-tier
        # report -- the property `repro trace summarize` relies on
        assert (
            r["summary"].planner.snapshot() == r["traced"].planner.snapshot()
        )

    body = [
        [
            r["name"],
            r["traced"].conflicting_pairs_examined,
            sum(r["summary"].pairs.values()),
            r["summary"].planner.queries,
            f"{r['t_plain'] * 1e3:.1f}ms",
            f"{r['t_traced'] * 1e3:.1f}ms",
        ]
        for r in rows
    ]
    lines = table(
        ["workload", "conflicting pairs", "pair spans", "query spans",
         "untraced time", "traced time"],
        body,
    )
    lines.append("")
    lines.append("summarize(trace) reproduced each scan's planner table")
    lines.append("exactly; classifications are untouched by tracing")
    report("race_tracing", lines)


# ----------------------------------------------------------------------
# profiler overhead: attributing search cost must not change the search
# ----------------------------------------------------------------------
def ordered_pipeline(width: int):
    """``width`` writers of one variable chained by semaphores: every
    conflicting pair is infeasible and proving it takes an exhaustive
    (pair-local) engine search -- the profiler has real work to
    attribute, and serial/parallel scans must agree on all of it."""
    procs = [ProcessDef("w0", [Assign("x", Const(0)), SemV("s0")])]
    for k in range(1, width):
        procs.append(
            ProcessDef(
                f"w{k}",
                [SemP(f"s{k-1}"), Assign("x", Const(k)), SemV(f"s{k}")],
            )
        )
    schedule = ["w0", "w0"]
    for k in range(1, width):
        schedule += [f"w{k}"] * 3
    return run_program(
        Program(procs), FixedScheduler(schedule)
    ).to_execution()


def run_profiled_study():
    from repro.obs import SearchProfile

    workloads = [
        ("figure1", figure1_execution()),
        ("brawl x4", brawl_family(4)),
        ("pipeline x4", ordered_pipeline(4)),
        ("pipeline x5", ordered_pipeline(5)),
    ]
    rows = []
    for name, exe in workloads:
        t0 = time.perf_counter()
        plain = RaceDetector(exe).feasible_races()
        t_plain = time.perf_counter() - t0
        profile = SearchProfile()
        t0 = time.perf_counter()
        profiled = RaceDetector(exe).feasible_races(profile=profile)
        t_profiled = time.perf_counter() - t0
        par_profile = SearchProfile()
        RaceDetector(exe).feasible_races(
            runner=SupervisedScanner(jobs=2), profile=par_profile
        )
        rows.append(
            dict(
                name=name, plain=plain, profiled=profiled,
                profile=profile, par_profile=par_profile,
                t_plain=t_plain, t_profiled=t_profiled,
            )
        )
    return rows


def test_profiling_is_a_pure_observer(benchmark):
    rows = benchmark(run_profiled_study)

    for r in rows:
        # profiling is observation only: identical classifications AND
        # identical engine work, state for state
        assert [
            (c.a, c.b, c.status) for c in r["profiled"].classifications
        ] == [(c.a, c.b, c.status) for c in r["plain"].classifications]
        assert {
            t: v.states for t, v in r["profiled"].planner.tiers.items()
        } == {t: v.states for t, v in r["plain"].planner.tiers.items()}
        # a 2-worker pool scan attributes the same states to the same
        # frontier choices -- profiles merge back to the serial truth
        assert r["par_profile"].snapshot() == r["profile"].snapshot()

    body = [
        [
            r["name"],
            sum(v.states for v in r["plain"].planner.tiers.values()),
            r["profile"].total_states,
            len(r["profile"].hot_events(top=1000)),
            f"{r['t_plain'] * 1e3:.1f}ms",
            f"{r['t_profiled'] * 1e3:.1f}ms",
        ]
        for r in rows
    ]
    lines = table(
        ["workload", "tier states", "attributed states", "hot events",
         "unprofiled time", "profiled time"],
        body,
    )
    lines.append("")
    lines.append("profiled scans classify identically and visit the same")
    lines.append("states; 2-worker profiles equal the serial profile exactly")
    for line in rows[-1]["profile"].describe(top=3):
        lines.append(line)
    report("race_profiling", lines)
