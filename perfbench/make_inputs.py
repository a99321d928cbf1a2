"""Regenerate the benchmark's committed inputs and expected answers.

    python3 perfbench/make_inputs.py            # rewrites perfbench/inputs/*.json

Each workload's input file is a list of *slots*.  A slot is one position
in the workload's fixed op sequence; it holds a few candidate inputs of
the same shape and near-equal cost.  A run's ``--seed`` picks one
candidate per slot (see ``perfbench/workloads.py``), so different seeds
run different inputs while every run does the same amount of work.

Where the expected answers come from (``"source"`` per candidate):

* exact-hard: satisfiability by DPLL, confirmed by brute force;
* scan-corpus / serve-rw: ``repro.core.enumerate`` (every legal point
  schedule) where the execution is small enough, else the engine alone
  with partial-order reduction off and no planner tiers -- the slow
  reference configuration, not the one measured;
* scan-jobs2: NOT independent.  Too large to enumerate, and the engine
  without sleep sets takes hours, so the answers come from the engine
  alone with sleep sets on (``engine-only,por=sleep``) -- the engine's
  default, which the workload measures.  The races found are still
  checked independently at run time (each witness is replayed), but a
  pair this reference calls non-racing is only the engine's own word:
  a sleep-set bug would be copied into these answers.

Cost (engine states, or the median of interleaved timings) drives only
the choice of candidates, never an answer.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.core.enumerate import _apply_end, _end_legal, _engine_tables  # noqa: E402
from repro.lang.interpreter import run_program  # noqa: E402
from repro.lang.parser import parse_program  # noqa: E402
from repro.lang.unparse import unparse_program  # noqa: E402
from repro.races.detector import FEASIBLE, UNKNOWN, RaceDetector  # noqa: E402
from repro.reductions import event_reduction, semaphore_reduction  # noqa: E402
from repro.sat.bruteforce import brute_force_satisfiable  # noqa: E402
from repro.sat.dpll import solve as dpll_solve  # noqa: E402
from repro.sat.generators import random_ksat  # noqa: E402
from repro.workloads.generators import random_full_program  # noqa: E402

INPUTS = os.path.join(HERE, "inputs")
CANDIDATES = 6  # per slot; a seed picks one
STATE_LIMIT = 50_000  # search states; above this the engine reference answers


# ----------------------------------------------------------------------
# program families (text, so the measured op parses it)
# ----------------------------------------------------------------------
def masking_text(width: int) -> str:
    """``width`` writers each V once; one reader P's once and reads all
    written variables -- any writer could have supplied the token."""
    decls = ["sem s = 0"] + [f"shared x{k} = 0" for k in range(width)]
    decls += [f"shared y{k} = 0" for k in range(width)]
    procs = [f"proc w{k} {{ x{k} := 1; V(s) }}" for k in range(width)]
    reads = "; ".join(f"y{k} := x{k}" for k in range(width))
    procs.append(f"proc r {{ P(s); {reads} }}")
    return "\n".join(decls + procs) + "\n"


def brawl_text(width: int, contended: bool) -> str:
    """``width`` writers of ``x``; contended writers ``2g``/``2g+1``
    share the lock cell ``m<g>`` (one token, from supplier ``s<g>``)."""
    decls = ["shared x = 0"]
    procs = []
    if contended:
        cells = (width + 1) // 2
        decls += [f"sem m{g} = 0" for g in range(cells)]
        procs += [f"proc s{g} {{ V(m{g}) }}" for g in range(cells)]
        procs += [
            f"proc w{k} {{ P(m{k // 2}); x := {k}; V(m{k // 2}) }}"
            for k in range(width)
        ]
    else:
        procs += [f"proc w{k} {{ x := {k} }}" for k in range(width)]
    return "\n".join(decls + procs) + "\n"


def execution_of(text: str, model: str, sched_seed: int):
    return run_program(
        parse_program(text), sched_seed, memory_model=model
    ).to_execution()


# ----------------------------------------------------------------------
# independent answers: the enumerator's transition rules, over states
# ----------------------------------------------------------------------
def state_relations(exe, max_states=STATE_LIMIT):
    """``(overlap, before)`` pair sets read off every legal point schedule.

    Uses :mod:`repro.core.enumerate`'s own begin/end rules, but walks the
    distinct states ``(begun, ended, event vars, semaphore counts)``
    instead of every schedule, so executions with millions of schedules
    stay checkable.  ``overlap`` holds ``(a, b)``, ``a < b``, when some
    complete schedule has both in progress at once (CCW); ``before``
    holds ``(a, b)`` when some complete schedule ends ``a`` before ``b``
    begins (CHB).  None when more than ``max_states`` states are
    reachable."""
    pre, sem_index, var_index, var_init, sem_init, join_need = _engine_tables(exe, True)
    n = len(exe)
    full = (1 << n) - 1
    start = (0, 0, var_init, sem_init)
    succ = {start: None}
    stack = [start]
    while stack:
        state = stack.pop()
        begun, ended, varmask, counts = state
        nxt = []
        for eid in range(n):
            bit = 1 << eid
            if not begun & bit:
                if not pre[eid] & ~ended:
                    nxt.append((begun | bit, ended, varmask, counts))
            elif not ended & bit and _end_legal(
                exe, eid, ended, varmask, counts, sem_index, var_index, join_need
            ):
                vm2, c2 = _apply_end(exe, eid, varmask, counts, sem_index, var_index)
                nxt.append((begun, ended | bit, vm2, c2))
        succ[state] = nxt
        for t in nxt:
            if t not in succ:
                succ[t] = None
                stack.append(t)
        if len(succ) > max_states:
            return None
    # every transition sets one more bit, so deeper states come first
    order = sorted(succ, key=lambda st: -(bin(st[0]).count("1") + bin(st[1]).count("1")))
    completable = set()
    for st in order:
        if st[1] == full or any(t in completable for t in succ[st]):
            completable.add(st)
    def members(mask):
        return [i for i in range(n) if mask >> i & 1]

    overlap, before = set(), set()
    for running in {b & ~e for b, e, _, _ in completable}:
        overlap.update(combinations(members(running), 2))
    for ended, fresh in {(e, full & ~b) for b, e, _, _ in completable}:
        before.update((x, y) for x in members(ended) for y in members(fresh))
    return overlap, before


def enumerated_races(exe):
    """Feasible races: a conflicting pair races iff it overlaps in some
    schedule of the execution without the pair's own dependence edges.
    None when any variant is too large."""
    races = []
    by_drop = {}
    for a, b in exe.conflicting_pairs():
        drop = frozenset(
            (x, y) for (x, y) in exe.dependences if {x, y} == {a, b}
        )
        by_drop.setdefault(drop, []).append((a, b))
    for drop, pairs in by_drop.items():
        variant = exe.with_dependences(exe.dependences - drop) if drop else exe
        rel = state_relations(variant)
        if rel is None:
            return None
        races += [p for p in pairs if p in rel[0]]
    return sorted(races)


def reference_races(exe, por):
    """Feasible races from the engine alone (no planner tiers)."""
    report = RaceDetector(exe, plan=("engine",), por=por).feasible_races()
    if any(c.status == UNKNOWN for c in report.classifications):
        raise RuntimeError("reference scan left a pair unknown")
    return sorted(
        (c.a, c.b) for c in report.classifications if c.status == FEASIBLE
    )


def expected_races(exe, *, enumerate_first=True, por="off"):
    if enumerate_first:
        races = enumerated_races(exe)
        if races is not None:
            return [list(p) for p in races], "enumerate"
    return [list(p) for p in reference_races(exe, por)], f"engine-only,por={por}"


def op_cost(text, model, sched_seed, runner=None, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        exe = execution_of(text, model, sched_seed)
        RaceDetector(exe).feasible_races(runner=runner)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def stamp_costs(pool, key, rounds=9):
    """Set ``key`` to each candidate's median op time in ms.  Rounds go
    over the whole pool in turn, so a machine that speeds up or slows
    down during the measurement shifts every candidate alike."""
    times = [[] for _ in pool]
    for _ in range(rounds):
        for i, c in enumerate(pool):
            times[i].append(op_cost(c["program"], c["model"], c["sched_seed"], repeats=1))
    for c, t in zip(pool, times):
        c[key] = round(statistics.median(t) * 1e3, 3)


def stamp_states(pool):
    """Engine states of each candidate's scan: a deterministic cost for
    one program text under different schedules (timing on this kind of
    host varies more between runs than between these candidates)."""
    for c in pool:
        exe = execution_of(c["program"], c["model"], c["sched_seed"])
        c["states"] = RaceDetector(exe).feasible_races().planner.engine_states()


def pick(pool, key, k=CANDIDATES):
    """The ``k`` pool members of most nearly equal cost (the window of
    ``k`` neighbours in cost order with the smallest max/min ratio) --
    the candidates a seed chooses between."""
    ordered = sorted(pool, key=key)
    best = min(
        range(len(ordered) - k + 1),
        key=lambda i: key(ordered[i + k - 1]) / max(key(ordered[i]), 1e-9),
    )
    return ordered[best:best + k]


# ----------------------------------------------------------------------
# scan-corpus
# ----------------------------------------------------------------------
def scan_corpus():
    slots = []
    spec = []
    for i in range(8):
        spec.append(("rand3", i, "sc" if i % 2 == 0 else "tso"))
    for i in range(4):
        spec.append(("rand4", i, "sc" if i % 2 == 0 else "tso"))
    for w in (2, 3, 4, 5):
        spec.append((f"masking{w}", w, "sc" if w % 2 == 0 else "tso"))
    for w in (4, 6):
        spec.append((f"brawl{w}", w, "tso" if w == 4 else "sc"))
    for w in (4, 6, 8, 10):
        spec.append((f"brawl{w}-contended", w, "sc" if w in (4, 8) else "tso"))
    gen_seed = 0
    for name, arg, model in spec:
        pool = []
        fixed_text = not name.startswith("rand")
        for j in range(30 if fixed_text else 14):
            sched = 1000 * len(slots) + j
            if name.startswith("rand"):
                procs = 3 if name == "rand3" else 4
                stmts = 4 if name == "rand3" else 5
                while True:
                    gen_seed += 1
                    prog = random_full_program(
                        seed=gen_seed, processes=procs,
                        statements_per_process=stmts,
                    )
                    text = unparse_program(prog)
                    exe = execution_of(text, model, sched)
                    if len(exe.conflicting_pairs()) >= 3:
                        break
            elif name.startswith("masking"):
                text = masking_text(arg)
            else:
                text = brawl_text(arg, name.endswith("contended"))
            pool.append({"program": text, "model": model, "sched_seed": sched})
        if fixed_text:  # same program, schedules differ: equal engine work
            stamp_states(pool)
            chosen = pick(pool, lambda c: c["states"] + 1)
            stamp_costs(chosen, "cost_ms")
        else:  # different programs: equal measured time
            stamp_costs(pool, "cost_ms")
            chosen = pick(pool, lambda c: c["cost_ms"])
        for c in chosen:
            exe = execution_of(c["program"], c["model"], c["sched_seed"])
            c["races"], c["source"] = expected_races(exe)
            c["pairs"] = len(exe.conflicting_pairs())
        slots.append({"slot": f"{name}/{model}", "candidates": chosen})
        print(f"scan-corpus {name}/{model}: "
              f"{[(c.get('states'), c['cost_ms']) for c in chosen]} "
              f"{[c['source'][:4] for c in chosen]}", flush=True)
    return slots


# ----------------------------------------------------------------------
# exact-hard
# ----------------------------------------------------------------------
REDUCTIONS = {"semaphore": semaphore_reduction, "event": event_reduction}


def exact_hard():
    # (family, vars, clauses, formula satisfiable?, query)
    spec = []
    for n, m in ((3, 8), (3, 10), (4, 10), (4, 12), (5, 12)):
        for fam in ("semaphore", "event"):
            spec.append((fam, n, m, True, "sat"))
            spec.append((fam, n, m, True, "unsat"))
    spec += [
        ("semaphore", 3, 12, False, "sat"),
        ("semaphore", 3, 12, False, "unsat"),
        ("event", 3, 12, False, "sat"),
        ("event", 3, 12, False, "unsat"),
        ("semaphore", 5, 20, True, "sat"),
        ("event", 5, 20, True, "sat"),
        ("semaphore", 4, 16, False, "sat"),
        ("semaphore", 4, 16, False, "unsat"),
    ]
    slots = []
    for fam, n, m, sat, query in spec:
        pool = []
        seed = 0
        while len(pool) < 32 and seed < 8000:
            seed += 1
            cnf = random_ksat(n, m, seed=seed)
            model = dpll_solve(cnf)
            if (model is not None) != sat:
                continue
            if (brute_force_satisfiable(cnf) is not None) != sat:
                raise RuntimeError("DPLL and brute force disagree")
            red = REDUCTIONS[fam](cnf)
            q = red.queries()
            if query == "sat":
                q.chb(red.b, red.a)
            else:
                q.mhb(red.a, red.b)
            pool.append(
                {"clauses": [list(c) for c in cnf],
                 "num_vars": n, "formula_seed": seed,
                 "states": q.stats.states_visited}
            )
        if len(pool) < CANDIDATES:
            raise RuntimeError(f"too few formulas for {fam} {n} {m} {sat}")
        chosen = pick(pool, lambda c: c["states"])
        # the query's expected answer: CHB(b, a) iff SAT (Theorems 2/4);
        # MHB(a, b) iff UNSAT (Theorems 1/3)
        expect = sat if query == "sat" else not sat
        slots.append(
            {"slot": f"{fam}/n{n}m{m}/{'SAT' if sat else 'UNSAT'}/{query}",
             "family": fam, "query": query, "satisfiable": sat,
             "expected": expect, "source": "dpll+bruteforce",
             "candidates": chosen}
        )
        print(f"exact-hard {slots[-1]['slot']}: "
              f"{[c['states'] for c in chosen]}", flush=True)
    return slots


# ----------------------------------------------------------------------
# serve-rw
# ----------------------------------------------------------------------
def serve_rw():
    """Small executions with every pair query answered."""
    pool = []
    gen_seed = 500
    while len(pool) < 16:
        gen_seed += 1
        prog = random_full_program(
            seed=gen_seed, processes=3, statements_per_process=3
        )
        text = unparse_program(prog)
        model = "sc" if len(pool) % 2 == 0 else "tso"
        exe = execution_of(text, model, gen_seed)
        pairs = exe.conflicting_pairs()
        if len(pairs) < 2 or len(exe) > 12:
            continue
        races = enumerated_races(exe)
        rel = state_relations(exe)
        if races is None or rel is None:
            continue
        overlap, before = rel
        queries = []
        for a, b in pairs:
            ccw = (min(a, b), max(a, b)) in overlap
            queries.append(["race", a, b, (a, b) in set(races)])
            queries.append(["mhb", a, b, not ccw and (b, a) not in before])
            queries.append(["chb", b, a, (b, a) in before])
            queries.append(["ccw", a, b, ccw])
        pool.append(
            {"program": text, "model": model, "sched_seed": gen_seed,
             "source": "enumerate", "queries": queries}
        )
        print(f"serve-rw execution {len(pool)}: {len(exe)} events, "
              f"{len(queries)} queries", flush=True)
    return [{"slot": "executions", "candidates": pool}]


# ----------------------------------------------------------------------
# scan-jobs2
# ----------------------------------------------------------------------
def scan_jobs2():
    """brawl x16 contended under scheduler seeds whose serial scan costs
    about as much as starting the two-worker pool (a worker's spawn to
    ready took ~0.35 s on a 2-vCPU 2.1 GHz Xeon VM): the crossover the
    supervised path must not lose."""
    from repro.supervise import SupervisedScanner

    text = brawl_text(16, True)
    slots = []
    for slot, model in enumerate(("sc", "tso")):
        pool = []
        sched = 7000 + 1000 * slot
        while len(pool) < 16 and sched < 7000 + 1000 * slot + 400:
            sched += 1
            if 150.0 <= op_cost(text, model, sched, repeats=1) * 1e3 <= 600.0:
                pool.append({"program": text, "model": model, "sched_seed": sched})
        stamp_states(pool)
        chosen = pick(pool, lambda c: c["states"] + 1)
        stamp_costs(chosen, "serial_ms", rounds=3)
        for c in chosen:
            exe = execution_of(text, model, c["sched_seed"])
            # far too many states to enumerate, and the unreduced engine
            # takes hours here: the engine alone, with sleep sets
            c["races"], c["source"] = expected_races(
                exe, enumerate_first=False, por="sleep")
            c["pairs"] = len(exe.conflicting_pairs())
            c["jobs2_ms"] = round(
                op_cost(text, model, c["sched_seed"],
                        runner=SupervisedScanner(jobs=2), repeats=1) * 1e3, 1)
        slots.append({"slot": f"brawl16-contended/{model}", "candidates": chosen})
        print(f"scan-jobs2 {model}: "
              f"{[(c['states'], c['serial_ms'], c['jobs2_ms']) for c in chosen]}",
              flush=True)
    return slots


def write(name, slots):
    os.makedirs(INPUTS, exist_ok=True)
    path = os.path.join(INPUTS, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"workload": name, "slots": slots}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    makers = {
        "scan-corpus": scan_corpus,
        "exact-hard": exact_hard,
        "serve-rw": serve_rw,
        "scan-jobs2": scan_jobs2,
    }
    for name in argv or list(makers):
        write(name, makers[name]())


if __name__ == "__main__":
    main(sys.argv[1:])
