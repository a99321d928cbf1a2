"""Exact feasibility search over begin/end point schedules.

The paper's temporal ordering ``T`` is interval-based: ``a ->T b`` iff
``a`` *completes* before ``b`` *begins*; events whose intervals overlap
executed concurrently.  On a sequentially consistent machine the
legality of an execution depends only on the discrete order of
operation begins and completions, so every distinct ``T`` a feasible
execution can exhibit corresponds to a legal total order of the
``2|E|`` *points* ``begin(e)``/``end(e)``.  The engine searches this
space.

Point-schedule legality (DESIGN.md Section 4.2):

* ``begin(e) < end(e)``;
* program order: ``end(pred(e)) < begin(e)`` within a process;
* ``end(fork) < begin(first event of created process)``;
* ``end(last event of each joined process) < end(join)`` (a join
  *completes* only when the joined processes have completed);
* ``P(s)`` completes only when count(s) > 0; counts change at ``P``/``V``
  completion;
* ``Wait(v)`` completes only when ``v`` is posted; ``Post``/``Clear``
  take effect at completion;
* every dependence ``a ->D b`` requires ``end(a) < begin(b)`` (F3: the
  dependence must recur, so ``a`` must still causally precede ``b``).

Two exactness-preserving reductions of the point space (proved in
DESIGN.md, exercised by ``tests/test_serialization_lemma.py``):

1. *Serialization lemma* -- an ``end(a) < begin(b)`` constraint is
   satisfiable by some legal point schedule iff it is satisfiable by a
   legal **serial** schedule (every event atomic).  Ordering events by
   their end points collapses any legal point schedule to a legal
   serial one and preserves every ``end < begin`` constraint.
2. *Interval-event restriction* -- for an overlap query about events
   ``a, b`` only those two events need distinct begin/end points; all
   other events can be treated atomically (delaying a begin toward its
   end never invalidates a schedule, and no constraint mentions the
   other events' begins).

So the engine is parameterized by the set of *interval events*: those
get separate begin/end actions, the rest execute atomically.  With an
empty set it is a serial-schedule searcher; with the full event set it
enumerates genuine point schedules (used by the reference enumerator).

A state is four ints: the begun and ended event bitmasks, the posted
event variables, and the semaphore counts packed one field per
semaphore.  Monotone progress makes the state graph a DAG, so memoizing
failed states is sound.  The search is one depth-first loop over an
explicit stack of frames -- no recursion, so its depth is bounded by
memory, not by the interpreter's recursion limit.  Each frame carries
two masks alongside its state, updated incrementally on every
completion instead of rescanning every event:

* *ready* -- the not-begun events whose begin prerequisites have all
  ended; a completion can only make its own begin-successors ready;
* *blocked* -- the ``P``'s of semaphores whose count is 0 plus the
  ``Wait``'s of unposted variables; a ``P``/``V``/``Post``/``Clear``
  completion flips only its own object's members.

The candidates at a state are then ``ready & ~blocked`` (interval
begins are never blocked) plus the begun, unblocked interval events;
only gated points and joins need a per-event check.  Dead-end pruning
(a ``Wait`` that can never be satisfied again; with binary semaphores,
a token supply that can no longer cover the remaining ``P``'s) is
tested in full once, at the start state, and afterwards only for the
object the last completion touched: every other object's condition is
unchanged from the parent, which was not a dead end (else it would
not have been expanded).

Partial-order reduction (action hoisting)
-----------------------------------------
The searches answer *completability* questions, so a classic ample-set
argument applies: if an enabled action ``t`` is **free** -- executing
it cannot disable any other current or future action, and its effect
commutes leftward past every other action -- then some completion
exists from state ``s`` iff one exists from ``s . t``, because any
completion containing ``t`` can be reordered to perform ``t`` first
(``t``'s gates are already satisfied at ``s``; its points moving
earlier can only help gates in which they are "before" points; its
semantic effect, if any, is monotone).  Free actions:

* computation, fork, join and *enabled* Wait completions (no semantic
  effect at all);
* ``V`` completions on counting semaphores (counts only grow, and
  ``P``-enabledness is monotone in prior ``V`` count) -- **not** free
  for binary semaphores, where an early ``V`` can be swallowed by the
  clamp;
* ``Post`` completions on variables that no event ever Clears (the
  posted state is then monotone);
* begin points of interval events (begins have no semantic effect).

Only ``P``, ``Clear``, and ``Post``-with-``Clear``-around remain
branching choices.  On the Theorem 1 construction this cuts the
explored state count by multiple orders of magnitude while preserving
exactness; ``tests/test_core_engine.py`` cross-checks hoisted searches
against the unreduced reference enumerator.

Partial-order reduction (sleep sets)
------------------------------------
Hoisting only collapses states with a *free* action; at genuine branch
points the search still explores every enabled action, so two
independent branching actions ``t``/``u`` cost both interleavings
``t.u`` and ``u.t``.  With ``por="sleep"`` the engine additionally
runs Godefroid-style sleep sets over a static independence relation
``I`` derived from the dependence edges, the sync structure
(semaphores, post/wait/clear, fork/join) and the active memory model's
program-order constraints: after exploring branch ``t``, later sibling
branches carry ``t`` in their sleep set for as long as only
``I``-independent actions execute, so the commuted interleaving is
never re-explored.  The failure memo becomes sleep-aware (an entry
records the sleep set it failed under and is reused only for supersets)
and hoisted singletons either filter the sleep set (when the hoisted
action is *persistent* -- nothing dependent with it can run first) or
wake every sleeper (when hoist exactness is the only argument).
DESIGN.md Section 4.2c proves verdicts are preserved exactly, including
under ``memoize``/``memo_cap`` and budget aborts; the reference
enumerator stays unreduced as the differential oracle.

``por="hoist"`` keeps only the free-action hoisting above and
``por="off"`` disables both reductions (every search is the plain
memoized DFS) -- the ladder the benchmarks use to measure each layer.
The order in which successors are tried is part of the contract: a
satisfiable search stops at its first witness, so the witness and every
counter depend on it (``tests/test_engine_golden.py`` pins both).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.budget import Budget, DEADLINE, STATES
from repro.model.events import EventKind
from repro.model.execution import ProgramExecution

try:  # int.bit_count is 3.10+; fall back for the 3.9 CI lane
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on 3.9
    def _popcount(x: int) -> int:
        return bin(x).count("1")


class Point(NamedTuple):
    """One schedule point: the begin or the end of an event."""

    eid: int
    is_end: bool

    def __repr__(self) -> str:
        return f"{'E' if self.is_end else 'B'}({self.eid})"


def begin_point(eid: int) -> Point:
    return Point(eid, False)


def end_point(eid: int) -> Point:
    return Point(eid, True)


class SearchBudgetExceeded(RuntimeError):
    """The search exhausted its budget (states or wall-clock deadline).

    ``resource`` names what ran out: ``"states"`` or ``"deadline"``
    (``None`` when nothing ran out but the solver plan has no tier that
    decides the query).  Callers must treat this as "unknown", never as
    a boolean answer.
    """

    def __init__(
        self, message: str = "search budget exceeded", *, resource: Optional[str] = STATES
    ):
        super().__init__(message)
        self.resource = resource


# SearchStats.termination values
TERMINATED_COMPLETE = "completed"
TERMINATED_STATES = "states-exhausted"
TERMINATED_DEADLINE = "deadline-exceeded"

# merge precedence: a deadline abort outranks a states abort outranks a
# completion, so N-way merges are order-independent (jobs=N reports
# must not depend on worker arrival order)
_TERMINATION_RANK = {
    TERMINATED_COMPLETE: 0,
    TERMINATED_STATES: 1,
    TERMINATED_DEADLINE: 2,
}


@dataclass
class SearchStats:
    """Counters describing one search (used by the benchmark harness).

    ``termination`` records why the most recent search charged to this
    object stopped: ``"completed"`` (ran to an answer),
    ``"states-exhausted"``, or ``"deadline-exceeded"`` -- so budgeted
    benchmark runs can distinguish timeouts from completions.
    """

    states_visited: int = 0
    actions_tried: int = 0
    memo_hits: int = 0
    dead_ends: int = 0
    hoisted: int = 0
    memo_suppressed: int = 0
    found: bool = False
    termination: str = TERMINATED_COMPLETE
    elapsed: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        self.states_visited += other.states_visited
        self.actions_tried += other.actions_tried
        self.memo_hits += other.memo_hits
        self.dead_ends += other.dead_ends
        self.hoisted += other.hoisted
        self.memo_suppressed += other.memo_suppressed
        self.elapsed += other.elapsed
        self.found = self.found or other.found
        if (
            _TERMINATION_RANK.get(other.termination, 0)
            > _TERMINATION_RANK.get(self.termination, 0)
        ):
            self.termination = other.termination


# Internal action encoding: ``eid << 2 | phase`` with phase 0 = begin of
# an interval event, 1 = end of an interval event, 2 = atomic execution.
_BEGIN, _END, _ATOMIC = 0, 1, 2
# the points each phase schedules: begin, end, or both
_POINTS = ((False,), (True,), (False, True))

# Completion effects on the sync state, per event.
_NO_EFFECT, _EFFECT_P, _EFFECT_V, _EFFECT_POST, _EFFECT_CLEAR = 0, 1, 2, 3, 4

# Hoist classification of a state's action list: 0 = genuine branch
# list, 1 = persistent singleton hoist (nothing dependent with the
# action can run before it -- safe to filter a sleep set through),
# 2 = singleton hoist justified by exactness alone (sleep sets must wake
# every sleeper).
_BRANCH, _HOIST_PERSISTENT, _HOIST_WAKE = 0, 1, 2

# Attribution key for search states visited before the first real
# branch.  Must match ``repro.obs.profile.ROOT_KEY`` -- duplicated here
# because core sits below obs in the import layering.
_PROFILE_ROOT = (-1, "(root)", "")


class FeasibilityEngine:
    """Decides completability of an execution under point constraints.

    Parameters
    ----------
    exe:
        The execution whose feasible schedules are searched.
    include_dependences:
        When False, the Section 5.3 variant is used: ``D`` imposes no
        constraints and all executions over the same events are
        considered feasible.
    binary_semaphores:
        Interpret every semaphore as binary (count clamped at 1).
    por:
        Partial-order reduction level: ``"sleep"`` (free-action
        hoisting plus sleep sets, the default), ``"hoist"`` (hoisting
        only -- the pre-sleep behavior), or ``"off"`` (the plain
        memoized DFS).  All three return identical verdicts; they
        differ only in how many states they visit.
    """

    POR_MODES = ("sleep", "hoist", "off")

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        por: str = "sleep",
    ) -> None:
        if por not in self.POR_MODES:
            raise ValueError(
                f"unknown por mode {por!r} (expected one of {', '.join(self.POR_MODES)})"
            )
        self.exe = exe
        self.include_dependences = include_dependences
        self.binary_semaphores = binary_semaphores
        self.por = por
        n = len(exe)
        self._n = n
        self._full_mask = (1 << n) - 1

        # --- begin prerequisites: mask of events whose END must precede
        # this event's BEGIN.  Program-order edges come from the
        # execution's memory model (under SC the adjacent predecessor;
        # under TSO the reduced constraint set with W->R pairs relaxed).
        pre = [0] * n
        for eid in range(n):
            for p in exe.po_begin_predecessors(eid):
                pre[eid] |= 1 << p
        for feid, children in exe.fork_children.items():
            for c in children:
                evs = exe.process_events(c)
                if evs:
                    pre[evs[0]] |= 1 << feid
        if include_dependences:
            for a, b in exe.dependences:
                pre[b] |= 1 << a
        self._begin_pre = pre
        # the search keeps a *ready* mask (not-begun events whose
        # prerequisites have all ended): a completion can only make its
        # own begin-successors ready
        succ: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        self._ready_initial = 0
        for eid in range(n):
            if not pre[eid]:
                self._ready_initial |= 1 << eid
            m = pre[eid]
            while m:
                low = m & -m
                m ^= low
                succ[low.bit_length() - 1].append((1 << eid, pre[eid]))
        self._begin_succ: List[Tuple[Tuple[int, int], ...]] = [tuple(s) for s in succ]

        # --- end semantics: per-object member masks and per-event effects
        sems = exe.semaphores
        sem_index = {s: i for i, s in enumerate(sems)}
        evars = exe.event_variables
        var_index = {v: i for i, v in enumerate(evars)}
        nsem, nvar = len(sems), len(evars)
        self._p_mask = [0] * nsem
        self._v_mask = [0] * nsem
        self._post_mask = [0] * nvar
        self._clear_mask = [0] * nvar
        self._wait_mask = [0] * nvar
        self._effect = [_NO_EFFECT] * n
        self._obj_of = [-1] * n  # semaphore or variable index
        self._join_need = [0] * n
        self._join_mask = 0
        for e in exe.events:
            k, eid, bit = e.kind, e.eid, 1 << e.eid
            if k.is_semaphore_op:
                si = self._obj_of[eid] = sem_index[e.obj]
                if k is EventKind.SEM_P:
                    self._effect[eid] = _EFFECT_P
                    self._p_mask[si] |= bit
                else:
                    self._effect[eid] = _EFFECT_V
                    self._v_mask[si] |= bit
            elif k.is_event_var_op:
                vi = self._obj_of[eid] = var_index[e.obj]
                if k is EventKind.POST:
                    self._effect[eid] = _EFFECT_POST
                    self._post_mask[vi] |= bit
                elif k is EventKind.CLEAR:
                    self._effect[eid] = _EFFECT_CLEAR
                    self._clear_mask[vi] |= bit
                else:
                    self._wait_mask[vi] |= bit
            elif k is EventKind.JOIN:
                for t in exe.join_targets[eid]:
                    for x in exe.process_events(t):
                        self._join_need[eid] |= 1 << x
                self._join_mask |= bit

        # semaphore counts packed into one int, one field per semaphore
        # wide enough for its largest reachable count
        self._sem_shift = [0] * nsem
        self._sem_field = [0] * nsem
        self._counts_initial = 0
        shift = 0
        for si, s in enumerate(sems):
            init = exe.sem_initial(s)
            top = max(init, 1) if binary_semaphores else init + _popcount(self._v_mask[si])
            width = max(1, top.bit_length())
            self._sem_shift[si] = shift
            self._sem_field[si] = (1 << width) - 1
            self._counts_initial |= init << shift
            shift += width

        # the search also keeps a *blocked* mask: the P's of semaphores
        # whose count is 0 plus the Wait's of unposted variables; a
        # completion flips only its own object's members
        self._var_initial_mask = 0
        self._blocked_initial = 0
        for vi, v in enumerate(evars):
            if exe.var_initially_posted(v):
                self._var_initial_mask |= 1 << vi
            else:
                self._blocked_initial |= self._wait_mask[vi]
        for si, s in enumerate(sems):
            if not exe.sem_initial(s):
                self._blocked_initial |= self._p_mask[si]

        # partial-order reduction: which completions are "free" (see
        # module docstring).  Computation, fork, join, Wait and fence
        # completions always are, as are V's on counting semaphores and
        # Post's on variables no event clears.  The rest are free once
        # the state makes them so:
        #  - a P(s) once count(s) covers every remaining P(s): count -
        #    remaining_P only grows (each V adds, each P removes one of
        #    each), so no P(s) can ever block again;
        #  - a binary V(s) once no P(s) remains (the clamp cannot matter);
        #  - a Post(v) once no Clear(v) remains, a Clear(v) once no
        #    Wait(v) remains (their effects are then monotone /
        #    inconsequential).
        # ``_free_need[eid]`` holds those events; the search counts how
        # many have not ended against count(s) for a P, 0 otherwise.
        self._free_static = 0
        self._free_need = [0] * n
        for eid in range(n):
            eff, obj = self._effect[eid], self._obj_of[eid]
            if eff == _EFFECT_P or (eff == _EFFECT_V and binary_semaphores):
                self._free_need[eid] = self._p_mask[obj]
            elif eff == _EFFECT_POST and self._clear_mask[obj]:
                self._free_need[eid] = self._clear_mask[obj]
            elif eff == _EFFECT_CLEAR:
                self._free_need[eid] = self._wait_mask[obj]
            else:
                self._free_static |= 1 << eid

        # dead ends: a state where some Wait(v) can never be satisfied
        # (v cleared, Waits on v remaining, no Post(v) remaining) or,
        # with binary semaphores, where count(s) plus the remaining V(s)
        # cannot cover the remaining P(s) -- clamping only shrinks the
        # token supply.  (For counting semaphores that quantity is
        # invariant, so the check would never fire.)  The search tests
        # the start state here and afterwards only the object the last
        # completion touched: see ``search``.
        self._start_dead = any(
            not (self._var_initial_mask >> vi) & 1
            and self._wait_mask[vi]
            and not self._post_mask[vi]
            for vi in range(nvar)
        ) or (
            binary_semaphores
            and any(
                exe.sem_initial(s) + _popcount(self._v_mask[si])
                < _popcount(self._p_mask[si])
                for si, s in enumerate(sems)
            )
        )

        # sleep sets need the static independence relation; the other
        # modes never read it
        self._sync_dep_mask: Optional[List[int]] = None
        self._indep_mask: Optional[List[int]] = None
        if por == "sleep":
            self._build_independence()

    # ------------------------------------------------------------------
    # static independence (sleep-set partial-order reduction)
    # ------------------------------------------------------------------
    def _build_independence(self) -> None:
        """Per-eid bitmasks of the static independence relation ``I``.

        Two actions are *independent* when, from any state where both
        are enabled, executing either leaves the other enabled and both
        orders reach the same state (the diamond property) -- and
        neither can newly *enable* the other (so an occurrence can be
        commuted backward past independent predecessors).  The
        complement is assembled from three sources:

        * **ordering** edges -- program order under the active memory
          model, fork edges, dependences (all via ``_begin_pre``) and
          join prerequisites, in both directions;
        * **semaphores** -- ``P``/``P`` on one semaphore can disable
          each other and ``V`` enables ``P``, so every ``P`` depends on
          every other ``P`` and every ``V`` of its semaphore; ``V``/``V``
          commute (increments, clamped or not) and stay independent;
        * **event variables** -- ``Post``/``Clear`` reach different
          states, ``Post`` enables ``Wait`` and ``Clear`` disables it,
          so all three cross-kind pairs depend; same-kind pairs
          (``Post``/``Post``, ``Clear``/``Clear``, ``Wait``/``Wait``)
          commute and stay independent.

        Query constraints never enter the relation: a gate only blocks
        its target until the gating point is scheduled, and scheduled
        points are monotone, so a pair of simultaneously *enabled*
        actions always has inert gates between them.

        ``_sync_dep_mask`` keeps the sync-object component separately:
        a hoisted completion is *persistent* (safe to filter a sleep
        set through) exactly when no un-ended event of that component
        remains -- ordering-linked events are blocked behind the hoisted
        action and cannot run first anyway.
        """
        n = self._n
        sync_dep = [0] * n

        def spread(members: int, partners: int) -> None:
            m = members
            while m:
                low = m & -m
                eid = low.bit_length() - 1
                m ^= low
                sync_dep[eid] |= partners & ~low

        for si in range(len(self._p_mask)):
            ps, vs = self._p_mask[si], self._v_mask[si]
            spread(ps, ps | vs)
            spread(vs, ps)
        for vi in range(len(self._post_mask)):
            posts = self._post_mask[vi]
            clears = self._clear_mask[vi]
            waits = self._wait_mask[vi]
            spread(posts, clears | waits)
            spread(clears, posts | waits)
            spread(waits, posts | clears)

        order_dep = [0] * n
        for eid in range(n):
            linked = self._begin_pre[eid] | self._join_need[eid]
            order_dep[eid] |= linked
            m = linked
            while m:
                low = m & -m
                other = low.bit_length() - 1
                m ^= low
                order_dep[other] |= 1 << eid

        full = self._full_mask
        self._sync_dep_mask = sync_dep
        self._indep_mask = [
            full & ~(1 << eid) & ~sync_dep[eid] & ~order_dep[eid]
            for eid in range(n)
        ]

    # ------------------------------------------------------------------
    # constraint preprocessing
    # ------------------------------------------------------------------
    @staticmethod
    def _gates(constraints: Iterable[Tuple[Point, Point]]):
        """Map each gated point to the points that must precede it.

        Returns ``(begin_gates, end_gates, gated)``: per eid, the masks
        ``(begun_needed, ended_needed)`` its begin (resp. end) waits
        for, and the mask of eids with any gate -- or ``None`` when some
        constraint is ``end(x) < begin(x)``, which can never hold.
        """
        tables: Tuple[Dict[int, Tuple[int, int]], ...] = ({}, {})
        gated = 0
        for before, after in constraints:
            if before.eid == after.eid and before.is_end and not after.is_end:
                return None
            table, bit = tables[after.is_end], 1 << before.eid
            need_begun, need_ended = table.get(after.eid, (0, 0))
            table[after.eid] = (
                (need_begun, need_ended | bit) if before.is_end else (need_begun | bit, need_ended)
            )
            gated |= 1 << after.eid
        return tables[0], tables[1], gated

    def _profile_keys(self) -> List[Tuple[int, str, str]]:
        """Per-eid profiler attribution keys ``(eid, kind, obj)``.

        Built lazily and cached: the engine is immutable after
        construction, and un-profiled searches must never pay for it.
        """
        keys = getattr(self, "_profile_key_cache", None)
        if keys is None:
            keys = [
                (e.eid, e.kind.value, e.obj or "") for e in self.exe.events
            ]
            self._profile_key_cache = keys
        return keys

    # ------------------------------------------------------------------
    # the search
    # ------------------------------------------------------------------
    def search(
        self,
        *,
        interval_events: Iterable[int] = (),
        constraints: Sequence[Tuple[Point, Point]] = (),
        max_states: Optional[int] = None,
        budget: Optional[Budget] = None,
        stats: Optional[SearchStats] = None,
        memoize: bool = True,
        on_progress=None,
        profile=None,
    ) -> Optional[List[Point]]:
        """Find one legal complete point schedule satisfying ``constraints``.

        Returns the schedule as a list of points (atomic events appear
        as their begin immediately followed by their end), or ``None``
        when no feasible execution satisfies the constraints.  Raises
        :class:`SearchBudgetExceeded` when ``max_states`` or the
        ``budget`` (states cap or wall-clock deadline, whichever hits
        first) is exhausted -- callers must treat that as "unknown",
        never as "no".  The deadline is read once per
        ``budget.check_interval`` visited states so the inner loop
        stays cheap; a ``budget.max_memo_entries`` cap never aborts,
        it only stops memoizing once the table is full.

        ``on_progress``, when given, is called with the live
        :class:`SearchStats` at the same amortized cadence as the
        deadline check (every ``check_interval`` visited states) --
        the tracing hook for long searches.  One final call is always
        made when the search leaves (success, failure, or budget
        abort), so even searches shorter than one interval emit at
        least one tick; only the expired-before-starting deadline
        raise skips it, since no search ran.

        How aggressively the search prunes commuting interleavings is
        fixed at construction time by the engine's ``por`` mode; see
        the class docstring.

        ``profile``, when given, must provide the ``charge_*`` methods
        of :class:`repro.obs.profile.SearchProfile`; every visited
        state, dead-end and backtrack is attributed to the frontier
        action ``(eid, kind, obj)`` chosen at the innermost enclosing
        branch (states before the first branch go to the root pseudo
        key).  Profiling is a pure observer: it never changes which
        states are visited, and with ``profile=None`` (the default)
        every hook site is a single ``is not None`` test.
        """
        if stats is None:
            stats = SearchStats()
        if budget is not None:
            if budget.max_states is not None and (
                max_states is None or budget.max_states < max_states
            ):
                max_states = budget.max_states
            deadline = budget.deadline
            check_interval = budget.check_interval
            memo_cap = budget.max_memo_entries
        else:
            deadline = None
            check_interval = 256
            memo_cap = None
        stats.termination = TERMINATED_COMPLETE
        if deadline is not None and time.monotonic() >= deadline:
            stats.termination = TERMINATED_DEADLINE
            raise SearchBudgetExceeded(
                "search deadline already expired before starting",
                resource=DEADLINE,
            )
        interval = 0
        for eid in interval_events:
            interval |= 1 << eid
        gates = self._gates(constraints)
        if gates is None:
            return None
        begin_gates, end_gates, gated = gates

        full, begin_succ, join_need = self._full_mask, self._begin_succ, self._join_need
        effect, obj_of = self._effect, self._obj_of
        p_mask, v_mask, post_mask, wait_mask = (
            self._p_mask, self._v_mask, self._post_mask, self._wait_mask
        )
        sem_shift, sem_field, binary = self._sem_shift, self._sem_field, self.binary_semaphores
        free_static, free_need = self._free_static, self._free_need
        por_sleep, reduce_free = self.por == "sleep", self.por != "off"
        indep, sync_dep = self._indep_mask, self._sync_dep_mask
        # events whose enabledness needs more than the ready and blocked
        # masks: gated points and joins
        special = gated | self._join_mask
        ticking = deadline is not None or on_progress is not None

        profile_keys = profile_stack = None
        if profile is not None:
            profile.charge_search()
            profile_keys = self._profile_keys()
            # Stack of attribution keys: the chosen action at each
            # enclosing *branch* (free/hoisted actions don't push).
            profile_stack = [_PROFILE_ROOT]

        # The failure memo maps each failed state (begun, ended, varmask,
        # counts) to the *sleep set* (an eid bitmask) the failure was
        # established under: failing while more actions sleep is the
        # weaker fact, so an entry is reusable exactly when the stored
        # mask is a subset of the current sleep set.  Without sleep sets
        # every mask is 0 and the dict is the plain visited-set.
        failed: Dict[Tuple[int, int, int, int], int] = {}
        path: List[int] = []  # the actions leading to the current state
        # one entry per ancestor state: its frame, to resume on backtrack
        stack: List[tuple] = []
        # counters live in locals and are published to ``stats`` before
        # every progress tick and when the search leaves
        visited, tried, memo_hits = stats.states_visited, stats.actions_tried, stats.memo_hits
        dead_ends, hoisted, suppressed = stats.dead_ends, stats.hoisted, stats.memo_suppressed
        # count of sleep-set consultations (skips, prunes, conditional
        # memo hits).  A failed subtree that never consulted the sleep
        # set failed unconditionally, so its memo entry can store mask 0
        # and be reused under any future sleep set.
        consults = 0

        # the current state
        begun = ended = sleep = 0
        varmask, counts, dead = self._var_initial_mask, self._counts_initial, self._start_dead
        ready, blocked = self._ready_initial, self._blocked_initial

        found = False
        t0 = time.monotonic()
        try:
            while True:
                # ---- visit the current state
                visited += 1
                if profile is not None:
                    profile.charge_state(profile_stack[-1])
                if max_states is not None and visited > max_states:
                    stats.termination = TERMINATED_STATES
                    raise SearchBudgetExceeded(
                        f"search exceeded {max_states} states (visited={visited})",
                        resource=STATES,
                    )
                if ticking and visited % check_interval == 0:
                    if on_progress is not None:
                        stats.states_visited, stats.actions_tried = visited, tried
                        stats.memo_hits, stats.dead_ends = memo_hits, dead_ends
                        stats.hoisted, stats.memo_suppressed = hoisted, suppressed
                        on_progress(stats)
                    if deadline is not None and time.monotonic() >= deadline:
                        stats.termination = TERMINATED_DEADLINE
                        raise SearchBudgetExceeded(
                            f"search deadline expired after {visited} states",
                            resource=DEADLINE,
                        )
                if ended == full:
                    found = True
                    break

                # ---- its enabled actions: a singleton when a free action
                # exists (partial-order reduction, see module docstring).
                # Begins and atomic executions come first, in eid order,
                # then the ends of begun interval events.
                acts: List[int] = []
                hoist = _BRANCH
                m = 0 if dead else ready & ~(blocked & ~interval)
                ends = False
                while True:
                    if not m:
                        if ends or dead or begun == ended:
                            break
                        ends, m = True, begun & ~ended & ~blocked
                        continue
                    low = m & -m
                    m ^= low
                    eid = low.bit_length() - 1
                    if ends:
                        act = eid << 2 | _END
                    else:
                        if low & special:
                            g = begin_gates.get(eid)
                            if g is not None and (g[0] & ~begun or g[1] & ~ended):
                                continue
                        if low & interval:
                            if reduce_free:
                                # begins have no effect and enable
                                # nothing but their own end: free AND
                                # persistent
                                hoisted += 1
                                acts = [eid << 2]
                                hoist = _HOIST_PERSISTENT
                                break
                            acts.append(eid << 2)
                            continue
                        act = eid << 2 | _ATOMIC
                    if low & special:
                        if join_need[eid] & ~ended:
                            continue
                        g = end_gates.get(eid)
                        if g is not None and (g[0] & ~(begun | low) or g[1] & ~ended):
                            continue
                    if reduce_free and (
                        low & free_static
                        or _popcount(free_need[eid] & ~ended) <= (
                            sem_field[obj_of[eid]] & counts >> sem_shift[obj_of[eid]]
                            if effect[eid] == _EFFECT_P else 0
                        )
                    ):
                        hoisted += 1
                        acts = [act]
                        if por_sleep and sync_dep[eid] & ~ended:
                            hoist = _HOIST_WAKE
                        else:
                            hoist = _HOIST_PERSISTENT
                        break
                    acts.append(act)
                if acts:
                    failing = False
                    branching = profile is not None and len(acts) > 1
                    explored = 0
                    idx = 0
                else:
                    failing = True
                    dead_ends += 1
                    if profile is not None:
                        profile.charge_dead_end(profile_stack[-1])

                # ---- pick the next child to descend into, backtracking
                # through failed frames
                while True:
                    if failing:
                        if not stack:
                            break
                        (begun, ended, varmask, counts, ready, blocked, sleep, acts,
                         hoist, idx, explored, branching, act, child, child_sleep,
                         mark) = stack.pop()
                        failing = False
                        bit = 1 << (act >> 2)
                        if branching:
                            profile_stack.pop()
                            profile.charge_backtrack(profile_keys[act >> 2])
                        explored |= bit
                        path.pop()
                        if memoize:
                            # a subtree that never consulted its sleep set
                            # failed unconditionally: store mask 0 so the
                            # entry is reusable under any future sleep set
                            entry = child_sleep if consults != mark else 0
                            prev = failed.get(child)
                            if prev is None:
                                if memo_cap is None or len(failed) < memo_cap:
                                    failed[child] = entry
                                else:
                                    suppressed += 1
                            elif not (entry & ~prev):
                                # strictly stronger (subset) fact: replace
                                failed[child] = entry
                    if idx == len(acts):
                        failing = True
                        continue
                    act = acts[idx]
                    idx += 1
                    eid = act >> 2
                    bit = 1 << eid
                    if por_sleep:
                        if hoist == _HOIST_WAKE:
                            # the hoist is exact but not persistent: a
                            # dependent partner may run before eid on some
                            # completion, so wake every sleeper below
                            child_sleep = 0
                        elif sleep & bit:
                            consults += 1
                            if hoist:
                                # persistent singleton asleep: every
                                # completion from here starts with an
                                # action a sibling branch already covered
                                failing = True
                            continue
                        else:
                            child_sleep = (sleep | explored) & indep[eid]
                    else:
                        child_sleep = 0
                    tried += 1

                    # the child state.  Dead ends need no full rescan: the
                    # parent was not one, and only a Clear (its variable)
                    # or a binary V (its semaphore) can make one.
                    c_begun, c_ended, c_ready = begun | bit, ended, ready & ~bit
                    c_varmask, c_counts, c_blocked, c_dead = varmask, counts, blocked, False
                    eff = _NO_EFFECT
                    if act & 3 != _BEGIN:
                        c_ended |= bit
                        for succ_bit, succ_pre in begin_succ[eid]:
                            if not (succ_pre & ~c_ended):
                                c_ready |= succ_bit
                        eff, obj = effect[eid], obj_of[eid]
                    if eff == _EFFECT_P:
                        c_counts = counts - (1 << sem_shift[obj])
                        if not (c_counts >> sem_shift[obj]) & sem_field[obj]:
                            c_blocked = blocked | p_mask[obj]
                    elif eff == _EFFECT_V:
                        count = (counts >> sem_shift[obj]) & sem_field[obj]
                        # a binary V leaves the count at 1
                        c_counts = counts + ((1 - count if binary else 1) << sem_shift[obj])
                        if not count:
                            c_blocked = blocked & ~p_mask[obj]
                        if binary:
                            p_left = _popcount(p_mask[obj] & ~c_ended)
                            c_dead = p_left > 1 + _popcount(v_mask[obj] & ~c_ended)
                    elif eff == _EFFECT_POST:
                        c_varmask = varmask | 1 << obj
                        c_blocked = blocked & ~wait_mask[obj]
                    elif eff == _EFFECT_CLEAR:
                        c_varmask = varmask & ~(1 << obj)
                        c_blocked = blocked | wait_mask[obj]
                        c_dead = not post_mask[obj] & ~c_ended and bool(wait_mask[obj] & ~c_ended)
                    child = (c_begun, c_ended, c_varmask, c_counts)
                    if memoize:
                        prev = failed.get(child)
                        if prev is not None and not (prev & ~child_sleep):
                            memo_hits += 1
                            if prev:
                                consults += 1
                            explored |= bit
                            continue
                    path.append(act)
                    if branching:
                        choice_key = profile_keys[eid]
                        profile.charge_choice(choice_key)
                        profile_stack.append(choice_key)
                    stack.append((
                        begun, ended, varmask, counts, ready, blocked, sleep, acts,
                        hoist, idx, explored, branching, act, child, child_sleep,
                        consults,
                    ))
                    begun, ended, varmask, counts = child
                    ready, blocked, sleep, dead = c_ready, c_blocked, child_sleep, c_dead
                    break
                if failing:
                    break
        finally:
            stats.states_visited, stats.actions_tried = visited, tried
            stats.memo_hits, stats.dead_ends = memo_hits, dead_ends
            stats.hoisted, stats.memo_suppressed = hoisted, suppressed
            stats.elapsed += time.monotonic() - t0
            # guarantee at least one progress tick per search: short
            # searches never hit the amortized interval above, and
            # consumers (status board, trace) key off ticks
            if on_progress is not None:
                on_progress(stats)
        stats.found = found
        if not found:
            return None
        return [Point(act >> 2, is_end) for act in path for is_end in _POINTS[act & 3]]
