"""Per-execution precomputation shared by every backend.

One :class:`SolveContext` is built per analyzed execution and handed
to every backend of every query, so nothing linear-or-worse is ever
computed twice:

* transitive-closure **bitsets** of both strengths of the static order
  graph (completion order with join edges, interval order without),
  with a drop-aware DFS refinement for queries that ignore some
  dependences;
* the validated **observed witness** (the traced schedule replayed
  through the reference semantics once, then reused as a free member
  of ``F``);
* the lazily built HMW counting phases (semaphore and no-sync styles
  under SC only);
* one :class:`~repro.core.engine.FeasibilityEngine` per ``drop``
  variant (each engine keeps its own failure memo across queries);
* the shared :class:`~repro.solve.witnesses.WitnessCache`, and the
  resolved base-feasibility fact once any tier settles it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.engine import FeasibilityEngine, Point, SearchStats
from repro.core.witness import IllegalScheduleError, Witness, replay_schedule
from repro.model.execution import ProgramExecution, SyncStyle
from repro.solve.witnesses import WitnessCache
from repro.util.graphs import topological_sort

EMPTY_DROP: FrozenSet[Tuple[int, int]] = frozenset()


class SolveContext:
    """Shared state for one execution's planner."""

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        stats: Optional[SearchStats] = None,
        witness_capacity: int = 256,
        por: str = "sleep",
    ) -> None:
        self.exe = exe
        self.include_dependences = include_dependences
        self.binary_semaphores = binary_semaphores
        if por not in FeasibilityEngine.POR_MODES:
            raise ValueError(
                f"unknown por mode {por!r} (expected one of "
                f"{', '.join(FeasibilityEngine.POR_MODES)})"
            )
        # partial-order-reduction mode handed to every engine this
        # context builds (one per drop variant)
        self.por = por
        self.stats = stats if stats is not None else SearchStats()
        self.witnesses = WitnessCache(
            exe,
            include_dependences=include_dependences,
            binary_semaphores=binary_semaphores,
            capacity=witness_capacity,
        )
        # base feasibility, once some tier resolves it ("is F non-empty
        # with the full dependence relation"); None = not yet known
        self.feasible: Optional[bool] = None
        self.feasible_provenance: Optional[str] = None
        # optional SearchStats callback the engine invokes at its
        # amortized budget checks (set by QueryPlanner.attach_tracer)
        self.on_progress = None
        # optional SearchProfile-shaped observer handed to every engine
        # search (set by QueryPlanner.attach_profiler); duck-typed so
        # this module never imports repro.obs
        self.profile = None

        # two strengths of structural reachability, as bitsets
        self._static_reach = self._compute_reach(join_edges=True)
        self._interval_reach = self._compute_reach(join_edges=False)
        # adjacency of the dependence-free graphs, for drop-aware DFS
        self._struct_succ = self._successors(join_edges=True, with_deps=False)
        self._interval_succ = self._successors(join_edges=False, with_deps=False)
        self._dep_succ: Dict[int, List[int]] = {}
        for x, y in sorted(exe.dependences):
            self._dep_succ.setdefault(x, []).append(y)

        self._observed_witness: Optional[Witness] = None
        self._observed_checked = False
        self._engines: Dict[FrozenSet[Tuple[int, int]], FeasibilityEngine] = {}
        self._hmw_relation = None
        self._hmw_infeasible = False
        self._hmw_checked = False

    # ------------------------------------------------------------------
    # structural reachability
    # ------------------------------------------------------------------
    def _compute_reach(self, *, join_edges: bool):
        g = self.exe.static_order_graph(
            include_dependences=self.include_dependences, join_edges=join_edges
        )
        order = topological_sort(g)
        reach = {}
        for n in reversed(order):
            mask = 0
            for s in g.successors(n):
                mask |= reach[s] | (1 << s)
            reach[n] = mask
        return reach

    def _successors(self, *, join_edges: bool, with_deps: bool):
        g = self.exe.static_order_graph(
            include_dependences=with_deps, join_edges=join_edges
        )
        return {n: tuple(g.successors(n)) for n in self.exe.eids}

    def _drop_reachable(
        self,
        a: int,
        b: int,
        drop: FrozenSet[Tuple[int, int]],
        succ: Dict[int, Tuple[int, ...]],
    ) -> bool:
        stack = [a]
        seen = {a}
        while stack:
            n = stack.pop()
            nexts = list(succ[n])
            if self.include_dependences:
                nexts += [y for y in self._dep_succ.get(n, ()) if (n, y) not in drop]
            for m in nexts:
                if m == b:
                    return True
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False

    def statically_ordered(
        self, a: int, b: int, drop: FrozenSet[Tuple[int, int]] = EMPTY_DROP
    ) -> bool:
        """``a`` completes before ``b`` in every schedule, by structure
        alone (program order, fork/join, un-dropped dependences)."""
        if not (self._static_reach[a] >> b) & 1:
            return False  # removing edges cannot create reachability
        if not drop:
            return True
        return self._drop_reachable(a, b, drop, self._struct_succ)

    def statically_interval_ordered(
        self, a: int, b: int, drop: FrozenSet[Tuple[int, int]] = EMPTY_DROP
    ) -> bool:
        """``end(a) < begin(b)`` in every schedule, by structure alone
        (join edges excluded -- they only order completions)."""
        if not (self._interval_reach[a] >> b) & 1:
            return False
        if not drop:
            return True
        return self._drop_reachable(a, b, drop, self._interval_succ)

    # ------------------------------------------------------------------
    # persistent witness reuse (the ``repro serve`` store)
    # ------------------------------------------------------------------
    def seed_witnesses(self, schedules) -> int:
        """Warm the witness cache from externally persisted schedules
        (each fully re-validated; see
        :meth:`~repro.solve.witnesses.WitnessCache.seed`).  Returns the
        cache mark *after* seeding, so
        :meth:`~repro.solve.witnesses.WitnessCache.points_since` yields
        only schedules this context discovered itself -- the daemon
        persists exactly those, and a repeat query on a stored
        execution is then answered by the ``witness`` tier without the
        engine running at all."""
        return self.witnesses.seed(schedules)

    # ------------------------------------------------------------------
    # lazy shared analyses
    # ------------------------------------------------------------------
    def observed_witness(self) -> Optional[Witness]:
        """The traced schedule as a validated member of ``F`` (serial:
        each event begins and ends adjacently), or None when absent or
        -- defensively -- when it does not replay."""
        if not self._observed_checked:
            self._observed_checked = True
            sched = self.exe.observed_schedule
            if sched is not None:
                points = []
                for eid in sched:
                    points.append(Point(eid, False))
                    points.append(Point(eid, True))
                try:
                    replay_schedule(
                        self.exe,
                        points,
                        include_dependences=self.include_dependences,
                        binary_semaphores=self.binary_semaphores,
                    )
                except IllegalScheduleError:
                    self._observed_witness = None
                else:
                    self._observed_witness = Witness(self.exe, points)
                    self.witnesses.add(points)
        return self._observed_witness

    def hmw_relation(self):
        """The HMW phase-3 guaranteed completion orderings, or None when
        the execution is out of scope (event variables, binary
        semaphores, a memory model other than SC) or the counting
        phases prove the trace infeasible.

        The phases read program order, fork/join and semaphore counts
        only -- never ``D`` -- so the relation is sound for every
        ``drop`` variant (it speaks about the larger dependence-free
        ``F``, a superset of each variant's).  They propagate orderings
        along adjacent SC program order, which TSO relaxes, so under
        any other model no analysis is built at all.
        """
        if not self._hmw_checked:
            self._hmw_checked = True
            if (
                self.exe.memory_model == "sc"
                and not self.binary_semaphores
                and self.exe.sync_style in (SyncStyle.SEMAPHORE, SyncStyle.NONE)
            ):
                from repro.approx.hmw import HMWAnalysis, InfeasibleTraceError

                try:
                    self._hmw_relation = HMWAnalysis(self.exe).phase3()
                except InfeasibleTraceError:
                    self._hmw_infeasible = True
        return self._hmw_relation

    def hmw_infeasible(self) -> bool:
        """True when the counting phases proved no schedule completes
        -- valid for every ``drop`` since the phases never read ``D``."""
        self.hmw_relation()
        return self._hmw_infeasible

    # ------------------------------------------------------------------
    # exact engines, one per drop variant
    # ------------------------------------------------------------------
    def engine_for(self, drop: FrozenSet[Tuple[int, int]]) -> FeasibilityEngine:
        if not self.include_dependences:
            drop = EMPTY_DROP
        engine = self._engines.get(drop)
        if engine is None:
            exe = self.exe
            if drop:
                exe = exe.with_dependences(exe.dependences - drop)
            engine = FeasibilityEngine(
                exe,
                include_dependences=self.include_dependences,
                binary_semaphores=self.binary_semaphores,
                por=self.por,
            )
            self._engines[drop] = engine
        return engine


__all__ = ["SolveContext", "EMPTY_DROP"]
