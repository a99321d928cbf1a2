"""The registered backends: one adapter per answering strategy.

Each backend wraps one of the library's existing decision procedures
behind the uniform :class:`~repro.solve.query.Backend` protocol.  The
tiers, cheapest first, and what each may soundly conclude:

=============  =====================================================
``structural``  reachability over the static order graph: refutes
                CHB/CCB/CCW; confirms CHB/CCB once base feasibility
                is known (O(|E|) per query, O(|E|^2) precomputed)
``observed``    the traced schedule, replayed once: confirms
                feasibility and any CHB/CCB it exhibits
``witness``     the cross-query cache: confirms feasibility/CHB/CCB
                by replaying known members of ``F``, and CCW via the
                adjacent-swap widening -- the planner's hot path
``hmw``         the Helmbold/McDowell/Wang counting phases
                (semaphore/no-sync styles): refute CHB/CCB, confirm
                CCB, and prove infeasibility
``engine``      the exact interval-search engine: decides everything
                (provenance tag ``"exact"``)
=============  =====================================================

Soundness across ``drop`` variants (the race detector's relaxed
queries) follows two monotonicity facts used throughout: dropping
dependences only enlarges ``F``, so membership witnesses transfer
upward (base members answer relaxed queries) and impossibility proved
without reading ``D`` transfers everywhere (HMW).

Soundness across memory models: ``structural``, ``observed``,
``witness`` and ``engine`` consume program order exclusively through
the execution's model-aware caches (``po_begin_predecessors``, the
static order graph, schedule replay), so they are correct for every
registered :mod:`repro.memmodel` model.  ``hmw`` reasons from
sequentially consistent program order directly, so
:meth:`~repro.solve.context.SolveContext.hmw_relation` treats any other
model as out of scope, like event variables and binary semaphores: the
tier then declines every query instead of answering wrong.

The paper's other polynomial comparison methods (vector clocks, the
EGP task graph, the order-SAT encoding) are not tiers: no default
ladder ran them, and none decided a query the tiers above leave open.
The Section 4 benchmarks drive them directly through
:mod:`repro.approx` and :mod:`repro.encoding`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple, Type

from repro.budget import Verdict
from repro.core.engine import SearchBudgetExceeded, begin_point, end_point
from repro.core.witness import Witness
from repro.solve.context import SolveContext
from repro.solve.query import (
    CCB,
    CCW,
    CHB,
    FEASIBLE,
    Backend,
    BackendAnswer,
    RelationQuery,
)


def _timed(backend: "Backend", verdict: Verdict, t0: float, states: int = 0) -> BackendAnswer:
    return BackendAnswer(
        verdict, backend.name, states=states, elapsed=time.monotonic() - t0
    )


class StructuralBackend(Backend):
    """Reachability over the static order graph (drop-aware).

    Refutations are unconditionally sound (they hold vacuously when
    ``F`` is empty); confirmations additionally need ``F`` non-empty,
    which the planner resolves through the ladder before asking --
    base feasibility suffices for every ``drop`` since relaxing only
    enlarges ``F``.
    """

    name = "structural"

    def answer(self, query, ctx, *, budget=None, max_states=None):
        t0 = time.monotonic()
        a, b, drop = query.a, query.b, query.drop
        if query.relation in (CHB, CCB):
            if ctx.statically_ordered(b, a, drop):
                # b completes first in every schedule, so neither
                # end(a) < begin(b) nor end(a) < end(b) can ever hold
                return _timed(self, Verdict.false(self.name, stats=ctx.stats), t0)
            if ctx.feasible is True and ctx.statically_ordered(a, b, drop):
                witness = self._serial_member(ctx, drop)
                return _timed(
                    self,
                    Verdict.true(self.name, witness=witness, stats=ctx.stats),
                    t0,
                )
        elif query.relation == CCW:
            if ctx.statically_interval_ordered(a, b, drop) or ctx.statically_interval_ordered(b, a, drop):
                return _timed(self, Verdict.false(self.name, stats=ctx.stats), t0)
        return None

    @staticmethod
    def _serial_member(ctx: SolveContext, drop) -> Optional[Witness]:
        """A serialized cached member of ``F(drop)``: in serial form the
        completion order *is* the interval order, so a structurally
        ordered pair is exhibited, not just implied."""
        from repro.core.engine import Point

        member = ctx.witnesses.any_member(drop)
        if member is None:
            return None
        points = []
        for eid in member.serial_order():
            points.append(Point(eid, False))
            points.append(Point(eid, True))
        entry = ctx.witnesses.add(points)
        if entry is not None and entry.valid_for(drop):
            return entry.witness
        return None


class ObservedBackend(Backend):
    """The traced schedule as a free member of ``F``.

    Serial by construction, so position order simultaneously realizes
    interval order and completion order; it confirms (never refutes)
    and is valid for every ``drop``.
    """

    name = "observed"

    def answer(self, query, ctx, *, budget=None, max_states=None):
        t0 = time.monotonic()
        w = ctx.observed_witness()
        if w is None:
            return None
        if query.relation == FEASIBLE:
            return _timed(self, Verdict.true(self.name, witness=w, stats=ctx.stats), t0)
        if query.relation == CHB and w.happened_before(query.a, query.b):
            return _timed(self, Verdict.true(self.name, witness=w, stats=ctx.stats), t0)
        if query.relation == CCB and w.end_position(query.a) < w.end_position(query.b):
            return _timed(self, Verdict.true(self.name, witness=w, stats=ctx.stats), t0)
        return None


class WitnessBackend(Backend):
    """Replay against every known member of ``F`` before searching.

    Confirms feasibility/CHB/CCB by lookup and CCW by lookup or the
    adjacent-swap widening; never refutes (absence from the cache
    proves nothing).
    """

    name = "witness"

    def answer(self, query, ctx, *, budget=None, max_states=None):
        t0 = time.monotonic()
        cache = ctx.witnesses
        w: Optional[Witness] = None
        if query.relation == FEASIBLE:
            w = cache.any_member(query.drop)
        elif query.relation == CHB:
            w = cache.find_chb(query.a, query.b, query.drop)
        elif query.relation == CCB:
            w = cache.find_ccb(query.a, query.b, query.drop)
        elif query.relation == CCW:
            w = cache.widen_overlap(query.a, query.b, query.drop)
        if w is None:
            return None
        return _timed(self, Verdict.true(self.name, witness=w, stats=ctx.stats), t0)


class HMWBackend(Backend):
    """The Helmbold/McDowell/Wang counting phases (semaphore styles).

    Phase 3 yields ``R``: pairs ordered by completion in *every*
    schedule, derived from program order, fork/join and semaphore
    counts -- never from ``D`` -- so every conclusion transfers to
    every ``drop`` variant.  ``(b, a) in R`` refutes both CHB and CCB
    of ``(a, b)``; ``(a, b) in R`` plus a non-empty ``F`` confirms
    CCB; an infeasibility proof from the counting rules settles
    feasibility (and with it every existential) negatively.
    """

    name = "hmw"

    def answer(self, query, ctx, *, budget=None, max_states=None):
        t0 = time.monotonic()
        if ctx.hmw_infeasible():
            # no schedule completes, even ignoring D: every existential
            # primitive is false for every drop variant
            return _timed(self, Verdict.false(self.name, stats=ctx.stats), t0)
        relation = ctx.hmw_relation()
        if relation is None:
            return None
        a, b = query.a, query.b
        if query.relation in (CHB, CCB) and (b, a) in relation:
            return _timed(self, Verdict.false(self.name, stats=ctx.stats), t0)
        if query.relation == CCB and ctx.feasible is True and (a, b) in relation:
            witness = ctx.witnesses.find_ccb(a, b, query.drop)
            return _timed(
                self, Verdict.true(self.name, witness=witness, stats=ctx.stats), t0
            )
        return None


class EngineBackend(Backend):
    """The exact interval-search engine: the ladder's last rung.

    Decides every primitive, with witnesses, under the caller's budget;
    exhaustion yields ``UNKNOWN`` with the spent resource named.  Keeps
    one engine (with its failure memo) per ``drop`` variant via the
    context, and feeds every schedule it finds to the witness cache.
    Provenance tag is ``"exact"``, matching the pre-planner verdicts.
    """

    name = "engine"
    provenance = "exact"

    def answer(self, query, ctx, *, budget=None, max_states=None):
        t0 = time.monotonic()
        s0 = ctx.stats.states_visited
        engine = ctx.engine_for(query.drop)
        a, b = query.a, query.b
        kwargs = dict(
            max_states=max_states,
            budget=budget,
            stats=ctx.stats,
            on_progress=ctx.on_progress,
            profile=ctx.profile,
        )
        try:
            if query.relation == FEASIBLE:
                pts = engine.search(**kwargs)
            elif query.relation == CHB:
                pts = engine.search(
                    constraints=[(end_point(a), begin_point(b))], **kwargs
                )
            elif query.relation == CCB:
                pts = engine.search(
                    constraints=[(end_point(a), end_point(b))], **kwargs
                )
            else:  # CCW
                pts = engine.search(
                    interval_events=(a, b),
                    constraints=[
                        (begin_point(a), end_point(b)),
                        (begin_point(b), end_point(a)),
                    ],
                    **kwargs,
                )
        except SearchBudgetExceeded as exc:
            return _timed(
                self,
                Verdict.unknown(resource=exc.resource, stats=ctx.stats),
                t0,
                states=ctx.stats.states_visited - s0,
            )
        states = ctx.stats.states_visited - s0
        if pts is None:
            return _timed(
                self, Verdict.false(self.provenance, stats=ctx.stats), t0, states=states
            )
        entry = ctx.witnesses.add(pts)
        witness = entry.witness if entry is not None else Witness(ctx.exe, pts)
        return _timed(
            self,
            Verdict.true(self.provenance, witness=witness, stats=ctx.stats),
            t0,
            states=states,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
BACKENDS: Dict[str, Type[Backend]] = {
    cls.name: cls
    for cls in (
        StructuralBackend,
        ObservedBackend,
        WitnessBackend,
        HMWBackend,
        EngineBackend,
    )
}

#: the sound cheapest-first ladder used by default everywhere
DEFAULT_PLAN: Tuple[str, ...] = ("structural", "observed", "witness", "hmw", "engine")


def resolve_plan(names) -> Tuple[Backend, ...]:
    """Instantiate a plan from backend names, validating eagerly."""
    backends = []
    for name in names:
        cls = BACKENDS.get(name)
        if cls is None:
            raise ValueError(
                f"unknown backend {name!r} (available: {', '.join(sorted(BACKENDS))})"
            )
        backends.append(cls())
    return tuple(backends)


__all__ = [
    "BACKENDS",
    "DEFAULT_PLAN",
    "resolve_plan",
    "StructuralBackend",
    "ObservedBackend",
    "WitnessBackend",
    "HMWBackend",
    "EngineBackend",
]
