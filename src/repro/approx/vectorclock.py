"""Vector-clock happened-before over the observed execution.

This is the classical dynamic-analysis baseline (and, for semaphores,
exactly the *unsafe* phase 1 of Helmbold/McDowell/Wang): take the
observed trace, pair each blocking completion with the specific signal
that satisfied it in *this* run --

* the ``i``-th completed ``P(s)`` consumed (one of) the first ``i``
  ``V(s)`` completions; the naive pairing draws the edge from the
  ``i``-th ``V(s)`` (offset by the initial count);
* each ``Wait(v)`` is ordered after the most recent ``Post(v)``;
* fork/join and program order contribute their structural edges --

and close transitively via vector clocks.  The result describes one
member of ``F`` faithfully, but treats its accidental pairings as
guaranteed: the paper's point (and the HMW benchmark's) is that another
feasible execution may pair the operations differently, so edges of
this relation are *not* all must-orderings.

The relation computed is over event *completions* (the trace is
serial), matching the ``mcb`` exact baseline in
:class:`repro.core.queries.OrderingQueries`.

Program order is threaded as the adjacent SC chain regardless of the
execution's memory model: the clocks describe the *observed* serial
schedule, in which every event did complete before its successor
began.  As a must-ordering approximation under a relaxed model this is
unsound, and it is not a planner tier under any model (everything it
confirms, the observed schedule confirms too); the apparent-race
detector uses it under every model because "apparent" is by definition
a statement about the observed pairing, not about ``F``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.events import EventKind
from repro.model.execution import ProgramExecution
from repro.util.relations import BinaryRelation


class VectorClockAnalysis:
    """Vector clocks for one observed serial schedule of an execution.

    Parameters
    ----------
    exe:
        The execution; must carry an observed schedule unless one is
        supplied explicitly.
    schedule:
        Optional serial completion order (defaults to
        ``exe.observed_schedule``).
    """

    def __init__(self, exe: ProgramExecution, schedule: Optional[Sequence[int]] = None):
        self.exe = exe
        if schedule is None:
            schedule = exe.observed_schedule
        if schedule is None:
            raise ValueError(
                "execution has no observed schedule; pass one explicitly "
                "(e.g. a witness serial order)"
            )
        self.schedule: Tuple[int, ...] = tuple(schedule)
        self._proc_index: Dict[str, int] = {p: i for i, p in enumerate(exe.process_names)}
        self.clocks: Dict[int, Tuple[int, ...]] = {}
        self.sync_edges: List[Tuple[int, int]] = []
        self._compute()

    # ------------------------------------------------------------------
    def _compute(self) -> None:
        exe = self.exe
        nproc = len(self._proc_index)
        zero = (0,) * nproc

        # identify the trace-order pairing edges --------------------------
        v_seen: Dict[str, List[int]] = {s: [] for s in exe.semaphores}
        p_seen: Dict[str, int] = {s: 0 for s in exe.semaphores}
        last_post: Dict[str, Optional[int]] = {v: None for v in exe.event_variables}
        pos = {eid: i for i, eid in enumerate(self.schedule)}

        for eid in self.schedule:
            e = exe.event(eid)
            if e.kind is EventKind.SEM_V:
                v_seen[e.obj].append(eid)
            elif e.kind is EventKind.SEM_P:
                idx = p_seen[e.obj]
                p_seen[e.obj] += 1
                # the i-th P consumed the (i - initial)-th V, when one exists
                k = idx - exe.sem_initial(e.obj)
                if 0 <= k < len(v_seen[e.obj]):
                    self.sync_edges.append((v_seen[e.obj][k], eid))
            elif e.kind is EventKind.POST:
                last_post[e.obj] = eid
            elif e.kind is EventKind.CLEAR:
                # a Clear re-arms the variable: later Waits need a later Post
                last_post[e.obj] = None
            elif e.kind is EventKind.WAIT:
                if last_post[e.obj] is not None:
                    self.sync_edges.append((last_post[e.obj], eid))

        # structural edges -------------------------------------------------
        extra: Dict[int, List[int]] = {eid: [] for eid in exe.eids}
        for src, dst in self.sync_edges:
            extra[dst].append(src)
        for feid, children in exe.fork_children.items():
            for c in children:
                evs = exe.process_events(c)
                if evs:
                    extra[evs[0]].append(feid)
        for jeid, targets in exe.join_targets.items():
            for t in targets:
                evs = exe.process_events(t)
                if evs:
                    extra[jeid].append(evs[-1])

        # sweep in schedule order ------------------------------------------
        for eid in self.schedule:
            e = exe.event(eid)
            pi = self._proc_index[e.process]
            clock = list(zero)
            pred = exe.po_predecessor(eid)
            sources = ([pred] if pred is not None else []) + extra[eid]
            for s in sources:
                if s not in self.clocks:
                    raise ValueError(
                        f"schedule is not consistent: event {eid} depends on "
                        f"{s} which has not completed yet"
                    )
                sc = self.clocks[s]
                for i in range(nproc):
                    if sc[i] > clock[i]:
                        clock[i] = sc[i]
            clock[pi] += 1
            self.clocks[eid] = tuple(clock)

    # ------------------------------------------------------------------
    def happened_before(self, a: int, b: int) -> bool:
        """``a`` causally precedes ``b`` under the observed pairing."""
        if a == b:
            return False
        ca, cb = self.clocks[a], self.clocks[b]
        pa = self._proc_index[self.exe.event(a).process]
        return ca[pa] <= cb[pa] and ca != cb and all(x <= y for x, y in zip(ca, cb))

    def concurrent(self, a: int, b: int) -> bool:
        return a != b and not self.happened_before(a, b) and not self.happened_before(b, a)

    def relation(self) -> BinaryRelation:
        n = len(self.exe)
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and self.happened_before(a, b)
        ]
        return BinaryRelation(range(n), pairs)
