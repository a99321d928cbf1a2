"""The program execution triple ``P = <E, T, D>``.

:class:`ProgramExecution` is the central value type of the library:
the exact ordering engine, the approximation algorithms, the reductions
and the race detector all consume it.

Design notes
------------
* ``E`` is stored as a tuple of :class:`~repro.model.events.Event`
  whose position equals its ``eid`` -- every engine state is then a
  pair of integer bitmasks over ``eid``.
* The *observed* temporal ordering ``T`` is represented by an optional
  observed serial schedule (the order in which the tracing interpreter
  completed the events).  An execution built directly (e.g. by the
  theorem reductions) need not carry an observed schedule; the paper's
  reductions construct programs whose every execution performs the same
  events, so any legal schedule is as good as any other and the engine
  verifies one exists.
* ``D`` is stored as an explicit set of ``(eid, eid)`` pairs.  When an
  execution is produced by the tracer, ``D`` is derived from the
  per-variable access order of the observed schedule.
"""

from __future__ import annotations

import copy
import enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.model.events import Event, EventKind
from repro.util.graphs import Digraph, is_acyclic


class SyncStyle(enum.Enum):
    """Which synchronization family an execution uses (Section 2)."""

    NONE = "none"
    SEMAPHORE = "semaphore"
    EVENT = "event"
    MIXED = "mixed"


class ProgramExecution:
    """An immutable program execution ``<E, T, D>``.

    Parameters
    ----------
    events:
        All events; ``events[i].eid`` must equal ``i``.
    processes:
        Mapping of process name to the eids of its events in program
        order.
    fork_children:
        Mapping from the eid of each FORK event to the names of the
        processes it creates.
    join_targets:
        Mapping from the eid of each JOIN event to the names of the
        processes whose completion it awaits.
    parent_fork:
        Mapping from process name to the eid of the FORK event that
        created it; root processes are absent from the mapping.
    sem_initial:
        Initial value of each counting semaphore (defaults to 0 for
        semaphores that appear in events but not in the mapping, as in
        the paper's reductions).
    var_initial:
        Initially *posted* event variables (all variables start
        cleared unless listed).
    dependences:
        The shared-data dependence relation ``D`` as (eid, eid) pairs.
    observed_schedule:
        Optional serial order of event completion from the tracer.
    memory_model:
        Name of the memory model the execution ran under (``"sc"`` by
        default; see :mod:`repro.memmodel`).  Feasibility, the ordering
        relations and witness replay all derive their program-order
        constraints from it.
    """

    def __init__(
        self,
        events: Sequence[Event],
        processes: Mapping[str, Sequence[int]],
        *,
        fork_children: Mapping[int, Sequence[str]] = (),
        join_targets: Mapping[int, Sequence[str]] = (),
        parent_fork: Mapping[str, int] = (),
        sem_initial: Mapping[str, int] = (),
        var_initial: Iterable[str] = (),
        dependences: Iterable[Tuple[int, int]] = (),
        observed_schedule: Optional[Sequence[int]] = None,
        memory_model: str = "sc",
    ) -> None:
        self._events: Tuple[Event, ...] = tuple(events)
        for i, e in enumerate(self._events):
            if e.eid != i:
                raise ValueError(f"event at position {i} has eid {e.eid}; eids must be dense and ordered")
        self._processes: Dict[str, Tuple[int, ...]] = {p: tuple(eids) for p, eids in processes.items()}
        self._fork_children: Dict[int, Tuple[str, ...]] = {int(k): tuple(v) for k, v in dict(fork_children).items()}
        self._join_targets: Dict[int, Tuple[str, ...]] = {int(k): tuple(v) for k, v in dict(join_targets).items()}
        self._parent_fork: Dict[str, int] = dict(parent_fork)
        self._sem_initial: Dict[str, int] = dict(sem_initial)
        self._var_initial: FrozenSet[str] = frozenset(var_initial)
        self._dependences: FrozenSet[Tuple[int, int]] = frozenset((int(a), int(b)) for a, b in dependences)
        self._observed: Optional[Tuple[int, ...]] = tuple(observed_schedule) if observed_schedule is not None else None
        from repro.memmodel import resolve_memory_model

        self._model = resolve_memory_model(memory_model)

        self._validate_basic()
        self._build_caches()

    # ------------------------------------------------------------------
    # validation + caches
    # ------------------------------------------------------------------
    def _validate_basic(self) -> None:
        seen: Dict[int, str] = {}
        for p, eids in self._processes.items():
            for pos, eid in enumerate(eids):
                if eid < 0 or eid >= len(self._events):
                    raise ValueError(f"process {p!r} references unknown eid {eid}")
                e = self._events[eid]
                if e.process != p:
                    raise ValueError(f"event {eid} claims process {e.process!r} but listed under {p!r}")
                if e.index != pos:
                    raise ValueError(f"event {eid} has index {e.index} but is at position {pos} of {p!r}")
                if eid in seen:
                    raise ValueError(f"event {eid} appears in two processes: {seen[eid]!r} and {p!r}")
                seen[eid] = p
        if len(seen) != len(self._events):
            missing = [e.eid for e in self._events if e.eid not in seen]
            raise ValueError(f"events not assigned to any process: {missing}")

        for eid, children in self._fork_children.items():
            if self._events[eid].kind is not EventKind.FORK:
                raise ValueError(f"fork_children maps non-FORK event {eid}")
            for c in children:
                if c not in self._processes:
                    raise ValueError(f"fork {eid} creates unknown process {c!r}")
                if self._parent_fork.get(c) != eid:
                    raise ValueError(f"process {c!r} missing parent_fork back-reference to fork {eid}")
        for eid, targets in self._join_targets.items():
            if self._events[eid].kind is not EventKind.JOIN:
                raise ValueError(f"join_targets maps non-JOIN event {eid}")
            for t in targets:
                if t not in self._processes:
                    raise ValueError(f"join {eid} awaits unknown process {t!r}")
        for e in self._events:
            if e.kind is EventKind.FORK and e.eid not in self._fork_children:
                raise ValueError(f"FORK event {e.eid} has no fork_children entry")
            if e.kind is EventKind.JOIN and e.eid not in self._join_targets:
                raise ValueError(f"JOIN event {e.eid} has no join_targets entry")
        for p, feid in self._parent_fork.items():
            if p not in self._processes:
                raise ValueError(f"parent_fork references unknown process {p!r}")
            if feid not in self._fork_children or p not in self._fork_children[feid]:
                raise ValueError(f"parent_fork of {p!r} inconsistent with fork_children")
        self._validate_dependences()
        if self._observed is not None:
            if sorted(self._observed) != list(range(len(self._events))):
                raise ValueError("observed schedule must be a permutation of all eids")

    def _validate_dependences(self) -> None:
        for a, b in self._dependences:
            if not (0 <= a < len(self._events) and 0 <= b < len(self._events)):
                raise ValueError(f"dependence ({a},{b}) references unknown event")
            if a == b:
                raise ValueError("dependence relation must be irreflexive")

    def _build_dependence_cache(self) -> None:
        self._dep_preds: List[Tuple[int, ...]] = [() for _ in range(len(self._events))]
        for a, b in sorted(self._dependences):
            self._dep_preds[b] = self._dep_preds[b] + (a,)

    def _build_caches(self) -> None:
        from repro.memmodel import po_constraint_pairs

        n = len(self._events)
        self._po_pred: List[Optional[int]] = [None] * n
        self._po_succ: List[Optional[int]] = [None] * n
        for eids in self._processes.values():
            for prev, cur in zip(eids, eids[1:]):
                self._po_pred[cur] = prev
                self._po_succ[prev] = cur
        # program-order *interval* constraints under the memory model:
        # end(pred) < begin(succ) must hold in every legal schedule.
        # Under SC this is exactly the adjacent-predecessor chain; a
        # relaxed model (TSO) drops the W->R edges its store buffer
        # permits, in which case an event can owe its begin to several
        # non-adjacent predecessors.
        self._po_begin_preds: List[Tuple[int, ...]] = [() for _ in range(n)]
        for eids in self._processes.values():
            evs = [self._events[i] for i in eids]
            for i, j in po_constraint_pairs(evs, self._model):
                pred, succ = eids[i], eids[j]
                self._po_begin_preds[succ] = self._po_begin_preds[succ] + (pred,)
        self._build_dependence_cache()
        self._semaphores = tuple(sorted({e.obj for e in self._events if e.kind.is_semaphore_op}))
        self._event_vars = tuple(sorted({e.obj for e in self._events if e.kind.is_event_var_op}))
        self._var_index = {v: i for i, v in enumerate(self._event_vars)}
        self._label_map = {e.label: e.eid for e in self._events if e.label is not None}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[Event, ...]:
        return self._events

    def event(self, eid: int) -> Event:
        return self._events[eid]

    def __len__(self) -> int:
        return len(self._events)

    @property
    def eids(self) -> range:
        return range(len(self._events))

    @property
    def processes(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self._processes)

    @property
    def process_names(self) -> Tuple[str, ...]:
        return tuple(self._processes.keys())

    def process_events(self, name: str) -> Tuple[int, ...]:
        return self._processes[name]

    @property
    def root_processes(self) -> Tuple[str, ...]:
        return tuple(p for p in self._processes if p not in self._parent_fork)

    @property
    def fork_children(self) -> Dict[int, Tuple[str, ...]]:
        return dict(self._fork_children)

    @property
    def join_targets(self) -> Dict[int, Tuple[str, ...]]:
        return dict(self._join_targets)

    @property
    def parent_fork(self) -> Dict[str, int]:
        return dict(self._parent_fork)

    @property
    def semaphores(self) -> Tuple[str, ...]:
        return self._semaphores

    @property
    def event_variables(self) -> Tuple[str, ...]:
        return self._event_vars

    def sem_initial(self, name: str) -> int:
        return self._sem_initial.get(name, 0)

    def var_initially_posted(self, name: str) -> bool:
        return name in self._var_initial

    @property
    def dependences(self) -> FrozenSet[Tuple[int, int]]:
        return self._dependences

    def dependence_predecessors(self, eid: int) -> Tuple[int, ...]:
        return self._dep_preds[eid]

    @property
    def observed_schedule(self) -> Optional[Tuple[int, ...]]:
        return self._observed

    def po_predecessor(self, eid: int) -> Optional[int]:
        """Program-order predecessor within the event's process."""
        return self._po_pred[eid]

    def po_successor(self, eid: int) -> Optional[int]:
        return self._po_succ[eid]

    @property
    def memory_model(self) -> str:
        """Name of the memory model this execution ran under."""
        return self._model.name

    @property
    def model(self):
        """The resolved :class:`~repro.memmodel.MemoryModel` instance."""
        return self._model

    def po_begin_predecessors(self, eid: int) -> Tuple[int, ...]:
        """Same-process events that must *end* before ``eid`` begins
        under this execution's memory model (transitively reduced).
        Under SC: the adjacent program-order predecessor alone."""
        return self._po_begin_preds[eid]

    def by_label(self, label: str) -> Event:
        return self._events[self._label_map[label]]

    @property
    def labels(self) -> Dict[str, int]:
        return dict(self._label_map)

    # ------------------------------------------------------------------
    # classification & views
    # ------------------------------------------------------------------
    @property
    def sync_style(self) -> SyncStyle:
        has_sem = bool(self._semaphores)
        has_evt = bool(self._event_vars)
        if has_sem and has_evt:
            return SyncStyle.MIXED
        if has_sem:
            return SyncStyle.SEMAPHORE
        if has_evt:
            return SyncStyle.EVENT
        return SyncStyle.NONE

    def sem_events(self, name: str) -> Tuple[int, ...]:
        return tuple(e.eid for e in self._events if e.kind.is_semaphore_op and e.obj == name)

    def var_events(self, name: str) -> Tuple[int, ...]:
        return tuple(e.eid for e in self._events if e.kind.is_event_var_op and e.obj == name)

    def computation_events(self) -> Tuple[int, ...]:
        return tuple(e.eid for e in self._events if e.kind is EventKind.COMPUTATION)

    def synchronization_events(self) -> Tuple[int, ...]:
        return tuple(e.eid for e in self._events if e.kind.is_synchronization)

    def conflicting_pairs(self) -> List[Tuple[int, int]]:
        """All unordered pairs of events with conflicting shared accesses."""
        comp = [self._events[i] for i in self.computation_events()]
        out: List[Tuple[int, int]] = []
        for i, a in enumerate(comp):
            for b in comp[i + 1 :]:
                if a.process != b.process and a.conflicts_with(b):
                    out.append((a.eid, b.eid))
        return out

    # ------------------------------------------------------------------
    # the static guaranteed-order graph (program order + fork/join + D)
    # ------------------------------------------------------------------
    def static_order_graph(
        self, *, include_dependences: bool = True, join_edges: bool = True
    ) -> Digraph:
        """Orderings enforced in *every* execution by structure alone.

        Edges: program order within a process, fork -> first event of
        each created process, last event of a process -> the join that
        awaits it, and (optionally) each shared-data dependence.  This
        is the skeleton every feasible execution's ``T`` must extend;
        the engine adds the synchronization-semantics constraints on
        top of it.

        Edge-strength caveat: program-order, fork and dependence edges
        are *interval* orderings (``end(u) < begin(v)``), but a join
        edge only orders **completions** -- the join may begin (and
        block) before its children end.  Queries about concurrency must
        therefore pass ``join_edges=False``; completion-order reasoning
        (CHB shortcuts, the approximation algorithms) keeps them.

        Program-order edges are the ones this execution's memory model
        guarantees: under SC the adjacent chain, under a relaxed model
        the transitively-reduced constraint set with the relaxed pairs
        (e.g. TSO's W->R) absent.
        """
        g = Digraph(range(len(self._events)))
        for cur in range(len(self._events)):
            for prev in self._po_begin_preds[cur]:
                g.add_edge(prev, cur)
        for feid, children in self._fork_children.items():
            for c in children:
                child_events = self._processes[c]
                if child_events:
                    g.add_edge(feid, child_events[0])
        if join_edges:
            for jeid, targets in self._join_targets.items():
                for t in targets:
                    t_events = self._processes[t]
                    if t_events:
                        g.add_edge(t_events[-1], jeid)
        if include_dependences:
            for a, b in self._dependences:
                g.add_edge(a, b)
        return g

    def is_structurally_consistent(self) -> bool:
        """The static order graph must be acyclic for any execution to exist."""
        return is_acyclic(self.static_order_graph())

    # ------------------------------------------------------------------
    def with_dependences(self, dependences: Iterable[Tuple[int, int]]) -> "ProgramExecution":
        """A copy of this execution with a different ``D`` relation.
        Only the dependence state is validated and rebuilt; everything
        else is immutable after construction and shared with ``self``
        (race witnesses rebind to such a copy per race)."""
        clone = copy.copy(self)
        clone._dependences = frozenset((int(a), int(b)) for a, b in dependences)
        clone._validate_dependences()
        clone._build_dependence_cache()
        return clone

    def without_dependences(self) -> "ProgramExecution":
        """The Section 5.3 view: same events, ``D`` ignored."""
        return self.with_dependences(())

    def with_memory_model(self, name: str) -> "ProgramExecution":
        """The same events re-analyzed under another memory model
        (used by ``--memory-model`` to ask "what could this trace have
        done on that hardware?").  Unknown names raise ``ValueError``."""
        from repro.memmodel import resolve_memory_model

        if resolve_memory_model(name).name == self._model.name:
            return self
        return ProgramExecution(
            self._events,
            self._processes,
            fork_children=self._fork_children,
            join_targets=self._join_targets,
            parent_fork=self._parent_fork,
            sem_initial=self._sem_initial,
            var_initial=self._var_initial,
            dependences=self._dependences,
            observed_schedule=self._observed,
            memory_model=name,
        )

    def __repr__(self) -> str:
        model = "" if self._model.name == "sc" else f", model={self._model.name}"
        return (
            f"ProgramExecution({len(self._events)} events, "
            f"{len(self._processes)} processes, style={self.sync_style.value}, "
            f"|D|={len(self._dependences)}{model})"
        )
