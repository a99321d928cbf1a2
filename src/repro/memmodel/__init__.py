"""Pluggable memory models: the consistency axis of feasibility.

The paper defines its ordering relations over executions of
*sequentially consistent* processors: within one process, every event
completes before its program-order successor begins.  Relaxed
architectures weaken exactly that guarantee.  This package states the
weakening in one place -- a :class:`MemoryModel` names which
same-process event pairs must stay interval-ordered (``end(a) <
begin(b)``) -- and every other layer (the exact engine, the structural
reach, witness replay, the axioms) derives its program-order
constraints from it instead of assuming adjacency.

Two models ship:

``SC``
    Sequential consistency: every program-order pair is ordered.  All
    pre-existing behavior is byte-identical under SC.

``TSO``
    Total store order (the x86 model, after Nataf & Moses, "Time,
    Fences and the Ordering of Events in TSO"): each processor owns a
    FIFO store buffer, so a *store* may still be draining while a
    later *load* of a different variable executes -- the one
    relaxation TSO permits (W -> R).  In interval terms: a write-only
    computation event need not complete before a later read-only
    computation event of the same process begins, unless the two touch
    a common variable (store-to-load forwarding keeps same-variable
    pairs ordered) or a ``fence`` stands between them (a fence is
    ordered with everything, so transitivity restores the edge).
    Store-store, load-load and load-store order are preserved, as is
    every pair involving synchronization (sync operations act as
    implicit fences, matching locked instructions on real hardware).

The derived constraint set is closed under interval transitivity:
``end(a) < begin(b)`` and ``end(b) < begin(c)`` imply ``end(a) <
begin(c)``, so :func:`po_constraint_pairs` keeps only the pairs not
already implied through an intermediate ordered event.  Under SC that
reduction is exactly the adjacent-predecessor chain the engine always
used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.model.events import Event, EventKind


@dataclass(frozen=True)
class MemoryModel:
    """One consistency model, as an interval-ordering predicate.

    ``name`` is the stable identifier used on the wire (serialization,
    CLI, daemon).  :meth:`orders` answers, for two events of the same
    process with ``first`` earlier in program order: must ``first``
    complete before ``second`` begins in every legal schedule?
    """

    name: str

    def orders(self, first: Event, second: Event) -> bool:
        raise NotImplementedError


class _SequentialConsistency(MemoryModel):
    def orders(self, first: Event, second: Event) -> bool:
        return True


class _TotalStoreOrder(MemoryModel):
    def orders(self, first: Event, second: Event) -> bool:
        # the only TSO relaxation: a buffered store (write-only
        # computation) drains while a later load (read-only
        # computation) of a *different* variable runs
        if first.kind is not EventKind.COMPUTATION:
            return True
        if second.kind is not EventKind.COMPUTATION:
            return True
        if not first.accesses or not second.accesses:
            return True  # pure skips carry no memory order to relax
        if any(not a.is_write for a in first.accesses):
            return True  # a load in `first` keeps R->R / R->W order
        if any(a.is_write for a in second.accesses):
            return True  # a store in `second` keeps W->W order
        if first.variables & second.variables:
            return True  # store-to-load forwarding: same variable stays put
        return False


SC = _SequentialConsistency("sc")
TSO = _TotalStoreOrder("tso")

#: every model this build understands, by wire name
MEMORY_MODELS: Dict[str, MemoryModel] = {SC.name: SC, TSO.name: TSO}

#: the default everywhere a model is not named (the paper's setting)
DEFAULT_MEMORY_MODEL = SC.name


def resolve_memory_model(name: str) -> MemoryModel:
    """The model registered under ``name`` (case-insensitive), or a
    one-line ``ValueError`` naming the known models -- the CLI maps
    that to exit status 2."""
    model = MEMORY_MODELS.get(str(name).lower())
    if model is None:
        known = ", ".join(sorted(MEMORY_MODELS))
        raise ValueError(
            f"unknown memory model {name!r} (known models: {known})"
        )
    return model


def po_constraint_pairs(
    events: Sequence[Event], model: MemoryModel
) -> List[Tuple[int, int]]:
    """The program-order interval constraints one process contributes.

    ``events`` is one process's events in program order.  Returns
    ``(i, j)`` position pairs (i < j) such that ``end(events[i]) <
    begin(events[j])`` must hold, pruned of pairs already implied by
    interval transitivity through an intermediate ordered event.
    Under SC this is exactly the adjacent chain ``(i, i+1)``.
    """
    n = len(events)
    pairs: List[Tuple[int, int]] = []
    # succ[i]: bit k set iff events[i] is ordered before events[k].
    # Walking i down from j - 1, ``preds`` already holds every
    # k in (i, j) ordered before events[j], so (i, j) is implied
    # through an intermediate k exactly when succ[i] & preds != 0
    succ = [0] * n
    bits = [1 << k for k in range(n)]
    orders = model.orders
    for j in range(1, n):
        second = events[j]
        preds = 0
        for i in range(j - 1, -1, -1):
            if orders(events[i], second):
                if not succ[i] & preds:
                    pairs.append((i, j))
                succ[i] |= bits[j]
                preds |= bits[i]
    return pairs


__all__ = [
    "DEFAULT_MEMORY_MODEL",
    "MEMORY_MODELS",
    "MemoryModel",
    "SC",
    "TSO",
    "po_constraint_pairs",
    "resolve_memory_model",
]
