"""Whole-relation computation: :class:`OrderingAnalyzer`.

Computes any of Table 1's six relations as a
:class:`~repro.util.relations.BinaryRelation` over the full event set,
reusing one :class:`~repro.core.queries.OrderingQueries` (one planner,
with its verdict memo and witness cache) so that the ``O(|E|^2)`` pair
queries share their underlying searches.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Optional, Tuple

from repro.budget import Budget
from repro.core.queries import OrderingQueries
from repro.model.execution import ProgramExecution
from repro.util.relations import BinaryRelation


class RelationName(enum.Enum):
    """The six relations of Table 1."""

    MHB = "must-have-happened-before"
    CHB = "could-have-happened-before"
    MCW = "must-have-been-concurrent-with"
    CCW = "could-have-been-concurrent-with"
    MOW = "must-have-been-ordered-with"
    COW = "could-have-been-ordered-with"

    @property
    def is_must_have(self) -> bool:
        return self in (RelationName.MHB, RelationName.MCW, RelationName.MOW)

    @property
    def is_could_have(self) -> bool:
        return not self.is_must_have

    @property
    def is_symmetric(self) -> bool:
        """CW/OW relations are symmetric by definition; HB is not."""
        return self not in (RelationName.MHB, RelationName.CHB)


ALL_RELATIONS: Tuple[RelationName, ...] = tuple(RelationName)


class OrderingAnalyzer:
    """Computes full ordering relations for one execution.

    Example
    -------
    >>> from repro.model import ExecutionBuilder
    >>> b = ExecutionBuilder()
    >>> p1, p2 = b.process("p1"), b.process("p2")
    >>> x = p1.sem_v("s"); y = p2.sem_p("s")
    >>> analyzer = OrderingAnalyzer(b.build())
    >>> analyzer.relation(RelationName.MHB)(x, y)
    True
    """

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        max_states: Optional[int] = None,
        budget: Optional[Budget] = None,
        por: str = "sleep",
    ) -> None:
        self.exe = exe
        self.queries = OrderingQueries(
            exe,
            include_dependences=include_dependences,
            binary_semaphores=binary_semaphores,
            max_states=max_states,
            budget=budget,
            por=por,
        )
        self._cache: Dict[RelationName, BinaryRelation] = {}

    # ------------------------------------------------------------------
    def pair(self, name: RelationName, a: int, b: int) -> bool:
        q = self.queries
        return {
            RelationName.MHB: q.mhb,
            RelationName.CHB: q.chb,
            RelationName.MCW: q.mcw,
            RelationName.CCW: q.ccw,
            RelationName.MOW: q.mow,
            RelationName.COW: q.cow,
        }[name](a, b)

    def relation(self, name: RelationName, *, events: Optional[Iterable[int]] = None) -> BinaryRelation:
        """The named relation over all distinct event pairs.

        The diagonal is excluded (the paper's relations are read over
        distinct events; self-pairs have degenerate truth values noted
        in :mod:`repro.core.queries`).
        """
        if events is None and name in self._cache:
            return self._cache[name]
        universe = list(self.exe.eids) if events is None else list(events)
        pairs = [
            (a, b)
            for a in universe
            for b in universe
            if a != b and self.pair(name, a, b)
        ]
        rel = BinaryRelation(universe, pairs)
        if events is None:
            self._cache[name] = rel
        return rel

    def all_relations(self) -> Dict[RelationName, BinaryRelation]:
        return {name: self.relation(name) for name in ALL_RELATIONS}

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Pair counts per relation -- the benchmark harness's row format."""
        return {name.name: len(self.relation(name)) for name in ALL_RELATIONS}

    def mhb_dag(self):
        """The must-have-happened-before order as a transitively reduced
        DAG (:class:`~repro.util.graphs.Digraph`) -- the minimal edge set
        whose closure is MHB, convenient for rendering and for reading
        the "skeleton" of guaranteed orderings."""
        from repro.util.graphs import Digraph, transitive_reduction

        rel = self.relation(RelationName.MHB)
        g = Digraph(range(len(self.exe)), rel.pairs)
        return transitive_reduction(g)

    def matrix(self, name: RelationName) -> str:
        """ASCII adjacency matrix, handy in the examples."""
        n = len(self.exe)
        rel = self.relation(name)
        header = "    " + " ".join(f"{j:>3}" for j in range(n))
        rows = [header]
        for i in range(n):
            cells = " ".join("  X" if (i, j) in rel else "  ." for j in range(n))
            rows.append(f"{i:>3} {cells}")
        return "\n".join(rows)
