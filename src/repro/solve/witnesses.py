"""Cross-query witness reuse: a cache of known members of ``F``.

Every existential ``TRUE`` the exact engine (or the SAT backend, or
the observed schedule) produces is a complete legal point schedule --
a member of ``F``.  One such schedule answers many later queries by
*replay*: reading off interval positions is linear, while re-deriving
the same fact by search is exponential in the worst case.  The cache
therefore keeps every schedule found during a scan and lets the
``witness`` backend consult them before any search runs.

Soundness of reuse across ``drop`` variants: a cached schedule is
validated once against the synchronization semantics *ignoring* the
dependence relation, and the exact set of dependence edges it violates
is recorded.  The schedule is then a member of ``F(drop)`` for every
``drop ⊇ violated`` -- dropping edges only removes begin-gates, never
adds them.  A schedule found under one pair's drop set typically
violates nothing (``violated = ∅``) and so serves *every* pair.

Persistence hooks: every successful :meth:`~WitnessCache.add` bumps a
monotonic :attr:`~WitnessCache.version`; :meth:`~WitnessCache.mark`
plus :meth:`~WitnessCache.entries_since` let a caller (a supervised
query worker) extract exactly the schedules discovered by one query,
and :meth:`~WitnessCache.seed` replays externally stored schedules
(the daemon's on-disk witness store) back in.  Seeding goes through
:meth:`~WitnessCache.add`'s full validation, so a corrupted or stale
store entry is silently rejected rather than trusted -- the cache
remains the single soundness gate no matter where a schedule claims
to come from.

The cache also implements the one sound schedule *transformation* the
planner uses: :func:`widen_overlap` takes a schedule ordering ``c``
before ``d`` and moves ``begin(d)`` to just before ``end(c)``.  Begin
points never change synchronization state, so the move is legal iff
``d``'s begin-gates (program order, creating fork, un-dropped
dependences) still hold at the new position -- re-checked by a full
replay, never assumed.  When legal, the result is a new member of
``F(drop)`` in which ``c`` and ``d`` overlap: a CCW witness obtained
for the cost of one replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.core.engine import Point
from repro.core.witness import IllegalScheduleError, Witness, replay_schedule
from repro.model.execution import ProgramExecution


@dataclass(frozen=True)
class CacheEntry:
    """A validated schedule plus the dependence edges it violates."""

    witness: Witness
    violated: FrozenSet[Tuple[int, int]]

    def valid_for(self, drop: FrozenSet[Tuple[int, int]]) -> bool:
        return self.violated <= drop


class WitnessCache:
    """Validated members of ``F`` (and of its ``drop`` relaxations).

    Entries are kept in insertion order and bounded by ``capacity``
    (FIFO eviction): a long scan keeps its most recent discoveries,
    which empirically serve nearby pairs best.
    """

    def __init__(
        self,
        exe: ProgramExecution,
        *,
        include_dependences: bool = True,
        binary_semaphores: bool = False,
        capacity: int = 256,
    ) -> None:
        self.exe = exe
        self.include_dependences = include_dependences
        self.binary_semaphores = binary_semaphores
        self.capacity = capacity
        self._entries: List[CacheEntry] = []
        self._versions: List[int] = []  # parallel to _entries
        # the resident entries by point tuple (evicted with them)
        self._index: Dict[Tuple[Point, ...], CacheEntry] = {}
        self.hits = 0
        self.rejected = 0
        #: monotonic count of successful adds (never decremented by
        #: eviction) -- the basis of :meth:`mark`/:meth:`entries_since`
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def add(self, points: Sequence[Point]) -> Optional[CacheEntry]:
        """Validate and cache one schedule; return its entry.

        Returns ``None`` (and counts a rejection) when the schedule
        does not replay through the reference semantics -- the cache
        never trusts a caller, so a buggy backend cannot poison it.
        Duplicates are returned without re-validation.
        """
        key = tuple(points)
        known = self._index.get(key)
        if known is not None:
            return known
        try:
            replay_schedule(
                self.exe,
                points,
                include_dependences=False,
                binary_semaphores=self.binary_semaphores,
            )
        except IllegalScheduleError:
            self.rejected += 1
            return None
        w = Witness(self.exe, points)
        if self.include_dependences:
            violated = frozenset(
                (x, y)
                for (x, y) in self.exe.dependences
                if not w.end_position(x) < w.begin_position(y)
            )
        else:
            violated = frozenset()
        entry = CacheEntry(w, violated)
        self.version += 1
        self._entries.append(entry)
        self._versions.append(self.version)
        self._index[key] = entry
        if len(self._entries) > self.capacity:
            evicted = self._entries.pop(0)
            self._versions.pop(0)
            del self._index[evicted.witness.points]
        return entry

    def add_witness(self, witness: Witness) -> Optional[CacheEntry]:
        return self.add(witness.points)

    # ------------------------------------------------------------------
    # persistence hooks (the daemon's on-disk witness store)
    # ------------------------------------------------------------------
    def mark(self) -> int:
        """An opaque watermark; pass to :meth:`entries_since` to get
        only the schedules discovered after this point."""
        return self.version

    def entries_since(self, mark: int) -> List[CacheEntry]:
        """Entries added after ``mark`` that are still resident
        (eviction can only shrink the answer, never corrupt it)."""
        return [
            e for e, v in zip(self._entries, self._versions) if v > mark
        ]

    def points_since(self, mark: int) -> List[List[Tuple[int, int]]]:
        """JSON-ready ``[[eid, is_end], ...]`` schedules added after
        ``mark`` -- what a query worker ships home for the store."""
        return [
            [[p.eid, int(p.is_end)] for p in e.witness.points]
            for e in self.entries_since(mark)
        ]

    def seed(self, schedules: Sequence[Sequence[Sequence[int]]]) -> int:
        """Replay externally stored schedules into the cache, each
        through :meth:`add`'s full validation (an invalid schedule is
        rejected and counted, never trusted).  Returns a :meth:`mark`
        taken *after* seeding, so ``points_since`` excludes the seeds
        themselves and reports only genuinely new discoveries."""
        for sched in schedules:
            try:
                self.add([Point(int(eid), bool(end)) for eid, end in sched])
            except (TypeError, ValueError, KeyError, IndexError):
                # malformed points document: reject like an illegal
                # schedule instead of letting a bad store entry crash
                # the query that tried to reuse it
                self.rejected += 1
        return self.mark()

    # ------------------------------------------------------------------
    def entries_for(self, drop: FrozenSet[Tuple[int, int]]) -> Iterator[CacheEntry]:
        for entry in self._entries:
            if entry.valid_for(drop):
                yield entry

    def any_member(self, drop: FrozenSet[Tuple[int, int]]) -> Optional[Witness]:
        for entry in self.entries_for(drop):
            self.hits += 1
            return entry.witness
        return None

    def find_chb(
        self, a: int, b: int, drop: FrozenSet[Tuple[int, int]]
    ) -> Optional[Witness]:
        """A cached member of ``F(drop)`` completing ``a`` before ``b``
        begins."""
        for entry in self.entries_for(drop):
            if entry.witness.happened_before(a, b):
                self.hits += 1
                return entry.witness
        return None

    def find_ccb(
        self, a: int, b: int, drop: FrozenSet[Tuple[int, int]]
    ) -> Optional[Witness]:
        """A cached member of ``F(drop)`` completing ``a`` before ``b``."""
        for entry in self.entries_for(drop):
            if entry.witness.end_position(a) < entry.witness.end_position(b):
                self.hits += 1
                return entry.witness
        return None

    # ------------------------------------------------------------------
    def widen_overlap(
        self, a: int, b: int, drop: FrozenSet[Tuple[int, int]]
    ) -> Optional[Witness]:
        """Derive an overlap witness for ``(a, b)`` by the adjacent-swap
        transformation on any cached schedule valid for ``drop``.

        The candidate is fully re-validated (replay plus a positional
        check of every un-dropped dependence) before being cached and
        returned, so an illegal move can only cost time, never
        soundness.
        """
        for entry in self.entries_for(drop):
            w = entry.witness
            if w.concurrent(a, b):
                self.hits += 1
                return w
            c, d = (a, b) if w.happened_before(a, b) else (b, a)
            pts = list(w.points)
            pts.remove(Point(d, False))
            pts.insert(pts.index(Point(c, True)), Point(d, False))
            candidate = self.add(pts)
            if candidate is not None and candidate.valid_for(drop):
                self.hits += 1
                return candidate.witness
        return None


__all__ = ["CacheEntry", "WitnessCache"]
