"""Choice-point attribution for the exact feasibility search.

The paper's whole point is that every ordering query is worst-case
exponential; this module answers the operator's next question -- *which*
events make a particular scan exponential.  A :class:`SearchProfile` is
an opt-in observer for :meth:`FeasibilityEngine.search
<repro.core.engine.FeasibilityEngine.search>`: whenever the DFS faces a
real choice (more than one enabled action), every state visited inside
the chosen subtree is attributed to that frontier action -- the event
id, its operation kind and its synchronization object.  Dead-ends and
backtracks are charged the same way, so the profile names the
semaphores and event variables whose interleavings the search is
actually paying for, not merely the events that exist.

Attribution keys are plain ``(eid, kind, obj)`` tuples so the engine
(which sits below :mod:`repro.obs` in the import layering) never
imports this module; it only calls the ``charge_*`` methods on whatever
object it was handed.  States visited before the first branch -- the
forced prefix every schedule shares -- are charged to :data:`ROOT_KEY`.

Like ``SearchStats`` and ``PlannerReport``, profiles are associative:
:meth:`SearchProfile.merge` combines profiles from any split of the
same work (across queries, pairs, or pool workers) into the same
totals, and :meth:`snapshot`/:meth:`from_snapshot` round-trip through
JSON so profiles travel in trace records and worker result payloads.
Profiling defaults off everywhere and is a pure observer: it never
changes which states the search visits, only counts them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Pseudo choice point for states visited before the search's first
#: real branch (and for searches that never branch at all).
ROOT_KEY: Tuple[int, str, str] = (-1, "(root)", "")

#: Snapshot schema version, bumped if the key or counter layout changes.
PROFILE_VERSION = 1

_COUNTERS = ("chosen", "states", "dead_ends", "backtracks")


class ChoiceTally:
    """Counters attributed to one frontier action ``(eid, kind, obj)``.

    ``chosen`` counts how often the action was picked at a branch;
    ``states`` every state visited while the search was inside a
    subtree rooted at the action; ``dead_ends`` and ``backtracks`` the
    failures charged to it.
    """

    __slots__ = _COUNTERS

    def __init__(self, chosen: int = 0, states: int = 0,
                 dead_ends: int = 0, backtracks: int = 0) -> None:
        self.chosen = chosen
        self.states = states
        self.dead_ends = dead_ends
        self.backtracks = backtracks

    def merge(self, other: "ChoiceTally") -> None:
        self.chosen += other.chosen
        self.states += other.states
        self.dead_ends += other.dead_ends
        self.backtracks += other.backtracks

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChoiceTally(chosen={self.chosen}, states={self.states}, "
            f"dead_ends={self.dead_ends}, backtracks={self.backtracks})"
        )


def _key_to_str(key: Tuple[int, str, str]) -> str:
    return f"{key[0]}|{key[1]}|{key[2]}"


def _key_from_str(text: str) -> Tuple[int, str, str]:
    eid, kind, obj = text.split("|", 2)
    return (int(eid), kind, obj)


class SearchProfile:
    """Mergeable per-choice-point search cost, keyed ``(eid, kind, obj)``."""

    def __init__(self) -> None:
        self.searches = 0
        self.tallies: Dict[Tuple[int, str, str], ChoiceTally] = {}

    # -- charging (hot path: called from the engine's DFS) --------------
    def tally(self, key: Tuple[int, str, str]) -> ChoiceTally:
        t = self.tallies.get(key)
        if t is None:
            t = self.tallies[key] = ChoiceTally()
        return t

    def charge_search(self) -> None:
        self.searches += 1

    def charge_state(self, key: Tuple[int, str, str]) -> None:
        self.tally(key).states += 1

    def charge_choice(self, key: Tuple[int, str, str]) -> None:
        self.tally(key).chosen += 1

    def charge_dead_end(self, key: Tuple[int, str, str]) -> None:
        self.tally(key).dead_ends += 1

    def charge_backtrack(self, key: Tuple[int, str, str]) -> None:
        self.tally(key).backtracks += 1

    # -- aggregation -----------------------------------------------------
    def reset(self) -> None:
        """Forget everything (pool workers reuse one profile per pair)."""
        self.searches = 0
        self.tallies.clear()

    def merge(self, other) -> "SearchProfile":
        """Fold another profile (or a snapshot dict) into this one."""
        if isinstance(other, dict):
            other = SearchProfile.from_snapshot(other)
        self.searches += other.searches
        for key, tally in other.tallies.items():
            self.tally(key).merge(tally)
        return self

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable copy; ``from_snapshot`` round-trips it."""
        return {
            "version": PROFILE_VERSION,
            "searches": self.searches,
            "choices": {
                _key_to_str(key): tally.snapshot()
                for key, tally in sorted(self.tallies.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snap: Dict[str, object]) -> "SearchProfile":
        prof = cls()
        prof.searches = int(snap.get("searches", 0))
        for text, counters in dict(snap.get("choices", {})).items():
            prof.tallies[_key_from_str(text)] = ChoiceTally(
                **{name: int(counters.get(name, 0)) for name in _COUNTERS}
            )
        return prof

    # -- reading ---------------------------------------------------------
    @property
    def total_states(self) -> int:
        return sum(t.states for t in self.tallies.values())

    def hot_events(
        self, top: int = 10
    ) -> List[Tuple[Tuple[int, str, str], ChoiceTally]]:
        """The ``top`` branch actions by attributed states (root excluded).

        Ties break on event id so the table is deterministic across
        runs, workers and merge orders.
        """
        rows = [
            (key, tally)
            for key, tally in self.tallies.items()
            if key != ROOT_KEY
        ]
        rows.sort(key=lambda kv: (-kv[1].states, kv[0]))
        return rows[:top]

    def hot_objects(
        self, top: int = 10
    ) -> List[Tuple[Tuple[str, str], ChoiceTally]]:
        """Per-sync-object rollup of :meth:`hot_events` (root excluded)."""
        by_obj: Dict[Tuple[str, str], ChoiceTally] = {}
        for (eid, kind, obj), tally in self.tallies.items():
            if (eid, kind, obj) == ROOT_KEY:
                continue
            agg = by_obj.get((obj, kind))
            if agg is None:
                agg = by_obj[(obj, kind)] = ChoiceTally()
            agg.merge(tally)
        rows = sorted(by_obj.items(), key=lambda kv: (-kv[1].states, kv[0]))
        return rows[:top]

    def describe(self, top: int = 10) -> List[str]:
        """The "hot events" table: top-k choice points by attributed states."""
        total = self.total_states
        lines = [
            f"profile: {self.searches} search(es), "
            f"{total} attributed state(s)"
        ]
        if not self.tallies:
            return lines
        root = self.tallies.get(ROOT_KEY)
        hot = self.hot_events(top)
        if hot:
            width = max(len(_label(key)) for key, _ in hot)
            for key, tally in hot:
                share = 100.0 * tally.states / total if total else 0.0
                lines.append(
                    f"  {_label(key):<{width}}  states={tally.states}"
                    f" ({share:.0f}%)  chosen={tally.chosen}"
                    f"  dead_ends={tally.dead_ends}"
                    f"  backtracks={tally.backtracks}"
                )
        if root is not None and root.states:
            lines.append(
                f"  (forced prefix)  states={root.states}"
                f"  dead_ends={root.dead_ends}"
            )
        objs = self.hot_objects(min(top, 5))
        if objs:
            ranked = ", ".join(
                f"{obj or '(none)'}:{kind}={tally.states}"
                for (obj, kind), tally in objs
            )
            lines.append(f"  hot objects: {ranked}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SearchProfile(searches={self.searches}, "
            f"choice_points={len(self.tallies)}, "
            f"states={self.total_states})"
        )


def _label(key: Tuple[int, str, str]) -> str:
    eid, kind, obj = key
    if obj:
        return f"e{eid}:{kind}({obj})"
    return f"e{eid}:{kind}"


__all__ = [
    "ChoiceTally",
    "PROFILE_VERSION",
    "ROOT_KEY",
    "SearchProfile",
]
