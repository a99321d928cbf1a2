"""Resource governance: budgets and three-valued verdicts.

The paper's theorems make exactness expensive by necessity: every
must-relation is co-NP-hard, every could-relation NP-hard, so a single
pathological pair can consume any amount of time the caller grants it.
The engine therefore treats resource limits as first-class:

* a :class:`Budget` bundles the limits one search (or one scan of many
  searches) may consume -- a state-count cap, a **monotonic wall-clock
  deadline**, and an optional memo-table size cap -- and is checked
  cooperatively inside the DFS inner loop (the clock amortized over
  ``check_interval`` states so the hot path stays cheap);
* a :class:`Verdict` is a three-valued answer (:class:`Truth`) carrying
  provenance (which layer decided: the exact search, structural
  reachability, the observed schedule, ...), the search statistics, and
  -- when the answer is ``UNKNOWN`` -- the resource that ran out.

``UNKNOWN`` is always sound: a budgeted query may decline to answer but
never guesses.  Exhausting ``max_states`` or the deadline aborts the
search; exceeding the memo cap merely stops memoizing (the search stays
exact, only slower), so it is a memory bound rather than a verdict
source.

Deadlines are *absolute* instants on :func:`time.monotonic`, so one
budget can be shared across many searches: a race scan hands every pair
the same deadline and each pair checks it against the same clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

# canonical resource names recorded in verdicts and stats
STATES = "states"
DEADLINE = "deadline"


class Truth(Enum):
    """Kleene three-valued logic value of a budgeted query."""

    TRUE = "TRUE"
    FALSE = "FALSE"
    UNKNOWN = "UNKNOWN"

    @staticmethod
    def of(value: bool) -> "Truth":
        return Truth.TRUE if value else Truth.FALSE

    @property
    def is_known(self) -> bool:
        return self is not Truth.UNKNOWN

    def negate(self) -> "Truth":
        if self is Truth.TRUE:
            return Truth.FALSE
        if self is Truth.FALSE:
            return Truth.TRUE
        return Truth.UNKNOWN

    def __str__(self) -> str:  # CLI-friendly
        return self.value


@dataclass(frozen=True)
class Budget:
    """Resource limits for one search or one scan of searches.

    Attributes
    ----------
    max_states:
        Cap on DFS states visited per search (``None`` = unbounded).
    deadline:
        Absolute :func:`time.monotonic` instant after which searches
        abort.  Absolute so the budget can be shared: every search
        charged to this budget races the same clock.
    max_memo_entries:
        Cap on the failure-memo table size.  Exceeding it degrades to
        non-memoized (still exact) search instead of aborting.
    check_interval:
        The clock is read once per this many visited states.
    """

    max_states: Optional[int] = None
    deadline: Optional[float] = None
    max_memo_entries: Optional[int] = None
    check_interval: int = 256

    @classmethod
    def of(
        cls,
        *,
        max_states: Optional[int] = None,
        timeout: Optional[float] = None,
        max_memo_entries: Optional[int] = None,
        check_interval: int = 256,
    ) -> "Budget":
        """Build a budget from a *relative* timeout in seconds."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        return cls(max_states, deadline, max_memo_entries, check_interval)

    # ------------------------------------------------------------------
    def unlimited(self) -> bool:
        return self.max_states is None and self.deadline is None

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining_seconds(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def per_query(
        self,
        *,
        max_states: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> "Budget":
        """Derive a child budget for one query of a larger scan.

        The child shares this budget's absolute deadline (tightened by
        ``timeout`` when given, so one hard query cannot starve the
        rest of the scan) and replaces ``max_states`` when given.
        """
        deadline = self.deadline
        if timeout is not None:
            mine = time.monotonic() + timeout
            deadline = mine if deadline is None else min(deadline, mine)
        return replace(
            self,
            max_states=self.max_states if max_states is None else max_states,
            deadline=deadline,
        )

    def describe(self) -> str:
        parts = []
        if self.max_states is not None:
            parts.append(f"max_states={self.max_states}")
        if self.deadline is not None:
            parts.append(f"deadline in {self.remaining_seconds():.3f}s")
        if self.max_memo_entries is not None:
            parts.append(f"max_memo={self.max_memo_entries}")
        return ", ".join(parts) if parts else "unlimited"


def clamp_request(
    max_states: Optional[int],
    timeout: Optional[float],
    *,
    states_cap: Optional[int] = None,
    timeout_cap: Optional[float] = None,
    default_timeout: Optional[float] = None,
) -> "tuple[Optional[int], Optional[float]]":
    """Admission control for a *requested* budget: clamp a client's
    ``(max_states, timeout)`` to the server's caps.

    A long-lived query daemon cannot let one request name an arbitrary
    budget -- an unbounded query wedges a worker for good (the queries
    are NP-hard, Theorems 1 and 3).  The rules:

    * a missing timeout gets ``default_timeout`` (every admitted
      request must carry a deadline);
    * a requested timeout above ``timeout_cap`` is silently lowered to
      it, never rejected -- the request still runs, it just may come
      back ``UNKNOWN`` sooner;
    * ``max_states`` is lowered to ``states_cap`` the same way;
    * non-positive requests are treated as absent (a ``timeout`` of 0
      would otherwise admit a request only to kill it instantly).

    >>> clamp_request(None, None, timeout_cap=30.0, default_timeout=5.0)
    (None, 5.0)
    >>> clamp_request(10**9, 3600.0, states_cap=50_000, timeout_cap=30.0)
    (50000, 30.0)
    >>> clamp_request(100, 2.0, states_cap=50_000, timeout_cap=30.0)
    (100, 2.0)
    >>> clamp_request(-5, 0.0, timeout_cap=30.0, default_timeout=5.0)
    (None, 5.0)
    """
    if max_states is not None and max_states <= 0:
        max_states = None
    if timeout is not None and timeout <= 0:
        timeout = None
    if max_states is None:
        max_states = states_cap
    elif states_cap is not None:
        max_states = min(max_states, states_cap)
    if timeout is None:
        timeout = default_timeout if default_timeout is not None else timeout_cap
    if timeout is not None and timeout_cap is not None:
        timeout = min(timeout, timeout_cap)
    return max_states, timeout


@dataclass(frozen=True)
class Verdict:
    """A three-valued query answer with provenance.

    ``provenance`` names the planner tier that settled the answer:
    ``"structural"`` (reachability alone), ``"observed"`` (the observed
    schedule witnesses the query), ``"witness"`` (a member of ``F`` an
    earlier query found), ``"hmw"`` (the counting phases), ``"exact"``
    (the engine's search completed), or ``"trivial"`` (degenerate
    ``a == b`` cases).  When the truth is ``UNKNOWN``, ``resource``
    records what ran out (``"states"`` or ``"deadline"``).
    """

    truth: Truth
    provenance: str = "exact"
    resource: Optional[str] = None
    witness: Optional[object] = None
    stats: Optional[object] = None

    # ------------------------------------------------------------------
    @classmethod
    def true(cls, provenance: str = "exact", *, witness=None, stats=None) -> "Verdict":
        return cls(Truth.TRUE, provenance, witness=witness, stats=stats)

    @classmethod
    def false(cls, provenance: str = "exact", *, witness=None, stats=None) -> "Verdict":
        return cls(Truth.FALSE, provenance, witness=witness, stats=stats)

    @classmethod
    def unknown(cls, *, resource: Optional[str] = None, stats=None) -> "Verdict":
        return cls(Truth.UNKNOWN, "budget", resource=resource, stats=stats)

    @classmethod
    def of_bool(cls, value: bool, provenance: str = "exact", *, witness=None, stats=None) -> "Verdict":
        return cls(Truth.of(value), provenance, witness=witness, stats=stats)

    # ------------------------------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.truth is Truth.TRUE

    @property
    def is_false(self) -> bool:
        return self.truth is Truth.FALSE

    @property
    def is_unknown(self) -> bool:
        return self.truth is Truth.UNKNOWN

    def negate(self) -> "Verdict":
        return replace(self, truth=self.truth.negate())

    def to_bool(self) -> bool:
        """The definite answer; raises on ``UNKNOWN`` (never guesses)."""
        if self.is_unknown:
            raise ValueError(
                f"verdict is UNKNOWN (exhausted {self.resource or 'budget'}); "
                "no definite answer available under this budget"
            )
        return self.is_true

    def __bool__(self) -> bool:
        raise TypeError(
            "Verdict is three-valued; test .is_true / .is_false / "
            ".is_unknown (or call .to_bool()) instead of truth-testing it"
        )

    def describe(self) -> str:
        if self.is_unknown:
            return f"UNKNOWN (exhausted {self.resource or 'budget'})"
        return f"{self.truth} (by {self.provenance})"


__all__ = ["Budget", "Truth", "Verdict", "STATES", "DEADLINE", "clamp_request"]
