"""Deterministic fault injection: one registry of named failpoints.

Every robustness claim in this codebase -- "a full disk degrades the
daemon instead of corrupting the store", "a torn rename leaves the old
snapshot", "a segfaulting worker costs one retry" -- is only as good as
the test that *creates* the failure.  This module is the one way to
create it: a seeded, schedule-driven registry that any layer can
consult at a **named failpoint**::

    from repro import faults
    ...
    faults.fire("fileio.fsync")      # no-op unless a schedule arms it

Armed via the ``REPRO_FAILPOINTS`` environment variable or
programmatically (:func:`arm`, which also exports it there), a schedule
is a ``;``-separated list of clauses::

    REPRO_FAILPOINTS='store.flush=enospc@first=2;fileio.replace=eio@nth=3'

Each clause is ``<point>=<action>[@<trigger>]``:

``action``
    ``enospc``            raise ``OSError(ENOSPC)`` (disk full)
    ``eio``               raise ``OSError(EIO)`` (I/O error)
    ``oserror:NAME``      raise ``OSError`` with ``errno.NAME``
    ``error[:msg]``       raise :class:`InjectedFault` (a ``RuntimeError``)
    ``sleep:SECONDS``     block (alias ``hang[:SECONDS]``, default 3600)
    ``segv``              die by ``SIGSEGV`` (crash the process)
    ``exit[:CODE]``       hard ``os._exit`` (default 1) -- a SIGKILL stand-in
    ``oom``               allocate until ``MemoryError`` (see below)
    ``off``               never fire (explicitly disable a point)

``trigger`` (omitted = every hit)
    ``nth=K``             fire exactly on the K-th hit (1-based)
    ``first=K``           fire on hits 1..K, then stop
    ``every=K``           fire on every K-th hit
    ``after=T``           fire on hits more than T seconds after arming
    ``prob=P``            fire with probability P -- *deterministic*:
                          decided by ``sha256(seed, point, hit#)``, so
                          the same seed replays the same schedule

A ``seed=N`` clause seeds the ``prob`` triggers (default 0).  The
``oom`` action allocates for real only under an ``RLIMIT_AS`` cap and
simulates the ``MemoryError`` otherwise, so an uncapped test process
never endangers its host.

Determinism is the point: a chaos schedule names *which* operation
fails, *when* (by hit count, not wall-clock races), and replays
identically -- so the chaos matrix in the tests can assert the
soundness invariant (a faulted run answers like the fault-free run or
an explicit UNKNOWN, never differently) instead of shrugging at flaky
nondeterminism.

Cost when idle: :func:`fire` is one global load, one attribute load and
one falsy check -- no locks, no string parsing, nothing allocated.
Production binaries run with the registry empty; arming it is always an
explicit act (env var or hidden CLI flag).

One schedule drives the whole process tree.  A child started from a
fresh interpreter arms itself from the inherited ``REPRO_FAILPOINTS``
at import.  A pool worker forked from a long-lived forkserver would
inherit the server's (stale) environment and registry instead, so the
pool hands each worker :func:`schedule` as it stands when that worker
starts, and the worker calls :func:`adopt` with it before anything can
fire.
"""

from __future__ import annotations

import errno as errno_mod
import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class FaultSpecError(ValueError):
    """The ``REPRO_FAILPOINTS`` schedule string is malformed."""


class InjectedFault(RuntimeError):
    """The generic injected failure (the ``error`` action)."""


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
_TRIGGERS = ("nth", "first", "every", "after", "prob")
_ACTIONS = (
    "enospc", "eio", "oserror", "error", "sleep", "hang", "segv",
    "exit", "oom", "off",
)


@dataclass
class Rule:
    """One armed failpoint: what to do and when to do it."""

    point: str
    action: str
    param: Optional[str] = None
    trigger: Optional[str] = None  # one of _TRIGGERS, or None = always
    trigger_arg: float = 0.0
    hits: int = 0
    fired: int = 0

    def should_fire(
        self, count: int, *, seed: int, armed_at: float
    ) -> bool:
        if self.action == "off":
            return False
        if self.trigger is None:
            return True
        if self.trigger == "nth":
            return count == int(self.trigger_arg)
        if self.trigger == "first":
            return count <= int(self.trigger_arg)
        if self.trigger == "every":
            k = max(1, int(self.trigger_arg))
            return count % k == 0
        if self.trigger == "after":
            return time.monotonic() - armed_at >= self.trigger_arg
        # "prob": a deterministic coin derived from (seed, point, hit);
        # sha256, not hash() -- the builtin is salted per process and
        # would make the schedule differ between a run and its replay
        blob = f"{seed}:{self.point}:{count}".encode("utf-8")
        digest = hashlib.sha256(blob).digest()
        coin = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return coin < self.trigger_arg


def _parse_rule(point: str, spec: str) -> Rule:
    action_part, sep, trigger_part = spec.partition("@")
    action, _, param = action_part.partition(":")
    action = action.strip().lower()
    if action not in _ACTIONS:
        raise FaultSpecError(
            f"failpoint {point!r}: unknown action {action!r} "
            f"(one of {', '.join(_ACTIONS)})"
        )
    rule = Rule(point=point, action=action, param=param or None)
    if sep:
        trig, _, arg = trigger_part.partition("=")
        trig = trig.strip().lower()
        if trig not in _TRIGGERS or not arg:
            raise FaultSpecError(
                f"failpoint {point!r}: bad trigger {trigger_part!r} "
                f"(use {', '.join(t + '=N' for t in _TRIGGERS)})"
            )
        try:
            rule.trigger_arg = float(arg)
        except ValueError:
            raise FaultSpecError(
                f"failpoint {point!r}: trigger argument {arg!r} "
                "is not a number"
            )
        rule.trigger = trig
    return rule


def _perform(rule: Rule) -> None:
    """Execute an armed rule's action (the injected failure itself)."""
    action = rule.action
    if action == "enospc":
        raise OSError(
            errno_mod.ENOSPC,
            f"injected: no space left on device [failpoint {rule.point}]",
        )
    if action == "eio":
        raise OSError(
            errno_mod.EIO,
            f"injected: input/output error [failpoint {rule.point}]",
        )
    if action == "oserror":
        num = getattr(errno_mod, (rule.param or "EIO").upper(), None)
        if not isinstance(num, int):
            raise FaultSpecError(
                f"failpoint {rule.point}: unknown errno {rule.param!r}"
            )
        raise OSError(
            num, f"injected: {os.strerror(num)} [failpoint {rule.point}]"
        )
    if action == "error":
        raise InjectedFault(
            rule.param or f"injected fault [failpoint {rule.point}]"
        )
    if action in ("sleep", "hang"):
        time.sleep(float(rule.param) if rule.param else 3600.0)
        return
    if action == "segv":
        os.kill(os.getpid(), signal.SIGSEGV)
        return  # pragma: no cover - the signal lands first
    if action == "exit":
        os._exit(int(rule.param) if rule.param else 1)
    if action == "oom":
        _allocate_past_limit()
    # "off" never reaches here (filtered in should_fire)


def _allocate_past_limit() -> None:
    """The ``oom`` action: drive the heap into the kernel cap.

    Allocates for real only when an ``RLIMIT_AS`` cap is actually set
    (a worker under :mod:`repro.supervise.rlimits`); without one a
    genuine allocation spree would endanger the host, so the exact
    ``MemoryError`` the cap would produce is raised instead.
    """
    try:
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        rlimited = soft != resource.RLIM_INFINITY
    except (ImportError, OSError, ValueError):  # pragma: no cover
        rlimited = False
    if not rlimited:
        raise MemoryError("injected allocation failure (no rlimit active)")
    hoard = []
    try:
        for _ in range(1 << 16):
            hoard.append(bytearray(8 * 1024 * 1024))
    except MemoryError:
        # free the hoard *before* re-raising: the original exception's
        # traceback pins this frame, and the caller needs headroom to
        # report the failure
        hoard.clear()
        raise MemoryError("rlimit allocation cap hit") from None
    raise MemoryError("allocation cap never hit")  # pragma: no cover


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
class FailpointRegistry:
    """Named failpoints with per-point hit counting.

    One module-global instance (:data:`REGISTRY`) serves the whole
    process; private instances serve scoped uses.
    """

    def __init__(self, spec: Optional[str] = None, *, seed: int = 0) -> None:
        self._lock = threading.Lock()
        self._rules: Dict[str, Rule] = {}
        self.seed = seed
        self.armed_at = 0.0
        if spec:
            self.arm(spec)

    # -- arming --------------------------------------------------------
    def arm(self, spec: str) -> "FailpointRegistry":
        """Parse ``spec`` and activate its clauses (replacing any armed
        schedule).  Raises :class:`FaultSpecError` on a malformed spec
        -- a chaos schedule that silently does nothing is worse than a
        loud refusal."""
        rules: Dict[str, Rule] = {}
        seed = self.seed
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            point, sep, rule_spec = clause.partition("=")
            point = point.strip()
            if not sep or not point or not rule_spec.strip():
                raise FaultSpecError(
                    f"bad failpoint clause {clause!r} "
                    "(use point=action[@trigger])"
                )
            if point == "seed":
                try:
                    seed = int(rule_spec)
                except ValueError:
                    raise FaultSpecError(f"bad seed {rule_spec!r}")
                continue
            rules[point] = _parse_rule(point, rule_spec.strip())
        with self._lock:
            self.seed = seed
            self._rules = rules
            self.armed_at = time.monotonic()
        return self

    def disarm(self) -> None:
        with self._lock:
            self._rules = {}

    @property
    def armed(self) -> bool:
        return bool(self._rules)

    # -- the hot path --------------------------------------------------
    def hit(self, point: str, count: Optional[int] = None) -> None:
        """Evaluate the failpoint ``point``.

        ``count`` overrides the internal hit counter -- callers whose
        notion of "the N-th time" survives process replacement (the
        worker pool's per-pair *attempt* number) pass it explicitly, so
        a fresh worker's counters don't reset the schedule.
        """
        rules = self._rules
        if not rules:
            return
        rule = rules.get(point)
        if rule is None:
            return
        with self._lock:
            rule.hits += 1
            n = rule.hits if count is None else count
            fire_now = rule.should_fire(
                n, seed=self.seed, armed_at=self.armed_at
            )
            if fire_now:
                rule.fired += 1
        if fire_now:
            _perform(rule)

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "armed": bool(self._rules),
                "seed": self.seed,
                "points": {
                    name: {"hits": r.hits, "fired": r.fired}
                    for name, r in sorted(self._rules.items())
                },
            }


#: the process-wide registry; armed from ``REPRO_FAILPOINTS`` at import
#: so a child process started with that environment joins the schedule
REGISTRY = FailpointRegistry()
_env_spec = os.environ.get("REPRO_FAILPOINTS")
if _env_spec:
    REGISTRY.arm(_env_spec)
del _env_spec


def fire(point: str, count: Optional[int] = None) -> None:
    """Hit the process-wide failpoint ``point`` (no-op when disarmed)."""
    if not REGISTRY._rules:
        return
    REGISTRY.hit(point, count)


def arm(spec: str) -> FailpointRegistry:
    """Arm the process-wide registry with ``spec`` (and export it to
    ``REPRO_FAILPOINTS``, the schedule child processes run under)."""
    os.environ["REPRO_FAILPOINTS"] = spec
    return REGISTRY.arm(spec)


def disarm() -> None:
    """Disarm the process-wide registry and clear the environment."""
    os.environ.pop("REPRO_FAILPOINTS", None)
    REGISTRY.disarm()


def schedule() -> Optional[str]:
    """The schedule in force for child processes started now (``None``
    when disarmed): ``REPRO_FAILPOINTS``, as :func:`arm` exported it."""
    return os.environ.get("REPRO_FAILPOINTS") or None


def adopt(spec: Optional[str]) -> None:
    """Run this process under ``spec`` (``None`` disarms) exactly as a
    process started with ``REPRO_FAILPOINTS=spec`` would: default seed,
    every hit counter at zero.  Replaces whatever the registry held."""
    REGISTRY.seed = 0
    if spec:
        arm(spec)
    else:
        disarm()


__all__ = [
    "FailpointRegistry",
    "FaultSpecError",
    "InjectedFault",
    "REGISTRY",
    "Rule",
    "adopt",
    "arm",
    "disarm",
    "fire",
    "schedule",
]
