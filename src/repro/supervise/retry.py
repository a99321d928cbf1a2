"""Crash/retry policy for supervised pair classification.

A worker death is not always the pair's fault -- the host may have been
under memory pressure, the CPU cap may have been marginal -- so a
failed pair gets a bounded number of fresh attempts, spaced by
exponential backoff (so a systematically crashing pair cannot hot-loop
worker churn).  When the attempts are spent, the pair is classified
``unknown`` with the resource that killed it, and the scan moves on.

Backoff is *jittered*: when several workers die of one shared cause (a
host-wide memory squeeze OOM-kills half the pool at once), pure
exponential backoff makes every replacement retry at the same instant
and re-create the very stampede that killed them.  Each retry's delay
is therefore scattered inside ``[delay * (1 - jitter), delay]`` by a
hash of ``(key, attempt)`` -- fully deterministic, so
supervised scans stay reproducible (the same scan replays the same
delays), yet different tasks spread out instead of thundering back in
lockstep.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def _jitter_fraction(key: object, attempt: int) -> float:
    """A deterministic pseudo-random fraction in ``[0, 1)`` derived
    from the task key and the attempt number.

    sha256 rather than :func:`hash`: the builtin is salted per process
    (``PYTHONHASHSEED``), which would make delays differ between a scan
    and its resume -- exactly the nondeterminism jitter must not add.
    """
    blob = f"{key!r}:{attempt}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised scan reacts to a failed pair attempt.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first failure (0 = fail immediately).
    backoff_base / backoff_factor:
        The ``k``-th retry is delayed ``base * factor**(k-1)`` seconds.
    jitter:
        Fraction of each delay scattered deterministically: retry
        ``k`` of task ``key`` waits between ``delay * (1 - jitter)``
        and the full ``delay``.  0.0 restores exact exponential
        backoff.
    """

    max_retries: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5

    def should_retry(self, failures: int) -> bool:
        """True when a pair that has failed ``failures`` times (>= 1)
        deserves another attempt."""
        return failures <= self.max_retries

    def delay(self, attempt: int, key: object = None) -> float:
        """Seconds to wait before dispatching retry ``attempt``
        (1-based).  ``key`` identifies the task (e.g. the pair) so
        concurrent retries of *different* tasks land at different
        instants; without one, jitter still varies by attempt only.
        """
        if attempt <= 0:
            return 0.0
        base = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        if self.jitter <= 0.0:
            return base
        frac = _jitter_fraction(key, attempt)
        return base * (1.0 - self.jitter * frac)


__all__ = ["RetryPolicy"]
