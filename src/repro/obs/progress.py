"""The live one-line stderr progress meter: a view of the status board.

:func:`progress_line` renders one published
:class:`~repro.obs.server.StatusBoard` snapshot as ``scan 12/40
feasible=5 infeasible=6 unknown=1 3.1 pairs/s eta 9s``, so the line
agrees with ``/status`` and ``/metrics`` (a resumed scan's line counts
its journaled pairs too).  A wall-clock budget caps the ETA: a scan
that will be cut off says so.  :class:`ScanProgress` writes the line
on a carriage-returned stderr line as the board publishes, throttled
to a handful of writes per second, and only when stderr is a terminal
(or ``REPRO_PROGRESS=1`` forces it -- how the tests observe it) and
some pair is left to classify.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict, Optional


def progress_line(snapshot: Dict[str, Any]) -> str:
    """The progress line for one status-board snapshot.  The ETA comes
    from the observed pair rate; a budget deadline only caps it."""
    pairs = snapshot["pairs"]
    rate = snapshot["rate_pairs_per_second"] or 0.0
    remaining = pairs["total"] - pairs["done"]
    budget = snapshot["budget"]
    left = budget["remaining_seconds"] if budget is not None else None
    if remaining <= 0:
        eta = "done"
    elif not rate:  # no pair classified yet: say so, not nothing
        eta = "eta ?" if left is None else f"eta <={left:.0f}s"
    elif left is not None and left < remaining / rate:
        eta = f"eta {left:.0f}s (budget caps {remaining / rate:.0f}s)"
    else:
        eta = f"eta {remaining / rate:.0f}s"
    return (
        f"scan {pairs['done']}/{pairs['total']} feasible={pairs['feasible']}"
        f" infeasible={pairs['infeasible']} unknown={pairs['unknown']}"
        f" {rate:.1f} pairs/s {eta}"
    )


class ScanProgress:
    """A throttled carriage-return writer of :func:`progress_line`;
    set :meth:`update` as the board's ``on_publish``.  ``todo`` is the
    number of pairs the scan has left to classify."""

    def __init__(
        self,
        todo: int,
        *,
        stream=None,
        enabled: Optional[bool] = None,
        min_interval: float = 0.1,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            forced = os.environ.get("REPRO_PROGRESS", "") == "1"
            enabled = forced or bool(
                getattr(self.stream, "isatty", lambda: False)()
            )
        self.enabled = enabled and todo > 0
        self.min_interval = min_interval
        self._last_render = float("-inf")
        self._pending: Optional[Dict[str, Any]] = None  # not yet shown
        self._width = 0  # the widest line written so far; 0: none yet

    def update(self, snapshot: Dict[str, Any]) -> None:
        if not self.enabled:
            return
        self._pending = snapshot
        pairs = snapshot["pairs"]
        now = time.monotonic()
        if (
            pairs["done"] < pairs["total"]
            and now - self._last_render < self.min_interval
        ):
            return
        self._render(now)

    def finish(self) -> None:
        """Render any pending snapshot and terminate the line.

        The newline is owed whenever anything was ever rendered -- the
        final snapshot usually renders immediately, and skipping the
        newline then would glue the shell prompt to the progress line.
        """
        if not self.enabled:
            return
        if self._pending is not None:
            self._render(time.monotonic())
        if self._width:
            self.stream.write("\n")
            self.stream.flush()

    def _render(self, now: float) -> None:
        line = progress_line(self._pending)
        self._last_render = now
        self._pending = None
        # pad to the widest line so far: a shorter line (say, once the
        # "(budget caps ...)" suffix drops away) must cover all of it
        self._width = max(self._width, len(line))
        self.stream.write("\r" + line.ljust(self._width))
        self.stream.flush()


__all__ = ["ScanProgress", "progress_line"]
