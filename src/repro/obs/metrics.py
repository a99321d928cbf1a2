"""A small counter/gauge/histogram registry with a Prometheus text view.

The metrics a long run wants on a dashboard -- pairs classified by
outcome, per-tier answer rates, engine states per second, worker
spawns and crashes, checkpoint writes -- rendered in the Prometheus
text exposition format so ``/metrics`` bodies and ``--metrics FILE``
snapshots drop straight into existing tooling (``promtool check
metrics`` parses them).  A front end's ``/metrics`` body is
:func:`render_status` over its status document; a scan's ``--metrics``
file is that body at scan end.  Pure stdlib, no client library
dependency.

Metrics are identified by ``(name, labels)``; asking for the same pair
twice returns the same instrument, so instrumented code does not need
to thread instrument handles around.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.fileio import atomic_write_text

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> _LabelKey:
    return tuple(sorted((labels or {}).items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double quote and newline are the three characters the
    format reserves inside a quoted label value."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in key
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        value = int(value)
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing count."""

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go anywhere (rates, in-flight counts)."""

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


#: default histogram buckets: sub-millisecond to minutes (seconds)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0, 300.0
)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self.bucket_counts: List[int] = [0] * len(self.buckets)
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # per-bucket tallies; render() produces the cumulative view
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                break


class MetricsRegistry:
    """All of one run's instruments, rendered as one text snapshot."""

    def __init__(self) -> None:
        # name -> (type, help, {labelkey: instrument}); insertion-ordered
        self._metrics: Dict[str, Tuple[str, str, Dict[_LabelKey, object]]] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, help_text: str, labels, factory):
        entry = self._metrics.get(name)
        if entry is None:
            entry = (kind, help_text, {})
            self._metrics[name] = entry
        elif entry[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {entry[0]}"
            )
        series = entry[2]
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            instrument = series[key] = factory()
        return instrument

    def counter(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        return self._get("counter", name, help_text, labels, Counter)

    def gauge(
        self, name: str, help_text: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        return self._get("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(
            "histogram", name, help_text, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition format snapshot."""
        lines: List[str] = []
        for name, (kind, help_text, series) in self._metrics.items():
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key, instrument in series.items():
                if kind == "histogram":
                    h = instrument
                    cumulative = 0
                    for bound, n in zip(h.buckets, h.bucket_counts):
                        cumulative += n
                        bucket_key = key + (("le", _fmt(bound)),)
                        lines.append(
                            f"{name}_bucket{_render_labels(bucket_key)} {cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_render_labels(inf_key)} {h.count}"
                    )
                    lines.append(f"{name}_sum{_render_labels(key)} {_fmt(h.sum)}")
                    lines.append(f"{name}_count{_render_labels(key)} {h.count}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} {_fmt(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        """Atomically replace ``path`` with the rendered snapshot.

        Metrics files are scraped and ``tail``\\ ed while the scan still
        runs, so a torn half-written snapshot must never be observable.
        """
        atomic_write_text(path, self.render())


# ----------------------------------------------------------------------
def planner_metrics(registry: MetricsRegistry, planner) -> MetricsRegistry:
    """Populate ``registry`` from a
    :class:`~repro.solve.planner.PlannerReport` (shared by ``analyze``
    and ``races`` snapshots)."""
    registry.counter(
        "repro_planner_queries_total", "Primitive planner queries posed"
    ).inc(planner.queries)
    registry.counter(
        "repro_planner_unknown_total", "Planner ladder fall-throughs"
    ).inc(planner.unknown)
    for tier, tally in sorted(planner.tiers.items()):
        labels = {"tier": tier}
        registry.counter(
            "repro_tier_answered_total",
            "Queries settled, by planner tier",
            labels=labels,
        ).inc(tally.answered)
        registry.counter(
            "repro_tier_states_total",
            "Search states charged, by planner tier",
            labels=labels,
        ).inc(tally.states)
        registry.counter(
            "repro_tier_elapsed_seconds_total",
            "Time charged, by planner tier",
            labels=labels,
        ).inc(tally.elapsed)
    engine = planner.tiers.get("engine")
    if engine is not None and engine.elapsed > 0:
        registry.gauge(
            "repro_engine_states_per_second",
            "Exact-search throughput over the whole scan",
        ).set(engine.states / engine.elapsed)
    return registry


#: one row of a surface's ``/metrics`` table (see :func:`render_status`):
#: ``(kind, name, help, path, labels)``
StatusMetric = Tuple[str, Optional[str], Optional[str], Any, Any]


def _lookup(doc: Any, path: Sequence[str]) -> Any:
    for key in path:
        if doc is None:
            return None
        doc = doc.get(key)
    return doc


def render_status(
    doc: Optional[Dict[str, Any]], rows: Sequence[StatusMetric]
) -> str:
    """Render a status document as Prometheus text (a ``/metrics`` body).

    A pure function of ``doc``, so handler threads never touch live
    state.  ``rows`` is one surface's table of ``(kind, name, help,
    path, labels)``: ``kind`` is ``"counter"``, ``"gauge"`` or
    ``"planner"`` (a :class:`~repro.solve.planner.PlannerReport`
    expanded by :func:`planner_metrics`); ``path`` is a tuple of keys
    into ``doc`` or a callable of ``doc``, and a ``None`` value skips
    the row; ``labels`` labels the one series, or names the label when
    the value is a mapping with one series per key.
    """
    doc = doc or {}
    registry = MetricsRegistry()
    for kind, name, help_text, path, labels in rows:
        value = path(doc) if callable(path) else _lookup(doc, path)
        if value is None:
            continue
        if kind == "planner":
            planner_metrics(registry, value)
            continue
        metric = registry.counter if kind == "counter" else registry.gauge
        if isinstance(labels, str):
            for key, item in sorted(value.items()):
                metric(name, help_text, {labels: key}).inc(item)
        else:
            metric(name, help_text, labels).inc(value)
    return registry.render()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "StatusMetric",
    "planner_metrics",
    "render_status",
]
