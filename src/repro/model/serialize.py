"""JSON (de)serialization of program executions and race reports.

Executions are plain data, so traces captured once (from the simulator
or constructed by a reduction) can be saved, shared and re-analyzed --
the CLI's ``analyze`` command consumes this format.  The schema is
versioned and deliberately explicit; loading validates through the
normal :class:`~repro.model.execution.ProgramExecution` constructor, so
a corrupt document fails loudly rather than producing a bad model.

Race-scan results round-trip too: :class:`~repro.core.witness.Witness`
schedules, per-pair classifications and whole
:class:`~repro.races.detector.RaceReport` documents, each under its own
versioned schema.  Witnesses and classifications serialize *relative to
an execution* (they store event ids and schedule points, not events),
so the checkpoint journal can record one line per pair and rebuild the
objects against the journal's execution on resume.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.model.events import Access, Event, EventKind
from repro.model.execution import ProgramExecution
from repro.util.fileio import atomic_write_text

# execution schema history:
#   1 -- the original SC-only triple <E, T, D>
#   2 -- adds "memory_model"; version-1 documents still load (absent
#        field means "sc", the only model version 1 could describe)
FORMAT_VERSION = 2
_READABLE_EXECUTION_VERSIONS = (1, 2)
# report schema history:
#   1 -- races + three-valued classifications
#   2 -- adds per-pair "decided_by" provenance and the "planner"
#        per-tier tally block; version-1 documents still load (the new
#        fields default to absent)
#   3 -- the embedded execution document moves to execution version 2
#        (memory model); versions 1-2 still load as SC
REPORT_FORMAT_VERSION = 3
_READABLE_REPORT_VERSIONS = (1, 2, 3)
PLANNER_REPORT_FORMAT_VERSION = 1


def execution_to_dict(exe: ProgramExecution) -> Dict[str, Any]:
    """A JSON-ready dict describing the execution."""
    return {
        "format": "repro-execution",
        "version": FORMAT_VERSION,
        "events": [
            {
                "eid": e.eid,
                "process": e.process,
                "index": e.index,
                "kind": e.kind.name,
                "obj": e.obj,
                "accesses": [
                    {"variable": a.variable, "write": a.is_write} for a in e.accesses
                ],
                "label": e.label,
            }
            for e in exe.events
        ],
        "processes": {p: list(exe.process_events(p)) for p in exe.process_names},
        "fork_children": {str(k): list(v) for k, v in exe.fork_children.items()},
        "join_targets": {str(k): list(v) for k, v in exe.join_targets.items()},
        "parent_fork": dict(exe.parent_fork),
        "sem_initial": {s: exe.sem_initial(s) for s in exe.semaphores},
        "var_initial": [v for v in exe.event_variables if exe.var_initially_posted(v)],
        "dependences": sorted(list(pair) for pair in exe.dependences),
        "observed_schedule": list(exe.observed_schedule)
        if exe.observed_schedule is not None
        else None,
        "memory_model": exe.memory_model,
    }


def execution_from_dict(data: Dict[str, Any]) -> ProgramExecution:
    """Inverse of :func:`execution_to_dict` (validating)."""
    if data.get("format") != "repro-execution":
        raise ValueError("not a repro-execution document")
    if data.get("version") not in _READABLE_EXECUTION_VERSIONS:
        raise ValueError(
            f"unsupported format version {data.get('version')!r} "
            f"(this library reads versions {list(_READABLE_EXECUTION_VERSIONS)})"
        )
    events = []
    for rec in data["events"]:
        events.append(
            Event(
                eid=int(rec["eid"]),
                process=rec["process"],
                index=int(rec["index"]),
                kind=EventKind[rec["kind"]],
                obj=rec.get("obj"),
                accesses=tuple(
                    Access(a["variable"], bool(a["write"]))
                    for a in rec.get("accesses", ())
                ),
                label=rec.get("label"),
            )
        )
    return ProgramExecution(
        events,
        {p: list(eids) for p, eids in data["processes"].items()},
        fork_children={int(k): list(v) for k, v in data.get("fork_children", {}).items()},
        join_targets={int(k): list(v) for k, v in data.get("join_targets", {}).items()},
        parent_fork=dict(data.get("parent_fork", {})),
        sem_initial=dict(data.get("sem_initial", {})),
        var_initial=list(data.get("var_initial", ())),
        dependences=[tuple(pair) for pair in data.get("dependences", ())],
        observed_schedule=data.get("observed_schedule"),
        # version-1 documents predate the memory-model axis: they could
        # only describe SC executions, so the absent field means "sc".
        # An unknown name fails loudly inside the constructor.
        memory_model=data.get("memory_model", "sc"),
    )


def canonical_json(exe: ProgramExecution) -> str:
    """The execution's canonical JSON document: sorted keys, no
    whitespace -- the text :func:`execution_fingerprint` hashes."""
    return json.dumps(
        execution_to_dict(exe), sort_keys=True, separators=(",", ":")
    )


def execution_fingerprint(exe: ProgramExecution) -> str:
    """Content identity of one execution: the sha256 of its canonical
    JSON document (:func:`canonical_json`).

    This is the key of the daemon's persistent witness store and of the
    ``repro serve`` API: two clients POSTing byte-different but
    semantically identical documents get the same fingerprint, so their
    queries share one witness pool.  Unlike
    :func:`~repro.supervise.checkpoint.scan_fingerprint` it covers the
    execution *only* -- witnesses are facts about ``F``, valid under
    any budget or solver plan.
    """
    return hashlib.sha256(canonical_json(exe).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# witnesses, pair classifications and race reports
#
# These import from repro.core / repro.races lazily: both packages
# import the model, so top-level imports here would be circular.
# ----------------------------------------------------------------------
def witness_to_dict(witness) -> Dict[str, Any]:
    """A JSON-ready dict for a :class:`~repro.core.witness.Witness`.

    Only the schedule points are stored; the execution is context the
    caller must supply again on load.
    """
    return {"points": [[p.eid, int(p.is_end)] for p in witness.points]}


def witness_from_dict(exe: ProgramExecution, data: Dict[str, Any]):
    """Rebuild a witness against ``exe`` (inverse of
    :func:`witness_to_dict`)."""
    from repro.core.witness import Witness

    return Witness(exe, _points(data))


def _points(data: Dict[str, Any]):
    from repro.core.engine import Point

    return [Point(int(eid), bool(end)) for eid, end in data["points"]]


def _race_witness(exe: ProgramExecution, rec: Dict[str, Any]):
    """A race or classification record's witness, bound to the
    execution a race witness replays on (see
    :func:`repro.races.detector.race_witness`)."""
    from repro.races.detector import race_witness

    witness = rec.get("witness")
    if witness is None:
        return None
    return race_witness(exe, int(rec["a"]), int(rec["b"]), _points(witness))


def classification_to_dict(c) -> Dict[str, Any]:
    """A JSON-ready dict for a
    :class:`~repro.races.detector.PairClassification`."""
    return {
        "a": c.a,
        "b": c.b,
        "status": c.status,
        "variables": sorted(c.variables),
        "resource": c.resource,
        "witness": witness_to_dict(c.witness) if c.witness is not None else None,
        "decided_by": c.decided_by,
    }


def classification_from_dict(exe: ProgramExecution, data: Dict[str, Any]):
    """Inverse of :func:`classification_to_dict`, rebuilt against ``exe``."""
    from repro.races.detector import PairClassification

    return PairClassification(
        a=int(data["a"]),
        b=int(data["b"]),
        status=data["status"],
        variables=frozenset(data.get("variables", ())),
        witness=_race_witness(exe, data),
        resource=data.get("resource"),
        decided_by=data.get("decided_by"),  # absent in version-1 journals
    )


def planner_report_to_dict(report) -> Dict[str, Any]:
    """A JSON-ready dict for a
    :class:`~repro.solve.planner.PlannerReport`."""
    doc = {
        "format": "repro-planner-report",
        "version": PLANNER_REPORT_FORMAT_VERSION,
    }
    doc.update(report.snapshot())
    return doc


def planner_report_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`planner_report_to_dict` (validating)."""
    from repro.solve.planner import PlannerReport

    if data.get("format") != "repro-planner-report":
        raise ValueError("not a repro-planner-report document")
    if data.get("version") != PLANNER_REPORT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported planner-report version {data.get('version')!r} "
            f"(this library reads version {PLANNER_REPORT_FORMAT_VERSION})"
        )
    return PlannerReport.from_snapshot(data)


def report_to_dict(report, *, trace: Optional[str] = None) -> Dict[str, Any]:
    """A JSON-ready dict for a :class:`~repro.races.detector.RaceReport`
    (embeds the execution, so the document is self-contained).

    ``trace`` optionally references the structured trace file
    (:mod:`repro.obs.trace`) recorded alongside the scan; readers of
    older documents simply find the field absent.
    """
    doc = {
        "format": "repro-race-report",
        "version": REPORT_FORMAT_VERSION,
        "kind": report.kind,
        "conflicting_pairs_examined": report.conflicting_pairs_examined,
        "interrupted": report.interrupted,
        "execution": execution_to_dict(report.execution),
        "races": [
            {
                "a": r.a,
                "b": r.b,
                "variables": sorted(r.variables),
                "kind": r.kind,
                "witness": witness_to_dict(r.witness)
                if r.witness is not None
                else None,
            }
            for r in report.races
        ],
        "classifications": [
            classification_to_dict(c) for c in report.classifications
        ],
        "planner": planner_report_to_dict(report.planner)
        if report.planner is not None
        else None,
    }
    if trace is not None:
        doc["trace"] = {"path": trace, "format": "repro-trace"}
    return doc


def report_from_dict(data: Dict[str, Any]):
    """Inverse of :func:`report_to_dict` (validating)."""
    from repro.races.detector import Race, RaceReport

    if data.get("format") != "repro-race-report":
        raise ValueError("not a repro-race-report document")
    if data.get("version") not in _READABLE_REPORT_VERSIONS:
        raise ValueError(
            f"unsupported race-report version {data.get('version')!r} "
            f"(this library reads versions {list(_READABLE_REPORT_VERSIONS)})"
        )
    exe = execution_from_dict(data["execution"])
    races = []
    for rec in data.get("races", ()):
        races.append(
            Race(
                a=int(rec["a"]),
                b=int(rec["b"]),
                variables=frozenset(rec.get("variables", ())),
                kind=rec["kind"],
                witness=_race_witness(exe, rec),
            )
        )
    classifications = [
        classification_from_dict(exe, rec)
        for rec in data.get("classifications", ())
    ]
    planner = data.get("planner")  # absent in version-1 documents
    return RaceReport(
        execution=exe,
        races=races,
        kind=data["kind"],
        conflicting_pairs_examined=int(data["conflicting_pairs_examined"]),
        classifications=classifications,
        interrupted=bool(data.get("interrupted", False)),
        planner=planner_report_from_dict(planner) if planner is not None else None,
    )


def save_report(
    report, path: str, *, indent: Optional[int] = 2, trace: Optional[str] = None
) -> None:
    # atomic: --save targets are read by dashboards/scripts while the
    # next scan may be rewriting them
    atomic_write_text(
        path,
        json.dumps(
            report_to_dict(report, trace=trace), indent=indent, sort_keys=True
        )
        + "\n",
    )


def load_report(path: str):
    with open(path) as fh:
        return report_from_dict(json.load(fh))


# ----------------------------------------------------------------------
def dumps(exe: ProgramExecution, *, indent: int = 2) -> str:
    return json.dumps(execution_to_dict(exe), indent=indent, sort_keys=True)


def loads(text: str) -> ProgramExecution:
    return execution_from_dict(json.loads(text))


def save(exe: ProgramExecution, path: str) -> None:
    atomic_write_text(path, dumps(exe) + "\n")


def load(path: str) -> ProgramExecution:
    with open(path) as fh:
        return loads(fh.read())
