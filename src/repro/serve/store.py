"""Persistent on-disk witness store, keyed by execution fingerprint.

The cross-query :class:`~repro.solve.witnesses.WitnessCache` makes a
*scan* cheap; the daemon makes it *durable*: witnesses found for one
client's query answer the next client's, across daemon restarts.  The
layout is one directory per stored execution::

    <root>/<fingerprint>/execution.json   -- the source trace
    <root>/<fingerprint>/witnesses.json   -- validated schedules

Robustness rules, in order of importance:

* **Never trust the disk.**  Every loaded schedule replays through the
  reference semantics before it is served, and so does every schedule
  a query ships back for persisting; a schedule that does not replay
  is dropped and the file marked for rewrite.
* **Never serve a corrupt entry, never delete evidence.**  A directory
  whose ``execution.json`` is unreadable -- or whose content hashes to
  a different fingerprint than its name -- is *quarantined* (renamed
  ``<name>.corrupt-N``) and skipped with a logged warning.  A corrupt
  ``witnesses.json`` is quarantined the same way and then **rebuilt
  from the source trace**: the execution's own observed schedule is
  re-validated into a fresh witness file, so the entry keeps answering
  (degraded to one witness) instead of disappearing.
* **Atomic, durable writes.**  Files are written via
  :func:`~repro.util.fileio.atomic_write_text` with ``durable=True``
  (tmp + fsync + rename + directory fsync), so a crash or a full disk
  mid-flush leaves the previous complete version in place, never a
  torn one.  A failed flush logs, counts, and leaves the entry dirty
  for the next flush -- the daemon keeps serving from memory.
* **Bounded size.**  ``max_entries`` / ``max_bytes`` cap the corpus;
  past the cap the least-recently-used execution is **evicted** --
  its directory deleted outright, *not* quarantined, because an
  evicted entry is not evidence of anything: the client that needs it
  re-posts the execution and the observed-schedule witness is rebuilt
  on the spot.  Eviction never touches the entry that triggered it.
* **Crash-safe compaction.**  Quarantined ``*.corrupt-N`` debris and
  eviction leftovers accumulate; :meth:`compact` rewrites the live
  entries into a fresh generation directory and swaps it in with two
  renames.  A SIGKILL at *any* instant leaves either the old
  generation or the new one recoverable -- never a mix -- and both
  :meth:`compact` itself (on an injected failure) and the constructor
  (on the next open) run the same recovery.

Failpoints (see :mod:`repro.faults`): ``store.put``, ``store.flush``,
``store.evict``, ``store.compact.built``, ``store.compact.swapped-out``
and ``store.compact.swapped-in`` let a chaos schedule fail or kill any
of those steps deterministically.

Capacity: each entry holds the most recent ``capacity`` schedules
(FIFO, like the scan cache); the store persists what is resident at
flush time.

Resident form: an entry keeps only what the daemon serves from -- the
canonical execution text (the compact JSON its fingerprint hashes;
``execution.json`` is the same document indented), the memory model,
the event count and the validated schedules as flat tuples.  No
:class:`~repro.model.execution.ProgramExecution` stays resident: one
is parsed from the text for a moment when schedules that are new to
the entry must be validated by replay, then dropped.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import re
import shutil
import threading
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro import faults
from repro.core.engine import Point
from repro.core.witness import replay_schedule
from repro.model import serialize
from repro.model.execution import ProgramExecution
from repro.util.fileio import atomic_write_text, fsync_dir

log = logging.getLogger("repro.serve")

STORE_FORMAT = "repro-witness-store"
STORE_VERSION = 1

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{64}$")

#: suffixes of the compaction generation directories (siblings of the
#: store root, so the final swap is two same-filesystem renames)
_COMPACT_NEW = ".compact-new"
_COMPACT_OLD = ".compact-old"


def _quarantine(path: str) -> str:
    """Move a corrupt file or directory aside (never delete evidence)."""
    for n in itertools.count(1):
        target = f"{path}.corrupt-{n}"
        if not os.path.exists(target):
            os.replace(path, target)
            return target
    raise AssertionError("unreachable")  # pragma: no cover


def recover_compaction(root: str) -> Optional[str]:
    """Resolve a compaction interrupted at any point (crash, SIGKILL,
    injected fault) into exactly one complete generation at ``root``.

    Returns a short description of what was recovered (for logging), or
    ``None`` when there was nothing to do.  The possible on-disk states
    and their resolution:

    * ``root`` exists, ``root.compact-new`` exists -- the crash hit
      while *building* the new generation; the root was never touched.
      Drop the partial build.
    * ``root`` exists, ``root.compact-old`` exists -- the crash hit
      after the new generation was swapped in but before the old one
      was deleted.  The root IS the new generation; drop the old.
    * ``root`` missing, ``root.compact-old`` exists -- the crash hit
      between the two renames.  Restore the old generation (it is a
      superset of the new one, which only ever holds live entries) and
      drop the new if present.
    * ``root`` missing, only ``root.compact-new`` exists -- cannot be
      produced by the compaction sequence, but an operator moving
      directories by hand can get here; adopt the new generation
      rather than refuse to start.
    """
    old_root, new_root = root + _COMPACT_OLD, root + _COMPACT_NEW
    if os.path.isdir(root):
        recovered = None
        if os.path.isdir(old_root):
            shutil.rmtree(old_root)
            recovered = "dropped superseded old generation"
        if os.path.isdir(new_root):
            shutil.rmtree(new_root)
            recovered = "dropped partial new generation"
        return recovered
    if os.path.isdir(old_root):
        os.rename(old_root, root)
        if os.path.isdir(new_root):
            shutil.rmtree(new_root)
        return "restored previous generation after interrupted compaction"
    if os.path.isdir(new_root):
        os.rename(new_root, root)
        return "adopted new generation after interrupted compaction"
    return None


class StoredExecution(NamedTuple):
    """What a query needs from one stored execution, read in one go."""

    text: str  # the canonical JSON document (what the fingerprint hashes)
    memory_model: str
    events: int  # event ids are ``0 .. events - 1``
    witnesses: List[List[List[int]]]  # JSON-ready stored schedules


def _points(schedule: Tuple[int, ...]) -> List[List[int]]:
    """A compact schedule as JSON-ready ``[[eid, is_end], ...]``."""
    return [[code >> 1, code & 1] for code in schedule]


class _StoreEntry:
    """One stored execution in its compact resident form (see the
    module docstring).  A schedule is a tuple with one int per point,
    ``2 * eid + is_end``."""

    __slots__ = (
        "text", "memory_model", "events", "schedules", "dirty",
        "last_used", "bytes_on_disk",
    )

    def __init__(self, exe: ProgramExecution) -> None:
        self.text = serialize.canonical_json(exe)
        self.memory_model = exe.memory_model
        self.events = len(exe.events)
        self.schedules: List[Tuple[int, ...]] = []
        self.dirty = False
        self.last_used = 0  # LRU clock value, maintained by the store
        self.bytes_on_disk = 0  # last known execution + witness bytes

    def add(
        self, exe: Optional[ProgramExecution], schedules: Iterable[Any],
        capacity: int,
    ) -> Tuple[int, int]:
        """Keep every schedule that replays through the reference
        semantics and is not resident yet, evicting the oldest past
        ``capacity``; returns ``(added, rejected)``.  ``exe`` is this
        entry's execution, parsed from :attr:`text` when ``None`` and
        only if some schedule is new."""
        added = rejected = 0
        for sched in schedules:
            try:
                key = tuple(2 * int(eid) + bool(end) for eid, end in sched)
            except (TypeError, ValueError):
                rejected += 1  # malformed points document
                continue
            if key in self.schedules:
                continue  # resident already: validated when it arrived
            if exe is None:
                exe = serialize.loads(self.text)
            try:
                if not all(0 <= code >> 1 < self.events for code in key):
                    raise IndexError("event id out of range")
                replay_schedule(
                    exe,
                    [Point(code >> 1, bool(code & 1)) for code in key],
                    include_dependences=False,
                )
            except (ValueError, KeyError, IndexError):
                rejected += 1  # IllegalScheduleError is a ValueError
                continue
            self.schedules.append(key)
            if len(self.schedules) > capacity:
                del self.schedules[0]
            added += 1
        return added, rejected

    def add_observed(self, exe: ProgramExecution, capacity: int) -> None:
        """Re-derive the base witness from the source trace itself (the
        observed schedule is a member of ``F`` whenever it replays)."""
        sched = exe.observed_schedule
        if sched is not None:
            points = [(eid, end) for eid in sched for end in (0, 1)]
            self.add(exe, [points], capacity)

    def execution_text(self) -> str:
        """``execution.json``: the canonical document, indented."""
        doc = json.loads(self.text)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def witnesses_text(self, fp: str) -> str:
        doc = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "fingerprint": fp,
            "witnesses": [{"points": _points(s)} for s in self.schedules],
        }
        return json.dumps(doc, sort_keys=True) + "\n"


class WitnessStore:
    """Fingerprint-keyed persistent executions + validated witnesses.

    Thread-safe (one re-entrant lock): HTTP handler threads store
    executions and fetch/persist witnesses while the drain path
    flushes.  All mutations are in-memory first; :meth:`flush` makes
    them durable (and is called after every mutation by the daemon,
    plus once more on drain).

    ``max_entries`` / ``max_bytes`` bound the corpus (LRU eviction, see
    the module docstring); ``None`` leaves the axis uncapped.
    """

    def __init__(
        self,
        root: str,
        *,
        capacity: int = 256,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.root = root
        self.capacity = capacity
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: Dict[str, _StoreEntry] = {}
        self._clock = 0  # LRU ticks; bumped on every entry touch
        self.quarantined = 0
        self.flush_failures = 0
        #: failed flush *passes* since the last pass that wrote
        #: something durably -- the daemon's degraded-mode trigger
        self.consecutive_flush_failures = 0
        self.evictions = 0
        self.compactions = 0
        recovered = recover_compaction(root)
        if recovered:
            log.warning("witness store: %s", recovered)
        os.makedirs(root, exist_ok=True)
        self._load_all()
        with self._lock:
            self._evict_over_cap()

    # -- loading (constructor only) ------------------------------------
    def _load_all(self) -> None:
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if not os.path.isdir(path) or not _FINGERPRINT_RE.match(name):
                continue  # quarantined remnants, tmp files, strangers
            self._load_entry(name, path)

    def _load_entry(self, fp: str, path: str) -> None:
        exe_path = os.path.join(path, "execution.json")
        try:
            with open(exe_path) as fh:
                exe = serialize.execution_from_dict(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            where = _quarantine(path)
            self.quarantined += 1
            log.warning(
                "witness store: unreadable execution %s (%s); quarantined "
                "to %s", fp, exc, where,
            )
            return
        if serialize.execution_fingerprint(exe) != fp:
            where = _quarantine(path)
            self.quarantined += 1
            log.warning(
                "witness store: execution under %s hashes differently "
                "(renamed or tampered directory); quarantined to %s",
                fp, where,
            )
            return
        entry = _StoreEntry(exe)
        wit_path = os.path.join(path, "witnesses.json")
        schedules: List[Any] = []
        if os.path.exists(wit_path):
            try:
                with open(wit_path) as fh:
                    doc = json.load(fh)
                if (
                    not isinstance(doc, dict)
                    or doc.get("format") != STORE_FORMAT
                    or doc.get("version") != STORE_VERSION
                    or doc.get("fingerprint") != fp
                ):
                    raise ValueError("wrong format/version/fingerprint")
                schedules = [w["points"] for w in doc["witnesses"]]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                where = _quarantine(wit_path)
                self.quarantined += 1
                entry.dirty = True  # rebuild from the source trace
                log.warning(
                    "witness store: corrupt witnesses for %s (%s); "
                    "quarantined to %s, rebuilding from source trace",
                    fp, exc, where,
                )
        else:
            # e.g. a crash between storing the execution and the first
            # flush: not corruption, just rebuild
            entry.dirty = True
            log.info(
                "witness store: no witness file for %s; rebuilding from "
                "source trace", fp,
            )
        _, bad = entry.add(exe, schedules, self.capacity)
        if bad:
            entry.dirty = True  # rewrite without the invalid schedules
            log.warning(
                "witness store: %d invalid schedule(s) for %s dropped on "
                "load (failed replay validation)", bad, fp,
            )
        entry.add_observed(exe, self.capacity)
        entry.bytes_on_disk = self._entry_disk_bytes(path)
        self._touch(entry)
        self._entries[fp] = entry

    @staticmethod
    def _entry_disk_bytes(path: str) -> int:
        total = 0
        for name in ("execution.json", "witnesses.json"):
            try:
                total += os.path.getsize(os.path.join(path, name))
            except OSError:
                pass
        return total

    # -- LRU + eviction (call with the lock held) -----------------------
    def _touch(self, entry: _StoreEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock

    def _bytes_resident(self) -> int:
        return sum(e.bytes_on_disk for e in self._entries.values())

    def _over_cap(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_bytes is not None and self._bytes_resident() > self.max_bytes:
            return True
        return False

    def _evict_over_cap(self, keep: Optional[str] = None) -> int:
        """Evict least-recently-used entries until back under the caps.
        ``keep`` (the fingerprint whose mutation triggered this) is
        never evicted, so a store with ``max_entries=1`` still works.
        Returns the number of entries evicted."""
        evicted = 0
        while self._over_cap():
            victims = [
                (e.last_used, fp)
                for fp, e in self._entries.items()
                if fp != keep
            ]
            if not victims:
                break  # only the protected entry remains
            _, fp = min(victims)
            self._evict(fp)
            evicted += 1
        return evicted

    def _evict(self, fp: str) -> None:
        """Drop one entry from memory and disk.  Deliberately NOT a
        quarantine: the entry is healthy, just cold, and a client that
        still needs it re-posts the execution (the observed-schedule
        witness is rebuilt on arrival) -- rebuildable, never evidence."""
        faults.fire("store.evict")
        self._entries.pop(fp, None)
        path = os.path.join(self.root, fp)
        try:
            shutil.rmtree(path)
        except OSError as exc:
            # the dirs-on-disk cleanup is best-effort (a read-only disk
            # cannot evict bytes); memory is what must stay bounded
            log.warning(
                "witness store: could not remove evicted entry %s (%s); "
                "compaction will reclaim it", fp, exc,
            )
        self.evictions += 1
        log.info("witness store: evicted %s (LRU, over size cap)", fp)

    # -- client surface -------------------------------------------------
    def put_execution(self, exe: ProgramExecution) -> str:
        """Store an execution (idempotent); returns its fingerprint.

        A failed durable write (disk full) counts as a flush failure --
        the entry is *not* registered, the error propagates, and the
        caller must report the store, not acknowledge it."""
        fp = serialize.execution_fingerprint(exe)
        with self._lock:
            entry = self._entries.get(fp)
            if entry is not None:
                self._touch(entry)
                return fp
            entry = _StoreEntry(exe)
            entry.add_observed(exe, self.capacity)
            entry.dirty = True
            path = os.path.join(self.root, fp)
            try:
                faults.fire("store.put")
                os.makedirs(path, exist_ok=True)
                atomic_write_text(
                    os.path.join(path, "execution.json"),
                    entry.execution_text(),
                    durable=True,
                )
            except OSError:
                self.flush_failures += 1
                self.consecutive_flush_failures += 1
                raise
            entry.bytes_on_disk = self._entry_disk_bytes(path)
            self._touch(entry)
            self._entries[fp] = entry
            self._evict_over_cap(keep=fp)
        return fp

    def __contains__(self, fp: str) -> bool:
        with self._lock:
            return fp in self._entries

    def lookup(self, fp: str) -> Optional[StoredExecution]:
        """Everything a query needs from one stored execution, under one
        lock acquisition (``None`` when it is not stored)."""
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                return None
            self._touch(entry)
            return StoredExecution(
                entry.text, entry.memory_model, entry.events,
                [_points(s) for s in entry.schedules],
            )

    def fingerprints(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def points_for(self, fp: str) -> List[List[List[int]]]:
        """Every stored schedule for ``fp`` (JSON-ready points), for
        seeding a query worker's cache."""
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                return []
            self._touch(entry)
            return [_points(s) for s in entry.schedules]

    def add_points(self, fp: str, schedules) -> int:
        """Fold newly discovered schedules in (each one not resident yet
        is re-validated by replay); returns how many were genuinely
        new."""
        if not schedules:
            return 0
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                return 0
            self._touch(entry)
            added, _ = entry.add(None, schedules, self.capacity)
            if added:
                entry.dirty = True
            return added

    # -- durability ------------------------------------------------------
    def flush(self) -> int:
        """Write every dirty entry durably; returns entries written.

        A failed write (disk full, permissions) logs a warning, counts
        in :attr:`flush_failures` and leaves the entry dirty -- the
        in-memory copy keeps serving and the next flush retries.  A
        whole *pass* with failures bumps
        :attr:`consecutive_flush_failures`; a pass that writes cleanly
        resets it (the daemon reads it to decide degraded mode).
        """
        written = 0
        failed = 0
        with self._lock:
            for fp, entry in self._entries.items():
                if not entry.dirty:
                    continue
                path = os.path.join(self.root, fp, "witnesses.json")
                try:
                    faults.fire("store.flush")
                    atomic_write_text(
                        path,
                        entry.witnesses_text(fp),
                        durable=True,
                    )
                except OSError as exc:
                    self.flush_failures += 1
                    failed += 1
                    log.warning(
                        "witness store: flush of %s failed (%s); keeping "
                        "entry dirty, serving from memory", fp, exc,
                    )
                else:
                    entry.dirty = False
                    entry.bytes_on_disk = self._entry_disk_bytes(
                        os.path.join(self.root, fp)
                    )
                    written += 1
            if failed:
                self.consecutive_flush_failures += 1
            elif written:
                self.consecutive_flush_failures = 0
            if written:
                self._evict_over_cap()
        return written

    def probe(self) -> bool:
        """Can the store write durably *right now*?  Writes and removes
        a tiny probe file through the same atomic path a flush uses --
        the daemon's degraded-mode recovery check."""
        path = os.path.join(self.root, ".probe")
        try:
            atomic_write_text(path, "ok\n", durable=True)
            os.unlink(path)
        except OSError:
            return False
        return True

    # -- compaction ------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the live entries into a fresh generation and swap it
        in; returns the number of entries carried over.

        Reclaims quarantine debris and eviction leftovers (this is the
        explicit, operator-invoked way to give that space back -- the
        normal load path never deletes evidence).  Crash-safe: the new
        generation is built in a sibling directory, fsync'ed, and
        swapped in with two renames; a SIGKILL anywhere leaves a state
        :func:`recover_compaction` resolves to exactly the old or the
        new generation.  On an in-process failure the same recovery
        runs before the error propagates, so the live store keeps
        working.
        """
        with self._lock:
            try:
                return self._compact_locked()
            except BaseException:
                recovered = recover_compaction(self.root)
                if recovered:
                    log.warning(
                        "witness store: compaction failed mid-swap; %s",
                        recovered,
                    )
                raise

    def _compact_locked(self) -> int:
        new_root = self.root + _COMPACT_NEW
        old_root = self.root + _COMPACT_OLD
        if os.path.isdir(new_root):  # debris of an earlier failed build
            shutil.rmtree(new_root)
        os.makedirs(new_root)
        carried = 0
        for fp, entry in self._entries.items():
            path = os.path.join(new_root, fp)
            os.makedirs(path)
            atomic_write_text(
                os.path.join(path, "execution.json"),
                entry.execution_text(),
                durable=True,
            )
            atomic_write_text(
                os.path.join(path, "witnesses.json"),
                entry.witnesses_text(fp),
                durable=True,
            )
            carried += 1
        faults.fire("store.compact.built")
        fsync_dir(new_root)
        # the swap: two renames.  A crash between them leaves no root;
        # recover_compaction restores the old generation.
        os.rename(self.root, old_root)
        faults.fire("store.compact.swapped-out")
        os.rename(new_root, self.root)
        faults.fire("store.compact.swapped-in")
        shutil.rmtree(old_root)
        fsync_dir(os.path.dirname(os.path.abspath(self.root)) or ".")
        for fp, entry in self._entries.items():
            entry.dirty = False  # the new generation just wrote them all
            entry.bytes_on_disk = self._entry_disk_bytes(
                os.path.join(self.root, fp)
            )
        self.compactions += 1
        self.consecutive_flush_failures = 0  # the disk demonstrably works
        log.info(
            "witness store: compacted into a fresh generation "
            "(%d entries carried)", carried,
        )
        return carried

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "executions": len(self._entries),
                "witnesses": sum(
                    len(e.schedules) for e in self._entries.values()
                ),
                "dirty": sum(1 for e in self._entries.values() if e.dirty),
                "bytes": self._bytes_resident(),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "quarantined": self.quarantined,
                "flush_failures": self.flush_failures,
                "consecutive_flush_failures": self.consecutive_flush_failures,
                "evictions": self.evictions,
                "compactions": self.compactions,
            }


__all__ = [
    "StoredExecution",
    "WitnessStore",
    "recover_compaction",
    "STORE_FORMAT",
    "STORE_VERSION",
]
