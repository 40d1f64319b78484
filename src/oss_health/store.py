"""Append-only on-disk event store.

Layout: ``<root>/<owner>__<repo>/<YYYY-MM>.events``, one file per
repository and month.  Each file starts with an 8-byte magic header
(``OSHEVT`` + two-digit format version) followed by length-prefixed
records: a big-endian uint32 byte length, then the record as canonical
UTF-8 JSON (sorted keys).  Appends are serialised per partition by the
caller; readers are always safe.

Every append deduplicates on one 16-byte BLAKE2b digest of ``(repo_id,
created_at, actor, event_type, payload)``, so re-ingesting the same
archive is idempotent.  An ``EventStore`` reads each partition's keys at
most once and keeps them in memory, so it assumes it is the only writer
under its root for as long as it lives.

An append interrupted part-way leaves a torn tail: a partial length
prefix, record or magic header.  Reads reject it; the next append to that
partition cuts it back to the end of the last complete record before it
writes.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

from .events import EventRecord, EventType, has_contribution

MAGIC = b"OSHEVT01"
_LEN = struct.Struct(">I")
#: canonical JSON for records and dedup keys; ``json.dumps`` with these
#: arguments would build a new encoder on every call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: stored ``event_type`` value -> kind, cheaper than ``EventType(value)``
_EVENT_TYPES = {kind.value: kind for kind in EventType}


class StoreError(IOError):
    pass


class StoreWriteError(StoreError):
    """Raised when an append fails part-way; carries the partial count."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


@dataclass
class AppendReceipt:
    count: int = 0
    duplicates_skipped: int = 0


def _month_key(created_at: int) -> str:
    dt = datetime.fromtimestamp(created_at, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def _partition_dir_name(repo_id: str) -> str:
    return repo_id.replace("/", "__")


def _record_to_json(record: EventRecord) -> bytes:
    doc = {
        "repo_id": record.repo_id,
        "event_type": record.event_type.value,
        "actor": record.actor,
        "created_at": record.created_at,
        "tz_offset": record.tz_offset,
        "action": record.action,
        "texts": record.texts,
        "counts": record.counts,
        "number": record.number,
    }
    return _JSON.encode(doc).encode("utf-8")


def _record_from_json(blob: bytes) -> EventRecord:
    doc = json.loads(blob.decode("utf-8"))
    return EventRecord(
        doc["repo_id"],
        _EVENT_TYPES[doc["event_type"]],
        doc["actor"],
        doc["created_at"],
        doc["tz_offset"],
        doc["action"],
        doc["texts"],
        doc["counts"],
        doc["number"],
    )


def dedup_key(record: EventRecord) -> bytes:
    """Identity of an event for dedup; ``tz_offset`` is not part of it."""
    fields = _JSON.encode(
        [
            record.repo_id,
            record.created_at,
            record.actor,
            record.event_type.value,
            record.action,
            record.texts,
            record.counts,
            record.number,
        ]
    )
    return hashlib.blake2b(fields.encode("utf-8"), digest_size=16).digest()


def _frames(path: Path, data: bytes) -> tuple[list[bytes], int]:
    """Record bodies of a partition's bytes, and where the last whole one ends.

    A partial magic header ends at 0; any other bad header raises.
    """
    if not data.startswith(MAGIC):
        if MAGIC.startswith(data):
            return [], 0
        raise StoreError(f"{path}: bad magic header {data[: len(MAGIC)]!r}")
    bodies = []
    end = len(MAGIC)
    while end + _LEN.size <= len(data):
        (length,) = _LEN.unpack_from(data, end)
        stop = end + _LEN.size + length
        if stop > len(data):
            break
        bodies.append(data[end + _LEN.size : stop])
        end = stop
    return bodies, end


def _repair_tail(path: Path) -> set[bytes]:
    """Cut ``path`` back to the end of its last complete record.

    Returns the dedup keys of the records kept.  An absent or (now) empty
    partition has the empty key set, so a partition this store creates is
    never read.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return set()
    with handle:
        data = handle.read()
        bodies, end = _frames(path, data)
        if end < len(data):
            handle.truncate(end)
    return {dedup_key(_record_from_json(body)) for body in bodies}


class EventStore:
    """Partitioned append-only store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._repo_dirs: set[Path] = set()
        #: partitions appended to so far -> their dedup keys
        self._keys: dict[Path, set[bytes]] = {}

    # -- write ---------------------------------------------------------

    def append(self, events: Iterable[EventRecord]) -> AppendReceipt:
        """Durably append events, partitioned by (repo, month).

        Records whose dedup key already exists in the target partition are
        skipped and counted in the receipt.
        """
        receipt = AppendReceipt()
        by_partition: dict[tuple[str, str], list[EventRecord]] = {}
        for event in events:
            by_partition.setdefault((event.repo_id, _month_key(event.created_at)), []).append(event)

        for (repo_id, month), batch in sorted(by_partition.items()):
            repo_dir = self.root / _partition_dir_name(repo_id)
            if repo_dir not in self._repo_dirs:
                repo_dir.mkdir(parents=True, exist_ok=True)
                self._repo_dirs.add(repo_dir)
            path = repo_dir / f"{month}.events"
            keys = self._keys.get(path)
            if keys is None:
                keys = self._keys[path] = _repair_tail(path)
            try:
                with open(path, "ab") as handle:
                    if handle.tell() == 0:
                        handle.write(MAGIC)
                    for record in batch:
                        key = dedup_key(record)
                        if key in keys:
                            receipt.duplicates_skipped += 1
                            continue
                        keys.add(key)
                        blob = _record_to_json(record)
                        handle.write(_LEN.pack(len(blob)))
                        handle.write(blob)
                        receipt.count += 1
                    handle.flush()
            except OSError as exc:
                del self._keys[path]
                raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
        return receipt

    # -- read ----------------------------------------------------------

    @staticmethod
    def _read_partition(path: Path) -> list[EventRecord]:
        data = path.read_bytes()
        bodies, end = _frames(path, data)
        if not end or end < len(data):
            raise StoreError(f"{path}: torn tail after byte {end}")
        return [_record_from_json(body) for body in bodies]

    def read(self, repo_id: str) -> list[EventRecord]:
        """All events for one repository, in append order per month."""
        repo_dir = self.root / _partition_dir_name(repo_id)
        # globbing a missing directory yields nothing
        return [e for path in sorted(repo_dir.glob("*.events")) for e in self._read_partition(path)]

    def latest_created_at(self) -> int | None:
        """``created_at`` of the latest stored event; ``None`` for an empty store.

        Partitions are UTC months, so only the latest month's partitions are
        read, and the next month down's when those hold no complete record.
        """
        months: dict[str, list[Path]] = {}
        for path in self.root.glob("*__*/*.events"):
            months.setdefault(path.stem, []).append(path)
        for month in sorted(months, reverse=True):
            latest = max(
                (e.created_at for path in months[month] for e in self._read_partition(path)),
                default=None,
            )
            if latest is not None:
                return latest
        return None

    def iter_repo_ids(self) -> Iterator[str]:
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and "__" in entry.name:
                yield entry.name.replace("__", "/", 1)

    def has_history(self, repo_id: str) -> bool:
        return has_contribution(self.read(repo_id))
