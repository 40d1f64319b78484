"""Append-only on-disk event store.

Layout: ``<root>/<owner>__<repo>/<YYYY-MM>.events``, one file per
repository and month.  Each file starts with an 8-byte magic header
(``OSHEVT`` + two-digit format version) followed by length-prefixed
records: a big-endian uint32 byte length, then the record as canonical
UTF-8 JSON (sorted keys).  Appends are serialised per partition by the
caller; readers are always safe.

Every append deduplicates on a 16-byte BLAKE2b digest of a record's stored
bytes up to ``,"tz_offset":``, so re-ingesting the same archive is
idempotent.  That prefix holds every field but ``tz_offset``, and the cut
is exact: keys are sorted, so ``tz_offset`` is the last member, and ``,"``
cannot occur inside a JSON string, where every ``"`` is escaped.  Keys
live only in memory.  An ``EventStore`` reads each partition's keys at
most once and keeps them, so it assumes it is the only writer under its
root for as long as it lives.

An append interrupted part-way leaves a torn tail: a partial length
prefix, record or magic header.  Reads reject it; the next append to that
partition cuts it back to the end of the last complete record before it
writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .events import EventRecord, EventType, has_contribution

MAGIC = b"OSHEVT01"
_LEN = struct.Struct(">I")
#: canonical record JSON; ``json.dumps`` with these arguments would build a
#: new encoder on every call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: one decoder call per stored record, without ``json.loads``' whitespace
#: scans; the caller checks that it consumed the whole body
_DECODE = json.JSONDecoder().raw_decode
#: where a stored record's last member starts; its dedup key ends there
_TZ_MEMBER = b',"tz_offset":'
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
    utc = time.gmtime(created_at)
    return f"{utc.tm_year:04d}-{utc.tm_mon:02d}"


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
    return _JSON.encode(doc).encode()


def _key(blob: bytes) -> bytes:
    """Dedup key of a stored record body."""
    return hashlib.blake2b(blob[: blob.rindex(_TZ_MEMBER)], digest_size=16).digest()


def dedup_key(record: EventRecord) -> bytes:
    """Identity of an event for dedup; ``tz_offset`` is not part of it."""
    return _key(_record_to_json(record))


def _frames(path: str | Path, data: bytes) -> tuple[list[bytes], int]:
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


def _repair_tail(path: str) -> set[bytes]:
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
    try:
        return {_key(body) for body in bodies}
    except ValueError as exc:
        raise StoreError(f"{path}: a record has no tz_offset member to key it by") from exc


class EventStore:
    """Partitioned append-only store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self._repo_dirs: set[str] = set()
        #: partitions appended to so far -> their dedup keys
        self._keys: dict[str, set[bytes]] = {}

    # -- write ---------------------------------------------------------

    def append(self, events: Iterable[EventRecord]) -> AppendReceipt:
        """Durably append events, partitioned by (repo, month).

        Records whose dedup key already exists in the target partition are
        skipped and counted in the receipt; a batch of nothing but
        duplicates opens no file.
        """
        receipt = AppendReceipt()
        by_partition: dict[tuple[str, str], list[EventRecord]] = {}
        for event in events:
            by_partition.setdefault((event.repo_id, _month_key(event.created_at)), []).append(event)

        for (repo_id, month), batch in sorted(by_partition.items()):
            path = f"{self._root}/{_partition_dir_name(repo_id)}/{month}.events"
            keys = self._keys.get(path)
            if keys is None:
                repo_dir = os.path.dirname(path)
                if repo_dir not in self._repo_dirs:
                    os.makedirs(repo_dir, exist_ok=True)
                    self._repo_dirs.add(repo_dir)
                keys = self._keys[path] = _repair_tail(path)
            handle = None
            try:
                try:
                    for record in batch:
                        blob = _record_to_json(record)
                        key = _key(blob)
                        if key in keys:
                            receipt.duplicates_skipped += 1
                            continue
                        if handle is None:
                            handle = open(path, "ab")
                            if handle.tell() == 0:
                                handle.write(MAGIC)
                        keys.add(key)
                        handle.write(_LEN.pack(len(blob)))
                        handle.write(blob)
                        receipt.count += 1
                finally:
                    if handle is not None:
                        handle.close()
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
        records = []
        try:
            for body in bodies:
                text = body.decode()
                doc, stop = _DECODE(text)
                if stop != len(text):
                    raise ValueError(f"extra data after char {stop}")
                records.append(EventRecord(
                    doc["repo_id"], _EVENT_TYPES[doc["event_type"]], doc["actor"], doc["created_at"],
                    doc["tz_offset"], doc["action"], doc["texts"], doc["counts"], doc["number"],
                ))
        except (ValueError, KeyError, TypeError) as exc:
            at = len(MAGIC) + sum(_LEN.size + len(body) for body in bodies[: len(records)])
            raise StoreError(f"{path}: record at byte {at}: {type(exc).__name__}: {exc}") from exc
        return records

    def read(self, repo_id: str) -> list[EventRecord]:
        """All events for one repository, in append order per month."""
        repo_dir = f"{self._root}/{_partition_dir_name(repo_id)}"
        names = sorted(os.listdir(repo_dir)) if os.path.isdir(repo_dir) else []
        paths = [Path(repo_dir, name) for name in names if name.endswith(".events")]
        return [e for path in paths for e in self._read_partition(path)]

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
