"""Append-only on-disk event store.

Layout, under the store's root:

- ``months/<YYYY-MM>.events``, the month file: every stored record whose
  ``created_at`` falls in that UTC month, as column frames;
- ``archives.ledger``, the archives ingested whole.

So a store holds one file per month and the ledger, however many
repositories its archives touch.  Appends are serialised by the caller;
readers are always safe.

A month file starts with the 8-byte magic header ``OSHEVT04`` (``OSHEVT``
+ two-digit format version), followed by frames, one per append that
stored records in the month: a big-endian uint32 byte length, then the
body.  The body holds ``n`` entries, one per repository the append stored
records of, in repository-id order, the ``r`` records of the append as
rows of columns, each entry's rows contiguous, and the texts of those
records.  Its index section comes first: the big-endian numbers
(``struct`` format ``>IIIIII``) ``n``, ``m``, ``k``, ``r``, ``s`` and
``t``; then (``>{n + 1}I``) the ``n + 1`` row bounds, entry ``i`` holding
the rows ``[rows[i], rows[i + 1])``, from 0 up to ``r``; then ``k`` bytes
of canonical JSON (ASCII only, no whitespace), the list of the entries'
repository ids.  The columns follow.  They are little-endian: each of
``r`` values in the order of the rows, one column after another,
``created_at``, ``counts`` and ``number`` (``<i8``, the minimum ``-2**63``
for None), ``tz_offset`` (``<i2``, ``-2**15`` for None), the kind (``u1``,
the index of its ``EventType`` in declaration order), ``actor`` and
``action`` (``<u4``, an index into the string table, ``2**32 - 1`` for
None) and the number of the record's texts (``<u4``); then ``s`` bytes of
canonical JSON, the string table: each distinct actor and action string
once.  Every value ``EventRecord`` admits fits its column.  The texts
section follows: the ``m`` texts of the push records, each one's
``created_at`` (``>{m}q``) and then ``t`` bytes of canonical JSON, the
list of those texts; then, to the body's end, the canonical JSON list of
the other records' texts (comment bodies).  Each list holds its records'
texts in row order, so the file holds every field of every record, and
the index is read without reading a column or a text.

Every append deduplicates on a 16-byte BLAKE2b digest of
``marshal.dumps((repo_id, kind code, actor, created_at, action, texts,
counts, number), 0)``: every field but ``tz_offset``, so re-ingesting the
same archive is idempotent.  Marshal version 0 writes a value's bytes
alone, where versions 3 and up add references to objects seen before and
tag interned strings, which depend on object identity; it writes strings
as length-prefixed UTF-8 with lone surrogates passed through, and tags
ints and None apart, so two records share a key exactly when those fields
are equal.  The key holds ``repo_id`` and ``created_at``, so one key set
per month skips exactly what a key set per repository and month would.
Keys live only in memory.  An ``EventStore`` computes a month's keys from
its frames once, at its first append to the month, and keeps them, so it
assumes it is the only writer under its root for as long as it lives.

An append writes one frame to each month it stores records in, with one
``write`` call, the magic header first for a new month file.  An append
interrupted part-way leaves a torn tail: a partial frame or magic header.
Reads ignore it; the next append to that month cuts it off before it
writes.  That is the store's one consistency rule.  Writes are not
fsynced: what an append or the ledger wrote survives an interrupted
process, but not a power loss or an OS crash.  A whole frame that is not
such a body raises ``StoreError`` naming the file and the frame's byte
offset when its index is first read, and so does a frame whose columns,
when first read, hold an unknown kind code, a ``tz_offset`` out of range
or a string index past its table, or whose texts, when read, do not
match their counts.

Reads find a repository's rows through the month indexes.  ``columns``
reads the columns of only the frames holding a wanted entry, one
``os.pread`` each, selects their rows with one index array per frame, and
only then resolves their ``actor`` and ``action`` strings.  ``read``
builds the records of a repository from the same columns and from the
texts of those frames, read again on every call.  An ``EventStore``
lists the months once, when it is made, opens each month file, which it
keeps open until it is collected, and reads its magic header then; a
partial header holds no record.  A new month is listed once a write to it
succeeds.  ``_Month`` is the one reader of a month's frames, for appends
(the dedup keys and the cut) as for reads: it parses the month's index
at most once, and each frame's columns at most once, until this store
appends to the month.

A store of an older format, one with a repository directory (``*__*``)
or a ``corpus`` log directory at its root, or a month file of another
format (``OSHEVT02``, ``OSHEVT03``) or with a garbage header, is refused
when an ``EventStore`` is made, before anything is read or written, with
a ``StoreError`` that names the root (the file, for a garbage header):
ingest its archives into a new store.

The ledger ``<root>/archives.ledger`` lists the archives ingested whole.
It starts with the 8-byte magic ``OSHARC01``, then holds fixed-size
records of ``struct`` format ``>16sQQQ``: the 16-byte BLAKE2b digest of
an archive file's bytes, then the archive's parsed, type-skipped and
malformed-skipped counts.  A record asserts that every event those bytes
parse to is stored under this root, so an archive found in the ledger can
be skipped unparsed: re-parsing it could only store nothing and count
every parsed event a duplicate.  A record is written only after the
archive's append has returned.  A partial record at the end (a torn tail)
is ignored on read and cut off before the next record is written; a
partial magic header reads as an empty ledger.  The records hold what
this version's parser makes of an archive: to re-parse the same archives
with a changed parser, ingest into a new store.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import marshal
import operator
import os
import struct
import time
import weakref
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .events import (
    EPOCH_END,
    INT_NULL,
    KIND_CODES,
    KINDS,
    TZ_NULL,
    TZ_OFFSET_MAX,
    TZ_OFFSET_MIN,
    Columns,
    EventRecord,
    EventType,
    from_records,
    has_contribution,
    take,
)

MAGIC = b"OSHEVT04"
_LEN = struct.Struct(">I")
#: the month files' directory at the root, one ``<YYYY-MM>.events`` file per month
MONTHS = "months"
#: the log directory of the older format, refused at the root
CORPUS = "corpus"
#: the ledger of archives ingested whole, at the store root
LEDGER = "archives.ledger"
LEDGER_MAGIC = b"OSHARC01"
#: archive digest, then its parsed, type-skipped and malformed-skipped counts
_LEDGER_RECORD = struct.Struct(">16sQQQ")
#: a frame's entry count, push text count, byte length of its names, row
#: count, byte length of its string table and of its push texts' JSON
_HEAD = struct.Struct(">IIIIII")
#: a frame's length prefix and the head of its body
_FRAME_HEAD = struct.Struct(">IIIIIII")
#: bytes per row of a frame's columns: ``created_at``, ``counts`` and
#: ``number`` (i8), ``tz_offset`` (i2), the kind (u1), ``actor``, ``action``
#: and the text count (u4)
_ROW_BYTES = 3 * 8 + 2 + 1 + 3 * 4
#: the null sentinel of the u4 ``actor`` and ``action`` columns
_U4_NULL = (1 << 32) - 1
#: canonical JSON; ``json.dumps`` with these arguments would build a new
#: encoder on every call
_JSON = json.JSONEncoder(separators=(",", ":"))
_PUSH = KIND_CODES[EventType.PUSH]


class StoreError(IOError):
    pass


class StoreWriteError(StoreError):
    """Raised when an append fails part-way.

    ``partial_count`` counts the records of the frames the append wrote
    whole before the failure; the frame cut off in the failed write is a
    torn tail, not counted.
    """

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


@dataclass
class AppendReceipt:
    count: int = 0
    duplicates_skipped: int = 0


@dataclass
class CorpusReceipt:
    """How many texts ``EventStore.push_corpus`` read."""

    texts: int = 0


@functools.lru_cache(maxsize=1 << 12)
def _day_month(day: int) -> str:
    """``YYYY-MM`` of the UTC day ``day`` days after the epoch."""
    utc = time.gmtime(day * 86400)
    return f"{utc.tm_year:04d}-{utc.tm_mon:02d}"


def _month_key(created_at: int) -> str:
    """UTC month of ``created_at``, memoised by UTC day, as UTC days nest in UTC months."""
    return _day_month(created_at // 86400)


def archive_digest(data: bytes) -> bytes:
    """Identity of an archive file's bytes in the ledger."""
    return hashlib.blake2b(data, digest_size=16).digest()


def _read_ledger(path: str) -> tuple[dict[bytes, tuple[int, int, int]], int]:
    """The ledger's counts by archive digest, and where its last whole record ends.

    An absent ledger or a partial magic header ends at 0; any other bad
    header raises.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except FileNotFoundError:
        return {}, 0
    if not _has_magic(path, data, LEDGER_MAGIC):
        return {}, 0
    end = len(data) - (len(data) - len(LEDGER_MAGIC)) % _LEDGER_RECORD.size
    records = _LEDGER_RECORD.iter_unpack(memoryview(data)[len(LEDGER_MAGIC) : end])
    return {digest: tuple(counts) for digest, *counts in records}, end


def _digest(fields: tuple) -> bytes:
    """Dedup key of a record's fields but ``tz_offset``, the kind as its code."""
    return hashlib.blake2b(marshal.dumps(fields, 0), digest_size=16).digest()


def dedup_key(record: EventRecord) -> bytes:
    """Identity of an event for dedup; ``tz_offset`` is not part of it."""
    return _digest((
        record.repo_id, KIND_CODES[record.event_type], record.actor, record.created_at,
        record.action, record.texts, record.counts, record.number,
    ))


def _older_format(root: str, found: str) -> StoreError:
    return StoreError(
        f"{root}: holds {found}, of another store format; ingest the archives into a new store"
    )


def _has_magic(path: str | Path, head: bytes, magic: bytes) -> bool:
    """Whether a file's first bytes ``head`` hold its whole ``magic`` header.

    A partial header is False; another header raises, naming the store's
    root when it is a month file in another format version.
    """
    if head.startswith(magic):
        return True
    if magic.startswith(head):
        return False
    if head[:6] == magic[:6] and magic != LEDGER_MAGIC:  # month files lie below the root
        raise _older_format(os.path.dirname(os.path.dirname(path)), f"{path}, format {head[:8]!r}")
    raise StoreError(f"{path}: bad magic header {head[: len(magic)]!r}")


def _corrupt(path: str, at: int, exc: Exception) -> StoreError:
    """The error for the frame at byte ``at`` of the month file ``path`` that ``exc`` found corrupt."""
    return StoreError(f"{path}: frame at byte {at}: {type(exc).__name__}: {exc}")


def _frame(repo_ids: list[str], rows: list[int], records: list[EventRecord]) -> bytes:
    """One append's length-prefixed frame for a month: entry ``i`` holds
    ``repo_ids[i]``'s records ``records[rows[i]:rows[i + 1]]``."""
    events = from_records(records)
    strings = [r.actor for r in records] + [r.action for r in records]
    index = dict.fromkeys(strings)
    index.pop(None, None)
    table = list(index)
    index.update(zip(table, range(len(table))))
    index[None] = _U4_NULL
    push = EventType.PUSH
    pushes = [r for r in records if r.event_type is push]
    times = [r.created_at for r in pushes for _ in r.texts]
    names, table = _JSON.encode(repo_ids).encode(), _JSON.encode(table).encode()
    texts = _JSON.encode([text for r in pushes for text in r.texts]).encode()
    body = b"".join((
        _HEAD.pack(len(repo_ids), len(times), len(names), len(records), len(table), len(texts)),
        struct.pack(f">{len(rows)}I", *rows),
        names,
        *(column.astype("<i8").tobytes() for column in (events.created_at, events.counts, events.number)),
        events.tz_offset.astype("<i2").tobytes(),
        events.kind.tobytes(),
        np.fromiter(map(index.__getitem__, strings), "<u4", len(strings)).tobytes(),  # actors, then actions
        np.fromiter([len(r.texts) for r in records], "<u4", len(records)).tobytes(),
        table,
        struct.pack(f">{len(times)}q", *times),
        texts,
        _JSON.encode([text for r in records if r.event_type is not push for text in r.texts]).encode(),
    ))
    return _LEN.pack(len(body)) + body


class _Frame(NamedTuple):
    """A frame's index section, and where its columns and its texts lie in the month file."""

    names: list[str]
    #: repository id -> its entry
    entry: dict[str, int]
    #: entry ``i`` holds the rows ``[rows[i], rows[i + 1])``
    rows: tuple[int, ...]
    #: the number of push texts
    count: int
    #: the frame's byte offset in the file, for errors
    at: int
    #: the columns' and string table's byte offset and length in the file
    columns: tuple[int, int]
    #: the push texts' byte offset and length in the file
    texts: tuple[int, int]
    #: the byte length of the other texts, which follow the push texts
    others: int


def _read_index(path: str, fd: int) -> tuple[list[_Frame], int]:
    """The index sections of the whole frames of a month file with a whole
    magic header, read with two ``os.pread`` calls per frame, no column
    and no text read; and where the last whole frame ends.

    A torn tail is ignored; a whole frame whose index is not such a body
    raises ``StoreError`` naming the file and the byte offset.
    """
    size = os.fstat(fd).st_size
    frames = []
    at = len(MAGIC)
    while at + _LEN.size <= size:
        head = os.pread(fd, _FRAME_HEAD.size, at)
        (length,) = _LEN.unpack_from(head)
        end = at + _LEN.size + length
        if end > size:
            break
        try:
            if length < _HEAD.size:
                raise ValueError(f"a body of {length} bytes has no head")
            _, entries, count, k, rows, table, texts = _FRAME_HEAD.unpack(head)
            index = 4 * (entries + 1) + k
            columns = _ROW_BYTES * rows + table
            if _HEAD.size + index + columns + 8 * count + texts > length:
                raise ValueError(f"{entries} entries, {rows} rows and {count} texts pass the frame's end")
            data = os.pread(fd, index, at + _FRAME_HEAD.size)
            bounds = struct.unpack_from(f">{entries + 1}I", data)
            names = json.loads(data[index - k :].decode("ascii"))
            if type(names) is not list:
                raise TypeError("the names are not a list")
            if set(map(type, names)) - {str}:
                raise TypeError("a name is not a string")
            entry = dict(zip(names, range(entries)))
            if not entries or len(entry) != entries or len(names) != entries:
                raise ValueError("the names do not match their count")
            if bounds[0] != 0 or bounds[-1] != rows or not all(map(operator.lt, bounds, bounds[1:])):
                raise ValueError("the row bounds do not increase from 0 to the row count")
        except (ValueError, TypeError, struct.error) as exc:
            raise _corrupt(path, at, exc) from exc
        offset = at + _FRAME_HEAD.size + index
        pushed = offset + columns
        frames.append(_Frame(
            names, entry, bounds, count, at, (offset, columns), (pushed, 8 * count + texts),
            end - pushed - 8 * count - texts,
        ))
        at = end
    return frames, at


class _Parsed(NamedTuple):
    """A frame's columns as read: ``actor`` and ``action`` hold each
    string's index + 1 in ``strings``, 0 for None, until rows are selected."""

    events: Columns
    #: None, then the string table
    strings: np.ndarray
    #: each row's number of texts
    texts: np.ndarray


def _frame_columns(path: str, fd: int, frame: _Frame) -> _Parsed:
    """A frame's columns, read with one ``os.pread``.

    A string table that is not a list of strings, an unknown kind code, a
    ``tz_offset`` out of range or a string index past the table raise
    ``StoreError`` naming the file and the frame's byte offset.
    """
    offset, length = frame.columns
    data = os.pread(fd, length, offset)
    r = frame.rows[-1]
    try:
        created, counts, number = (np.frombuffer(data, "<i8", r, 8 * r * i) for i in range(3))
        tz = np.frombuffer(data, "<i2", r, 24 * r)
        kind = np.frombuffer(data, np.uint8, r, 26 * r)
        actor, action, texts = (np.frombuffer(data, "<u4", r, 27 * r + 4 * r * i) for i in range(3))
        table = json.loads(data[_ROW_BYTES * r :].decode("ascii"))
        if type(table) is not list or set(map(type, table)) - {str}:
            raise TypeError("the string table is not a list of strings")
        if kind.max() >= len(KINDS):
            raise ValueError(f"kind code {kind.max()} is out of range")
        bad = (tz != TZ_NULL) & ((tz < TZ_OFFSET_MIN) | (tz > TZ_OFFSET_MAX))
        if bad.any():
            raise ValueError(f"tz_offset {tz[bad.argmax()]} is out of range")
        # each string's index + 1 in ``strings``, ``_U4_NULL`` wrapping round to None's 0
        actor, action = actor + np.uint32(1), action + np.uint32(1)
        for name, column in (("actor", actor), ("action", action)):
            if column.max() > len(table):
                raise ValueError(f"{name} index {column.max() - 1} is out of range")
    except (ValueError, TypeError) as exc:
        raise _corrupt(path, frame.at, exc) from exc
    strings = np.empty(len(table) + 1, object)  # None first
    strings[1:] = table
    return _Parsed(Columns(kind, created, tz, counts, number, actor, action), strings, texts)


def _text_list(data: bytes, what: str) -> list[str]:
    """The canonical JSON list of strings ``data``; raises naming ``what`` it holds."""
    texts = json.loads(data.decode("ascii"))
    if type(texts) is not list:
        raise TypeError(f"the {what} are not a list")
    "".join(texts)  # raise TypeError unless every item is a string
    return texts


def _frame_texts(path: str, fd: int, frame: _Frame, others: bool = False):
    """A frame's push texts, each one's ``created_at`` and the texts, read
    with one ``os.pread``; and, when ``others``, the other records' texts
    in the same read, None otherwise."""
    offset, length = frame.texts
    data = os.pread(fd, length + frame.others if others else length, offset)
    count = frame.count
    try:
        created = struct.unpack_from(f">{count}q", data)
        texts = _text_list(data[8 * count : length], "texts")
        if len(texts) != count:
            raise ValueError("the texts do not match their count")
        rest = _text_list(data[length:], "other texts") if others else None
    except (ValueError, TypeError, struct.error) as exc:
        raise _corrupt(path, frame.at, exc) from exc
    return created, texts, rest


def _nullable(column: np.ndarray, null: int) -> list:
    """A column's values, None for its sentinel ``null``."""
    return [None if value == null else value for value in column.tolist()]


def _frame_fields(path: str, fd: int, frame: _Frame, parsed: _Parsed, start: int, stop: int) -> list[tuple]:
    """The rows ``[start, stop)`` of a frame, each as ``(repo_id, kind
    code, actor, created_at, action, texts, counts, number, tz_offset)``.

    Text counts that do not tile the frame's push and other texts raise
    ``StoreError`` naming the file and the frame's byte offset.
    """
    _, push, other = _frame_texts(path, fd, frame, others=True)
    events, strings, counts = parsed.events, parsed.strings, parsed.texts.astype(np.int64)
    pushed = events.kind == _PUSH
    push_ends, other_ends = np.cumsum(np.where(pushed, counts, 0)), np.cumsum(np.where(pushed, 0, counts))
    if push_ends[-1] != len(push) or other_ends[-1] != len(other):
        raise _corrupt(path, frame.at, ValueError("the text counts do not match the texts"))
    rows = slice(start, stop)
    ends = np.where(pushed, push_ends, other_ends)[rows].tolist()
    texts = [
        (push if is_push else other)[end - count : end]
        for is_push, end, count in zip(pushed[rows].tolist(), ends, counts[rows].tolist())
    ]
    repo_ids = np.repeat(np.array(frame.names, object), np.diff(frame.rows))[rows].tolist()
    return list(zip(
        repo_ids, events.kind[rows].tolist(), strings.take(events.actor[rows]).tolist(),
        events.created_at[rows].tolist(), strings.take(events.action[rows]).tolist(), texts,
        _nullable(events.counts[rows], INT_NULL), _nullable(events.number[rows], INT_NULL),
        _nullable(events.tz_offset[rows], TZ_NULL),
    ))


def _append_cut(path: str, cut: int | None, magic: bytes, data: bytes) -> None:
    """Append ``data`` to a month file or the ledger with one ``write``,
    first cutting it back to ``cut``, the end of its last whole frame or
    record, unless that is None; a file cut to nothing gets its ``magic``
    header again, in the same write."""
    with open(path, "ab") as handle:
        if cut is not None:
            handle.truncate(cut)
            if cut == 0:
                data = magic + data
        handle.write(data)


class _Month:
    """What a store has read of one month: its index, and the columns read.
    The one reader of a month file's frames, for appends as for reads."""

    __slots__ = ("path", "fd", "frames", "end", "parsed")

    def __init__(self, path: str, fd: int | None):
        """``fd`` is None for a month with no whole magic header: it holds
        no frame, and the next append cuts it to nothing."""
        self.path, self.fd = path, fd
        #: the whole frames, and where the last one ends: the cut before an append
        self.frames, self.end = _read_index(path, fd) if fd is not None else ([], 0)
        #: frame byte offset -> its columns, read at first use
        self.parsed: dict[int, _Parsed] = {}

    def keys(self) -> set[bytes]:
        """The dedup keys of the month's records."""
        keys = set()
        for frame in self.frames:
            fields = _frame_fields(self.path, self.fd, frame, self.frame_columns(frame), 0, frame.rows[-1])
            keys.update(_digest(row[:-1]) for row in fields)
        return keys

    def names(self) -> set[str]:
        """The repositories with records in the month."""
        return set().union(*(frame.names for frame in self.frames))

    def read(self, repo_id: str) -> list[EventRecord]:
        """The records of ``repo_id``, in append order."""
        records = []
        for frame in self.frames:
            i = frame.entry.get(repo_id)
            if i is not None:
                fields = _frame_fields(self.path, self.fd, frame, self.frame_columns(frame), *frame.rows[i : i + 2])
                try:
                    records += [
                        EventRecord(repo, KINDS[kind], actor, created_at, tz_offset, action, texts, counts, number)
                        for repo, kind, actor, created_at, action, texts, counts, number, tz_offset in fields
                    ]
                except ValueError as exc:  # a ``created_at`` outside the years 1-9999
                    raise _corrupt(self.path, frame.at, exc) from exc
        return records

    def frame_columns(self, frame: _Frame) -> _Parsed:
        """A frame's columns, read once per month read."""
        parsed = self.parsed.get(frame.at)
        if parsed is None:
            parsed = self.parsed[frame.at] = _frame_columns(self.path, self.fd, frame)
        return parsed

    def columns(self, codes: dict[str, int]) -> Iterator[tuple[_Parsed, np.ndarray, np.ndarray]]:
        """For each frame holding a repository ``codes`` maps to its code,
        in file order: its columns, the index array of those rows, and
        each row's code.  So each repository's rows come in ``read`` order."""
        for frame in self.frames:
            if len(codes) < len(frame.names):
                hits = [(i, code) for repo_id, code in codes.items() if (i := frame.entry.get(repo_id)) is not None]
            else:
                hits = [(i, code) for i, repo_id in enumerate(frame.names) if (code := codes.get(repo_id)) is not None]
            if hits:
                entries = np.full(len(frame.names), -1)
                entries[[i for i, _ in hits]] = [code for _, code in hits]
                owners = np.repeat(entries, np.diff(frame.rows))
                index = np.flatnonzero(owners >= 0)
                yield self.frame_columns(frame), index, owners[index]

    def latest_created_at(self) -> int | None:
        """The largest ``created_at`` of the month, None when it holds no record."""
        times = [self.frame_columns(frame).events.created_at.max().item() for frame in self.frames]
        return max(times, default=None)


def _close(fds: dict[str, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class EventStore:
    """Month-partitioned append-only store rooted at a directory."""

    def __init__(self, root: str | Path):
        self._root = str(Path(root))
        os.makedirs(self._root, exist_ok=True)
        with os.scandir(self._root) as entries:
            older = sorted(entry.name for entry in entries if entry.is_dir() and ("__" in entry.name or entry.name == CORPUS))
        if older:
            kind = "log" if older[0] == CORPUS else "repository"
            raise _older_format(self._root, f"the {kind} directory {older[0]}")
        self._months_dir = f"{self._root}/{MONTHS}"
        #: months appended to so far -> their dedup keys
        self._keys: dict[str, set[bytes]] = {}
        self._ledger = f"{self._root}/{LEDGER}"
        #: the ledger's records, read at first use
        self._archives: dict[bytes, tuple[int, int, int]] | None = None
        #: where the ledger's last whole record ends, until this store first writes to it
        self._ledger_end: int | None = None
        #: months read so far
        self._months: dict[str, _Month] = {}
        #: the month files open for reading, by month, closed with the store
        self._fds: dict[str, int] = {}
        close = weakref.finalize(self, _close, self._fds)
        #: the months whose file has a whole magic header, sorted; a month
        #: without one joins once a write of this store to it succeeds
        self._month_names: list[str] = []
        try:
            months = sorted(name[: -len(".events")] for name in os.listdir(self._months_dir) if name.endswith(".events"))
        except FileNotFoundError:
            months = []
        try:
            for month in months:
                path = f"{self._months_dir}/{month}.events"
                fd = self._fds[month] = os.open(path, os.O_RDONLY)
                if _has_magic(path, os.pread(fd, len(MAGIC), 0), MAGIC):
                    self._month_names.append(month)
        except BaseException:
            close()
            raise

    # -- write ---------------------------------------------------------

    def append(self, events: Iterable[EventRecord]) -> AppendReceipt:
        """Append events, each to the file of its month.

        Every record is written before this returns, but not fsynced: it
        survives an interrupted process, not a power loss.  Records whose
        dedup key already exists in the target month are skipped and
        counted in the receipt; a batch of nothing but duplicates opens no
        file.  Months are written in order, each by one write of one
        frame of its new records, repository by repository.

        A failed encode or write raises, with the months before it
        written: ``StoreWriteError`` for an ``OSError``, its
        ``partial_count`` the records of those months.  The failed month's
        keys are dropped, so its next append reads them again from what is
        on disk.
        """
        receipt = AppendReceipt()
        by_month_repo: dict[tuple[str, str], list[EventRecord]] = {}
        for event in events:
            by_month_repo.setdefault((_month_key(event.created_at), event.repo_id), []).append(event)
        for month, batches in groupby(sorted(by_month_repo.items()), key=lambda item: item[0][0]):
            self._append_month(month, batches, receipt)
        return receipt

    def _append_month(self, month: str, batches: Iterable, receipt: AppendReceipt) -> None:
        """Write one frame of a month's new records, ``batches`` of ``((month,
        repo_id), records)``."""
        path = f"{self._months_dir}/{month}.events"
        keys, cut = self._keys.get(month), None
        if keys is None:
            os.makedirs(self._months_dir, exist_ok=True)
            state = self._month(month)
            keys = self._keys[month] = state.keys()
            cut = state.end
        codes, blake2b, dumps = KIND_CODES, hashlib.blake2b, marshal.dumps
        repo_ids: list[str] = []
        rows, stored = [0], []
        for (_, repo_id), batch in batches:
            for r in batch:
                # the dedup key, inline: ``dedup_key(r)``
                fields = (r.repo_id, codes[r.event_type], r.actor, r.created_at, r.action, r.texts, r.counts, r.number)
                key = blake2b(dumps(fields, 0), digest_size=16).digest()
                if key in keys:
                    receipt.duplicates_skipped += 1
                    continue
                keys.add(key)
                stored.append(r)
            if len(stored) > rows[-1]:
                repo_ids.append(repo_id)
                rows.append(len(stored))
        if not stored:
            return
        try:
            data = _frame(repo_ids, rows, stored)
            self._months.pop(month, None)  # its file changes: read it again at next use
            _append_cut(path, cut, MAGIC, data)
        except BaseException as exc:
            del self._keys[month]
            if isinstance(exc, OSError):
                raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
            raise
        if month not in self._month_names:  # listed once a write to it succeeded
            bisect.insort(self._month_names, month)
        receipt.count += len(stored)

    def ingested(self, digest: bytes) -> tuple[int, int, int] | None:
        """The ledger's (parsed, skipped_type, skipped_malformed) counts of the
        archive with ``digest``, or None when it was not ingested whole."""
        if self._archives is None:
            self._archives, self._ledger_end = _read_ledger(self._ledger)
        return self._archives.get(digest)

    def mark_ingested(self, digest: bytes, counts: tuple[int, int, int]) -> None:
        """Add a ledger record: every event of the archive with ``digest`` is stored.

        Call it only once the archive's ``append`` has returned.  The first
        record this store writes cuts the ledger's torn tail first.
        """
        if self.ingested(digest) is not None:
            return
        _append_cut(self._ledger, self._ledger_end, LEDGER_MAGIC, _LEDGER_RECORD.pack(digest, *counts))
        self._ledger_end = None
        self._archives[digest] = counts

    # -- read ----------------------------------------------------------

    def _month(self, month: str) -> _Month:
        """The month's read state, read at first use; a month not listed holds no frame."""
        state = self._months.get(month)
        if state is None:
            path, fd = f"{self._months_dir}/{month}.events", None
            if month in self._month_names:
                fd = self._fds.get(month)
                if fd is None:  # a file this store made
                    fd = self._fds[month] = os.open(path, os.O_RDONLY)
            state = self._months[month] = _Month(path, fd)
        return state

    def read(self, repo_id: str) -> list[EventRecord]:
        """All events for one repository, in append order per month."""
        events: list[EventRecord] = []
        for month in self._month_names:
            events += self._month(month).read(repo_id)
        return events

    def push_corpus(self, before: int, receipt: CorpusReceipt) -> Iterator[str]:
        """Texts of every stored push event before ``before``.

        Month by month, one frame at a time, they come from the frames'
        push texts, and no other text is read.  ``receipt`` counts them.
        """
        for month in self._month_names:
            state = self._month(month)
            for frame in state.frames:
                created, texts, _ = _frame_texts(state.path, state.fd, frame)
                if created and not max(created) < before:
                    texts = [text for at, text in zip(created, texts) if at < before]
                receipt.texts += len(texts)
                yield from texts

    def columns(self, repo_ids: Iterable[str], before: int) -> dict[str, Columns]:
        """Each repository's events before ``before`` as columns, its rows in
        ``read`` order, for every id in ``repo_ids``.

        Only the columns of the frames holding a wanted entry are read,
        each frame's once per month read, and their rows selected by one
        index array per frame, before their strings are resolved and they
        are concatenated.  No text is read.  A frame whose columns hold an
        unknown kind code, a ``tz_offset`` out of range or a string index
        past its table raises ``StoreError`` naming the month file and the
        frame's byte offset.
        """
        codes = {repo_id: code for code, repo_id in enumerate(dict.fromkeys(repo_ids))}
        # each piece's rows read: the empty block first, so there is one
        blocks, owners = [from_records([])], [np.zeros(0, np.int64)]
        for month in self._month_names:
            for (events, strings, _), index, owner in self._month(month).columns(codes):
                kept = events.created_at[index] < before
                block = take(events, index[kept])
                blocks.append(block._replace(actor=strings.take(block.actor), action=strings.take(block.action)))
                owners.append(owner[kept])
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")  # by repository, each in file order
        events = take(Columns(*map(np.concatenate, zip(*blocks))), order)
        bounds = np.searchsorted(owner[order], np.arange(len(codes) + 1)).tolist()
        return {repo_id: take(events, slice(bounds[code], bounds[code + 1])) for repo_id, code in codes.items()}

    def latest_created_at(self) -> int | None:
        """``created_at`` of the latest stored event; ``None`` for an empty store.

        Month files are UTC months, so only the latest month is read, and
        the next month down when it holds no whole frame: the maximum of
        its frames' ``created_at`` columns.
        """
        for month in reversed(self._month_names):
            latest = self._month(month).latest_created_at()
            if latest is not None:
                return latest
        return None

    def iter_repo_ids(self) -> Iterator[str]:
        """Every stored repository, sorted by its id."""
        yield from sorted(set().union(*(self._month(month).names() for month in self._month_names)))

    def has_history(self, repo_id: str) -> bool:
        """Whether the repository has any contribution event, from its columns alone."""
        return has_contribution(self.columns([repo_id], EPOCH_END)[repo_id])
