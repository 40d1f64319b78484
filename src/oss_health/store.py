"""Append-only on-disk event store.

Layout, under the store's root:

- ``months/<YYYY-MM>.events``, the month's segment: every stored record
  whose ``created_at`` falls in that UTC month;
- ``corpus/<YYYY-MM>.texts``, the month's log: the segment's index and
  the texts of its push events;
- ``archives.ledger``, the archives ingested whole.

So a store holds two files per month and the ledger, however many
repositories its archives touch.

A segment starts with the 8-byte magic header ``OSHEVT03`` (``OSHEVT`` +
two-digit format version), followed by length-prefixed records: a
big-endian uint32 byte length, then the record body.  A body is canonical
JSON, ASCII only: one array of the nine fields ``[repo_id, event_type,
actor, created_at, action, texts, counts, number, tz_offset]`` in that
order, ``,`` as the separator with no whitespace, and every character
outside ASCII written as a ``\\uXXXX`` escape (a surrogate pair above
U+FFFF).  These are exactly the bytes of ``json.dumps(fields,
separators=(",", ":"))``.  Appends are serialised by the caller; readers
are always safe.

Every append deduplicates on a 16-byte BLAKE2b digest of a record's stored
bytes up to its last ``,``, so re-ingesting the same archive is
idempotent.  That prefix holds every field but ``tz_offset``, and the cut
is exact: ``tz_offset`` is the last element, and its JSON (``null`` or an
in-range int) holds no ``,``.  The prefix holds ``repo_id``
and ``created_at``, so one key set per segment skips exactly what a key
set per repository and month would.  Keys live only in memory.  An
``EventStore`` reads each segment's keys at most once, from the whole
segment, and keeps them, so it assumes it is the only writer under its
root for as long as it lives.

An append writes each month it stores records in once: their
length-prefixed records (the magic header first, for a new segment)
encoded into one buffer, each repository's new records contiguous,
written by one unbuffered ``write`` call, which is repeated only after a
short write.  An append interrupted part-way leaves a torn tail: a
partial length prefix, record or magic header.  Reads reject it; the next
append to that segment cuts it back to the end of the last complete
record before it writes.  Writes are not fsynced: what an append or the
ledger wrote survives an interrupted process, but not a power loss or an
OS crash.

The log is the segment's index.  A log file starts with the 8-byte magic
``OSHTXT04``, followed by frames, one per append that stored records in
the month: a big-endian uint32 byte length, then the body.  The body
holds ``n`` entries, one per repository the append stored records of, in
the order of its write, the ``r`` records of that write as columns, and
the ``m`` push texts of those records.  Its index section comes first:
the big-endian numbers (``struct`` format ``>IIIII``) ``n``, ``m``,
``k``, ``r`` and ``s``; then (``>{n + 1}Q``) the ``n + 1`` increasing
bounds of the append's write, entry ``i`` holding the bytes ``[bounds[i],
bounds[i + 1])`` of the segment; then ``k`` bytes of canonical JSON
(spelt as a record's), the list of the entries' repository ids; then the
columns.  They are little-endian: the ``n + 1`` row bounds (``<u4``),
entry ``i`` holding the rows ``[rows[i], rows[i + 1])``, from 0 up to
``r``; then, one column after another, each of ``r`` values in the order
of the write, ``created_at``, ``counts`` and ``number`` (``<i8``, the
minimum ``-2**63`` for None), ``tz_offset`` (``<i2``, ``-2**15`` for
None), the kind (``u1``, the index of its ``EventType`` in declaration
order), ``actor`` and ``action`` (``<u4``, an index into the string
table, ``2**32 - 1`` for None); then ``s`` bytes of canonical JSON, the
string table: each distinct actor and action string once.  Every value
``EventRecord`` admits fits its column, so every frame has columns, at
least one row per entry.  The texts section follows: each text's
``created_at`` (``>{m}q``), then the canonical JSON list of the texts.
So the index is read without reading a column or a text.  An append
writes one frame to each month's log once every segment it wrote to is
closed.  A partial frame at the end of a log file (a torn tail) is
ignored on read and cut off before this store first writes to that file;
a whole frame that is not such a body, a frame without columns among
them, raises naming the file and the byte offset, and so does a frame
whose columns, when first read, hold an unknown kind code, a
``tz_offset`` out of range or a string index past its table.

Reads find a repository's records through the month indexes: ``read``
reads only the byte ranges the indexes list for it (one ``os.pread``
each), never a whole segment.  ``columns`` reads the columns of only the
frames holding a wanted entry, one ``os.pread`` each, selects their rows
with one index array per frame, and decodes no record a frame's columns
cover.  An ``EventStore`` lists the months once, parses each month's
index at most once and each frame's columns at most once, keeps its
segment and log open for reading until the store is collected, and reads
a month again only after this store appends to it.

Records that no logged range covers are decoded from the segment once per
``EventStore`` and grouped by repository: every record of a store whose
log was removed, those of an append cut off between its segment write and
its log write, and bytes appended behind the store's back.  ``columns``
turns them into the same columns through ``from_records``.  So the segment alone is the source of
truth, and the log only saves decoding it.  A month whose logged ranges
overlap or pass its segment's end had its segment replaced behind the
store's back: it is decoded whole and its log is left out.

A store of an older format, one with a repository directory (``*__*``)
at its root, a segment of format ``OSHEVT02`` or a log file of format
``OSHTXT01``, ``OSHTXT02`` or ``OSHTXT03``, is refused with a
``StoreError`` that names the root: ingest its archives into a new store.  An ``EventStore``'s
first append reads every segment's and log's magic header before it
writes anything, so such a store is refused with nothing written.

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
import operator
import os
import struct
import time
import weakref
from dataclasses import dataclass
from itertools import accumulate, groupby, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .events import (
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

MAGIC = b"OSHEVT03"
_LEN = struct.Struct(">I")
#: the segments' directory at the root, one ``<YYYY-MM>.events`` file per month
SEGMENTS = "months"
#: the ledger of archives ingested whole, at the store root
LEDGER = "archives.ledger"
LEDGER_MAGIC = b"OSHARC01"
#: archive digest, then its parsed, type-skipped and malformed-skipped counts
_LEDGER_RECORD = struct.Struct(">16sQQQ")
#: the log's directory at the root, one ``<YYYY-MM>.texts`` file per month
CORPUS = "corpus"
CORPUS_MAGIC = b"OSHTXT04"
#: a log frame's entry count, text count, byte length of its names, row
#: count and byte length of its string table
_LOG_HEAD = struct.Struct(">IIIII")
#: a log frame's length prefix and the head of its body
_FRAME_HEAD = struct.Struct(">IIIIII")
#: bytes per row of a frame's columns: ``created_at``, ``counts`` and
#: ``number`` (i8), ``tz_offset`` (i2), the kind (u1), ``actor`` and ``action`` (u4)
_ROW_BYTES = 3 * 8 + 2 + 1 + 2 * 4
#: the null sentinel of the u4 ``actor`` and ``action`` columns
_U4_NULL = (1 << 32) - 1
#: canonical record JSON; ``json.dumps`` with these arguments would build a
#: new encoder on every call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: a JSON string literal, non-ASCII as ``\\uXXXX``: what ``_JSON`` writes for a ``str``
_STRING = json.encoder.encode_basestring_ascii
#: a record body: its fields in stored order, ``tz_offset`` last
_BODY = "[%s,%s,%s,%s,%s,%s,%s,%s,%s]"
#: one decoder call per stored record, without ``json.loads``' whitespace
#: scans; the caller checks that it consumed the whole body
_DECODE = json.JSONDecoder().raw_decode
#: what ``_DECODE`` calls, without its wrapper: raises ``StopIteration`` where
#: ``_DECODE`` raises its error
_SCAN = json.JSONDecoder().scan_once
#: the separator before a stored record's last element; its dedup key ends there
_LAST_SEPARATOR = b","
#: stored ``event_type`` value -> kind, cheaper than ``EventType(value)``
_EVENT_TYPES = {kind.value: kind for kind in EventType}
#: kind -> its stored ``event_type`` JSON, without ``Enum.value``'s Python-level lookup
_KIND_JSON = {kind: _STRING(kind.value) for kind in EventType}


class StoreError(IOError):
    pass


class StoreWriteError(StoreError):
    """Raised when an append fails part-way.

    ``partial_count`` counts the records the append wrote whole before the
    failure, in every segment; a record cut off in the failed write is a
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
    """Where ``EventStore.push_corpus`` took its texts from."""

    logged_texts: int = 0
    decoded_segments: int = 0


@functools.lru_cache(maxsize=1 << 12)
def _day_month(day: int) -> str:
    """``YYYY-MM`` of the UTC day ``day`` days after the epoch."""
    utc = time.gmtime(day * 86400)
    return f"{utc.tm_year:04d}-{utc.tm_mon:02d}"


def _month_key(created_at: int) -> str:
    """UTC month of ``created_at``, memoised by UTC day, as UTC days nest in UTC months."""
    return _day_month(created_at // 86400)


def _json_int(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _record_to_json(record: EventRecord) -> bytes:
    """The record's stored body, spelt field by field: ``EventRecord`` holds
    each field to its domain, so the result equals ``_JSON.encode(fields)``
    of the record's fields in stored order.
    """
    return (_BODY % (
        _STRING(record.repo_id), _KIND_JSON[record.event_type], _STRING(record.actor),
        int.__repr__(record.created_at), "null" if record.action is None else _STRING(record.action),
        "[" + ",".join(map(_STRING, record.texts)) + "]",
        _json_int(record.counts), _json_int(record.number), _json_int(record.tz_offset),
    )).encode()


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


def _key(blob: bytes) -> bytes:
    """Dedup key of a stored record body."""
    return hashlib.blake2b(blob[: blob.rindex(_LAST_SEPARATOR)], digest_size=16).digest()


def dedup_key(record: EventRecord) -> bytes:
    """Identity of an event for dedup; ``tz_offset`` is not part of it."""
    return _key(_record_to_json(record))


def _older_format(root: str, found: str) -> StoreError:
    return StoreError(
        f"{root}: holds {found}, of another store format; ingest the archives into a new store"
    )


def _has_magic(path: str | Path, head: bytes, magic: bytes) -> bool:
    """Whether a file's first bytes ``head`` hold its whole ``magic`` header.

    A partial header is False; another header raises, naming the store's
    root when it is a segment or a log file in another format version.
    """
    if head.startswith(magic):
        return True
    if magic.startswith(head):
        return False
    if head[:6] == magic[:6] and magic != LEDGER_MAGIC:  # segments and logs lie below the root
        raise _older_format(os.path.dirname(os.path.dirname(path)), f"{path}, format {head[:8]!r}")
    raise StoreError(f"{path}: bad magic header {head[: len(magic)]!r}")


def _frames(path: str | Path, data: bytes, magic: bytes = MAGIC) -> tuple[list[bytes], int]:
    """Frame bodies of a segment's (or a log file's) bytes, and where the last whole one ends.

    A partial magic header ends at 0; any other bad header raises.
    """
    if not _has_magic(path, data, magic):
        return [], 0
    bodies = []
    size, head, unpack = len(data), _LEN.size, _LEN.unpack_from
    end = len(magic)
    while end + head <= size:
        (length,) = unpack(data, end)
        stop = end + head + length
        if stop > size:
            break
        bodies.append(data[end + head : stop])
        end = stop
    return bodies, end


def _records(path: str, data: bytes, at: int, logged: str = "", starts: list | None = None) -> list[EventRecord]:
    """The records of ``data``, the bytes of the segment ``path`` from byte
    ``at``; ``starts``, when given, gains the byte each starts at.

    Each record is built once, inside the checked loop, and
    ``EventRecord.__post_init__`` is the one check of its fields.
    The store's one checked decode, behind every reader: a body that is not
    one JSON array of nine elements, an unknown ``event_type`` or a field
    outside ``EventRecord``'s domain raises ``StoreError`` naming the
    segment and the byte offset, and so do bytes that are not whole records: a torn tail
    at the segment's end, or else a ``logged`` (``"logged"`` or
    ``"unlogged"``) range that is not whole records.
    """
    records = []
    size, head, unpack, scan = len(data), _LEN.size, _LEN.unpack_from, _SCAN
    end = 0
    try:
        while end + head <= size:
            (length,) = unpack(data, end)
            stop = end + head + length
            if stop > size:
                break
            text = data[end + head : stop].decode()
            try:
                doc, last = scan(text, 0)
            except StopIteration:
                _DECODE(text)  # raises the decoder's own error
            if last != len(text):
                raise ValueError(f"extra data after char {last}")
            if type(doc) is not list:
                raise TypeError(f"the body is not an array: {type(doc).__name__}")
            repo_id, kind, actor, created_at, action, texts, counts, number, tz_offset = doc
            records.append(EventRecord(
                repo_id, _EVENT_TYPES[kind], actor, created_at, tz_offset, action, texts, counts, number,
            ))
            if starts is not None:
                starts.append(at + end)
            end = stop
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreError(f"{path}: record at byte {at + end}: {type(exc).__name__}: {exc}") from exc
    if end < size:
        if logged:
            raise StoreError(f"{path}: the {logged} range [{at}, {at + size}) is not whole records")
        raise StoreError(f"{path}: torn tail after byte {at + end}")
    return records


def _log_frames(path: str) -> tuple[list[bytes], int]:
    """Frame bodies of a log file, and where the last whole one ends.

    An absent file or a partial magic header ends at 0.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except FileNotFoundError:
        data = b""
    return _frames(path, data, CORPUS_MAGIC)


def _columns_block(records: list[EventRecord], rows: list[int]) -> tuple[bytes, bytes]:
    """A log frame's columns of ``records``, entry ``i`` holding the rows
    ``[rows[i], rows[i + 1])``, and its string table.

    The block is the row bounds (``<u4``), then one little-endian column
    after another: ``created_at``, ``counts``, ``number`` (``<i8``),
    ``tz_offset`` (``<i2``), the kind code (``u1``), ``actor`` and
    ``action`` (``<u4``, each value's index in the string table).
    """
    events = from_records(records)
    strings = [r.actor for r in records] + [r.action for r in records]
    index = dict.fromkeys(strings)
    index.pop(None, None)
    table = list(index)
    index.update(zip(table, range(len(table))))
    index[None] = _U4_NULL
    block = b"".join((
        np.array(rows, "<u4").tobytes(),
        *(column.astype("<i8").tobytes() for column in (events.created_at, events.counts, events.number)),
        events.tz_offset.astype("<i2").tobytes(),
        events.kind.tobytes(),
        np.fromiter(map(index.__getitem__, strings), "<u4", len(strings)).tobytes(),  # actors, then actions
    ))
    return block, ("[" + ",".join(map(_STRING, table)) + "]").encode()


def _log_frame(entries: list[tuple], records: list[EventRecord]) -> bytes:
    """One append's length-prefixed log frame for a month, from its
    ``(repo_id, start, end, first_row, created_at, texts)`` entries and
    the records of its write, in order."""
    repo_ids, starts, ends, firsts, created, texts = zip(*entries)
    times = [at for batch in created for at in batch]
    names = _JSON.encode(repo_ids).encode()
    block, table = _columns_block(records, [*firsts, len(records)])
    body = b"".join((
        _LOG_HEAD.pack(len(entries), len(times), len(names), len(records), len(table)),
        struct.pack(f">{len(entries) + 1}Q", *starts, ends[-1]),
        names,
        block,
        table,
        struct.pack(f">{len(times)}q", *times),
        _JSON.encode([text for batch in texts for text in batch]).encode(),
    ))
    return _LEN.pack(len(body)) + body


class _Frame(NamedTuple):
    """A log frame's index section, and where its columns and its texts section lie in the log."""

    names: list[str]
    #: repository id -> its entry
    entry: dict[str, int]
    #: entry ``i`` holds the segment's bytes ``[bounds[i], bounds[i + 1])``
    bounds: tuple[int, ...]
    #: the number of texts
    count: int
    #: the frame's byte offset in the log, for errors
    at: int
    #: the number of rows of its columns
    rows: int
    #: the columns' byte offset and length in the log
    columns: tuple[int, int]
    #: the texts section's byte offset and length in the log
    texts: tuple[int, int]


def _read_index(path: str, fd: int) -> list[_Frame]:
    """The index sections of a log file's whole frames, read with two
    ``os.pread`` calls per frame: no column and no text is read.

    A torn tail is ignored; a whole frame whose index is not such a body,
    or that has fewer rows than entries (no columns), raises
    ``StoreError`` naming the file and the byte offset.
    """
    size = os.fstat(fd).st_size
    if not _has_magic(path, os.pread(fd, len(CORPUS_MAGIC), 0), CORPUS_MAGIC):
        return []
    frames = []
    at = len(CORPUS_MAGIC)
    while at + _LEN.size <= size:
        head = os.pread(fd, _FRAME_HEAD.size, at)
        (length,) = _LEN.unpack_from(head)
        if at + _LEN.size + length > size:
            break
        try:
            if length < _LOG_HEAD.size:
                raise ValueError(f"a body of {length} bytes has no head")
            _, entries, count, k, rows, table = _FRAME_HEAD.unpack(head)
            index = 8 * (entries + 1) + k
            columns = 4 * (entries + 1) + _ROW_BYTES * rows + table
            if _LOG_HEAD.size + index + columns + 8 * count > length:
                raise ValueError(f"{entries} entries, {rows} rows and {count} texts pass the frame's end")
            if rows < entries:  # each entry holds a row at least: a frame without columns is no body
                raise ValueError(f"{entries} entries have {rows} rows of columns")
            data = os.pread(fd, index, at + _FRAME_HEAD.size)
            bounds = struct.unpack_from(f">{entries + 1}Q", data)
            names = json.loads(data[index - k :].decode("ascii"))
            if type(names) is not list:
                raise TypeError("the names are not a list")
            if set(map(type, names)) - {str}:
                raise TypeError("a name is not a string")
            entry = dict(zip(names, range(entries)))
            if not entries or len(entry) != entries or len(names) != entries:
                raise ValueError("the names do not match their count")
            if bounds[0] < len(MAGIC) or not all(map(operator.lt, bounds, bounds[1:])):
                raise ValueError("the bounds do not increase from past the magic header")
        except (ValueError, TypeError, struct.error) as exc:
            raise StoreError(f"{path}: frame at byte {at}: {type(exc).__name__}: {exc}") from exc
        offset = at + _FRAME_HEAD.size + index
        frames.append(_Frame(
            names, entry, bounds, count, at, rows, (offset, columns),
            (offset + columns, at + _LEN.size + length - offset - columns),
        ))
        at += _LEN.size + length
    return frames


class _Parsed(NamedTuple):
    """A log frame's columns as read."""

    #: each entry's number of rows, the entries' rows one after another
    lengths: np.ndarray
    events: Columns


def _frame_columns(path: str, fd: int, frame: _Frame) -> _Parsed:
    """A log frame's columns, read with one ``os.pread``, each ``actor``
    and ``action`` index replaced by its string.

    Row bounds that do not run from 0 up to the row count, a string table
    that is not a list of strings, an unknown kind code, a ``tz_offset``
    out of range or a string index past the table raise ``StoreError``
    naming the file and the frame's byte offset.
    """
    offset, length = frame.columns
    data = os.pread(fd, length, offset)
    n, r = len(frame.names) + 1, frame.rows
    try:
        rows = np.frombuffer(data, "<u4", n)
        at = 4 * n
        created, counts, number = (np.frombuffer(data, "<i8", r, at + 8 * r * i) for i in range(3))
        at += 24 * r
        tz = np.frombuffer(data, "<i2", r, at)
        kind = np.frombuffer(data, np.uint8, r, at + 2 * r)
        actor, action = (np.frombuffer(data, "<u4", r, at + 3 * r + 4 * r * i) for i in range(2))
        table = json.loads(data[at + 11 * r :].decode("ascii"))
        if type(table) is not list or set(map(type, table)) - {str}:
            raise TypeError("the string table is not a list of strings")
        lengths = np.diff(rows.astype(np.int64))
        if rows[0] != 0 or rows[-1] != r or lengths.min() <= 0:
            raise ValueError("the row bounds do not increase from 0 to the row count")
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
        raise StoreError(f"{path}: frame at byte {frame.at}: {type(exc).__name__}: {exc}") from exc
    strings = np.empty(len(table) + 1, object)  # None first
    strings[1:] = table
    return _Parsed(lengths, Columns(kind, created, tz, counts, number, strings.take(actor), strings.take(action)))


class _Piece(NamedTuple):
    """Rows ``EventStore.columns`` reads: ``index`` selects them from
    ``events``, and ``owners`` holds the code of each one's repository."""

    events: Columns
    index: np.ndarray
    owners: np.ndarray


def _frame_texts(path: str, fd: int, frame: _Frame) -> tuple[tuple[int, ...], list[str]]:
    """A log frame's texts section: each text's ``created_at``, and the texts."""
    offset, length = frame.texts
    data = os.pread(fd, length, offset)
    count = frame.count
    try:
        created = struct.unpack_from(f">{count}q", data)
        texts = json.loads(data[8 * count :].decode("ascii"))
        if type(texts) is not list:
            raise TypeError("the texts are not a list")
        "".join(texts)  # raise TypeError unless every item is a string
        if len(texts) != count:
            raise ValueError("the texts do not match their count")
    except (ValueError, TypeError, struct.error) as exc:
        raise StoreError(f"{path}: frame at byte {frame.at}: {type(exc).__name__}: {exc}") from exc
    return created, texts


def _write_frames(path: str, frames: list[bytes], receipt: AppendReceipt) -> int:
    """Append length-prefixed records to a segment with one ``write``, the
    magic header first when it is empty; return the byte they start at.

    ``receipt.count`` gains the records written whole, also when the write
    fails part-way and leaves the rest as a torn tail.
    """
    with open(path, "ab", buffering=0) as handle:
        start = handle.tell()  # the end: append mode starts there
        head = 0 if start else len(MAGIC)
        data = b"".join((MAGIC, *frames) if head else frames)
        written = 0
        try:
            while written < len(data):  # a short write goes on from where it stopped
                written += handle.write(memoryview(data)[written:])
        except OSError:
            receipt.count += bisect.bisect(list(accumulate(map(len, frames))), written - head)
            raise
    receipt.count += len(frames)
    return start + head


def _append_cut(path: str, cut: int | None, magic: bytes, data: bytes) -> None:
    """Append ``data`` to the ledger or a log file, first cutting it back to
    ``cut``, the end of its last whole record, unless that is None; a file
    cut to nothing gets its ``magic`` header again."""
    with open(path, "ab") as handle:
        if cut is not None:
            handle.truncate(cut)
            if cut == 0:
                handle.write(magic)
        handle.write(data)


def _repair_tail(path: str) -> set[bytes]:
    """Cut ``path`` back to the end of its last complete record.

    Returns the dedup keys of the records kept.  An absent or (now) empty
    segment has the empty key set, so a segment this store creates is
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
        raise StoreError(f"{path}: a record has no last element to key it by") from exc


class _Month:
    """What a store has read of one month: its log's index, the covered
    spans of its segment, the records no logged range covers, by
    repository id with the byte each starts at, and the columns read."""

    __slots__ = ("segment", "fd", "log", "log_fd", "frames", "spans", "gaps", "unlogged", "uncovered", "loose", "parsed")

    def __init__(self, segment: str, fd: int, log: str, log_fd: int | None):
        self.segment, self.fd, self.log, self.log_fd = segment, fd, log, log_fd
        size = os.fstat(fd).st_size
        if not _has_magic(segment, os.pread(fd, len(MAGIC), 0), MAGIC):
            raise StoreError(f"{segment}: torn tail after byte 0")
        self.frames = [] if log_fd is None else sorted(_read_index(log, log_fd), key=lambda frame: frame.bounds[0])
        self.spans = [(frame.bounds[0], frame.bounds[-1]) for frame in self.frames]
        stop = len(MAGIC)
        self.gaps: list[tuple[int, int]] = []
        for start, end in [*self.spans, (size, size)]:
            if start < stop or end > size:  # the segment was replaced: decode it whole, leave its log out
                self.frames, self.spans, self.gaps = [], [], [(len(MAGIC), size)] if size > len(MAGIC) else []
                break
            if stop < start:
                self.gaps.append((stop, start))
            stop = end
        #: the records no logged range covers, in byte order, with the byte each starts at
        self.unlogged: list[tuple[int, EventRecord]] = []
        for start, stop in self.gaps:
            logged = "" if stop == size else "unlogged"
            starts: list[int] = []
            records = _records(segment, os.pread(fd, stop - start, start), start, logged, starts)
            self.unlogged += zip(starts, records)
        self.uncovered: dict[str, list[tuple[int, EventRecord]]] = {}
        for at, record in self.unlogged:
            self.uncovered.setdefault(record.repo_id, []).append((at, record))
        #: the unlogged records as columns, their repository ids and start bytes, built at first use
        self.loose: tuple[Columns, list[str], np.ndarray] | None = None
        #: frame byte offset -> its columns, read at first use
        self.parsed: dict[int, _Parsed] = {}

    def names(self) -> set[str]:
        """The repositories with records in the month."""
        return set(self.uncovered).union(*(frame.names for frame in self.frames))

    def read(self, repo_id: str) -> list[EventRecord]:
        """The records of ``repo_id``, in append order, which is the order of
        their bytes: the frames are in that order already."""
        pieces = [(at, [record]) for at, record in self.uncovered.get(repo_id, ())]
        records: list[EventRecord] = []
        for frame in self.frames:
            i = frame.entry.get(repo_id)
            if i is not None:
                start, stop = frame.bounds[i], frame.bounds[i + 1]
                logged = _records(self.segment, os.pread(self.fd, stop - start, start), start, "logged")
                if pieces:
                    pieces.append((start, logged))
                else:
                    records += logged
        if pieces:
            records = [record for _, piece in sorted(pieces, key=lambda piece: piece[0]) for record in piece]
        return records

    def frame_columns(self, frame: _Frame) -> _Parsed:
        """A frame's columns, its log bytes read once per month read."""
        parsed = self.parsed.get(frame.at)
        if parsed is None:
            parsed = self.parsed[frame.at] = _frame_columns(self.log, self.log_fd, frame)
        return parsed

    def _logged(self, frame: _Frame, hits: list[tuple[int, int]]) -> _Piece:
        """The rows of a frame's entries ``hits``, ``(entry, code)`` pairs,
        selected from its columns by one index array."""
        lengths, events = self.frame_columns(frame)
        entries = np.full(len(frame.names), -1)
        entries[[i for i, _ in hits]] = [code for _, code in hits]
        owners = np.repeat(entries, lengths)
        index = np.flatnonzero(owners >= 0)
        return _Piece(events, index, owners[index])

    def columns(self, codes: dict[str, int]) -> Iterator[_Piece]:
        """Pieces of the rows of the repositories ``codes`` maps to their
        codes, in byte order, so each repository's rows come in ``read``
        order."""
        if self.unlogged:
            if self.loose is None:
                records = [record for _, record in self.unlogged]
                starts = np.array([at for at, _ in self.unlogged], np.int64)
                self.loose = from_records(records), [record.repo_id for record in records], starts
            loose, names, starts = self.loose
            owners = np.fromiter(map(codes.get, names, repeat(-1)), np.int64, len(names))
            wanted = np.flatnonzero(owners >= 0)
            # the unlogged rows before each frame, then those after the last
            cuts = [*np.searchsorted(starts[wanted], [frame.bounds[0] for frame in self.frames]).tolist(), len(wanted)]
        else:
            cuts = [0] * (len(self.frames) + 1)
        done = 0
        for frame, cut in zip([*self.frames, None], cuts):
            if cut > done:
                run = wanted[done:cut]
                yield _Piece(loose, run, owners[run])
                done = cut
            if frame is not None:
                if len(codes) < len(frame.names):
                    hits = [(i, code) for repo_id, code in codes.items() if (i := frame.entry.get(repo_id)) is not None]
                else:
                    hits = [(i, code) for i, repo_id in enumerate(frame.names) if (code := codes.get(repo_id)) is not None]
                if hits:
                    yield self._logged(frame, hits)

    def latest_created_at(self) -> int | None:
        """The largest ``created_at`` of the month, None when it holds no
        record: taken from the columns, decoding only what they do not cover."""
        times = [record.created_at for _, record in self.unlogged]
        times += [self.frame_columns(frame).events.created_at.max().item() for frame in self.frames]
        return max(times, default=None)


def _close(fds: dict[str, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class EventStore:
    """Month-segmented append-only store rooted at a directory."""

    def __init__(self, root: str | Path):
        self._root = str(Path(root))
        os.makedirs(self._root, exist_ok=True)
        with os.scandir(self._root) as entries:
            older = sorted(entry.name for entry in entries if "__" in entry.name and entry.is_dir())
        if older:
            raise _older_format(self._root, f"the repository directory {older[0]}")
        self._segments = f"{self._root}/{SEGMENTS}"
        #: months appended to so far -> their segment's dedup keys
        self._keys: dict[str, set[bytes]] = {}
        #: whether every segment's and log's magic header was checked, at the first append
        self._formats_checked = False
        self._ledger = f"{self._root}/{LEDGER}"
        #: the ledger's records, read at first use
        self._archives: dict[bytes, tuple[int, int, int]] | None = None
        #: where the ledger's last whole record ends, until this store first writes to it
        self._ledger_end: int | None = None
        self._corpus = f"{self._root}/{CORPUS}"
        #: months -> where their log's last whole frame ends, until this store first writes to it
        self._log_ends: dict[str, int] = {}
        #: the months with a segment, sorted, listed at first use
        self._month_names: list[str] | None = None
        #: months read so far
        self._months: dict[str, _Month] = {}
        #: the segments and logs open for reading, closed with the store
        self._fds: dict[str, int] = {}
        weakref.finalize(self, _close, self._fds)

    # -- write ---------------------------------------------------------

    def append(self, events: Iterable[EventRecord]) -> AppendReceipt:
        """Append events, each to the segment of its month.

        Every record is written before this returns, but not fsynced: it
        survives an interrupted process, not a power loss.  Records whose
        dedup key already exists in the target segment are skipped and
        counted in the receipt; a batch of nothing but duplicates opens no
        file.  Segments are written in month order, each by one write of
        its new records, repository by repository.  Once every segment is
        written and closed, each month's log gets one frame: the byte
        range of each repository's records and their push texts.

        This store's first append refuses a store of another format before
        it writes anything.  A failed encode or write raises, once the
        records encoded before it are written: ``StoreWriteError`` for an
        ``OSError``, its ``partial_count`` the records written whole.  The
        failed segment's keys are dropped, so its next append re-reads them
        from what is on disk.
        """
        if not self._formats_checked:
            self._check_formats()
        receipt = AppendReceipt()
        by_month_repo: dict[tuple[str, str], list[EventRecord]] = {}
        for event in events:
            by_month_repo.setdefault((_month_key(event.created_at), event.repo_id), []).append(event)

        logs = []
        for month, batches in groupby(sorted(by_month_repo.items()), key=lambda item: item[0][0]):
            entries, stored = self._append_month(month, batches, receipt)
            if entries:
                logs.append((month, entries, stored))
        for month, entries, stored in logs:
            path = f"{self._corpus}/{month}.texts"
            cut = self._log_ends.get(month)
            try:
                if cut is not None:
                    os.makedirs(self._corpus, exist_ok=True)
                _append_cut(path, cut, CORPUS_MAGIC, _log_frame(entries, stored))
            except OSError as exc:
                raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
            self._log_ends.pop(month, None)
        return receipt

    def _check_formats(self) -> None:
        """Refuse a root whose segments or logs are of another format before
        this store first writes: one ``os.pread`` of each file's magic header."""
        for directory, suffix, magic in ((self._segments, ".events", MAGIC), (self._corpus, ".texts", CORPUS_MAGIC)):
            try:
                names = sorted(os.listdir(directory))
            except FileNotFoundError:
                names = []
            for name in names:
                if name.endswith(suffix):
                    path = f"{directory}/{name}"
                    fd = os.open(path, os.O_RDONLY)
                    try:
                        _has_magic(path, os.pread(fd, len(magic), 0), magic)
                    finally:
                        os.close(fd)
        self._formats_checked = True

    def _append_month(self, month: str, batches: Iterable, receipt: AppendReceipt) -> tuple[list[tuple], list]:
        """Write one month's new records, ``batches`` of ``((month, repo_id),
        records)``; return the log entries of the repositories stored, and
        the records written, in order."""
        path = f"{self._segments}/{month}.events"
        keys = self._keys.get(month)
        if keys is None:  # where the log ends, read before the first write to the month
            os.makedirs(self._segments, exist_ok=True)
            self._log_ends[month] = _log_frames(f"{self._corpus}/{month}.texts")[1]
            keys = self._keys[month] = _repair_tail(path)
        push, blake2b = EventType.PUSH, hashlib.blake2b
        frames: list[bytes] = []
        stored: list[EventRecord] = []
        entries = []
        try:
            try:
                for (_, repo_id), batch in batches:
                    first = len(frames)
                    created: list[int] = []
                    texts: list[str] = []
                    for record in batch:
                        blob = _record_to_json(record)
                        # the dedup key, inline: ``_key(blob)``
                        key = blake2b(blob[: blob.rindex(_LAST_SEPARATOR)], digest_size=16).digest()
                        if key in keys:
                            receipt.duplicates_skipped += 1
                            continue
                        keys.add(key)
                        frames.append(_LEN.pack(len(blob)) + blob)
                        stored.append(record)
                        if record.event_type is push:
                            created += [record.created_at] * len(record.texts)
                            texts += record.texts
                    if len(frames) > first:
                        entries.append((repo_id, first, len(frames), created, texts))
            finally:  # what was encoded before a failure is written too
                if frames:
                    self._forget(month)
                    start = _write_frames(path, frames, receipt)
        except OSError as exc:
            del self._keys[month]
            raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
        if not frames:
            return [], stored
        bounds = list(accumulate(map(len, frames), initial=start))
        return [
            (name, bounds[first], bounds[stop], first, created, texts) for name, first, stop, created, texts in entries
        ], stored

    def _forget(self, month: str) -> None:
        """Drop what this store read of ``month``, which it is about to append
        to; its open files stay, as appends leave them the same files."""
        if self._month_names is not None and month not in self._month_names:
            bisect.insort(self._month_names, month)
        self._months.pop(month, None)

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

    def _months_held(self) -> list[str]:
        """The months with a segment, sorted; the directory is listed once."""
        if self._month_names is None:
            try:
                names = os.listdir(self._segments)
            except FileNotFoundError:
                names = []
            self._month_names = sorted(name[: -len(".events")] for name in names if name.endswith(".events"))
        return self._month_names

    def _month(self, month: str) -> _Month:
        """The month's read state, read at first use."""
        state = self._months.get(month)
        if state is None:
            segment, log = f"{self._segments}/{month}.events", f"{self._corpus}/{month}.texts"
            state = self._months[month] = _Month(segment, self._open(segment), log, self._open(log, absent=True))
        return state

    def _open(self, path: str, absent: bool = False) -> int | None:
        """A descriptor of ``path`` open for reading, opened once per store;
        None for an absent file when ``absent``."""
        fd = self._fds.get(path)
        if fd is None:
            try:
                fd = self._fds[path] = os.open(path, os.O_RDONLY)
            except FileNotFoundError:
                if not absent:
                    raise
        return fd

    def read(self, repo_id: str) -> list[EventRecord]:
        """All events for one repository, in append order per month."""
        events: list[EventRecord] = []
        for month in self._months_held():
            events += self._month(month).read(repo_id)
        return events

    def push_corpus(self, before: int, receipt: CorpusReceipt) -> Iterator[str]:
        """Texts of every stored push event before ``before``.

        Month by month, the texts of the records the log covers come from
        the log's texts sections, one frame at a time, and those of the
        other records from their decode, shared with ``read``.  ``receipt``
        counts the texts taken from the log and the segments with records
        the log does not cover.
        """
        for month in self._months_held():
            state = self._month(month)
            if state.gaps:
                receipt.decoded_segments += 1
            for records in state.uncovered.values():
                for _, record in records:
                    if record.event_type is EventType.PUSH and record.created_at < before:
                        yield from record.texts
            for frame in state.frames:
                created, texts = _frame_texts(state.log, state.log_fd, frame)
                if created and not max(created) < before:
                    texts = [text for at, text in zip(created, texts) if at < before]
                receipt.logged_texts += len(texts)
                yield from texts

    def columns(self, repo_ids: Iterable[str], before: int) -> dict[str, Columns]:
        """Each repository's events before ``before`` as columns, its rows in
        ``read`` order, for every id in ``repo_ids``.

        Only the columns of the log frames holding a wanted entry are read,
        each frame's once per month read, and their rows selected by one
        index array per frame, before they are concatenated.  The records
        no logged range covers become the same columns through
        ``from_records``.  No record a frame's columns cover is decoded.  A
        frame whose columns hold an unknown kind code, a ``tz_offset`` out
        of range or a string index past its table raises ``StoreError``
        naming the log file and the frame's byte offset.
        """
        codes = {repo_id: code for code, repo_id in enumerate(dict.fromkeys(repo_ids))}
        # each piece's rows read: the empty block first, so there is one
        blocks, owners = [from_records([])], [np.zeros(0, np.int64)]
        for month in self._months_held():
            for piece in self._month(month).columns(codes):
                kept = piece.events.created_at[piece.index] < before
                blocks.append(take(piece.events, piece.index[kept]))
                owners.append(piece.owners[kept])
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")  # by repository, each in byte order
        events = take(Columns(*map(np.concatenate, zip(*blocks))), order)
        bounds = np.searchsorted(owner[order], np.arange(len(codes) + 1)).tolist()
        return {repo_id: take(events, slice(bounds[code], bounds[code + 1])) for repo_id, code in codes.items()}

    def latest_created_at(self) -> int | None:
        """``created_at`` of the latest stored event; ``None`` for an empty store.

        Segments are UTC months, so only the latest month is read, and the
        next month down when it holds no complete record: the maximum of its
        log frames' ``created_at`` columns and of the records no column
        covers, which are decoded as ``read`` decodes them.
        """
        for month in reversed(self._months_held()):
            latest = self._month(month).latest_created_at()
            if latest is not None:
                return latest
        return None

    def iter_repo_ids(self) -> Iterator[str]:
        """Every stored repository, sorted by its id."""
        yield from sorted(set().union(*(self._month(month).names() for month in self._months_held())))

    def has_history(self, repo_id: str) -> bool:
        return has_contribution(self.read(repo_id))
