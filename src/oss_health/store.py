"""Append-only on-disk event store.

Layout: ``<root>/<owner>__<repo>/<YYYY-MM>.events``, one file per
repository and month.  Each file starts with an 8-byte magic header
(``OSHEVT`` + two-digit format version) followed by length-prefixed
records: a big-endian uint32 byte length, then the record body.  A body
is canonical JSON, ASCII only: one object with the members ``action``,
``actor``, ``counts``, ``created_at``, ``event_type``, ``number``,
``repo_id``, ``texts`` and ``tz_offset`` in that (sorted) order, ``,``
and ``:`` as separators with no whitespace, and every character outside
ASCII written as a ``\\uXXXX`` escape (a surrogate pair above U+FFFF).
These are exactly the bytes of ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))``.  Appends are serialised per partition by the
caller; readers are always safe.

Every append deduplicates on a 16-byte BLAKE2b digest of a record's stored
bytes up to ``,"tz_offset":``, so re-ingesting the same archive is
idempotent.  That prefix holds every field but ``tz_offset``, and the cut
is exact: keys are sorted, so ``tz_offset`` is the last member, and ``,"``
cannot occur inside a JSON string, where every ``"`` is escaped.  Keys
live only in memory.  An ``EventStore`` reads each partition's keys at
most once and keeps them, so it assumes it is the only writer under its
root for as long as it lives.

An append writes each partition it stores records in once: their
length-prefixed records (the magic header first, for a new partition)
encoded into one buffer, written by one unbuffered ``write`` call, which
is repeated only after a short write.  An append interrupted part-way
leaves a torn tail: a partial length prefix, record or magic header.
Reads reject it; the next append to that partition cuts it back to the
end of the last complete record before it writes.  Writes are not
fsynced: what an append or the ledger wrote survives an interrupted
process, but not a power loss or an OS crash.

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
partial magic header reads as an empty ledger.  The ledger's name has no
``__``, so it is never taken for a repository directory.  The records
hold what this version's parser makes of an archive: to re-parse the
same archives with a changed parser, ingest into a new store.

The push-text log holds the texts of the stored push events, so that
counting mentions need not decode the store.  It is one file per month,
``<root>/corpus/<YYYY-MM>.texts``, for the partitions of that month.  A
file starts with the 8-byte magic ``OSHTXT01``, followed by frames, one
per append that stored records in the month: a big-endian uint32 byte
length, then the body.  The body holds ``n`` entries, one per partition
the append wrote to, and the ``m`` push texts of the records it stored
there, in partition order.  It starts with the big-endian numbers
(``struct`` format ``>II``, then ``>{n}Q{n}Q{n}I{m}q``) ``n`` and ``m``;
each entry's start ``S`` and end ``E``, the bytes ``[S, E)`` of the
partition that the append wrote; each entry's number of texts; and each
text's ``created_at``.  Canonical JSON (spelt as a record's) follows:
``[names, texts]``, where ``names`` are the entries' repository
directories (the month is the file's) and ``texts`` the texts.  An
append writes one frame to each month file once every partition it
wrote to is closed.  A partition's logged ranges cover it when they tile
it from the end of its magic header to its end; then its texts come from
the log alone.  Records that no range covers are decoded from the
partition as ``read`` decodes them: every record of a store older than
the log, those of an append cut off before its log write, and bytes
appended behind the store's back.  A partition whose ranges overlap or
pass its end was replaced behind the store's back: it is decoded whole
and its logged texts are left out.  A partial frame at the end of a log
file (a torn tail) is ignored on read and cut off before this store
first writes to that file; a whole frame that is not such a body raises
naming the file and the byte offset.  The directory's name has no
``__``, so it is never taken for a repository.  A store written before
the log still reads right, but counting its mentions decodes it whole.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .events import EventRecord, EventType, check_tz_offset, has_contribution

MAGIC = b"OSHEVT01"
_LEN = struct.Struct(">I")
#: the ledger of archives ingested whole, at the store root
LEDGER = "archives.ledger"
LEDGER_MAGIC = b"OSHARC01"
#: archive digest, then its parsed, type-skipped and malformed-skipped counts
_LEDGER_RECORD = struct.Struct(">16sQQQ")
#: the push-text log's directory at the root, one ``<YYYY-MM>.texts`` file per month
CORPUS = "corpus"
CORPUS_MAGIC = b"OSHTXT01"
#: a log frame's entry and text counts
_LOG_HEAD = struct.Struct(">II")
#: canonical record JSON; ``json.dumps`` with these arguments would build a
#: new encoder on every call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: a JSON string literal, non-ASCII as ``\\uXXXX``: what ``_JSON`` writes for a ``str``
_STRING = json.encoder.encode_basestring_ascii
#: a record body with its members in sorted order
_BODY = (
    '{"action":%s,"actor":%s,"counts":%s,"created_at":%s,"event_type":%s,'
    '"number":%s,"repo_id":%s,"texts":%s,"tz_offset":%s}'
)
#: one decoder call per stored record, without ``json.loads``' whitespace
#: scans; the caller checks that it consumed the whole body
_DECODE = json.JSONDecoder().raw_decode
#: where a stored record's last member starts; its dedup key ends there
_TZ_MEMBER = b',"tz_offset":'
#: stored ``event_type`` value -> kind, cheaper than ``EventType(value)``
_EVENT_TYPES = {kind.value: kind for kind in EventType}
#: kind -> its stored ``event_type`` JSON, without ``Enum.value``'s Python-level lookup
_KIND_JSON = {kind: _STRING(kind.value) for kind in EventType}


class StoreError(IOError):
    pass


class StoreWriteError(StoreError):
    """Raised when an append fails part-way.

    ``partial_count`` counts the records the append wrote whole before the
    failure, in every partition; a record cut off in the failed write is a
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
    decoded_partitions: int = 0


@functools.lru_cache(maxsize=1 << 12)
def _day_month(day: int) -> str:
    """``YYYY-MM`` of the UTC day ``day`` days after the epoch."""
    utc = time.gmtime(day * 86400)
    return f"{utc.tm_year:04d}-{utc.tm_mon:02d}"


def _month_key(created_at: int) -> str:
    """UTC month of ``created_at``, memoised by UTC day, as UTC days nest in UTC months."""
    return _day_month(created_at // 86400)


def _partition_dir_name(repo_id: str) -> str:
    return repo_id.replace("/", "__")


def _json_int(value) -> str:
    """JSON of an ``int | None`` field; another type is spelt by ``_JSON``."""
    return "null" if value is None else int.__repr__(value) if type(value) is int else _JSON.encode(value)


def _json_str(value) -> str:
    """JSON of a ``str | None`` field; another type is spelt by ``_JSON``."""
    return _STRING(value) if type(value) is str else "null" if value is None else _JSON.encode(value)


def _json_texts(texts) -> str:
    if type(texts) is list:
        try:
            return "[" + ",".join(map(_STRING, texts)) + "]"
        except TypeError:  # an item that is not a string
            pass
    return _JSON.encode(texts)


def _record_to_json(record: EventRecord) -> bytes:
    """The record's stored body, spelt field by field.

    The ``type(...) is`` tests keep a bool (``int.__repr__(True)`` is
    ``1``), a float or a subclass on ``_JSON``, so the result always equals
    ``_JSON.encode(doc)`` of the record's fields.
    """
    return (_BODY % (
        _json_str(record.action), _json_str(record.actor), _json_int(record.counts),
        _json_int(record.created_at), _KIND_JSON[record.event_type], _json_int(record.number),
        _json_str(record.repo_id), _json_texts(record.texts), _json_int(record.tz_offset),
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
    if not data.startswith(LEDGER_MAGIC):
        if LEDGER_MAGIC.startswith(data):
            return {}, 0
        raise StoreError(f"{path}: bad magic header {data[: len(LEDGER_MAGIC)]!r}")
    end = len(data) - (len(data) - len(LEDGER_MAGIC)) % _LEDGER_RECORD.size
    records = _LEDGER_RECORD.iter_unpack(memoryview(data)[len(LEDGER_MAGIC) : end])
    return {digest: tuple(counts) for digest, *counts in records}, end


def _key(blob: bytes) -> bytes:
    """Dedup key of a stored record body."""
    return hashlib.blake2b(blob[: blob.rindex(_TZ_MEMBER)], digest_size=16).digest()


def dedup_key(record: EventRecord) -> bytes:
    """Identity of an event for dedup; ``tz_offset`` is not part of it."""
    return _key(_record_to_json(record))


def _frames(path: str | Path, data: bytes, magic: bytes = MAGIC) -> tuple[list[bytes], int]:
    """Frame bodies of a partition's (or a log file's) bytes, and where the last whole one ends.

    A partial magic header ends at 0; any other bad header raises.
    """
    if not data.startswith(magic):
        if magic.startswith(data):
            return [], 0
        raise StoreError(f"{path}: bad magic header {data[: len(magic)]!r}")
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


def _checked_fields(*fields) -> tuple:
    """``EventRecord``'s argument tuple, its ``tz_offset`` checked as
    ``EventRecord`` checks it, for readers that build no record."""
    check_tz_offset(fields[4])
    return fields


def _partition_fields(
    path: str | Path, covered: Sequence[tuple[int, int]] = (), build: Callable = _checked_fields
) -> list:
    """Every record of a partition, built by ``build`` from the arguments of its ``EventRecord``.

    ``read`` passes ``EventRecord``, whose ``__post_init__`` is then the one
    check of a record's ``tz_offset``; the default builds the argument
    tuple and makes that check itself.  Each record is built once, inside
    the checked loop.
    With ``covered``, byte ranges ``[start, stop)`` of the partition, only
    the records that start in none of them; a range that does not start
    and stop on record boundaries raises.
    The store's one checked decode, behind ``read``, ``latest_created_at``
    and ``push_corpus``: a torn tail, a body that is not one JSON object,
    a missing member, an unknown ``event_type`` or a ``tz_offset`` out of
    range raises ``StoreError`` naming the partition and the byte offset.
    """
    with open(path, "rb", buffering=0) as handle:
        data = handle.read()
    bodies, end = _frames(path, data)
    if not end or end < len(data):
        raise StoreError(f"{path}: torn tail after byte {end}")
    starts = None
    if covered:
        starts = list(accumulate((_LEN.size + len(body) for body in bodies), initial=len(MAGIC)))
        bounds = set(starts)
        for start, stop in covered:
            if start not in bounds or stop not in bounds:
                raise StoreError(f"{path}: logged range [{start}, {stop}) is not whole records")
        kept = [i for i, at in enumerate(starts[:-1]) if not any(a <= at < b for a, b in covered)]
        starts, bodies = [starts[i] for i in kept], [bodies[i] for i in kept]
    records = []
    try:
        for body in bodies:
            text = body.decode()
            doc, stop = _DECODE(text)
            if stop != len(text):
                raise ValueError(f"extra data after char {stop}")
            records.append(build(
                doc["repo_id"], _EVENT_TYPES[doc["event_type"]], doc["actor"], doc["created_at"],
                doc["tz_offset"], doc["action"], doc["texts"], doc["counts"], doc["number"],
            ))
    except (ValueError, KeyError, TypeError) as exc:
        n = len(records)
        at = starts[n] if starts else len(MAGIC) + sum(_LEN.size + len(body) for body in bodies[:n])
        raise StoreError(f"{path}: record at byte {at}: {type(exc).__name__}: {exc}") from exc
    return records


def _log_frames(path: str) -> tuple[list[bytes], int]:
    """Frame bodies of a push-text log file, and where the last whole one ends.

    An absent file or a partial magic header ends at 0.
    """
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except FileNotFoundError:
        data = b""
    return _frames(path, data, CORPUS_MAGIC)


def _log_numbers(entries: int, texts: int) -> struct.Struct:
    """The numbers of a log frame of ``entries`` entries and ``texts`` texts."""
    return struct.Struct(f">{entries}Q{entries}Q{entries}I{texts}q")


def _log_frame(entries: list[tuple]) -> bytes:
    """One append's length-prefixed log frame for a month, from its
    ``(repository, start, end, created_at, texts)`` entries."""
    repositories, starts, ends, created, texts = zip(*entries)
    times = [at for batch in created for at in batch]
    counts = [len(batch) for batch in texts]
    body = b"".join((
        _LOG_HEAD.pack(len(entries), len(times)),
        _log_numbers(len(entries), len(times)).pack(*starts, *ends, *counts, *times),
        _JSON.encode([repositories, [text for batch in texts for text in batch]]).encode(),
    ))
    return _LEN.pack(len(body)) + body


def _write_frames(path: str, frames: list[bytes], receipt: AppendReceipt) -> tuple[int, int]:
    """Append length-prefixed records to a partition with one ``write``, the
    magic header first when it is empty; return the byte range they fill.

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
    return start + head, start + written


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


def _read_log(path: str) -> tuple[dict[str, list[tuple[int, int]]], list[tuple[list, list, list, list]]]:
    """A month's log: the logged byte ranges by repository directory, in
    log order, and each frame's repository names, text counts, text
    creation times and texts.

    An absent file has none and a torn tail is ignored; a whole frame that
    is not a log frame body raises ``StoreError`` naming the file and the
    byte offset.
    """
    ranges: dict[str, list[tuple[int, int]]] = {}
    frames = []
    at = len(CORPUS_MAGIC)
    for body in _log_frames(path)[0]:
        try:
            entries, count = _LOG_HEAD.unpack_from(body)
            numbers = _log_numbers(entries, count)
            if _LOG_HEAD.size + numbers.size > len(body):
                raise ValueError(f"{entries} entries and {count} texts pass the frame's end")
            values = numbers.unpack_from(body, _LOG_HEAD.size)
            starts, ends = values[:entries], values[entries : 2 * entries]
            counts, created = values[2 * entries : 3 * entries], values[3 * entries :]
            repositories, texts = json.loads(body[_LOG_HEAD.size + numbers.size :].decode("ascii"))
            if type(repositories) is not list or type(texts) is not list:
                raise TypeError("the names and the texts are not two lists")
            "".join(repositories), "".join(texts)  # raise TypeError unless every item is a string
            if len(repositories) != entries or len(texts) != count or sum(counts) != count:
                raise ValueError("the names or the texts do not match their counts")
            if min(starts, default=len(MAGIC)) < len(MAGIC) or not all(map(int.__lt__, starts, ends)):
                raise ValueError("a byte range is empty or starts in the magic header")
        except (ValueError, TypeError, struct.error) as exc:
            raise StoreError(f"{path}: frame at byte {at}: {type(exc).__name__}: {exc}") from exc
        for repo_dir, bounds in zip(repositories, zip(starts, ends)):
            ranges.setdefault(repo_dir, []).append(bounds)
        frames.append((repositories, counts, created, texts))
        at += _LEN.size + len(body)
    return ranges, frames


def _covered_bytes(ranges: Sequence[tuple[int, int]], size: int) -> int | None:
    """How many bytes of a partition of ``size`` bytes its logged ``ranges``
    cover; None when one starts before the last ends or passes its end."""
    covered, stop = 0, len(MAGIC)
    for start, end in ranges:
        if start < stop:
            return None
        covered, stop = covered + end - start, end
    return covered if stop <= size else None


def _partition_names(repo_dir: str) -> list[str]:
    """A repository directory's partition file names, in month order."""
    try:
        names = os.listdir(repo_dir)
    except (FileNotFoundError, NotADirectoryError):
        return []
    return sorted(name for name in names if name.endswith(".events"))


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
        self._root = str(Path(root))
        os.makedirs(self._root, exist_ok=True)
        self._repo_dirs: set[str] = set()
        #: partitions appended to so far -> their dedup keys
        self._keys: dict[str, set[bytes]] = {}
        self._ledger = f"{self._root}/{LEDGER}"
        #: the ledger's records, read at first use
        self._archives: dict[bytes, tuple[int, int, int]] | None = None
        #: where the ledger's last whole record ends, until this store first writes to it
        self._ledger_end: int | None = None
        self._corpus = f"{self._root}/{CORPUS}"
        #: log files this store has written to, their torn tails cut
        self._logs: set[str] = set()

    # -- write ---------------------------------------------------------

    def append(self, events: Iterable[EventRecord]) -> AppendReceipt:
        """Append events, partitioned by (repo, month).

        Every record is written before this returns, but not fsynced: it
        survives an interrupted process, not a power loss.  Records whose
        dedup key already exists in the target partition are skipped and
        counted in the receipt; a batch of nothing but duplicates opens no
        file.  Partitions are written in (repository, month) order, each
        by one write of its new records.  Once every partition is written
        and closed, the push texts of the records stored go to the
        push-text log, one write per month.

        A failed encode or write raises, once the records encoded before it
        are written: ``StoreWriteError`` for an ``OSError``, its
        ``partial_count`` the records written whole.  The failed
        partition's keys are dropped, so its next append re-reads them from
        what is on disk.
        """
        receipt = AppendReceipt()
        by_partition: dict[tuple[str, str], list[EventRecord]] = {}
        for event in events:
            by_partition.setdefault((event.repo_id, _month_key(event.created_at)), []).append(event)

        push, blake2b = EventType.PUSH, hashlib.blake2b
        logs: dict[str, list[tuple]] = {}
        for (repo_id, month), batch in sorted(by_partition.items()):
            name = _partition_dir_name(repo_id)
            repo_dir = f"{self._root}/{name}"
            path = f"{repo_dir}/{month}.events"
            keys = self._keys.get(path)
            if keys is None:
                if repo_dir not in self._repo_dirs:
                    os.makedirs(repo_dir, exist_ok=True)
                    self._repo_dirs.add(repo_dir)
                keys = self._keys[path] = _repair_tail(path)
            frames: list[bytes] = []
            created: list[int] = []
            texts: list[str] = []
            try:
                try:
                    for record in batch:
                        blob = _record_to_json(record)
                        # the dedup key, inline: ``_key(blob)``
                        key = blake2b(blob[: blob.rindex(_TZ_MEMBER)], digest_size=16).digest()
                        if key in keys:
                            receipt.duplicates_skipped += 1
                            continue
                        keys.add(key)
                        frames.append(_LEN.pack(len(blob)) + blob)
                        if record.event_type is push:
                            created += [record.created_at] * len(record.texts)
                            texts += record.texts
                finally:  # what was encoded before a failure is written too
                    if frames:
                        span = _write_frames(path, frames, receipt)
                if frames:
                    logs.setdefault(month, []).append((name, *span, created, texts))
            except OSError as exc:
                del self._keys[path]
                raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
        for month, entries in sorted(logs.items()):
            path = f"{self._corpus}/{month}.texts"
            try:
                cut = None
                if path not in self._logs:
                    os.makedirs(self._corpus, exist_ok=True)
                    cut = _log_frames(path)[1]
                _append_cut(path, cut, CORPUS_MAGIC, _log_frame(entries))
            except OSError as exc:
                raise StoreWriteError(f"append to {path} failed: {exc}", receipt.count) from exc
            self._logs.add(path)
        return receipt

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

    def _repo_dir_names(self) -> list[str]:
        """Names of the repository directories under the root, sorted."""
        with os.scandir(self._root) as entries:
            return sorted(entry.name for entry in entries if "__" in entry.name and entry.is_dir())

    def read(self, repo_id: str) -> list[EventRecord]:
        """All events for one repository, in append order per month."""
        repo_dir = f"{self._root}/{_partition_dir_name(repo_id)}"
        paths = (f"{repo_dir}/{name}" for name in _partition_names(repo_dir))
        return [e for path in paths for e in _partition_fields(path, build=EventRecord)]

    def push_corpus(self, repo_ids: Iterable[str], before: int, receipt: CorpusReceipt) -> Iterator[str]:
        """Texts of the push events before ``before`` of the repositories ``repo_ids``.

        Each repository directory is listed once and each partition
        stat'ed once.  Month by month, the texts of the records a
        partition's logged ranges cover come from that month's log file,
        read whole, and the other records are decoded from the partition
        and checked as ``read`` does.  ``receipt`` counts the texts taken
        from the log and the partitions decoded.
        """
        months: dict[str, list[str]] = {}
        for repo_id in repo_ids:
            repo_dir = _partition_dir_name(repo_id)
            for name in _partition_names(f"{self._root}/{repo_dir}"):
                months.setdefault(name[: -len(".events")], []).append(repo_dir)
        for month in sorted(months):
            yield from self._month_texts(month, months[month], before, receipt)

    def _month_texts(
        self, month: str, repo_dirs: list[str], before: int, receipt: CorpusReceipt
    ) -> Iterator[str]:
        """``push_corpus`` of one month's partitions, those of ``repo_dirs``.

        The month's log is held only while this runs, so the corpus read
        holds one month at a time.
        """
        ranges, frames = _read_log(f"{self._corpus}/{month}.texts")
        dropped = set(ranges).difference(repo_dirs)  # logged partitions deleted since
        for repo_dir in repo_dirs:
            path = f"{self._root}/{repo_dir}/{month}.events"
            size = os.stat(path).st_size
            logged = ranges.get(repo_dir, ())
            covered = _covered_bytes(logged, size)
            if covered is None:  # the partition was replaced: decode it whole
                dropped.add(repo_dir)
                logged, covered = (), 0
            if covered != size - len(MAGIC):
                receipt.decoded_partitions += 1
                for _, kind, _, created_at, _, _, texts, _, _ in _partition_fields(path, logged):
                    if kind is EventType.PUSH and created_at < before:
                        yield from texts
        for repositories, counts, created, texts in frames:
            if dropped or created and not max(created) < before:
                owners = (repo_dir for repo_dir, count in zip(repositories, counts) for _ in range(count))
                texts = [
                    text for owner, at, text in zip(owners, created, texts) if at < before and owner not in dropped
                ]
            receipt.logged_texts += len(texts)
            yield from texts

    def latest_created_at(self) -> int | None:
        """``created_at`` of the latest stored event; ``None`` for an empty store.

        Partitions are UTC months, so only the latest month's partitions are
        read, and the next month down's when those hold no complete record.
        Records are decoded and checked as ``read`` does, but not built.
        """
        months: dict[str, list[str]] = {}
        for repo_dir in self._repo_dir_names():
            for name in _partition_names(f"{self._root}/{repo_dir}"):
                months.setdefault(name[: -len(".events")], []).append(f"{self._root}/{repo_dir}/{name}")
        for month in sorted(months, reverse=True):
            latest = max(
                (created_at for path in months[month] for _, _, _, created_at, *_ in _partition_fields(path)),
                default=None,
            )
            if latest is not None:
                return latest
        return None

    def iter_repo_ids(self) -> Iterator[str]:
        for name in self._repo_dir_names():
            yield name.replace("__", "/", 1)

    def has_history(self, repo_id: str) -> bool:
        return has_contribution(self.read(repo_id))
