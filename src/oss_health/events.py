"""Parsing of compressed JSON-Lines repository event archives.

Archives follow the hourly convention ``YYYY-MM-DD-H.json.gz``: one JSON
object per line, one object per platform event.  Two payload generations
are accepted -- the modern shape (``repo.name``, ``actor.login``) and the
pre-2015 shape (``repository.owner``/``.name``, string ``actor``).  Lines
whose event type is not one of the eight kinds of interest are skipped and
counted; lines that cannot be interpreted at all are skipped, counted and
logged with their byte offset.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

logger = logging.getLogger(__name__)

#: one decoder call per line; ``json.loads`` would add a Python-level wrapper
_DECODE = json.JSONDecoder().decode
#: what a failed read of a stream raises; ``zlib.error`` is corrupt deflate data
_STREAM_ERRORS = (OSError, EOFError, zlib.error)
#: decompressed bytes per read of a compressed archive; bounds the memory a parse holds
_CHUNK = 1 << 16

TZ_OFFSET_MIN = -720
TZ_OFFSET_MAX = 840
#: epoch seconds of 0001-01-01 and 10000-01-01 UTC: ``datetime``'s range,
#: and so that of ``created_at``, is ``EPOCH_MIN <= t < EPOCH_END``
EPOCH_MIN = -62_135_596_800
EPOCH_END = 253_402_300_800


class EventType(Enum):
    WATCH = "Watch"
    FORK = "Fork"
    PUSH = "Push"
    PULL_REQUEST = "PullRequest"
    ISSUE_COMMENT = "IssueComment"
    COMMIT_COMMENT = "CommitComment"
    PR_REVIEW_COMMENT = "PullRequestReviewComment"
    ISSUES = "Issues"

    # Members are singletons compared by identity, so identity hashing agrees
    # with equality; it runs in C, where ``Enum.__hash__`` hashes the name in
    # Python behind every kind-set membership test and kind-keyed lookup.
    # Nothing iterates a set of kinds to produce output.
    __hash__ = object.__hash__


#: Archive ``type`` field -> event kind.  Issues events are ingested in
#: addition to the seven activity kinds because issue response times are
#: not computable without open/close actions.
ARCHIVE_TYPE_MAP = {
    "WatchEvent": EventType.WATCH,
    "ForkEvent": EventType.FORK,
    "PushEvent": EventType.PUSH,
    "PullRequestEvent": EventType.PULL_REQUEST,
    "IssueCommentEvent": EventType.ISSUE_COMMENT,
    "CommitCommentEvent": EventType.COMMIT_COMMENT,
    "PullRequestReviewCommentEvent": EventType.PR_REVIEW_COMMENT,
    "IssuesEvent": EventType.ISSUES,
}

COMMENT_TYPES = frozenset(
    {EventType.ISSUE_COMMENT, EventType.COMMIT_COMMENT, EventType.PR_REVIEW_COMMENT}
)

#: Event kinds that count as developer contribution activity.
CONTRIBUTION_TYPES = frozenset(
    {EventType.PUSH, EventType.PULL_REQUEST} | COMMENT_TYPES
)


class MalformedLineError(ValueError):
    """A line that is JSON but cannot be mapped onto an event record."""


class ArchiveStreamError(IOError):
    """Unrecoverable failure while decompressing an archive stream."""

    def __init__(self, message: str, bytes_consumed: int):
        super().__init__(message)
        self.bytes_consumed = bytes_consumed


@dataclass(slots=True)
class EventRecord:
    """One normalised repository event."""

    repo_id: str
    event_type: EventType
    actor: str
    created_at: int  # UTC, seconds since the epoch
    tz_offset: int | None = None  # signed minutes from UTC
    action: str | None = None
    texts: list[str] = field(default_factory=list)
    counts: int | None = None
    number: int | None = None  # issue / pull request number, when carried

    def __post_init__(self) -> None:
        check_tz_offset(self.tz_offset)


def check_tz_offset(tz_offset: int | None) -> None:
    """Raise ``ValueError`` unless ``tz_offset`` is ``None`` or in range."""
    if tz_offset is not None and not (TZ_OFFSET_MIN <= tz_offset <= TZ_OFFSET_MAX):
        raise ValueError(f"tz_offset {tz_offset} outside [{TZ_OFFSET_MIN}, {TZ_OFFSET_MAX}]")


@dataclass
class ParseStats:
    lines_in: int = 0
    records_out: int = 0
    type_skipped: int = 0
    malformed_skipped: int = 0


def _parse_timestamp(value) -> tuple[int, int | None]:
    """Return (epoch seconds UTC, tz offset minutes or None).

    Numbers are epoch seconds.  A bool, NaN, an infinity, or any time
    outside the years 1-9999 that ``datetime`` covers is malformed.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not EPOCH_MIN <= value < EPOCH_END:  # also false for NaN
            raise MalformedLineError(f"timestamp {value!r} outside the years 1-9999")
        return int(value), None
    if not isinstance(value, str):
        raise MalformedLineError(f"unparseable timestamp {value!r}")
    text = value.strip()
    had_zulu = text.endswith("Z")
    if had_zulu:
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text.replace(" ", "T", 1))
    except ValueError as exc:
        raise MalformedLineError(f"unparseable timestamp {value!r}") from exc
    offset: int | None = None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    elif not had_zulu:
        delta = dt.utcoffset()
        if delta is not None and delta.total_seconds() != 0:
            offset = int(delta.total_seconds() // 60)
    seconds = int(dt.timestamp())
    if not EPOCH_MIN <= seconds < EPOCH_END:  # a UTC offset can push past the ends
        raise MalformedLineError(f"timestamp {value!r} outside the years 1-9999")
    return seconds, offset


def _repo_id(obj: dict) -> str:
    repo = obj.get("repo")
    if isinstance(repo, dict) and isinstance(repo.get("name"), str) and "/" in repo["name"]:
        return repo["name"]
    repository = obj.get("repository")
    if isinstance(repository, dict):
        owner = repository.get("owner")
        name = repository.get("name")
        if isinstance(owner, dict):
            owner = owner.get("login")
        if isinstance(owner, str) and isinstance(name, str):
            return f"{owner}/{name}"
    raise MalformedLineError("no recognisable repository field")


def _actor(obj: dict) -> str:
    actor = obj.get("actor")
    if isinstance(actor, dict):
        login = actor.get("login")
        if isinstance(login, str):
            return login
    elif isinstance(actor, str):
        return actor
    raise MalformedLineError("no recognisable actor field")


def _push_details(payload: dict) -> tuple[list[str], int, int | None]:
    """Commit messages, commit count and an author tz offset if embedded."""
    texts: list[str] = []
    tz: int | None = None
    commits = payload.get("commits")
    shas = payload.get("shas")
    if isinstance(commits, list):
        for commit in commits:
            if isinstance(commit, dict):
                msg = commit.get("message")
                if isinstance(msg, str):
                    texts.append(msg)
                author = commit.get("author")
                if tz is None and isinstance(author, dict) and "date" in author:
                    try:
                        _, tz = _parse_timestamp(author["date"])
                    except MalformedLineError:
                        pass
        count = len(commits)
    elif isinstance(shas, list):
        for entry in shas:
            if isinstance(entry, list) and len(entry) >= 3 and isinstance(entry[2], str):
                texts.append(entry[2])
        count = len(shas)
    else:
        count = 0
    size = payload.get("size")
    if type(size) is int and size >= 0:  # not a bool, which is an int too
        count = max(count, size)
    return texts, count, tz


def parse_event_line(line: str) -> EventRecord | None:
    """Map one archive line to an :class:`EventRecord`.

    Returns ``None`` when the line is valid JSON of an uninteresting event
    type.  Raises :class:`MalformedLineError` for anything unsalvageable.
    """
    try:
        obj = _DECODE(line)
    except json.JSONDecodeError as exc:
        if line.startswith("\ufeff"):  # what ``json.loads`` says of a leading BOM
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        raise MalformedLineError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError("line is not a JSON object")
    kind = obj.get("type")
    # an array or object is unhashable: skipped as an unknown type, as a number is
    event_type = ARCHIVE_TYPE_MAP.get(kind) if type(kind) is str else None
    if event_type is None:
        return None

    repo_id = _repo_id(obj)
    actor = _actor(obj)
    created_at, tz_offset = _parse_timestamp(obj.get("created_at"))
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        payload = {}

    action = payload.get("action")
    if not isinstance(action, str):
        action = None
    texts: list[str] = []
    counts: int | None = None
    number: int | None = None

    if event_type is EventType.PUSH:
        texts, counts, push_tz = _push_details(payload)
        if push_tz is not None:
            tz_offset = push_tz
    elif event_type in COMMENT_TYPES:
        comment = payload.get("comment")
        if isinstance(comment, dict) and isinstance(comment.get("body"), str):
            texts = [comment["body"]]
    elif event_type in (EventType.ISSUES, EventType.PULL_REQUEST):
        for key in ("issue", "pull_request"):
            ref = payload.get(key)
            if isinstance(ref, dict) and type(ref.get("number")) is int:  # not a bool
                number = ref["number"]
                break
        if number is None and type(payload.get("number")) is int:
            number = payload["number"]

    if tz_offset is not None and not (TZ_OFFSET_MIN <= tz_offset <= TZ_OFFSET_MAX):
        tz_offset = None

    return EventRecord(repo_id, event_type, actor, created_at, tz_offset, action, texts, counts, number)


def parse_archive_stream(
    source: IO[bytes], stats: ParseStats | None = None, *, compressed: bool = True
) -> Iterator[EventRecord]:
    """Yield event records from a (gzip-compressed) JSON-Lines stream.

    ``stats`` is updated in place as the stream is consumed, so skip
    accounting is available to the caller once iteration finishes.  A bad
    line never aborts the stream; a failed read (a truncated stream,
    corrupt deflate data) raises :class:`ArchiveStreamError` carrying the
    decompressed bytes of the whole lines read before it.

    A compressed stream's lines are read through a C-level buffered reader
    over the ``GzipFile``, ``_CHUNK`` decompressed bytes at a time.  A
    failure loses the chunk that reader was filling: its lines are neither
    parsed nor logged.  The failure and its offset are then found again by
    re-reading ``source``, from where it was at the call, line by line
    through ``GzipFile.readline``, counting bytes only, so nothing is
    logged twice.  A compressed ``source`` must be seekable, as a file or a
    ``BytesIO`` is.
    """
    if stats is None:
        stats = ParseStats()
    if compressed:
        start = source.tell()
        reader: IO[bytes] = io.BufferedReader(gzip.GzipFile(fileobj=source), _CHUNK)
    else:
        reader = source
    offset = 0
    try:
        for raw in reader:  # never empty
            line_offset = offset
            offset += len(raw)
            line = raw.decode("utf-8", "replace")
            if line.isspace():  # the whitespace that ``str.strip`` removes, without a copy
                continue
            stats.lines_in += 1
            try:
                record = parse_event_line(line)
            except MalformedLineError as exc:
                stats.malformed_skipped += 1
                logger.warning("skipping malformed line at byte offset %d: %s", line_offset, exc)
                continue
            if record is None:
                stats.type_skipped += 1
                continue
            stats.records_out += 1
            yield record
    except _STREAM_ERRORS as exc:
        if compressed:
            exc, offset = _reread_failure(source, start, exc)
        raise ArchiveStreamError(f"decompression failed: {exc}", offset) from exc


def _reread_failure(source: IO[bytes], start: int, exc: Exception) -> tuple[Exception, int]:
    """The failure of a compressed stream read line by line from ``start``,
    and the decompressed bytes of the whole lines read before it.

    Only bytes are counted: no line is parsed or logged again.  Should the
    re-read not fail, ``exc`` is kept with the offset where the re-read ended.
    """
    source.seek(start)
    reader = gzip.GzipFile(fileobj=source)
    offset = 0
    try:
        while raw := reader.readline():
            offset += len(raw)
    except _STREAM_ERRORS as again:
        return again, offset
    return exc, offset


def parse_archive_file(path: str | Path, data: bytes | None = None) -> tuple[list[EventRecord], ParseStats]:
    """Parse one archive file, compressed or plain by file suffix.

    ``data``, when given, is the file's bytes, already read.  A
    decompression failure raises :class:`ArchiveStreamError` naming the
    file and the decompressed byte offset reached."""
    path = Path(path)
    stats = ParseStats()
    with open(path, "rb") if data is None else io.BytesIO(data) as handle:
        try:
            records = list(
                parse_archive_stream(handle, stats, compressed=path.suffix == ".gz")
            )
        except ArchiveStreamError as exc:
            reached = exc.bytes_consumed
            raise ArchiveStreamError(f"{path}: at decompressed byte {reached}: {exc}", reached) from exc
    return records, stats


def apply_event_window(
    events: Iterable[EventRecord], start: int, end: int
) -> list[EventRecord]:
    """Events with ``start <= created_at < end``, order preserved."""
    if start > end:
        raise ValueError(f"window start {start} after end {end}")
    return [e for e in events if start <= e.created_at < end]


#: kind code -> kind: a kind's code is its index here
KINDS = tuple(EventType)
#: kind -> its code
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
#: the null sentinels of the int64 columns (``created_at``, ``counts``,
#: ``number``) and of the int16 ``tz_offset`` column: each dtype's minimum
INT_NULL = -(1 << 63)
TZ_NULL = -(1 << 15)
_INT_OR_NONE = {int, type(None)}
#: an int column's dtype -> its null sentinel, the minimum, and its maximum
_LIMITS = {np.int64: (INT_NULL, (1 << 63) - 1), np.int16: (TZ_NULL, (1 << 15) - 1)}
#: each column's null sentinel, in the order of ``Columns``; None for a column with none
NULLS = (None, INT_NULL, TZ_NULL, INT_NULL, INT_NULL, None, None)


class Columns(NamedTuple):
    """Events as plain per-column arrays, row ``i`` holding event ``i``.

    ``kind`` holds ``KIND_CODES`` (uint8).  ``created_at``, ``counts`` and
    ``number`` are int64 with ``INT_NULL`` for None, ``tz_offset`` int16
    with ``TZ_NULL`` for None; a column holding a value that does not fit
    (a bool, a float, an int out of range, or one equal to the sentinel) is
    an object column instead, its values exact and None for None.
    ``actor`` and ``action`` are object columns of the values themselves.
    """

    kind: np.ndarray
    created_at: np.ndarray
    tz_offset: np.ndarray
    counts: np.ndarray
    number: np.ndarray
    actor: np.ndarray
    action: np.ndarray


def int_column(values: list, dtype: type) -> np.ndarray:
    """``values`` as a ``dtype`` column, the dtype's minimum for None, or as
    an object column when a value is not an int in ``(minimum, maximum]``."""
    types = set(map(type, values))
    if types <= _INT_OR_NONE:
        null, top = _LIMITS[dtype]
        present = list(filter(None, values)) if type(None) in types else values  # a 0 is always in range
        if not present or null < min(present) and max(present) <= top:
            filled = values if present is values else map({None: null}.get, values, values)
            return np.fromiter(filled, dtype, len(values))
    return np.fromiter(values, object, len(values))


def from_records(records: Sequence[EventRecord]) -> Columns:
    """``records`` as columns, in their order, every value held exactly."""
    n = len(records)
    return Columns(
        np.fromiter(map(KIND_CODES.__getitem__, [r.event_type for r in records]), np.uint8, n),
        int_column([r.created_at for r in records], np.int64),
        int_column([r.tz_offset for r in records], np.int16),
        int_column([r.counts for r in records], np.int64),
        int_column([r.number for r in records], np.int64),
        np.fromiter([r.actor for r in records], object, n),
        np.fromiter([r.action for r in records], object, n),
    )


def take(events: Columns, rows) -> Columns:
    """The ``rows`` (an index array or a slice) of ``events``."""
    return Columns(*(column[rows] for column in events))


def concatenate(blocks: Sequence[Columns]) -> Columns:
    """The rows of ``blocks``, one after another.

    Where one block holds an object column, that column is an object
    column throughout, None for the other blocks' sentinels.
    """
    if not blocks:
        return from_records([])
    columns = []
    for parts, null in zip(zip(*blocks), NULLS):
        if null is not None and any(part.dtype == object for part in parts):
            parts = [part if part.dtype == object else _with_none(part, null) for part in parts]
        columns.append(np.concatenate(parts))
    return Columns(*columns)


def _with_none(column: np.ndarray, null: int) -> np.ndarray:
    values = column.astype(object)
    values[column == null] = None
    return values


def kind_table(kinds: Iterable[EventType]) -> np.ndarray:
    """Whether each kind code is one of ``kinds``: ``kind_table(kinds)[columns.kind]`` masks their rows."""
    kinds = set(kinds)
    return np.array([kind in kinds for kind in KINDS])


def as_columns(events: Columns | Iterable[EventRecord]) -> Columns:
    """``events`` as columns; records go through :func:`from_records`."""
    return events if isinstance(events, Columns) else from_records(list(events))


_CONTRIBUTION = kind_table(CONTRIBUTION_TYPES)


def has_contribution(events: Columns | Iterable[EventRecord]) -> bool:
    """Whether any event is contribution activity (``CONTRIBUTION_TYPES``)."""
    return bool(_CONTRIBUTION[as_columns(events).kind].any())
