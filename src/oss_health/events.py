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
#: the null sentinels of the int64 columns (``created_at``, ``counts``,
#: ``number``) and of the int16 ``tz_offset`` column: each dtype's minimum,
#: which no record holds
INT_NULL = -(1 << 63)
INT_MAX = (1 << 63) - 1
TZ_NULL = -(1 << 15)


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
        """The one check of what each field may hold, passed by every parsed
        and decoded record: ``repo_id`` and ``actor`` are strings,
        ``event_type`` an ``EventType``, ``created_at`` an int in
        ``[EPOCH_MIN, EPOCH_END)``, ``tz_offset`` None or an int in range,
        ``action`` None or a string, ``texts`` a list of strings, ``counts``
        and ``number`` None or an int in ``(INT_NULL, INT_MAX]``.  A bool is
        not an int.  Another type raises ``TypeError``, an int out of range
        ``ValueError``."""
        if type(self.repo_id) is not str:
            raise TypeError(f"repo_id {self.repo_id!r} is not a string")
        if type(self.actor) is not str:
            raise TypeError(f"actor {self.actor!r} is not a string")
        if type(self.event_type) is not EventType:
            raise TypeError(f"event_type {self.event_type!r} is not an EventType")
        _check_int("created_at", self.created_at, EPOCH_MIN, EPOCH_END - 1)
        if self.tz_offset is not None:
            _check_int("tz_offset", self.tz_offset, TZ_OFFSET_MIN, TZ_OFFSET_MAX)
        if self.action is not None and type(self.action) is not str:
            raise TypeError(f"action {self.action!r} is not a string")
        if type(self.texts) is not list:
            raise TypeError(f"texts {self.texts!r} is not a list")
        for text in self.texts:
            if type(text) is not str:
                raise TypeError(f"texts item {text!r} is not a string")
        if self.counts is not None:
            _check_int("counts", self.counts, INT_NULL + 1, INT_MAX)
        if self.number is not None:
            _check_int("number", self.number, INT_NULL + 1, INT_MAX)


def _check_int(name: str, value, low: int, high: int) -> None:
    """Raise unless ``value`` is an int (not a bool) in ``[low, high]``."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an int")
    if not low <= value <= high:
        raise ValueError(f"{name} {value} outside [{low}, {high}]")


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
    if type(size) is int and 0 <= size <= INT_MAX:  # not a bool, which is an int too
        count = max(count, size)
    return texts, count, tz


def _is_number(value) -> bool:
    """Whether an issue or pull request ``number`` is carried: an int (not a
    bool) that an int64 column holds, as ``EventRecord`` requires."""
    return type(value) is int and INT_NULL < value <= INT_MAX


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
        for ref in (payload.get("issue"), payload.get("pull_request"), payload):
            if isinstance(ref, dict) and _is_number(ref.get("number")):
                number = ref["number"]
                break

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
#: an int column's dtype -> its null sentinel
_NULL = {np.int64: INT_NULL, np.int16: TZ_NULL}


class Columns(NamedTuple):
    """Events as plain per-column arrays, row ``i`` holding event ``i``.

    ``kind`` holds ``KIND_CODES`` (uint8).  ``created_at``, ``counts`` and
    ``number`` are int64 with ``INT_NULL`` for None, ``tz_offset`` int16
    with ``TZ_NULL`` for None: ``EventRecord`` holds every value to one
    of them.  ``actor`` and ``action`` are object columns of the values
    themselves.
    """

    kind: np.ndarray
    created_at: np.ndarray
    tz_offset: np.ndarray
    counts: np.ndarray
    number: np.ndarray
    actor: np.ndarray
    action: np.ndarray


def _int_column(values: list, dtype: type) -> np.ndarray:
    """``values``, ints or None in a record's domain, as a ``dtype`` column,
    the dtype's sentinel for None."""
    return np.fromiter(map({None: _NULL[dtype]}.get, values, values), dtype, len(values))


def from_records(records: Sequence[EventRecord]) -> Columns:
    """``records`` as columns, in their order, every value held exactly."""
    n = len(records)
    return Columns(
        np.fromiter(map(KIND_CODES.__getitem__, [r.event_type for r in records]), np.uint8, n),
        _int_column([r.created_at for r in records], np.int64),
        _int_column([r.tz_offset for r in records], np.int16),
        _int_column([r.counts for r in records], np.int64),
        _int_column([r.number for r in records], np.int64),
        np.fromiter([r.actor for r in records], object, n),
        np.fromiter([r.action for r in records], object, n),
    )


def take(events: Columns, rows) -> Columns:
    """The ``rows`` (an index array or a slice) of ``events``."""
    return Columns(*(column[rows] for column in events))


def kind_table(kinds: Iterable[EventType]) -> np.ndarray:
    """Whether each kind code is one of ``kinds``: ``kind_table(kinds)[columns.kind]`` masks their rows."""
    kinds = set(kinds)
    return np.array([kind in kinds for kind in KINDS])


#: kind code -> whether it is contribution activity (``CONTRIBUTION_TYPES``)
IS_CONTRIBUTION = kind_table(CONTRIBUTION_TYPES)


def has_contribution(events: Columns) -> bool:
    """Whether any event is contribution activity (``CONTRIBUTION_TYPES``)."""
    return bool(IS_CONTRIBUTION[events.kind].any())
