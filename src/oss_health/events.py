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
import json
import logging
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator

logger = logging.getLogger(__name__)

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
        if self.tz_offset is not None and not (
            TZ_OFFSET_MIN <= self.tz_offset <= TZ_OFFSET_MAX
        ):
            raise ValueError(f"tz_offset {self.tz_offset} outside [{TZ_OFFSET_MIN}, {TZ_OFFSET_MAX}]")


@dataclass
class ParseStats:
    lines_in: int = 0
    records_out: int = 0
    type_skipped: int = 0
    malformed_skipped: int = 0

    def as_dict(self) -> dict:
        return {
            "lines_in": self.lines_in,
            "records_out": self.records_out,
            "type_skipped": self.type_skipped,
            "malformed_skipped": self.malformed_skipped,
        }


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
    if isinstance(size, int) and size >= 0:
        count = max(count, size)
    return texts, count, tz


def parse_event_line(line: str) -> EventRecord | None:
    """Map one archive line to an :class:`EventRecord`.

    Returns ``None`` when the line is valid JSON of an uninteresting event
    type.  Raises :class:`MalformedLineError` for anything unsalvageable.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError("line is not a JSON object")
    event_type = ARCHIVE_TYPE_MAP.get(obj.get("type"))
    if event_type is None:
        return None

    repo_id = _repo_id(obj)
    actor = _actor(obj)
    created_at, tz_offset = _parse_timestamp(obj.get("created_at"))
    payload = obj.get("payload") if isinstance(obj.get("payload"), dict) else {}

    action = payload.get("action") if isinstance(payload.get("action"), str) else None
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
            if isinstance(ref, dict) and isinstance(ref.get("number"), int):
                number = ref["number"]
                break
        if number is None and isinstance(payload.get("number"), int):
            number = payload["number"]

    if tz_offset is not None and not (TZ_OFFSET_MIN <= tz_offset <= TZ_OFFSET_MAX):
        tz_offset = None

    return EventRecord(
        repo_id=repo_id,
        event_type=event_type,
        actor=actor,
        created_at=created_at,
        tz_offset=tz_offset,
        action=action,
        texts=texts,
        counts=counts,
        number=number,
    )


def parse_archive_stream(
    source: IO[bytes], stats: ParseStats | None = None, *, compressed: bool = True
) -> Iterator[EventRecord]:
    """Yield event records from a (gzip-compressed) JSON-Lines stream.

    ``stats`` is updated in place as the stream is consumed, so skip
    accounting is available to the caller once iteration finishes.  A bad
    line never aborts the stream; a decompression failure raises
    :class:`ArchiveStreamError` carrying the bytes consumed so far.
    """
    if stats is None:
        stats = ParseStats()
    reader: IO[bytes] = gzip.GzipFile(fileobj=source) if compressed else source
    offset = 0
    while True:
        try:
            raw = reader.readline()
        except (OSError, EOFError) as exc:
            raise ArchiveStreamError(f"decompression failed: {exc}", offset) from exc
        if not raw:
            break
        line_offset = offset
        offset += len(raw)
        line = raw.decode("utf-8", errors="replace")
        if not line.strip():
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


def parse_archive_file(path: str | Path) -> tuple[list[EventRecord], ParseStats]:
    """Parse one archive file, compressed or plain by file suffix."""
    path = Path(path)
    stats = ParseStats()
    with open(path, "rb") as handle:
        records = list(
            parse_archive_stream(handle, stats, compressed=path.suffix == ".gz")
        )
    return records, stats


def apply_event_window(
    events: Iterable[EventRecord], start: int, end: int
) -> list[EventRecord]:
    """Events with ``start <= created_at < end``, order preserved."""
    if start > end:
        raise ValueError(f"window start {start} after end {end}")
    return [e for e in events if start <= e.created_at < end]


def has_contribution(events: Iterable[EventRecord]) -> bool:
    """Whether any event is contribution activity (``CONTRIBUTION_TYPES``)."""
    return any(e.event_type in CONTRIBUTION_TYPES for e in events)
