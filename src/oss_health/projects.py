"""Project lists and resolution of listed projects to canonical repositories.

Resolution mirrors a manual verification step: an overrides file
(``name=owner/repo`` lines) always wins; otherwise the project takes the
repository with the most stars under the GitHub owner its source location
names, ties broken by the larger ``repo_id``.  A source location may be
written with or without a scheme and a ``www.`` prefix
(``https://github.com/bitcoin``, ``github.com/bitcoin/bitcoin``); its
first path segment, in any case, is the owner.  Other hosts are rejected
as foreign, and projects listing no source location at all are marked as
such.  The overrides text and the project list are checked where they
are parsed, by ``parse_overrides`` and ``load_project_list``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlparse


@dataclass(frozen=True)
class ProjectEntry:
    name: str
    symbol: str
    cmc_rank: int
    website: str
    source_location: str | None = None
    alexa_rank: int | None = None


@dataclass(frozen=True)
class Candidate:
    """One repository under the organisation a source URL points at."""

    repo_id: str
    stars: int


class ResolutionStatus(Enum):
    RESOLVED = "resolved"
    MISSING_404 = "missing_404"
    PRIVATE_LISTED = "private_listed"
    NOT_LISTED = "not_listed"
    FOREIGN_HOST = "foreign_host"
    DUPLICATE = "duplicate"


@dataclass
class RepoResolution:
    project: ProjectEntry
    status: ResolutionStatus
    repo_id: str | None = None  # for RESOLVED / DUPLICATE(of)


def parse_overrides(text: str) -> dict[str, str]:
    """Parse ``name=owner/repo`` override lines; ``#`` starts a comment.

    A name given twice raises ``ValueError`` naming both lines."""
    overrides: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"overrides line {lineno}: expected name=owner/repo, got {raw!r}")
        name, repo_id = (part.strip() for part in line.split("=", 1))
        if "/" not in repo_id:
            raise ValueError(f"overrides line {lineno}: {repo_id!r} is not owner/repo")
        if name in lines:
            raise ValueError(f"overrides lines {lines[name]} and {lineno}: {name!r} given twice")
        lines[name] = lineno
        overrides[name] = repo_id
    return overrides


def require_columns(path: str | Path, reader: csv.DictReader, columns: Iterable[str]) -> None:
    """ValueError naming the first of ``columns`` missing from the header of ``path``."""
    for column in columns:
        if column not in (reader.fieldnames or ()):
            raise ValueError(f"{path}, line 1: no {column!r} column")


def int_cell(path: str | Path, line: int, row: dict, column: str, optional: bool = False) -> int | None:
    """``row[column]`` as an integer, or None for an empty ``optional`` cell;
    ValueError naming the file, line and column otherwise."""
    text = row.get(column)
    if optional and not text:
        return None
    try:
        return int(text)
    except (TypeError, ValueError):  # a short row's missing cell is None
        raise ValueError(f"{path}, line {line}, column {column!r}: {text!r} is not an integer") from None


def load_project_list(path: str | Path) -> list[ProjectEntry]:
    """Read the project CSV: ``name,symbol,cmc_rank,website,source_location,alexa_rank``.

    ``alexa_rank`` is optional; a missing column or a rank that is not an
    integer raises ``ValueError`` naming the file, line and column, and a
    ``cmc_rank`` given twice one naming the file, the rank and both lines.
    """
    entries: list[ProjectEntry] = []
    rank_lines: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        require_columns(path, reader, ("name", "symbol", "cmc_rank", "website", "source_location"))
        for row in reader:
            line = reader.line_num
            rank = int_cell(path, line, row, "cmc_rank")
            if rank in rank_lines:
                first = rank_lines[rank]
                raise ValueError(f"{path}, lines {first} and {line}: cmc_rank {rank} is not unique")
            rank_lines[rank] = line
            entries.append(
                ProjectEntry(
                    name=row["name"],
                    symbol=row["symbol"],
                    cmc_rank=rank,
                    website=row["website"],
                    source_location=row["source_location"] or None,
                    alexa_rank=int_cell(path, line, row, "alexa_rank", optional=True),
                )
            )
    return entries


def _host_and_owner(source_location: str) -> tuple[str, str]:
    """(host without ``www.``, lower-cased first path segment) of a source
    location, with or without a scheme; either is empty when absent."""
    parsed = urlparse(source_location if "://" in source_location else "//" + source_location)
    owner = next((part for part in parsed.path.split("/") if part), "")
    return parsed.netloc.lower().removeprefix("www."), owner.lower()


def source_owner(source_location: str | None) -> str | None:
    """The lower-cased GitHub owner a source location names; ``None`` when
    there is no location, it is not on github.com, or it names no owner."""
    if not source_location:
        return None
    host, owner = _host_and_owner(source_location)
    return owner if host == "github.com" and owner else None


def resolve_repo(
    entry: ProjectEntry,
    candidates: Sequence[Candidate] | None,
    overrides: dict[str, str] | None = None,
) -> RepoResolution:
    """Resolve one project to a canonical repository.

    ``candidates=None`` means the listed location exists but is not
    accessible (private); an empty candidate list with a resolvable URL
    means the repository is gone (404).
    """
    overrides = overrides or {}
    if entry.name in overrides:
        return RepoResolution(entry, ResolutionStatus.RESOLVED, overrides[entry.name])
    if not entry.source_location:
        return RepoResolution(entry, ResolutionStatus.NOT_LISTED)
    host, _ = _host_and_owner(entry.source_location)
    if host and host != "github.com":
        return RepoResolution(entry, ResolutionStatus.FOREIGN_HOST)
    if candidates is None:
        return RepoResolution(entry, ResolutionStatus.PRIVATE_LISTED)
    if not candidates:
        return RepoResolution(entry, ResolutionStatus.MISSING_404)
    best = max(candidates, key=lambda c: (c.stars, c.repo_id))
    return RepoResolution(entry, ResolutionStatus.RESOLVED, best.repo_id)


def mark_duplicates(resolutions: Iterable[RepoResolution]) -> list[RepoResolution]:
    """Demote later (worse-ranked) projects resolving to an already-taken repo.

    Rows come back sorted by ``cmc_rank`` (stable for ties); the
    highest-ranked (lowest ``cmc_rank``) project keeps the repository.
    """
    ordered = sorted(resolutions, key=lambda r: r.project.cmc_rank)
    taken: set[str] = set()
    out: list[RepoResolution] = []
    for res in ordered:
        if res.status is ResolutionStatus.RESOLVED and res.repo_id is not None:
            if res.repo_id in taken:
                res = RepoResolution(res.project, ResolutionStatus.DUPLICATE, res.repo_id)
            else:
                taken.add(res.repo_id)
        out.append(res)
    return out
