"""Project lists and resolution of listed projects to canonical repositories.

Resolution mirrors a manual verification step: an overrides file
(``name=owner/repo`` lines) always wins; otherwise the project takes the
repository with the most stars under the GitHub owner its source location
names, ties broken by the larger ``repo_id``.  A source location may be
written with or without a scheme, a ``www.`` prefix, a user or a port
(``https://github.com/bitcoin``, ``github.com/bitcoin/bitcoin``,
``github.com:443/bitcoin``), or in SSH form
(``git@github.com:bitcoin/bitcoin.git``); its first path segment, in any
case, is the owner.  Other hosts are rejected as foreign, and projects
listing no source location at all are marked as such.  The overrides
text and the project list are checked where they are parsed, by
``parse_overrides`` and ``load_project_list``, through the shared input
rules of :mod:`oss_health.inputs`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlparse

from . import inputs


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
    """Parse ``name = owner/repo`` override lines, read by the rules of
    :mod:`oss_health.inputs`; a value not ``owner/repo`` raises ``ValueError``."""
    overrides: dict[str, str] = {}
    for lineno, _, name, repo_id in inputs.key_value_lines(text, "overrides"):
        if "/" not in repo_id:
            raise ValueError(f"overrides line {lineno}: {repo_id!r} is not owner/repo")
        overrides[name] = repo_id
    return overrides


def load_project_list(path: str | Path) -> list[ProjectEntry]:
    """Read the project CSV: ``name,symbol,cmc_rank,website,source_location,alexa_rank``.

    The ``alexa_rank`` column is optional, and so is its cell.  The file is
    read by the rules of :mod:`oss_health.inputs`, keyed by ``cmc_rank`` as
    an integer.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        columns = ("name", "symbol", "cmc_rank", "website", "source_location")
        header, rows = inputs.csv_table(handle, path, columns, "cmc_rank", inputs.int_cell)
        has_alexa_rank = "alexa_rank" in header
        return [
            ProjectEntry(
                name=inputs.text_cell(path, line, row, "name"),
                symbol=inputs.text_cell(path, line, row, "symbol"),
                cmc_rank=rank,
                website=inputs.text_cell(path, line, row, "website"),
                source_location=inputs.text_cell(path, line, row, "source_location") or None,
                alexa_rank=inputs.int_cell(path, line, row, "alexa_rank", optional=True) if has_alexa_rank else None,
            )
            for line, rank, row in rows
        ]


def _host_and_owner(source_location: str) -> tuple[str, str]:
    """(host without ``www.``, user or port, lower-cased first path segment)
    of a source location, with or without a scheme, or in the scheme-less
    SSH form ``[user@]host:path``; either is empty when absent."""
    location = re.sub(r"^([^/:]*):(?!\d*(/|$))", r"\1/", source_location)  # host:path, not host:port
    parsed = urlparse(location if "://" in location else "//" + location)
    owner = next((part for part in parsed.path.split("/") if part), "")
    return (parsed.hostname or "").removeprefix("www."), owner.lower()


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
