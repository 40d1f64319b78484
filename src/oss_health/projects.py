"""Project lists and resolution of listed projects to canonical repositories.

Resolution mirrors a manual verification step: an overrides file
(``name=owner/repo`` lines) always wins; otherwise the candidate labelled
as the reference / core / node implementation is preferred, then a
contract repository, with ties broken by star count.  Non-GitHub hosts
are rejected as foreign, and projects listing no source location at all
are marked as such.  The overrides text and the project list are checked
where they are parsed, by ``parse_overrides`` and ``load_project_list``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import urlparse

PREFERRED_LABELS = ("reference", "core", "node")
FALLBACK_LABEL = "contract"


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
    labels: frozenset[str] = frozenset()


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
    host: str | None = None  # for FOREIGN_HOST
    rationale: str = ""


def parse_overrides(text: str) -> dict[str, str]:
    """Parse ``name=owner/repo`` override lines; ``#`` starts a comment."""
    overrides: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"overrides line {lineno}: expected name=owner/repo, got {raw!r}")
        name, repo_id = (part.strip() for part in line.split("=", 1))
        if "/" not in repo_id:
            raise ValueError(f"overrides line {lineno}: {repo_id!r} is not owner/repo")
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


def _source_host(source_location: str) -> str:
    parsed = urlparse(source_location)
    host = parsed.netloc or source_location.split("/", 1)[0]
    return host.lower().removeprefix("www.")


def _pick_candidate(candidates: Sequence[Candidate]) -> tuple[Candidate, str]:
    preferred = [c for c in candidates if c.labels & set(PREFERRED_LABELS)]
    if preferred:
        pool, why = preferred, "labelled reference/core/node"
    else:
        contract = [c for c in candidates if FALLBACK_LABEL in c.labels]
        if contract:
            pool, why = contract, "labelled contract"
        else:
            pool, why = list(candidates), "max stars among unlabelled"
    best = max(pool, key=lambda c: (c.stars, c.repo_id))
    return best, why


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
        repo_id = overrides[entry.name]
        return RepoResolution(entry, ResolutionStatus.RESOLVED, repo_id, rationale="manual override")
    if not entry.source_location:
        return RepoResolution(entry, ResolutionStatus.NOT_LISTED, rationale="no source location listed")
    host = _source_host(entry.source_location)
    if host and host != "github.com":
        return RepoResolution(
            entry, ResolutionStatus.FOREIGN_HOST, host=host, rationale=f"hosted on {host}"
        )
    if candidates is None:
        return RepoResolution(
            entry, ResolutionStatus.PRIVATE_LISTED, rationale="listed but not accessible"
        )
    if not candidates:
        return RepoResolution(
            entry, ResolutionStatus.MISSING_404, rationale="no repositories found at listed location"
        )
    best, why = _pick_candidate(candidates)
    return RepoResolution(entry, ResolutionStatus.RESOLVED, best.repo_id, rationale=why)


def mark_duplicates(resolutions: Iterable[RepoResolution]) -> list[RepoResolution]:
    """Demote later (worse-ranked) projects resolving to an already-taken repo.

    Rows come back sorted by ``cmc_rank`` (stable for ties); the
    highest-ranked (lowest ``cmc_rank``) project keeps the repository.
    """
    ordered = sorted(resolutions, key=lambda r: r.project.cmc_rank)
    taken: dict[str, str] = {}
    out: list[RepoResolution] = []
    for res in ordered:
        if res.status is ResolutionStatus.RESOLVED and res.repo_id is not None:
            if res.repo_id in taken:
                res = RepoResolution(
                    res.project,
                    ResolutionStatus.DUPLICATE,
                    repo_id=res.repo_id,
                    rationale=f"same code base as {taken[res.repo_id]}",
                )
            else:
                taken[res.repo_id] = res.project.name
        out.append(res)
    return out
