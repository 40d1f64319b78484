"""Per-project indicator metrics computed from persisted events.

All operations are pure given their inputs.  Date arithmetic uses a fixed
month length of 30.44 days so that month-based metrics are recomputable
without calendar context.  Each operation reads a project's events as
:class:`~oss_health.events.Columns`, as the store's ``columns`` gives them
(:func:`~oss_health.events.from_records` builds them from records), and
counts only the event kinds it names, through masks over the kind column.
Every float comes from the Python expression a record-by-record
computation uses, on Python ints (``statistics``, or the exact sum over
the count rounded once that ``statistics.mean`` gives, ``/ 3.0``,
``/ 12.0``, float64 bin counts divided by the total), so a row does not
depend on where its columns came from.  A criticality config is checked once, by
:func:`parse_criticality_config`, through the shared input rules of
:mod:`oss_health.inputs`.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .events import (
    COMMENT_TYPES,
    INT_NULL,
    IS_CONTRIBUTION,
    KIND_CODES,
    TZ_NULL,
    Columns,
    EventType,
    kind_table,
)
from .inputs import key_value_lines

DAY_SECONDS = 86_400
MONTH_DAYS = 30.44
MONTH_SECONDS = int(MONTH_DAYS * DAY_SECONDS)

#: byte -> itself for ``[0-9a-z]``, a space for every other byte
_TOKEN_BYTES = bytes(b if b in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32 for b in range(256))
#: texts per tokenisation in ``mention_counts``: one call per text costs
#: more than the scan, one call over the corpus holds all its tokens at once
_CHUNK_TEXTS = 512

_WATCH, _FORK, _PUSH, _PULL_REQUEST, _ISSUES = (
    KIND_CODES[kind]
    for kind in (EventType.WATCH, EventType.FORK, EventType.PUSH, EventType.PULL_REQUEST, EventType.ISSUES)
)
#: kind code -> whether it is a comment, an update
_IS_COMMENT = kind_table(COMMENT_TYPES)
_IS_UPDATE = kind_table((EventType.PUSH, EventType.PULL_REQUEST))


def _window(events: Columns, start: int, end: int) -> np.ndarray:
    """Mask of the events with ``start <= created_at < end``."""
    if start > end:
        raise ValueError(f"window start {start} after end {end}")
    return (events.created_at >= start) & (events.created_at < end)


def _commits(counts: np.ndarray) -> int:
    """``sum(count or 0 for count in counts)``, on Python ints."""
    return sum(counts[counts != INT_NULL].tolist())


# ---------------------------------------------------------------------------
# timezone histograms


@dataclass
class TimezoneHistogram:
    """Normalised activity histogram over 24 UTC-offset hour buckets.

    ``bins[0]`` is UTC-12, ``bins[23]`` is UTC+11.  When ``total`` is
    zero all bins are zero; otherwise bins sum to one.
    """

    bins: np.ndarray = field(default_factory=lambda: np.zeros(24))
    total: int = 0


def timezone_histogram(events: Columns, window: tuple[int, int]) -> TimezoneHistogram:
    """Histogram of event timezone offsets inside ``[start, end)``."""
    offsets = events.tz_offset[_window(events, *window) & (events.tz_offset != TZ_NULL)]
    # half-hour offsets round toward zero, as ``int(offset / 60)`` does
    hours = np.trunc(offsets.astype(np.float64) / 60).astype(np.int64)
    counts = np.bincount((hours + 12) % 24, minlength=24).astype(np.float64)
    total = len(offsets)
    if total > 0:
        counts /= total
    return TimezoneHistogram(bins=counts, total=total)


def median_distribution(histograms: Sequence[TimezoneHistogram]) -> TimezoneHistogram:
    """Per-bin median across histograms, renormalised to sum one.

    Zero-total inputs carry no information and are excluded.  When every
    input has zero total the result is the zero histogram with ``total``
    zero, so ``geo_rmse`` of any such input against it is 0.
    """
    if not histograms:
        raise ValueError("median_distribution requires at least one histogram")
    active = [h for h in histograms if h.total > 0]
    if not active:
        return TimezoneHistogram()
    stacked = np.vstack([h.bins for h in active])
    med = np.median(stacked, axis=0)
    total = sum(h.total for h in active)
    norm = med.sum()
    if norm > 0:
        med = med / norm
    return TimezoneHistogram(bins=med, total=total)


def geo_rmse(project: TimezoneHistogram, reference: TimezoneHistogram) -> float:
    """Root mean squared difference between two 24-bin histograms."""
    diff = project.bins - reference.bins
    return float(np.sqrt(np.mean(diff**2)))


# ---------------------------------------------------------------------------
# simple counts


def count_stars(events: Columns) -> int:
    return int(np.count_nonzero(events.kind == _WATCH))


def count_forks(events: Columns) -> int:
    return int(np.count_nonzero(events.kind == _FORK))


def _tokens(text: str) -> list[bytes]:
    """The maximal runs of ``[0-9a-z]`` in ``text.lower()``, as ASCII bytes.

    Any other character, each non-ASCII one too, separates tokens: it
    encodes to ``?`` and then becomes a space.
    """
    return text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split()


def count_mentions(corpus_texts: Iterable[str], aliases: Iterable[str]) -> int:
    """Whole-token, case-insensitive occurrences of any alias in the corpus.

    Tokens split on non-alphanumerics, so "bitcoind" never matches the
    alias "bitcoin".  Multi-word aliases match as token runs.  Aliases
    that tokenise alike ("Neo", "NEO") are one alias, so a run counts once.
    """
    return mention_counts(corpus_texts, [aliases])[0]


def mention_counts(
    corpus_texts: Iterable[str], alias_sets: Sequence[Iterable[str]]
) -> list[int]:
    """``count_mentions`` for each alias set, in one tokenisation of the corpus.

    The corpus is read once, ``_CHUNK_TEXTS`` texts at a time, joined by a
    token that no alias contains, so no run spans two texts and memory
    grows with the chunk and the aliases, not with the corpus.
    """
    wanted: list[set[bytes]] = []
    for aliases in alias_sets:
        runs = {b" ".join(toks) for toks in map(_tokens, aliases) if toks}
        if not runs:
            raise ValueError("count_mentions requires at least one non-empty alias")
        wanted.append(runs)
    counts = {run: 0 for runs in wanted for run in runs}
    # first token -> lengths of the wanted multi-token runs it starts
    starts: dict[bytes, set[int]] = {}
    for run in counts:
        first, *rest = run.split(b" ")
        if rest:
            starts.setdefault(first, set()).add(1 + len(rest))
    tracked = {run for run in counts if b" " not in run} | starts.keys()
    # a token longer than any wanted one, so no run contains it
    longest = max(len(tok) for run in counts for tok in run.split(b" "))
    separator = " " + "0" * (longest + 1) + " "
    texts = iter(corpus_texts)
    while chunk := list(islice(texts, _CHUNK_TEXTS)):
        toks = _tokens(separator.join(chunk))
        seen = Counter(filter(tracked.__contains__, toks))
        for tok, n in seen.items():
            if tok in counts:  # a single-token run
                counts[tok] += n
        for first, lengths in starts.items():
            at = -1
            for _ in range(seen[first]):
                at = toks.index(first, at + 1)
                for k in lengths:
                    if at + k <= len(toks):
                        run = b" ".join(toks[at : at + k])
                        if run in counts:
                            counts[run] += 1
    return [sum(counts[run] for run in runs) for runs in wanted]


# ---------------------------------------------------------------------------
# criticality


DEFAULT_CRITICALITY_CONFIG: dict[str, tuple[float, float]] = {
    # signal -> (weight, threshold)
    "commit_frequency": (1.0, 1000.0),
    "recent_activity": (1.0, 26.0),
    "contributor_count": (2.0, 5000.0),
    "comment_frequency": (1.0, 5000.0),
}


def parse_criticality_config(text: str) -> dict[str, tuple[float, float]]:
    """Parse ``name = weight, threshold`` lines, read by the rules of
    :mod:`oss_health.inputs`.

    Names are signals of ``DEFAULT_CRITICALITY_CONFIG``, and weights and
    thresholds finite and positive; any other value raises ``ValueError``."""
    config: dict[str, tuple[float, float]] = {}
    for lineno, raw, name, rest in key_value_lines(text, "criticality config"):
        where = f"criticality config line {lineno}: {raw!r}"
        try:
            weight, threshold = (float(part) for part in rest.split(",", 1))
        except ValueError:
            raise ValueError(f"{where}: expected name = weight, threshold") from None
        if name not in DEFAULT_CRITICALITY_CONFIG:
            raise ValueError(f"{where}: {name!r} is not one of {', '.join(DEFAULT_CRITICALITY_CONFIG)}")
        if not (0 < weight < math.inf and 0 < threshold < math.inf):  # NaN fails too
            raise ValueError(f"{where}: weight and threshold must be finite and positive")
        config[name] = (weight, threshold)
    return config


def criticality_score(values: Mapping[str, float], config: Mapping[str, tuple[float, float]]) -> float:
    """Weighted log-saturated aggregate of the ``values`` that ``config`` names, in [0, 1];
    ``config`` maps each to its (weight, threshold), as :func:`parse_criticality_config` returns."""
    if not config:
        raise ValueError("criticality_score requires at least one signal")
    total = weight_sum = 0.0
    for name, (weight, threshold) in config.items():
        value = values[name]
        if value < 0:
            raise ValueError(f"signal {name}: value must be non-negative")
        total += weight * math.log1p(value) / math.log1p(max(value, threshold))
        weight_sum += weight
    return total / weight_sum


def criticality_signals(events: Columns, as_of: int) -> dict[str, float]:
    """Event-store-derived stand-ins for the signals of ``DEFAULT_CRITICALITY_CONFIG``."""
    year = _window(events, as_of - 12 * MONTH_SECONDS, as_of)
    push = events.kind == _PUSH
    commits = _commits(events.counts[year & push])
    recent = int(np.count_nonzero(_window(events, as_of - 90 * DAY_SECONDS, as_of) & push))
    contributors = len(set(events.actor[IS_CONTRIBUTION[events.kind]].tolist()))
    comments = int(np.count_nonzero(year & _IS_COMMENT[events.kind]))
    return {
        "commit_frequency": commits / 12.0,
        "recent_activity": float(recent),
        "contributor_count": float(contributors),
        "comment_frequency": comments / 12.0,
    }


# ---------------------------------------------------------------------------
# longevity / recency / responsiveness


def longevity(events: Columns) -> float:
    """Mean per-actor active span in days over contribution events."""
    rows = IS_CONTRIBUTION[events.kind]
    actors, times = events.actor[rows].tolist(), events.created_at[rows]
    if not actors:
        return 0.0
    codes = {actor: code for code, actor in enumerate(dict.fromkeys(actors))}
    actors = np.fromiter(map(codes.__getitem__, actors), np.int64, len(actors))
    order = np.lexsort((times, actors))  # each actor's events together, by time
    actors, times = actors[order], times[order]
    first = np.flatnonzero(np.diff(actors, prepend=-1))  # each actor's first row; codes are not negative
    last = np.append(first[1:], len(actors)) - 1
    spans = (times[last] - times[first]) / DAY_SECONDS  # exact int64 -> float64, one rounding each
    # ``statistics.mean`` of the spans, the exact sum over the count rounded
    # once: a nonzero span is at least 1 / 86400 > 2**-17, so each is a whole
    # multiple of 2**-69, and int / int true division rounds once
    return sum(map(int, (spans * 2.0**69).tolist())) / (len(spans) << 69)


def months_since_update(events: Columns, as_of: int) -> int | None:
    """Whole 30.44-day months since the latest push or pull request.

    ``None`` means the repository has never been updated; the dataset
    stage excludes such repositories as dead.
    """
    updates = events.created_at[_IS_UPDATE[events.kind]].tolist()
    if not updates:
        return None
    latest = max(updates)
    if latest > as_of:
        raise ValueError("as_of precedes an update event")
    return int((as_of - latest) / DAY_SECONDS // MONTH_DAYS)


def issue_response_times(events: Columns) -> tuple[float, float]:
    """(median, mean) days from an issue's open to its first close."""
    rows = np.flatnonzero((events.kind == _ISSUES) & (events.number != INT_NULL))
    rows = rows[np.argsort(events.created_at[rows], kind="stable")]  # by time, ties in stored order
    opened: dict[int, int] = {}
    deltas: list[float] = []
    closed: set[int] = set()
    for number, action, at in zip(
        events.number[rows].tolist(), events.action[rows].tolist(), events.created_at[rows].tolist()
    ):
        if action == "opened":
            opened.setdefault(number, at)
        elif action == "closed":
            if number in opened and number not in closed:
                deltas.append((at - opened[number]) / DAY_SECONDS)
                closed.add(number)  # re-opened issues count the first close only
    if not deltas:
        return 0.0, 0.0
    return float(statistics.median(deltas)), float(statistics.mean(deltas))


def engagement_metrics(events: Columns, as_of: int) -> tuple[float, float, float, float]:
    """Monthly averages over the previous three months.

    Returns (commits, comments, pull requests opened, distinct authors),
    each divided by three.
    """
    window, kind = _window(events, as_of - 3 * MONTH_SECONDS, as_of), events.kind
    commits = _commits(events.counts[window & (kind == _PUSH)])
    comments = int(np.count_nonzero(window & _IS_COMMENT[kind]))
    pull_requests = int(np.count_nonzero(events.action[window & (kind == _PULL_REQUEST)] == "opened"))
    authors = len(set(events.actor[window & IS_CONTRIBUTION[kind]].tolist()))
    return commits / 3.0, comments / 3.0, pull_requests / 3.0, authors / 3.0


# ---------------------------------------------------------------------------
# row assembly


@dataclass
class ExternalInputs:
    """Point-in-time inputs not derivable from the event stream."""

    cmc_rank: int
    alexa_rank: int | None = None
    mentions: int | None = None  # corpus-wide count, computed upstream


@dataclass
class ProjectMetrics:
    repo_id: str
    stars: int
    forks: int
    mentions: int
    criticality: float
    geo_rmse: float
    longevity_days: float
    months_since_update: int | None
    median_response_days: float
    average_response_days: float
    cmc_rank: int
    alexa_rank: int | None
    commits_3mo: float
    comments_3mo: float
    pull_requests_3mo: float
    authors_3mo: float
    as_of: int


#: Fixed CSV column order for metrics.csv: the fields of ``ProjectMetrics``.
METRICS_COLUMNS = [f.name for f in fields(ProjectMetrics)]

#: The eleven indicator variables entering exploratory factor analysis.
EFA_COLUMNS = [
    "stars",
    "forks",
    "mentions",
    "criticality",
    "geo_rmse",
    "longevity_days",
    "months_since_update",
    "median_response_days",
    "average_response_days",
    "cmc_rank",
    "alexa_rank",
]

#: Engagement indicators (monthly three-month averages).
ENGAGEMENT_COLUMNS = ["commits_3mo", "comments_3mo", "pull_requests_3mo", "authors_3mo"]


def build_metrics_row(
    repo_id: str,
    events: Columns,
    externals: ExternalInputs,
    reference: TimezoneHistogram,
    as_of: int,
    criticality_config: Mapping[str, tuple[float, float]] | None = None,
    *,
    histogram: TimezoneHistogram | None = None,
) -> ProjectMetrics:
    """Assemble one metrics row by delegating to the individual operations,
    each on the same columns.

    ``histogram`` is the events' :func:`timezone_histogram` over the six
    months before ``as_of``; it is computed from them all unless the
    caller, which needs it for the reference too, passes it in.
    Criticality weighs :func:`criticality_signals` by ``criticality_config``,
    or by ``DEFAULT_CRITICALITY_CONFIG`` when it is None or empty.
    """
    if histogram is None:
        histogram = timezone_histogram(events, (as_of - 6 * MONTH_SECONDS, as_of))
    median_days, average_days = issue_response_times(events)
    commits, comments, pull_requests, authors = engagement_metrics(events, as_of)
    return ProjectMetrics(
        repo_id=repo_id,
        stars=count_stars(events),
        forks=count_forks(events),
        mentions=externals.mentions if externals.mentions is not None else 0,
        criticality=criticality_score(
            criticality_signals(events, as_of), criticality_config or DEFAULT_CRITICALITY_CONFIG
        ),
        geo_rmse=geo_rmse(histogram, reference),
        longevity_days=longevity(events),
        months_since_update=months_since_update(events, as_of),
        median_response_days=median_days,
        average_response_days=average_days,
        cmc_rank=externals.cmc_rank,
        alexa_rank=externals.alexa_rank,
        commits_3mo=commits,
        comments_3mo=comments,
        pull_requests_3mo=pull_requests,
        authors_3mo=authors,
        as_of=as_of,
    )
