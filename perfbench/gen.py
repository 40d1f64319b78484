"""Seeded generators of the benchmark inputs, each with a ground-truth manifest.

Every input is a pure function of ``(workload, seed, shape)``: the same
seed gives byte-identical files, and the manifest written next to them
records what the program must find in them.

* ``ingest`` and ``metrics`` get hourly GH-Archive-style ``*.json.gz``
  files (``YYYY-MM-DD-H.json.gz``), one JSON object per line.  Repository
  activity follows a Zipf/Pareto law over repository rank (``hot_skew``),
  and a small share of lines is malformed or of a type the program skips.
* ``metrics`` also gets ``projects.csv`` and two ranks files: one without
  a ``mentions`` column, so the program counts mentions in the push-message
  corpus, and one that supplies the manifest's counts.
* ``models`` gets ``metrics.csv`` files of n rows drawn from the reference
  three-factor SEM generator, one file per seed derived from the seed.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import json
import random
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The named input properties that the program's cost depends on."""

    months: int = 1  # months of history, ending with ``last_month``
    files_per_month: int = 1  # hourly archive files per month
    lines_per_file: int = 1
    repos: int = 1  # repositories outside the project list
    hot_skew: float = 1.0  # Zipf exponent of activity over repository rank
    projects: int = 0  # live listed projects (metrics workload)
    models_files: int = 0  # metrics.csv files (models workload)
    models_rows: int = 0  # rows per metrics.csv (models workload)
    malformed_share: float = 0.005
    skipped_type_share: float = 0.03
    last_month: str = "2016-12"


#: Shapes of the three workloads.  Each value is taken from a stated source,
#: scaled down by a stated factor to fit a run (perfbench/README.md):
#: - README: the program ingests whole months (``archives = .../2016-12``),
#:   744 hourly files;
#: - ROADMAP item 1: the sized workload of 12 files x 20,000 lines over
#:   3,000 repositories and 300 projects.
#: The Zipf exponent 1.0 (Zipf's law) is an assumption, not a measured figure.
SHAPES = {
    # 24 = 744 / 31 (one day of the month); 200 = 20,000 / 100 and 30 = 3,000 / 100,
    # which keeps the ROADMAP's 6.7 lines per repository per file, the density
    # that sets how much each append's dedup re-reads per event
    "ingest": Shape(
        months=1, files_per_month=24, lines_per_file=200, repos=30, hot_skew=1.0
    ),
    # ROADMAP x 1/10: 300 repositories, 30 projects, 13 x 4 x 462 = 24,024 lines
    # (240,000 / 10); 13 months is the issue's minimum history.  How lines are
    # split into files does not change the metrics stage's work (it reads
    # whole partitions), so 4 files per month keeps the set-up builds short.
    "metrics": Shape(
        months=13, files_per_month=4, lines_per_file=462, repos=300, hot_skew=1.0, projects=30
    ),
    # n = 384 as in the test suite's reference generator; 8 datasets, cycled
    "models": Shape(models_files=8, models_rows=384),
}

#: (archive type, stored kind, weight) of the eight ingested event kinds.
KINDS = [
    ("WatchEvent", "Watch", 24),
    ("ForkEvent", "Fork", 6),
    ("PushEvent", "Push", 30),
    ("PullRequestEvent", "PullRequest", 8),
    ("IssueCommentEvent", "IssueComment", 12),
    ("CommitCommentEvent", "CommitComment", 3),
    ("PullRequestReviewCommentEvent", "PullRequestReviewComment", 4),
    ("IssuesEvent", "Issues", 8),
]
SKIPPED_TYPES = ["CreateEvent", "DeleteEvent", "ReleaseEvent", "GollumEvent", "MemberEvent"]
#: Kinds that give a repository contribution history (Push and PullRequest
#: also an update time); a quiet repository gets none of them, nor issues.
CONTRIBUTION_KINDS = {"Push", "PullRequest", "IssueComment", "CommitComment", "PullRequestReviewComment"}
ACTIVE_KINDS = CONTRIBUTION_KINDS | {"Issues"}

#: Whole- and half-hour author offsets, in minutes.
TZ_OFFSETS = [-480, -300, -240, -210, 0, 60, 120, 180, 210, 330, 345, 480, 540, 570, 600]

WORDS = (
    "fix add update remove refactor bump merge docs test build release cleanup "
    "typo config wallet node sync peer block chain miner fee script rpc api cache "
    "index bug crash leak race lock network consensus client server logging tests "
    "travis ci readme license version format parser encode decode header signature"
).split()

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _month_start(month: str, offset: int) -> datetime:
    year, mon = (int(part) for part in month.split("-"))
    index = year * 12 + (mon - 1) + offset
    return datetime(index // 12, index % 12 + 1, 1, tzinfo=timezone.utc)


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _local_iso(ts: int, offset_min: int) -> str:
    local = datetime.fromtimestamp(ts, tz=timezone.utc) + timedelta(minutes=offset_min)
    sign = "+" if offset_min >= 0 else "-"
    hh, mm = divmod(abs(offset_min), 60)
    return local.strftime("%Y-%m-%dT%H:%M:%S") + f"{sign}{hh:02d}:{mm:02d}"


def as_of(shape: Shape) -> int:
    """First second after the generated history."""
    return int(_month_start(shape.last_month, 1).timestamp())


def _aliases(rng: random.Random, count: int) -> list[tuple[str, str]]:
    """Distinct (name, symbol) pairs whose tokens collide with nothing."""
    taken = set(WORDS)
    out = []
    while len(out) < count:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize()
        symbol = "".join(rng.choice("BCDFGHJKLMNPQRSTVWXZ") for _ in range(3))
        if name.lower() in taken or symbol.lower() in taken:
            continue
        taken.update({name.lower(), symbol.lower(), name.lower() + "d"})
        out.append((name, symbol))
    return out


class _Repo:
    __slots__ = ("repo_id", "quiet_from", "open_issues", "next_issue")

    def __init__(self, repo_id: str, quiet_from: int | None = None):
        self.repo_id = repo_id
        self.quiet_from = quiet_from  # epoch second after which the owner is quiet
        self.open_issues: list[int] = []
        self.next_issue = 1


class _Manifest:
    def __init__(self) -> None:
        self.records = 0
        self.malformed = 0
        self.type_skipped = 0
        self.lines = 0
        self.by_kind: dict[str, int] = {}
        self.by_repo: dict[str, int] = {}
        self.stars: dict[str, int] = {}
        self.forks: dict[str, int] = {}
        self.contributions: dict[str, int] = {}
        self.push_texts = 0
        self.files: list[dict] = []


def _commit_message(rng: random.Random, aliases, mentions: list[int]) -> str:
    words = rng.sample(WORDS, rng.randint(3, 7))
    if aliases and rng.random() < 0.35:
        k = rng.randrange(len(aliases))
        name, symbol = aliases[k]
        token = rng.choice([name, name.lower(), symbol, symbol.lower() + ":"])
        words.insert(rng.randrange(len(words) + 1), token)
        mentions[k] += 1
    if aliases and rng.random() < 0.1:
        # a near miss: whole-token matching must not count it
        words.append(aliases[rng.randrange(len(aliases))][0].lower() + "d")
    return " ".join(words)


def _event_line(rng, kind_type, kind, repo: _Repo, ts, event_id, aliases, mentions) -> tuple[str, int]:
    """The archive line of one event, and its number of commit messages."""
    commits: list = []
    actor = f"dev{rng.randrange(400)}"
    payload: dict = {}
    if kind == "Push":
        for c in range(rng.randint(1, 3)):
            author = {"email": f"{actor}@example.org", "name": actor}
            if c == 0 and rng.random() < 0.8:
                author["date"] = _local_iso(ts, rng.choice(TZ_OFFSETS))
            commits.append(
                {
                    "sha": f"{rng.getrandbits(160):040x}",
                    "author": author,
                    "message": _commit_message(rng, aliases, mentions),
                    "distinct": True,
                }
            )
        payload = {"push_id": event_id, "size": len(commits), "ref": "refs/heads/master", "commits": commits}
    elif kind == "Issues":
        if repo.open_issues and rng.random() < 0.5:
            number = repo.open_issues.pop(rng.randrange(len(repo.open_issues)))
            action = "closed"
        else:
            number = repo.next_issue
            repo.next_issue += 1
            repo.open_issues.append(number)
            action = "opened"
        payload = {"action": action, "issue": {"number": number, "title": " ".join(rng.sample(WORDS, 4))}}
    elif kind == "PullRequest":
        payload = {"action": rng.choice(["opened", "opened", "closed"]), "number": rng.randrange(1, 5000),
                   "pull_request": {"number": rng.randrange(1, 5000)}}
    elif kind in ("IssueComment", "CommitComment", "PullRequestReviewComment"):
        payload = {"comment": {"id": event_id, "body": " ".join(rng.sample(WORDS, rng.randint(2, 9)))}}
    elif kind == "Watch":
        payload = {"action": "started"}
    line = json.dumps(
        {
            "id": str(event_id),
            "type": kind_type,
            "actor": {"id": event_id % 99991, "login": actor, "url": f"https://api.github.com/users/{actor}"},
            "repo": {"name": repo.repo_id, "url": f"https://api.github.com/repos/{repo.repo_id}"},
            "payload": payload,
            "public": True,
            "created_at": _iso(ts),
        },
        separators=(",", ":"),
    )
    return line, len(commits)


def _write_archives(out: Path, shape: Shape, rng: random.Random, repos: list[_Repo],
                    aliases, mentions: list[int]) -> _Manifest:
    """Hourly archives over ``shape.months`` months; returns the manifest counts."""
    out.mkdir(parents=True, exist_ok=True)
    cum_weights = list(itertools.accumulate((rank + 1) ** -shape.hot_skew for rank in range(len(repos))))
    kind_cum = list(itertools.accumulate(weight for _, _, weight in KINDS))
    man = _Manifest()
    event_id = 1_000_000
    for m in range(shape.months):
        start = _month_start(shape.last_month, m - shape.months + 1)
        hours = int((_month_start(shape.last_month, m - shape.months + 2) - start).total_seconds() // 3600)
        for hour in sorted(rng.sample(range(hours), shape.files_per_month)):
            file_start = int(start.timestamp()) + hour * 3600
            dt = datetime.fromtimestamp(file_start, tz=timezone.utc)
            name = f"{dt:%Y-%m-%d}-{dt.hour}.json.gz"
            lines = []
            entry = {"file": name, "parsed": 0, "skipped_type": 0, "skipped_malformed": 0}
            for second in sorted(rng.sample(range(3600), shape.lines_per_file)):
                ts = file_start + second
                event_id += 1
                roll = rng.random()
                if roll < shape.malformed_share:
                    lines.append('{"type":"PushEvent","repo":' + f'{{"name":"broken{event_id}"')
                    entry["skipped_malformed"] += 1
                    continue
                repo = rng.choices(repos, cum_weights=cum_weights)[0]
                if roll < shape.malformed_share + shape.skipped_type_share:
                    lines.append(json.dumps({"id": str(event_id), "type": rng.choice(SKIPPED_TYPES),
                                             "actor": {"login": "bot"}, "repo": {"name": repo.repo_id},
                                             "payload": {}, "created_at": _iso(ts)}))
                    entry["skipped_type"] += 1
                    continue
                kind_type, kind, _ = rng.choices(KINDS, cum_weights=kind_cum)[0]
                if kind in ACTIVE_KINDS and repo.quiet_from is not None and ts >= repo.quiet_from:
                    kind_type, kind = "WatchEvent", "Watch"
                line, texts = _event_line(rng, kind_type, kind, repo, ts, event_id, aliases, mentions)
                lines.append(line)
                man.push_texts += texts
                entry["parsed"] += 1
                man.by_kind[kind] = man.by_kind.get(kind, 0) + 1
                man.by_repo[repo.repo_id] = man.by_repo.get(repo.repo_id, 0) + 1
                if kind == "Watch":
                    man.stars[repo.repo_id] = man.stars.get(repo.repo_id, 0) + 1
                elif kind == "Fork":
                    man.forks[repo.repo_id] = man.forks.get(repo.repo_id, 0) + 1
                elif kind in CONTRIBUTION_KINDS:
                    man.contributions[repo.repo_id] = man.contributions.get(repo.repo_id, 0) + 1
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            # mtime=0 keeps the gzip header, and so the file bytes, seed-determined
            with open(out / name, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(payload)
            man.files.append(entry)
            man.lines += shape.lines_per_file
            man.records += entry["parsed"]
            man.type_skipped += entry["skipped_type"]
            man.malformed += entry["skipped_malformed"]
    return man


def _owner(rng: random.Random, taken: set[str]) -> str:
    while True:
        owner = "".join(rng.choice(_SYLLABLES) for _ in range(2)) + str(rng.randrange(100))
        if owner not in taken:
            taken.add(owner)
            return owner


def _manifest_doc(workload: str, seed: int, shape: Shape, man: _Manifest) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "shape": asdict(shape),
        "as_of": as_of(shape),
        "lines": man.lines,
        "records": man.records,
        "malformed": man.malformed,
        "type_skipped": man.type_skipped,
        "push_texts": man.push_texts,
        "records_by_kind": dict(sorted(man.by_kind.items())),
        "records_by_repo": dict(sorted(man.by_repo.items())),
        "stars": dict(sorted(man.stars.items())),
        "forks": dict(sorted(man.forks.items())),
        "files": sorted(man.files, key=lambda f: f["file"]),
    }


def _generate_ingest(root: Path, seed: int, shape: Shape) -> dict:
    rng = random.Random(f"ingest:{seed}")
    owners: set[str] = set()
    repos = [_Repo(f"{_owner(rng, owners)}/repo{i}") for i in range(shape.repos)]
    man = _write_archives(root / "archives", shape, rng, repos, [], [])
    return _manifest_doc("ingest", seed, shape, man)


def _generate_metrics(root: Path, seed: int, shape: Shape) -> dict:
    """Projects whose owners go quiet at different months, plus one project
    of each excluded kind (dead, unlisted, foreign, missing, duplicate)."""
    rng = random.Random(f"metrics:{seed}")
    history_start = int(_month_start(shape.last_month, 1 - shape.months).timestamp())
    owners: set[str] = set()
    aliases = _aliases(rng, shape.projects + 5)
    live, (dead, unlisted, foreign, missing, duplicate) = aliases[: shape.projects], aliases[shape.projects :]
    repos: list[_Repo] = []
    entries = []  # ((name, symbol), source_location, live project index or None)
    # owners go quiet at evenly spread months (== months: never), in seeded order
    quiet_months = [2 + k * (shape.months - 1) // shape.projects for k in range(shape.projects)]
    rng.shuffle(quiet_months)
    for k, (name, _) in enumerate(live):
        owner = _owner(rng, owners)
        quiet_month = quiet_months[k]
        quiet_from = (
            None if quiet_month == shape.months
            else int(_month_start(shape.last_month, quiet_month - shape.months + 1).timestamp())
        )
        suffixes = ["", "-docs"] if k % 4 == 0 else [""]
        repos += [_Repo(f"{owner}/{name.lower()}{s}", quiet_from) for s in suffixes]
        entries.append((live[k], f"https://github.com/{owner}", k))
    dead_owner = _owner(rng, owners)
    repos.append(_Repo(f"{dead_owner}/{dead[0].lower()}", history_start))
    entries += [
        (dead, f"https://github.com/{dead_owner}", None),
        (unlisted, "", None),
        (foreign, f"https://gitlab.com/{_owner(rng, owners)}/node", None),
        (missing, f"https://github.com/{_owner(rng, owners)}", None),
        (duplicate, entries[0][1], None),
    ]
    others = [_Repo(f"{_owner(rng, owners)}/tool{i}") for i in range(shape.repos)]
    rng.shuffle(repos)
    rng.shuffle(others)
    # project repositories take evenly spaced activity ranks, so their share
    # of the events, and with it the stage's cost, does not depend on the seed
    n = len(repos) + len(others)
    slots = {round(j * n / len(repos)) for j in range(len(repos))}
    repos = [repos.pop() if rank in slots else others.pop() for rank in range(n)]
    mentions = [0] * len(live)
    man = _write_archives(root / "archives", shape, rng, repos, live, mentions)

    # cmc ranks: the duplicate ranks below the project whose code base it shares
    order = list(range(len(entries) - 1))
    rng.shuffle(order)
    cmc = {i: rank + 1 for rank, i in enumerate(order)}
    cmc[len(entries) - 1] = len(entries) + 10
    by_owner: dict[str, list[str]] = {}
    for repo_id in man.by_repo:
        by_owner.setdefault(repo_id.split("/", 1)[0], []).append(repo_id)
    expected = []
    with open(root / "projects.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "symbol", "cmc_rank", "website", "source_location", "alexa_rank"])
        for i, ((name, symbol), source, k) in enumerate(entries):
            alexa = "" if i % 7 == 3 else str(1000 + 37 * i)
            writer.writerow([name, symbol, cmc[i], f"https://{name.lower()}.example", source, alexa])
            if k is None:
                continue
            candidates = by_owner.get(source.rsplit("/", 1)[1], [])
            if not candidates:  # no stored repository: resolves as missing
                continue
            best = max(candidates, key=lambda r: (man.stars.get(r, 0), r))
            expected.append({"cmc_rank": cmc[i], "repo_id": best, "name": name,
                             "mentions": mentions[k], "alexa_rank": alexa})
    expected.sort(key=lambda row: row["cmc_rank"])
    for ranks_name, with_mentions in (("ranks.csv", False), ("ranks_mentions.csv", True)):
        with open(root / ranks_name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["repo_id", "cmc_rank", "alexa_rank"] + (["mentions"] if with_mentions else []))
            for row in expected:
                writer.writerow([row["repo_id"], row["cmc_rank"], row["alexa_rank"]]
                                + ([row["mentions"]] if with_mentions else []))
    doc = _manifest_doc("metrics", seed, shape, man)
    doc["projects"] = [{"name": e[0][0], "symbol": e[0][1], "source_location": e[1]} for e in entries]
    doc["expected_rows"] = [row for row in expected if man.contributions.get(row["repo_id"], 0) > 0]
    return doc


# ---------------------------------------------------------------------------
# models: the reference three-factor SEM generator

#: Standardized loadings and paths of the reference structural model
#: (models/health.sem), as in the test suite's generator.
SEM_LOADINGS = {
    "Interest": [("forks", 0.988), ("stars", 0.970), ("mentions", 0.885)],
    "Robustness": [("criticality", 0.988), ("months_since_update", 0.705),
                   ("cmc_rank", 0.373), ("geo_rmse", 0.369)],
    "Engagement": [("commits_3mo", 0.89), ("comments_3mo", 0.86),
                   ("pull_requests_3mo", 0.96), ("authors_3mo", 0.92)],
}
SEM_PATHS = {("Engagement", "Interest"): 0.59, ("Robustness", "Engagement"): 0.54,
             ("Robustness", "Interest"): -0.06}
SEM_COLUMNS = [name for pairs in SEM_LOADINGS.values() for name, _ in pairs]
#: Raw rank-like columns run opposite to health; preparation reverse-scores them.
REVERSED = ("months_since_update", "cmc_rank", "geo_rmse")
#: The ``efa`` options of the models workload: the generator's factor count,
#: and a loading cutoff well below its weakest loadings (0.369, 0.373).  At
#: the README's defaults (``factors = auto``, ``cutoff = 0.3``) the seed
#: program exits 1 on about 6% of these datasets (README.md, defect (a)).
EFA_FACTORS = len(SEM_LOADINGS)
EFA_CUTOFF = 0.1


def sem_population_covariance() -> np.ndarray:
    """Implied covariance of the standardized model (unit-variance latents)."""
    latents = ["Interest", "Engagement", "Robustness"]  # causal order
    B = np.zeros((3, 3))
    for (to, frm), beta in SEM_PATHS.items():
        B[latents.index(to), latents.index(frm)] = beta
    inv = np.linalg.inv(np.eye(3) - B)
    # disturbance variances that keep every latent at unit variance
    psi = np.zeros((3, 3))
    psi[0, 0] = 1.0
    for j in (1, 2):
        partial = inv[j, :j] @ psi[:j, :j] @ inv[j, :j]
        psi[j, j] = 1.0 - partial
    phi = inv @ psi @ inv.T
    lam = np.zeros((len(SEM_COLUMNS), 3))
    for j, latent in enumerate(latents):
        for name, value in SEM_LOADINGS[latent]:
            lam[SEM_COLUMNS.index(name), j] = value
    sigma = lam @ phi @ lam.T
    sigma[np.diag_indices_from(sigma)] = 1.0
    return sigma


def write_synthetic_metrics(path: Path, n: int, rng: np.random.Generator) -> None:
    sigma = sem_population_covariance()
    X = rng.standard_normal((n, len(SEM_COLUMNS))) @ np.linalg.cholesky(sigma).T
    for j, name in enumerate(SEM_COLUMNS):
        if name in REVERSED:
            X[:, j] = -X[:, j]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo_id", *SEM_COLUMNS])
        for i, row in enumerate(X):
            writer.writerow([f"org/repo{i}", *row])


def _generate_models(root: Path, seed: int, shape: Shape) -> dict:
    for k in range(shape.models_files):
        rng = np.random.default_rng([seed, k])
        write_synthetic_metrics(root / "models" / str(k) / "metrics.csv", shape.models_rows, rng)
    return {"workload": "models", "seed": seed, "shape": asdict(shape),
            "files": [f"models/{k}" for k in range(shape.models_files)],
            "rows": shape.models_rows, "columns": SEM_COLUMNS, "factors": EFA_FACTORS,
            "cutoff": EFA_CUTOFF}


_GENERATORS = {"ingest": _generate_ingest, "metrics": _generate_metrics, "models": _generate_models}


def generate(workload: str, seed: int, root: Path, shape: Shape | None = None) -> dict:
    """Write the workload's inputs under ``root``; return and save the manifest."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = _GENERATORS[workload](root, seed, shape or SHAPES[workload])
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest
