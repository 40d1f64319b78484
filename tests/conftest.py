"""Shared fixtures: the 12-line archive, store frames, generator matrices, SEM helpers."""

from __future__ import annotations

import gzip
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from oss_health import sem
from oss_health.events import EventRecord, EventType

#: 2017-01-01T00:00:00Z, the reference "now" for fixture metrics.
AS_OF = 1_483_228_800

DAY = 86_400


def make_event(
    repo_id: str = "bitcoin/bitcoin",
    event_type: EventType = EventType.WATCH,
    actor: str = "alice",
    created_at: int = AS_OF - DAY,
    **kwargs,
) -> EventRecord:
    return EventRecord(repo_id, event_type, actor, created_at, **kwargs)


#: a frame body's sections after its head, in order, and each one's byte length from ``(n, m, k, r, s, t)``
_SECTIONS = (
    ("rows", lambda n, m, k, r, s, t: 4 * (n + 1)),
    ("names", lambda n, m, k, r, s, t: k),
    ("columns", lambda n, m, k, r, s, t: 39 * r),
    ("table", lambda n, m, k, r, s, t: s),
    ("times", lambda n, m, k, r, s, t: 8 * m),
    ("texts", lambda n, m, k, r, s, t: t),
)


def frame_sections(frame: bytes) -> tuple[tuple, dict[str, bytes]]:
    """A length-prefixed frame's head, ``(n, m, k, r, s, t)``, and its
    sections by name: those of ``_SECTIONS``, then ``others``."""
    head = struct.unpack_from(">IIIIII", frame, 4)
    parts, at = {}, 4 + 24
    for name, size in _SECTIONS:
        parts[name] = frame[at : at + size(*head)]
        at += size(*head)
    parts["others"] = frame[at:]
    return head, parts


def reframed(frame: bytes, n=None, m=None, r=None, **sections) -> bytes:
    """A length-prefixed frame: ``frame``'s sections, with ``sections``
    and the counts ``n``, ``m`` and ``r`` replaced, and the lengths in the
    head fitted to them."""
    head, parts = frame_sections(frame)
    parts.update(sections)
    n, m, r = (head[i] if value is None else value for i, value in ((0, n), (1, m), (3, r)))
    body = struct.pack(">IIIIII", n, m, len(parts["names"]), r, len(parts["table"]), len(parts["texts"]))
    body += b"".join(parts[name] for name, _ in _SECTIONS) + parts["others"]
    return len(body).to_bytes(4, "big") + body


def _line(event_type: str, *, actor="alice", created="2016-12-01T12:00:00Z", payload=None):
    return json.dumps(
        {
            "type": event_type,
            "repo": {"name": "bitcoin/bitcoin"},
            "actor": {"login": actor},
            "created_at": created,
            "payload": payload or {},
        }
    )


#: 3 Watch, 2 Fork, 2 Push, 1 PullRequest, 2 IssueComment, 1 Release
#: (type-skipped), 1 malformed -> 10 records / 1 / 1.
FIXTURE_LINES = [
    _line("WatchEvent", actor="alice"),
    _line("WatchEvent", actor="bob", created="2016-12-02T12:00:00Z"),
    _line("WatchEvent", actor="carol", created="2016-12-03T12:00:00Z"),
    _line("ForkEvent", actor="dan", created="2016-12-04T12:00:00Z"),
    _line("ForkEvent", actor="erin", created="2016-12-05T12:00:00Z"),
    _line(
        "PushEvent",
        actor="alice",
        created="2016-12-06T12:00:00Z",
        payload={
            "commits": [
                {"message": "fix bitcoin bug", "author": {"date": "2016-12-06T13:00:00+01:00"}},
                {"message": "Bitcoin rocks"},
            ]
        },
    ),
    _line(
        "PushEvent",
        actor="bob",
        created="2016-12-07T12:00:00Z",
        payload={"commits": [{"message": "bitcoind sync"}]},
    ),
    _line(
        "PullRequestEvent",
        actor="carol",
        created="2016-12-08T12:00:00Z",
        payload={"action": "opened", "pull_request": {"number": 7}},
    ),
    _line(
        "IssueCommentEvent",
        actor="dan",
        created="2016-12-09T12:00:00Z",
        payload={"comment": {"body": "looks good"}},
    ),
    _line(
        "IssueCommentEvent",
        actor="alice",
        created="2016-12-10T12:00:00Z",
        payload={"comment": {"body": "agreed"}},
    ),
    _line("ReleaseEvent"),
    "{this is not json",
]


@pytest.fixture
def archive_path(tmp_path: Path) -> Path:
    path = tmp_path / "2016-12-01-12.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("\n".join(FIXTURE_LINES) + "\n")
    return path


# ---------------------------------------------------------------------------
# published two-factor generator (the 9-variable loading matrix)

EFA_VARIABLE_NAMES = [
    "forks",
    "stars",
    "mentions",
    "criticality",
    "months_since_update",
    "cmc_rank",
    "geo_rmse",
    "longevity_days",
    "alexa_rank",
]

EFA_GENERATOR_LOADINGS = np.array(
    [
        [0.988, 0.137],
        [0.970, 0.166],
        [0.885, 0.076],
        [0.135, 0.988],
        [-0.015, 0.705],
        [0.169, 0.373],
        [0.082, 0.369],
        [0.075, 0.237],
        [0.163, 0.104],
    ]
)


def efa_population_correlation() -> np.ndarray:
    """Population correlation implied by the two-factor generator."""
    L = EFA_GENERATOR_LOADINGS
    psi = np.clip(1.0 - (L**2).sum(axis=1), 0.005, None)
    R = L @ L.T + np.diag(psi)
    np.fill_diagonal(R, 1.0)
    return R


# ---------------------------------------------------------------------------
# reference structural model generator

SEM_MODEL_TEXT = """
Interest   =~ forks + stars + mentions
Robustness =~ criticality + months_since_update + cmc_rank + geo_rmse
Engagement =~ commits_3mo + comments_3mo + pull_requests_3mo + authors_3mo
forks ~~ stars
Engagement ~ Interest
Robustness ~ Engagement + Interest
"""

SEM_REDUCED_MODEL_TEXT = SEM_MODEL_TEXT.replace(
    "Robustness ~ Engagement + Interest", "Robustness ~ Engagement"
)

#: Standardized measurement loadings: Interest and Robustness from the
#: published two-factor solution; Engagement's pull-request loading is
#: published (0.96), the other three are plausible values in its range.
SEM_LOADINGS = {
    "Interest": [("forks", 0.988), ("stars", 0.970), ("mentions", 0.885)],
    "Robustness": [
        ("criticality", 0.988),
        ("months_since_update", 0.705),
        ("cmc_rank", 0.373),
        ("geo_rmse", 0.369),
    ],
    "Engagement": [
        ("commits_3mo", 0.89),
        ("comments_3mo", 0.86),
        ("pull_requests_3mo", 0.96),
        ("authors_3mo", 0.92),
    ],
}

SEM_PATHS = {
    "Engagement~Interest": 0.59,
    "Robustness~Engagement": 0.54,
    "Robustness~Interest": -0.06,
}


def sem_generator_params() -> dict[str, float]:
    """True parameters on the unit-loading scale of the reference model.

    The standardized generator (unit-variance latents, paths 0.59 / 0.54 /
    -0.06, disturbance variances chosen to keep downstream latents at unit
    variance) is rescaled so each latent's first loading is exactly one.
    """
    params: dict[str, float] = {"cov(forks,stars)": 0.0}
    scale = {latent: pairs[0][1] for latent, pairs in SEM_LOADINGS.items()}
    for latent, pairs in SEM_LOADINGS.items():
        s = scale[latent]
        params[f"var({latent})"] = s * s
        for k, (indicator, lam) in enumerate(pairs):
            if k:
                params[f"{latent}=~{indicator}"] = lam / s
            params[f"var({indicator})"] = 1.0 - lam * lam
    # disturbance variances keep the standardized latents at unit variance:
    # 1 - 0.59^2 and 1 - (0.54^2 + 0.06^2 - 2*0.54*0.06*0.59)
    params["Engagement~Interest"] = 0.59 * scale["Engagement"] / scale["Interest"]
    params["Robustness~Engagement"] = 0.54 * scale["Robustness"] / scale["Engagement"]
    params["Robustness~Interest"] = -0.06 * scale["Robustness"] / scale["Interest"]
    params["var(Engagement)"] = 0.6519 * scale["Engagement"] ** 2
    params["var(Robustness)"] = 0.743032 * scale["Robustness"] ** 2
    return params


def sem_population_covariance() -> np.ndarray:
    model = sem.parse_model(SEM_MODEL_TEXT)
    return sem.implied_covariance(model, sem_generator_params())
