"""Preparation of the project-by-metric analysis matrix.

A matrix is row labels, column names and values, with NaN marking an
absent cell.  Order of operations is fixed: exclusions, then mean
imputation of absent cells, then reverse scoring of the columns named in
``REVERSE_SCORED_COLUMNS``.  Reverse scoring uses the order-reversing,
range-preserving affine map ``x' = max + min - x``, which is an involution
and leaves correlation magnitudes intact.  The audit sidecar lists the
absent cells of the raw matrix, which are the cells ``prepare`` fills.
``read_matrix_csv`` reads and checks a matrix file shaped like ``metrics.csv``,
through the shared input rules of :mod:`oss_health.inputs`.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import inputs
from .metrics import EFA_COLUMNS, ENGAGEMENT_COLUMNS, ProjectMetrics
from .projects import RepoResolution, ResolutionStatus

#: Columns where a larger raw value means "less healthy"; flipped so that
#: larger always has a positive association.
REVERSE_SCORED_COLUMNS = frozenset(
    {
        "months_since_update",
        "cmc_rank",
        "geo_rmse",
        "alexa_rank",
        "median_response_days",
        "average_response_days",
    }
)


@dataclass
class MetricMatrix:
    """n-by-p numeric dataset; NaN marks an absent cell."""

    row_labels: list[str]
    column_names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.row_labels), len(self.column_names)):
            raise ValueError("values shape does not match labels/columns")

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}") from None

    def select(self, names: Sequence[str]) -> "MetricMatrix":
        idx = [self.column_index(n) for n in names]
        # column indexing yields F order; the C-ordered copy keeps reductions' rounding
        return MetricMatrix(list(self.row_labels), list(names), self.values[:, idx].copy())


def matrix_from_metrics(rows: Sequence[ProjectMetrics]) -> MetricMatrix:
    """Build an ``EFA_COLUMNS`` matrix from metrics rows; missing optional fields become NaN."""
    values = np.full((len(rows), len(EFA_COLUMNS)), np.nan)
    for i, row in enumerate(rows):
        for j, name in enumerate(EFA_COLUMNS):
            value = getattr(row, name)
            if value is not None:
                values[i, j] = float(value)
    return MetricMatrix([r.repo_id for r in rows], list(EFA_COLUMNS), values)


# ---------------------------------------------------------------------------
# exclusions


@dataclass
class ExclusionReport:
    missing_404: int = 0
    private_listed: int = 0
    not_listed: int = 0
    foreign_host: int = 0
    duplicates: int = 0
    dead_no_history: int = 0
    retained: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


_STATUS_BUCKETS = {
    ResolutionStatus.MISSING_404: "missing_404",
    ResolutionStatus.PRIVATE_LISTED: "private_listed",
    ResolutionStatus.NOT_LISTED: "not_listed",
    ResolutionStatus.FOREIGN_HOST: "foreign_host",
    ResolutionStatus.DUPLICATE: "duplicates",
}


def apply_exclusions(
    resolutions: Iterable[RepoResolution], histories: Mapping[str, bool]
) -> tuple[list[str], ExclusionReport]:
    """Drop unusable projects; every input lands in exactly one bucket.

    Resolved repositories with no contribution history are dead and
    dropped last.  Returns the retained repo ids in input order.
    """
    report = ExclusionReport()
    retained: list[str] = []
    for res in resolutions:
        bucket = _STATUS_BUCKETS.get(res.status)
        if bucket is not None:
            setattr(report, bucket, getattr(report, bucket) + 1)
            continue
        assert res.repo_id is not None
        if not histories.get(res.repo_id, False):
            report.dead_no_history += 1
            continue
        retained.append(res.repo_id)
        report.retained += 1
    return retained, report


# ---------------------------------------------------------------------------
# transforms


def reverse_score(values: np.ndarray) -> np.ndarray:
    """Order-reversing, range-preserving affine map; constants unchanged."""
    values = np.asarray(values, dtype=float)
    present = values[~np.isnan(values)]
    if present.size == 0 or np.nanmax(values) == np.nanmin(values):
        return values.copy()
    return np.nanmax(values) + np.nanmin(values) - values


def prepare(matrix: MetricMatrix) -> MetricMatrix:
    """Fill absent cells with their column's mean, then reverse-score the
    columns in ``REVERSE_SCORED_COLUMNS``; a column with none present fails."""
    values = matrix.values.copy()
    for j, name in enumerate(matrix.column_names):
        col = values[:, j]
        missing = np.isnan(col)
        if missing.all():
            raise ValueError(f"column {name!r} has no present values to impute from")
        col[missing] = col[~missing].mean()
        if name in REVERSE_SCORED_COLUMNS:
            values[:, j] = reverse_score(col)
    return MetricMatrix(list(matrix.row_labels), list(matrix.column_names), values)


# ---------------------------------------------------------------------------
# splitting


def split(
    matrix: MetricMatrix, fraction: float, seed: int
) -> tuple[MetricMatrix, MetricMatrix]:
    """Seeded disjoint row partition with |train| = round-half-up(fraction*n)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n = len(matrix.row_labels)
    n_train = int(np.floor(fraction * n + 0.5))
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} rows at fraction {fraction} empties one side")
    order = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])

    def take(idx: np.ndarray) -> MetricMatrix:
        return MetricMatrix(
            [matrix.row_labels[i] for i in idx], list(matrix.column_names), matrix.values[idx]
        )

    return take(train_idx), take(test_idx)


# ---------------------------------------------------------------------------
# persistence


def read_matrix_csv(path: str | Path) -> MetricMatrix:
    """The matrix of the file ``path``, read by :func:`parse_matrix_csv`."""
    return parse_matrix_csv(Path(path).read_bytes(), path)


def parse_matrix_csv(data: bytes, path: str | Path) -> MetricMatrix:
    """Rows labelled by ``repo_id``, with the analysis columns present (at least 3,
    in ``EFA_COLUMNS + ENGAGEMENT_COLUMNS`` order), from the UTF-8 bytes
    ``data`` of the file ``path``, read by the rules of
    :mod:`oss_health.inputs`; an empty cell is absent (NaN).

    The table is read in one pass (:func:`inputs.number_table`); only one
    that breaks a rule is read again row by row (:func:`_checked_table`),
    which raises the error of its first fault.
    """
    text = data.decode("utf-8")
    table = inputs.number_table(text, "repo_id", EFA_COLUMNS + ENGAGEMENT_COLUMNS)
    if table is None or len(table[1]) < 3:
        table = _checked_table(text, path)
    labels, keep, values = table
    return MetricMatrix(labels, keep, np.fromiter(values, float, len(values)).reshape(len(labels), len(keep)))


def _checked_table(text: str, path: str | Path) -> tuple[list[str], list[str], list[float]]:
    """:func:`inputs.number_table`'s table of ``text``, checked row by row as
    it is read, so that a fault raises with its line and column."""
    header, rows = inputs.csv_table(io.StringIO(text, newline=""), path, ("repo_id",), "repo_id")
    keep = [c for c in EFA_COLUMNS + ENGAGEMENT_COLUMNS if c in header]
    if len(keep) < 3:
        raise ValueError(f"{path}, line 1: needs at least 3 analysis columns, found {len(keep)}")
    cells = {label: [inputs.number_cell(path, line, row, c) for c in keep] for line, label, row in rows}
    return list(cells), keep, [value for values in cells.values() for value in values]


def write_audit_sidecar(path: str | Path, matrix: MetricMatrix, report: ExclusionReport) -> None:
    """JSON-Lines audit: one line for exclusions, then one per imputed cell.

    ``matrix`` is the raw matrix, before imputation.  Its absent cells are
    the ones ``prepare`` fills, listed in column then row order; a column
    with no value at all has nothing to impute from and gets no line.
    """
    absent = np.isnan(matrix.values)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"kind": "exclusions", **report.as_dict()}, sort_keys=True) + "\n")
        for j, name in enumerate(matrix.column_names):
            if absent[:, j].all():
                continue
            for i in np.flatnonzero(absent[:, j]):
                handle.write(
                    json.dumps(
                        {"kind": "imputed", "column": name, "row": matrix.row_labels[i]},
                        sort_keys=True,
                    )
                    + "\n"
                )
