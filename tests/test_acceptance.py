"""Acceptance criteria: one test and one printed pass/fail line per criterion.

Every criterion is implemented at its stated tolerance.  Four are known
to fail and are left failing honestly; the analyses follow, and each
test's printed ``criterion NN`` line gives the measured figures:

* Criteria 1, 5, 6 -- at n=384 the sampling variability of rotated
  loadings (criterion 1) and standardized structural paths (criteria 5
  and 6) exceeds the stated windows too often for any correct estimator
  to reach the demanded seed counts; maximum likelihood is already
  asymptotically efficient, and aligning against the truth with the best
  possible rotation does not close the gap.
* Criterion 2 -- the published loading matrix is printed to three
  decimals and is not an exact varimax fixed point; the refit optimum
  differs from the printed values by ~1.7e-3 (> the 1e-3 tolerance), and
  the rotated solution's criterion value is strictly higher than the
  printed matrix's own, so the gap is the table's rounding, not ours.
  The F_min and chi-square parts of the criterion hold with margin.
"""

import gzip
import json
import os
import sys
import time

import numpy as np
import pytest

from conftest import (
    AS_OF,
    DAY,
    EFA_GENERATOR_LOADINGS,
    EFA_VARIABLE_NAMES,
    FIXTURE_LINES,
    SEM_MODEL_TEXT,
    SEM_PATHS,
    SEM_REDUCED_MODEL_TEXT,
    efa_population_correlation,
    make_event,
    sem_population_covariance,
)
from oss_health import cli, factor, sem
from oss_health.events import EventType, parse_archive_file
from oss_health.metrics import (
    TimezoneHistogram,
    count_forks,
    count_stars,
    geo_rmse,
    issue_response_times,
)
from test_cli import MODEL_FILE, write_synthetic_metrics
from test_sem import SMALL_MODEL, SMALL_TRUE, heywood_correlation

N = 384
SEEDS = 100


def report(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _efa_sample(seed: int, R=None) -> np.ndarray:
    R = efa_population_correlation() if R is None else R
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N, R.shape[0])) @ np.linalg.cholesky(R).T


def _recovered_loadings(X: np.ndarray) -> np.ndarray:
    R = factor.correlation_matrix(X)
    solution, _ = factor.efa_ml(R, n=N, m=2)
    rotated = factor.rotate_solution(solution)
    return factor.align_columns(EFA_GENERATOR_LOADINGS, rotated.loadings)


def test_criterion_01_efa_recovery():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(SEEDS):
        aligned = _recovered_loadings(_efa_sample(seed))
        if np.abs(aligned - EFA_GENERATOR_LOADINGS).max() <= 0.10:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        hits >= 95 and elapsed < 10.0,
        f"loadings within +/-0.10 in {hits}/100 seeds (need >=95), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_02_zero_residual_exactness():
    t0 = time.perf_counter()
    R = efa_population_correlation()
    solution, stats = factor.efa_ml(R, n=N, m=2)
    rotated = factor.rotate_solution(solution)
    aligned = factor.align_columns(EFA_GENERATOR_LOADINGS, rotated.loadings)
    err = np.abs(aligned - EFA_GENERATOR_LOADINGS).max()
    implied = rotated.loadings @ rotated.loadings.T + np.diag(rotated.uniquenesses)
    fmin = float(
        np.linalg.slogdet(implied)[1]
        + np.trace(R @ np.linalg.inv(implied))
        - np.linalg.slogdet(R)[1]
        - R.shape[0]
    )
    elapsed = time.perf_counter() - t0
    ok = (
        fmin < 1e-8
        and err <= 1e-3
        and stats.chi_square < 1e-6
        and elapsed < 1.0
    )
    report(
        2,
        ok,
        f"F_min={fmin:.2e} (<1e-8), max loading error {err:.2e} (<=1e-3), "
        f"chi2={stats.chi_square:.2e} (<1e-6), {elapsed:.2f}s",
    )


def test_criterion_03_parallel_analysis():
    two = 0
    for seed in range(SEEDS):
        X = _efa_sample(seed)
        pa = factor.parallel_analysis([(factor.correlation_matrix(X), len(X))], seed=seed)[0]
        two += pa.suggested_factors == 2
    zero = 0
    for seed in range(SEEDS):
        noise = np.random.default_rng(10_000 + seed).standard_normal((N, 9))
        pa = factor.parallel_analysis([(factor.correlation_matrix(noise), N)], seed=seed)[0]
        zero += pa.suggested_factors == 0
    report(
        3,
        two >= 95 and zero >= 90,
        f"2 factors in {two}/100 generator seeds (need >=95), "
        f"0 factors in {zero}/100 noise seeds (need >=90)",
    )


def test_criterion_04_indicator_assignment():
    assignment, dropped = assignment_result = factor.assign_indicators(
        EFA_GENERATOR_LOADINGS, EFA_VARIABLE_NAMES, cutoff=0.3
    )
    ok = (
        assignment.get(0) == ["forks", "stars", "mentions"]
        and assignment.get(1) == ["criticality", "months_since_update", "cmc_rank", "geo_rmse"]
        and sorted(dropped) == ["alexa_rank", "longevity_days"]
    )
    report(4, ok, f"0.3-cutoff assignment on the published matrix: {assignment_result}")


def test_criterion_05_sem_path_recovery():
    t0 = time.perf_counter()
    model = sem.parse_model(SEM_MODEL_TEXT)
    sigma = sem_population_covariance()
    exact = sem.fit_ml(model, sigma, n=N)
    path_err = max(abs(exact.standardized[k] - v) for k, v in SEM_PATHS.items())
    noise_free_ok = (
        path_err <= 1e-3
        and exact.fit.chi_square < 1e-6
        and exact.fit.cfi == 1.0
        and exact.fit.rmsea == 0.0
        and exact.fit.srmr < 1e-4
    )
    chol = np.linalg.cholesky(sigma)
    hits = 0
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        S = np.cov(rng.standard_normal((N, 11)) @ chol.T, rowvar=False)
        fit = sem.fit_ml(model, S, n=N)
        if fit.standardized and all(
            abs(fit.standardized[k] - v) <= 0.05 for k, v in SEM_PATHS.items()
        ):
            hits += 1
    elapsed = time.perf_counter() - t0
    report(
        5,
        noise_free_ok and hits >= 90 and elapsed < 30.0,
        f"noise-free paths within 1e-3: {noise_free_ok} (max err {path_err:.1e}); "
        f"sampled paths within +/-0.05 in {hits}/100 seeds (need >=90); {elapsed:.1f}s",
    )


def test_criterion_06_reduced_model():
    model = sem.parse_model(SEM_REDUCED_MODEL_TEXT)
    chol = np.linalg.cholesky(sem_population_covariance())
    targets = {"Engagement~Interest": 0.58, "Robustness~Engagement": 0.50}
    hits = 0
    for seed in range(SEEDS):
        rng = np.random.default_rng(seed)
        S = np.cov(rng.standard_normal((N, 11)) @ chol.T, rowvar=False)
        fit = sem.fit_ml(model, S, n=N)
        if fit.standardized and all(
            abs(fit.standardized[k] - v) <= 0.05 for k, v in targets.items()
        ):
            hits += 1
    report(
        6,
        hits >= 90,
        f"reduced paths near (0.58, 0.50) within +/-0.05 in {hits}/100 seeds (need >=90)",
    )


def test_criterion_07_heywood_pipeline():
    model = sem.parse_model("F1 =~ a + b + c\nF2 =~ d + e + f\n")
    R = heywood_correlation()
    improper = sem.fit_ml(model, R, n=N)
    freed_fit = sem.fit_ml(sem.free_covariance(model, "a", "b"), R, n=N)
    ok = improper.heywood == ["var(a)"] and freed_fit.heywood == []
    report(
        7,
        ok,
        f"doublet fit flags {improper.heywood}; after freeing the residual "
        f"covariance: {freed_fit.heywood}",
    )


def test_criterion_08_fit_index_oracles():
    _, rmsea = factor.efa_fit_indices(100.0, 50, 1000.0, 55, 101)
    tli, _ = factor.efa_fit_indices(50.0, 40, 500.0, 45, 200)
    tli_hand = (500 / 45 - 50 / 40) / (500 / 45 - 1)
    cfi = factor.comparative_fit_index(150.0, 50, 1000.0, 55)
    cfi_hand = 1 - 100 / 945
    S = efa_population_correlation()
    srmr_perfect = factor.srmr(S, S)
    ok = (
        rmsea == pytest.approx(0.1, abs=1e-12)
        and tli == pytest.approx(tli_hand, abs=1e-6)
        and cfi == pytest.approx(cfi_hand, abs=1e-6)
        and srmr_perfect == 0.0
    )
    report(
        8,
        ok,
        f"RMSEA={rmsea:.6f} (=0.1), TLI={tli:.6f} (hand {tli_hand:.6f}), "
        f"CFI={cfi:.6f} (hand {cfi_hand:.6f}), SRMR(perfect)={srmr_perfect}",
    )


def test_criterion_09_reliability_oracles():
    x = np.random.default_rng(0).normal(size=200)
    alpha_same = factor.cronbach_alpha(np.column_stack([x, x, x]))
    base = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    chol = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
    items = (base / base.std(axis=0, ddof=1)) @ chol.T
    alpha_half = factor.cronbach_alpha(items)
    omega = factor.mcdonald_omega([0.8] * 4, [0.36] * 4)
    ok = (
        alpha_same == pytest.approx(1.0, abs=1e-12)
        and alpha_half == pytest.approx(2 / 3, abs=1e-12)
        and omega == pytest.approx(0.8767, abs=1e-4)
    )
    report(
        9,
        ok,
        f"alpha(identical)={alpha_same:.6f}, alpha(r=0.5)={alpha_half:.6f} "
        f"(=2/3), omega={omega:.5f} (0.8767 +/- 1e-4)",
    )


def test_criterion_10_varimax_properties():
    rng = np.random.default_rng(0)
    worst_orth = worst_comm = 0.0
    for _ in range(1000):
        p = rng.integers(3, 12)
        m = rng.integers(2, min(p, 5))
        L = rng.normal(size=(p, m))
        rotated, T = factor.varimax(L)
        worst_orth = max(worst_orth, float(np.abs(T.T @ T - np.eye(m)).max()))
        worst_comm = max(
            worst_comm,
            float(np.abs((rotated**2).sum(axis=1) - (L**2).sum(axis=1)).max()),
        )
    L2 = rng.normal(size=(8, 2))
    rotated2, _ = factor.varimax(L2)
    achieved = factor.varimax_criterion(rotated2)
    angles = np.arange(0.0, np.pi / 2, 1e-4)
    best = max(
        factor.varimax_criterion(
            L2 @ np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        )
        for a in angles
    )
    ok = worst_orth < 1e-10 and worst_comm < 1e-10 and achieved >= best - 1e-3
    report(
        10,
        ok,
        f"orthogonality error {worst_orth:.1e}, communality error {worst_comm:.1e} "
        f"(both <1e-10 over 1000 matrices); criterion {achieved:.6f} vs scan {best:.6f}",
    )


def test_criterion_11_gradient_check():
    model = sem.parse_model(SMALL_MODEL)
    sigma = sem.implied_covariance(model, SMALL_TRUE)
    names = [prm.name for prm in model.parameters() if prm.free]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        theta = {k: v + rng.normal(0, 0.05) for k, v in SMALL_TRUE.items()}
        grad = sem.ml_gradient(model, theta, sigma)
        eps = 1e-6
        for idx, name in enumerate(names):
            plus, minus = dict(theta), dict(theta)
            plus[name] += eps
            minus[name] -= eps
            numeric = (
                sem.ml_discrepancy(model, plus, sigma)
                - sem.ml_discrepancy(model, minus, sigma)
            ) / (2 * eps)
            worst = max(worst, abs(grad[idx] - numeric) / max(abs(numeric), 1.0))
    report(11, worst < 1e-4, f"max relative gradient disagreement {worst:.2e} (<1e-4)")


def test_criterion_12_ingest_and_metric_fixtures(tmp_path):
    path = tmp_path / "2016-12-01-12.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("\n".join(FIXTURE_LINES) + "\n")
    records, stats = parse_archive_file(path)
    counts_ok = (
        stats.records_out == 10 and stats.type_skipped == 1 and stats.malformed_skipped == 1
    )
    stars = count_stars(records)
    forks = count_forks(records)
    issues = []
    t0 = AS_OF - 30 * DAY
    for number, delta in ((1, 1), (2, 2), (3, 9)):
        issues.append(
            make_event(event_type=EventType.ISSUES, action="opened", created_at=t0, number=number)
        )
        issues.append(
            make_event(
                event_type=EventType.ISSUES,
                action="closed",
                created_at=t0 + delta * DAY,
                number=number,
            )
        )
    response = issue_response_times(issues)
    point = np.zeros(24)
    point[0] = 1.0
    rmse = geo_rmse(
        TimezoneHistogram(bins=point, total=5),
        TimezoneHistogram(bins=np.full(24, 1 / 24), total=24),
    )
    ok = (
        counts_ok
        and stars == 3
        and forks == 2
        and response == (2.0, 4.0)
        and rmse == pytest.approx(0.1999, abs=5e-4)
    )
    report(
        12,
        ok,
        f"fixture parses 10/1/1: {counts_ok}; stars={stars}, forks={forks}, "
        f"response times={response}, geo_rmse={rmse:.4f}",
    )


def test_criterion_13_determinism(tmp_path):
    archives = tmp_path / "archives"
    archives.mkdir()
    with gzip.open(archives / "2016-12-01-12.json.gz", "wt", encoding="utf-8") as handle:
        handle.write("\n".join(FIXTURE_LINES) + "\n")
    (tmp_path / "projects.csv").write_text(
        "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
        "Bitcoin,BTC,1,https://bitcoin.org,https://github.com/bitcoin,900\n"
    )
    (tmp_path / "ranks.csv").write_text(
        "repo_id,cmc_rank,alexa_rank,mentions\nbitcoin/bitcoin,1,900,40\n"
    )
    out = tmp_path / "out"
    base = [
        "--archives", str(archives),
        "--projects", str(tmp_path / "projects.csv"),
        "--ranks", str(tmp_path / "ranks.csv"),
        "--as-of", "2017-01-01T00:00:00Z",
        "--out", str(out),
        "--seed", "0",
    ]
    assert cli.main(["ingest", *base]) == 0
    assert cli.main(["metrics", *base]) == 0
    metrics_first = (out / "metrics.csv").read_bytes()
    assert cli.main(["metrics", *base]) == 0
    metrics_same = (out / "metrics.csv").read_bytes() == metrics_first

    write_synthetic_metrics(out)
    assert cli.main(["efa", *base]) == 0
    efa_first = (out / "efa_report.json").read_bytes()
    assert cli.main(["efa", *base]) == 0
    efa_same = (out / "efa_report.json").read_bytes() == efa_first

    assert cli.main(["sem", "--model", MODEL_FILE, *base]) == 0
    sem_first = (out / "sem_report.json").read_bytes()
    assert cli.main(["sem", "--model", MODEL_FILE, *base]) == 0
    sem_same = (out / "sem_report.json").read_bytes() == sem_first

    report(
        13,
        metrics_same and efa_same and sem_same,
        f"byte-identical re-runs: metrics.csv={metrics_same}, "
        f"efa_report.json={efa_same}, sem_report.json={sem_same}",
    )


FULL_MATRIX_ENV = "OSS_HEALTH_FULL_MATRIX_CSV"


@pytest.mark.skipif(
    FULL_MATRIX_ENV not in os.environ,
    reason=f"conditional: requires a reconstructed 384x11 matrix via ${FULL_MATRIX_ENV}",
)
def test_criterion_14_full_matrix_reproduction():
    """Only runs against a user-supplied reconstruction of the full dataset."""
    from oss_health import dataset

    matrix = dataset.read_matrix_csv(os.environ[FULL_MATRIX_ENV])
    prepared = dataset.prepare(matrix)
    names = prepared.column_names
    R = factor.correlation_matrix(prepared.values, names)
    n = len(prepared.row_labels)
    solution, _ = factor.efa_ml(R, n=n, m=2)
    rotated = factor.rotate_solution(solution)
    idx = [names.index(v) for v in EFA_VARIABLE_NAMES]
    aligned = factor.align_columns(EFA_GENERATOR_LOADINGS, rotated.loadings[idx])
    err = np.abs(aligned - EFA_GENERATOR_LOADINGS).max()

    response = [c for c in ("median_response_days", "average_response_days") if c in names]
    keep = [c for c in names if c not in response]
    sub = prepared.select(keep)
    _, stats_full = factor.efa_ml(R, n=n, m=2)
    _, stats_reduced = factor.efa_ml(
        factor.correlation_matrix(sub.values, keep), n=n, m=2
    )
    bic_drops = stats_reduced.bic < stats_full.bic
    report(
        14,
        err <= 0.02 and bic_drops,
        f"published loadings within +/-0.02 (max err {err:.3f}); "
        f"BIC falls when response-time variables are excluded: {bic_drops}",
    )
