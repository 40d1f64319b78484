"""Command-line orchestration of the health pipeline.

Subcommands mirror the pipeline stages::

    oss-health ingest  --config run.cfg        # archives -> event store
    oss-health metrics --config run.cfg        # store -> metrics.csv
    oss-health efa     --config run.cfg        # metrics.csv -> efa_report.{json,txt}
    oss-health sem     --config run.cfg --model health.sem
    oss-health report  --config run.cfg        # combined summary

Configuration is a flat ``key = value`` text file; every key can be
overridden by a command flag of the same name.  All outputs are
deterministic for a fixed config and seed: JSON is written with sorted
keys and every report embeds the artifact version and a hash of the
resolved settings that are not paths.

Exit codes: 0 success, 1 user error (bad input, missing files), 2
internal error.  Each input file is checked once, where it is parsed, by
the shared rules of :mod:`oss_health.inputs`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, dataset, factor, inputs, metrics, projects, sem
from .events import EventRecord, has_contribution, parse_archive_file
from .store import CorpusReceipt, EventStore, archive_digest

log = logging.getLogger("oss_health")


class UserError(Exception):
    """Input problem attributable to the invocation, not the code."""


# ---------------------------------------------------------------------------
# configuration


#: The ``PipelineConfig`` fields that are not paths: those ``digest`` hashes.
_HASHED_SETTINGS = ("as_of", "split_fraction", "seed", "factors", "cutoff")


@dataclass
class PipelineConfig:
    archives: str = ""
    projects: str = ""
    overrides: str = ""
    ranks: str = ""
    criticality_config: str = ""
    model: str = ""
    as_of: str = ""
    split_fraction: float = 0.51
    seed: int = 0
    factors: str = "auto"
    cutoff: float = 0.3
    out: str = "out"

    def __post_init__(self) -> None:
        if not 0.0 < self.split_fraction < 1.0:
            raise UserError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if not self.cutoff > 0:  # NaN too
            raise UserError(f"cutoff must be positive, got {self.cutoff}")
        if self.seed < 0:
            raise UserError(f"seed must be a non-negative integer, got {self.seed}")
        if self.factors != "auto":
            try:
                count = int(self.factors)
            except ValueError:
                count = 0
            if count < 1:
                raise UserError(f"factors must be 'auto' or an integer >= 1, got {self.factors!r}")

    @property
    def out_dir(self) -> Path:
        return Path(self.out)

    @property
    def store_dir(self) -> Path:
        return self.out_dir / "store"

    def digest(self) -> str:
        """Hash of the settings that are not paths, so that where the inputs
        and outputs live does not change a report's bytes."""
        blob = "\n".join(f"{name}={getattr(self, name)}" for name in _HASHED_SETTINGS)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _input_path(value: str | Path, role: str, key: str | None = None, directory: bool = False) -> Path:
    """``value`` as a path to an existing file, or directory, named ``role`` in errors.

    With ``key``, an empty ``value`` means the config key ``key`` is unset.
    """
    if key and not value:
        raise UserError(f"no {role} configured (key: {key})")
    path = Path(value)
    if not (path.is_dir() if directory else path.is_file()):
        raise UserError(f"{role} not found: {path}")
    return path


def parse_config_text(text: str) -> dict[str, str]:
    """``key = value`` lines, read by the rules of :mod:`oss_health.inputs`."""
    return {key: value for _, _, key, value in inputs.key_value_lines(text, "config")}


def load_config(path: str | None, overrides: dict[str, str]) -> PipelineConfig:
    values: dict[str, str] = {}
    if path:
        cfg_path = _input_path(path, "config file")
        values.update(parse_config_text(cfg_path.read_text(encoding="utf-8")))
    values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise UserError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    kwargs: dict = dict(values)
    for key, convert in (("split_fraction", float), ("cutoff", float), ("seed", int)):
        if key in values:
            try:
                kwargs[key] = convert(values[key])
            except ValueError:
                raise UserError(f"{key}: expected {convert.__name__}, got {values[key]!r}") from None
    return PipelineConfig(**kwargs)


def _parse_as_of(value: str) -> int:
    if not value:
        raise UserError("as_of timestamp is required for this command")
    try:
        return int(value)
    except ValueError:
        pass
    try:
        parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError:
        raise UserError(f"as_of is neither an epoch integer nor ISO-8601: {value!r}") from None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return int(parsed.timestamp())


def _report_envelope(config: PipelineConfig, kind: str) -> dict:
    return {"artifact_version": __version__, "config_hash": config.digest(), "kind": kind}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # one write: ``json.dump`` hands the file one fragment per token
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.3f}"


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(config: PipelineConfig) -> int:
    archive_dir = _input_path(config.archives, "archives directory", "archives", directory=True)
    paths = sorted(
        p for p in archive_dir.iterdir() if p.suffix == ".gz" or p.suffix in (".json", ".jsonl")
    )
    if not paths:
        raise UserError(f"no readable archives in {archive_dir}")
    store = EventStore(config.store_dir)
    report = _report_envelope(config, "ingest")
    report["files"], report["stored_events"] = [], 0
    try:
        for path in paths:
            data = path.read_bytes()
            digest = archive_digest(data)
            counts = store.ingested(digest)
            if counts is None:
                records, stats = parse_archive_file(path, data)
                receipt = store.append(records)
                counts = stats.records_out, stats.type_skipped, stats.malformed_skipped
                stored, duplicates = receipt.count, receipt.duplicates_skipped
            else:  # ingested whole before: a re-parse would find every event stored
                stored, duplicates = 0, counts[0]
            parsed, skipped_type, skipped_malformed = counts
            report["stored_events"] += stored
            report["files"].append(
                {
                    "file": path.name,
                    "parsed": parsed,
                    "skipped_type": skipped_type,
                    "skipped_malformed": skipped_malformed,
                    "stored": stored,
                    "duplicates_skipped": duplicates,
                }
            )
            log.info("%s: parsed %d, skipped %d malformed, stored %d", path.name, parsed, skipped_malformed, stored)
            store.mark_ingested(digest, counts)
    finally:  # a failing archive still leaves the report of those stored before it
        _write_json(config.out_dir / "ingest_report.json", report)
    return 0


# ---------------------------------------------------------------------------
# metrics


def _load_ranks(path: str) -> dict[str, dict]:
    """CSV of point-in-time externals: repo_id,cmc_rank,alexa_rank,mentions, keyed by repo_id.

    A repository's entry holds the columns the file has; ``alexa_rank`` and
    ``mentions`` may be absent, and an empty cell of theirs is None.
    """
    ranks_path = _input_path(path, "ranks file", "ranks")
    with open(ranks_path, newline="", encoding="utf-8") as handle:
        header, rows = inputs.csv_table(handle, ranks_path, ("repo_id", "cmc_rank"), "repo_id")
        columns = [column for column in ("cmc_rank", "alexa_rank", "mentions") if column in header]
        return {
            repo_id: {
                column: inputs.int_cell(ranks_path, line, row, column, optional=column != "cmc_rank")
                for column in columns
            }
            for line, repo_id, row in rows
        }


def _stage_reader(store: EventStore, before: int):
    """``read(repo_id)``: one repository's events before ``before``.

    ``read`` reads each repository from the store at most once per reader
    and keeps its events for later calls.
    """
    kept: dict[str, list[EventRecord]] = {}

    def read(repo_id: str) -> list[EventRecord]:
        events = kept.get(repo_id)
        if events is None:
            events = kept[repo_id] = [e for e in store.read(repo_id) if e.created_at < before]
        return events

    return read


def cmd_metrics(config: PipelineConfig) -> int:
    """Write ``metrics.csv`` and its audit sidecar in one pass over the store.

    The store is listed once and each repository read at most once; only
    the repositories under a listed project's owner, and those a project
    resolves to, stay in memory.  Metrics see only events before ``as_of``.
    Without a configured ``as_of`` it is one second after the latest stored
    event, so every event counts, and finding it reads only the latest
    month's partitions.
    Only when some retained project has no mentions in the ranks file is
    the push corpus tokenised, once: it is streamed month by month from
    the store's push-text log, and only the records no logged range
    covers are decoded from their partitions.  How many texts came from
    the log and how many partitions were decoded is logged.
    """
    project_path = _input_path(config.projects, "project list", "projects")
    ranks = _load_ranks(config.ranks)
    overrides, crit_config = {}, None
    if config.overrides:
        overrides_path = _input_path(config.overrides, "overrides file")
        overrides = projects.parse_overrides(overrides_path.read_text(encoding="utf-8"))
    if config.criticality_config:
        crit_path = _input_path(config.criticality_config, "criticality config file")
        crit_config = metrics.parse_criticality_config(crit_path.read_text(encoding="utf-8"))
    store = EventStore(config.store_dir)
    if config.as_of:
        as_of = _parse_as_of(config.as_of)
    elif (latest := store.latest_created_at()) is None:
        raise UserError("event store is empty and no as_of timestamp configured")
    else:
        as_of = latest + 1
    read = _stage_reader(store, as_of)
    repo_ids = list(store.iter_repo_ids())
    owner_repos: dict[str, list[str]] = {}
    for repo_id in repo_ids:
        owner_repos.setdefault(repo_id.split("/", 1)[0].lower(), []).append(repo_id)

    entries = projects.load_project_list(project_path)
    resolutions = [
        projects.resolve_repo(
            entry,
            [
                projects.Candidate(repo_id, metrics.count_stars(read(repo_id)))
                for repo_id in owner_repos.get(projects.source_owner(entry.source_location), [])
            ],
            overrides,
        )
        for entry in entries
    ]
    resolutions = projects.mark_duplicates(resolutions)
    repo_rank = {
        res.repo_id: res.project
        for res in resolutions
        if res.status is projects.ResolutionStatus.RESOLVED and res.repo_id
    }
    histories = {repo_id: has_contribution(read(repo_id)) for repo_id in repo_rank}
    retained, report = dataset.apply_exclusions(resolutions, histories)
    log.info("exclusions: %s", report.as_dict())
    if not retained:
        counts = ", ".join(f"{name} {count}" for name, count in report.as_dict().items())
        raise UserError(f"no project left after exclusions ({counts})")

    window = (as_of - 6 * metrics.MONTH_SECONDS, as_of)
    histograms = [metrics.timezone_histogram(read(repo_id), window) for repo_id in retained]
    reference = metrics.median_distribution(histograms)
    mentions = {repo_id: ranks.get(repo_id, {}).get("mentions") for repo_id in retained}
    counted = [repo_id for repo_id in retained if mentions[repo_id] is None]
    if counted:
        receipt = CorpusReceipt()
        corpus = store.push_corpus(repo_ids, as_of, receipt)
        aliases = [{repo_rank[r].name, repo_rank[r].symbol} for r in counted]
        mentions.update(zip(counted, metrics.mention_counts(corpus, aliases)))
        log.info(
            "mentions: %d corpus texts from the push-text log, %d partitions decoded",
            receipt.logged_texts, receipt.decoded_partitions,
        )
    rows = []
    for repo_id, histogram in zip(retained, histograms):
        entry = repo_rank[repo_id]
        external = ranks.get(repo_id, {})
        externals = metrics.ExternalInputs(
            cmc_rank=external.get("cmc_rank", entry.cmc_rank),
            alexa_rank=external.get("alexa_rank", entry.alexa_rank),
            mentions=mentions[repo_id],
        )
        rows.append(
            metrics.build_metrics_row(
                repo_id, read(repo_id), externals, reference, as_of, crit_config, histogram=histogram
            )
        )

    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = config.out_dir / "metrics.csv"
    iso_as_of = datetime.fromtimestamp(as_of, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    with open(out_csv, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(metrics.METRICS_COLUMNS)
        for row in rows:
            cells = []
            for column in metrics.METRICS_COLUMNS:
                value = iso_as_of if column == "as_of" else getattr(row, column)
                cells.append("" if value is None else value)
            writer.writerow(cells)
    dataset.write_audit_sidecar(
        config.out_dir / "metrics_audit.jsonl", dataset.matrix_from_metrics(rows), report
    )
    log.info("wrote %s (%d rows)", out_csv, len(rows))
    return 0


# ---------------------------------------------------------------------------
# EFA


def _prepared_matrix(metrics_csv: Path) -> dataset.MetricMatrix:
    """The prepared analysis matrix of ``metrics.csv``; an empty cell is absent."""
    return dataset.prepare(dataset.read_matrix_csv(_input_path(metrics_csv, "metrics file")))


def _correlations(matrix: dataset.MetricMatrix) -> np.ndarray:
    try:
        return factor.correlation_matrix(matrix.values, matrix.column_names)
    except ValueError as exc:
        raise UserError(str(exc)) from None


def _optimiser_fields(minimum: factor.Minimum) -> dict:
    """The optimiser block of every fit in a report: where its minimisation stopped."""
    return {
        "converged": minimum.converged,
        "evaluations": minimum.evaluations,
        "fmin": minimum.value,
        "iterations": minimum.iterations,
        "max_abs_gradient": minimum.max_abs_gradient,
    }


def _efa_block(
    matrix: dataset.MetricMatrix,
    R: np.ndarray,
    pa: factor.ParallelAnalysisResult,
    config: PipelineConfig,
) -> dict:
    names = matrix.column_names
    if config.factors == "auto":
        m = max(pa.suggested_factors, 1)
    else:
        m = int(config.factors)
    n = len(matrix.row_labels)
    solution, stats = factor.efa_ml(R, n=n, m=m)
    rotated = factor.rotate_solution(solution)
    assignment, dropped = factor.assign_indicators(rotated.loadings, names, config.cutoff)
    reliability = {}
    for j, members in assignment.items():
        if len(members) >= 2:
            # each factor's one-factor model on its members' block of R,
            # started at their uniquenesses in the m-factor solution
            at = [names.index(name) for name in members]
            one, _ = factor.efa_ml(R[np.ix_(at, at)], n=n, m=1, start=solution.uniquenesses[at])
            reliability[str(j)] = {
                "alpha": factor.cronbach_alpha(matrix.select(members).values),
                "omega": factor.mcdonald_omega(one.loadings[:, 0], one.uniquenesses),
            }
    return {
        "n": n,
        "columns": names,
        "factors": m,
        "parallel_analysis": {
            "observed_eigenvalues": pa.observed_eigenvalues.tolist(),
            "simulated_mean_eigenvalues": pa.simulated_mean_eigenvalues.tolist(),
            "simulated_quantile_eigenvalues": pa.simulated_quantile_eigenvalues.tolist(),
            "quantile": factor.PA_QUANTILE,
            "basis": "reduced",
            "comparison": "quantile",
            "suggested_factors": pa.suggested_factors,
        },
        "scree_eigenvalues": factor.eigenvalues(R).tolist(),
        "loadings": rotated.loadings.tolist(),
        "uniquenesses": rotated.uniquenesses.tolist(),
        "communalities": rotated.communalities.tolist(),
        "ss_loadings": rotated.ss_loadings.tolist(),
        "cumulative_variance": rotated.cumulative_variance.tolist(),
        "proportion_explained": rotated.proportion_explained.tolist(),
        **_optimiser_fields(rotated.minimum),
        "floored": [names[i] for i in rotated.floored],
        "fit": stats.as_dict(),
        "assignment": {str(k): v for k, v in assignment.items()},
        "dropped": dropped,
        "reliability": reliability,
    }


def _efa_text(block: dict) -> str:
    lines = [f"exploratory factor analysis (n={block['n']}, m={block['factors']})", ""]
    header = f"{'indicator':<24}" + "".join(f"{'F' + str(j + 1):>8}" for j in range(block["factors"]))
    lines.append(header + f"{'h2':>8}")
    for i, name in enumerate(block["columns"]):
        row = f"{name:<24}" + "".join(_fmt(v).rjust(8) for v in block["loadings"][i])
        lines.append(row + _fmt(block["communalities"][i]).rjust(8))
    lines.append("")
    lines.append(f"{'SS loadings':<24}" + "".join(_fmt(v).rjust(8) for v in block["ss_loadings"]))
    lines.append(
        f"{'cumulative variance':<24}"
        + "".join(_fmt(v).rjust(8) for v in block["cumulative_variance"])
    )
    lines.append("")
    lines.append("scree and parallel-analysis eigenvalues (observed / simulated threshold):")
    pa = block["parallel_analysis"]
    for obs, thr in zip(pa["observed_eigenvalues"], pa["simulated_quantile_eigenvalues"]):
        lines.append(f"  {_fmt(obs):>8} / {_fmt(thr)}")
    lines += ["", factor.FitStatistics(**block["fit"]).summary()]
    for j, members in sorted(block["assignment"].items()):
        lines.append(f"factor {int(j) + 1}: {', '.join(members) if members else '(empty)'}")
    if block["dropped"]:
        lines.append(f"below cutoff: {', '.join(block['dropped'])}")
    return "\n".join(lines) + "\n"


def cmd_efa(config: PipelineConfig, cross_validate: bool = False) -> int:
    """Fit the full sample and, with ``cross_validate``, its two split halves.

    Parallel analysis runs once for all blocks, on one shared noise draw.
    """
    matrix = _prepared_matrix(config.out_dir / "metrics.csv")
    blocks = {"full": matrix}
    if cross_validate:
        blocks["train"], blocks["test"] = dataset.split(matrix, config.split_fraction, config.seed)
    correlations = {name: _correlations(block) for name, block in blocks.items()}
    analyses = factor.parallel_analysis(
        [(correlations[name], len(block.row_labels)) for name, block in blocks.items()],
        seed=config.seed,
    )
    report = _report_envelope(config, "efa")
    for (name, block), pa in zip(blocks.items(), analyses):
        report[name] = _efa_block(block, correlations[name], pa, config)
    if cross_validate:
        report["structure_equivalent"] = report["train"]["assignment"] == report["test"]["assignment"]
    _write_json(config.out_dir / "efa_report.json", report)
    (config.out_dir / "efa_report.txt").write_text(_efa_text(report["full"]), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# SEM


def _read_model(path: Path) -> sem.SemModel:
    try:
        return sem.parse_model(path.read_text(encoding="utf-8"))
    except (sem.SemParseError, sem.SemSpecError) as exc:
        raise UserError(f"{path}: {exc}") from None


def cmd_sem(config: PipelineConfig, compare_model: str | None = None) -> int:
    model_path = _input_path(config.model, "model file", "model")
    model = _read_model(model_path)
    matrix = _prepared_matrix(config.out_dir / "metrics.csv")
    missing = [v for v in model.observed if v not in matrix.column_names]
    if missing:
        raise UserError(f"indicator(s) absent from data: {', '.join(missing)}")
    data = matrix.select(model.observed)
    S = np.cov(data.values, rowvar=False)
    n = len(data.row_labels)
    fit = sem.fit_ml(model, S, n)

    report = _report_envelope(config, "sem")
    report["model_file"] = model_path.name
    report["n"] = n
    report["estimates"] = {
        name: {"value": est.value, "se": est.se, "z": est.z, "p": est.p_value, "free": est.free}
        for name, est in fit.estimates.items()
    }
    report["standardized"] = fit.standardized
    report["fit"] = fit.fit.as_dict()
    report["heywood"] = fit.heywood
    report.update(_optimiser_fields(fit.minimum))
    if compare_model:
        other_path = _input_path(compare_model, "comparison model file")
        other = _read_model(other_path)
        if set(other.observed) != set(model.observed):
            raise UserError(f"{other_path}: indicators differ from those of {model_path}")
        # S is ordered by model.observed; the comparison needs its own order
        other_S = np.cov(matrix.select(other.observed).values, rowvar=False)
        # a nested model's estimates sit near the full model's, so a
        # converged full fit is the comparison fit's start
        start = {name: est.value for name, est in fit.estimates.items() if est.free} if fit.converged else None
        other_fit = sem.fit_ml(other, other_S, n, start=start)
        d_chi, d_df, d_bic = sem.compare_models(fit, other_fit)
        report["comparison"] = {
            "other_model_file": other_path.name,
            "delta_chi_square": d_chi,
            "delta_df": d_df,
            "delta_bic": d_bic,
            **_optimiser_fields(other_fit.minimum),
        }
    _write_json(config.out_dir / "sem_report.json", report)
    (config.out_dir / "sem_report.txt").write_text(
        sem.format_fit_report(fit) + "\n", encoding="utf-8"
    )
    return 0


# ---------------------------------------------------------------------------
# combined report


def cmd_report(config: PipelineConfig) -> int:
    pieces = []
    for name in ("ingest_report.json", "efa_report.json", "sem_report.json"):
        path = config.out_dir / name
        if path.is_file():
            pieces.append((name, json.loads(path.read_text(encoding="utf-8"))))
    if not pieces:
        raise UserError(f"no reports found under {config.out_dir}; run the pipeline stages first")
    lines = [f"pipeline summary (artifact {__version__}, config {config.digest()})"]
    for name, payload in pieces:
        lines.append(f"\n== {name} ==")
        if name == "ingest_report.json":
            lines.append(f"stored events: {payload['stored_events']}")
        elif name == "efa_report.json":
            full = payload["full"]
            lines.append(f"n={full['n']}, factors={full['factors']}")
            for j, members in sorted(full["assignment"].items()):
                lines.append(f"factor {int(j) + 1}: {', '.join(members)}")
        else:
            lines.append(factor.FitStatistics(**payload["fit"]).summary())
            if payload["heywood"]:
                lines.append("heywood: " + ", ".join(payload["heywood"]))
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise UserError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and shared by later ``main`` calls."""
    parser = _Parser(prog="oss-health", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    config_keys = [f.name for f in fields(PipelineConfig)]
    for name in ("ingest", "metrics", "efa", "sem", "report"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="key = value config file")
        for key in config_keys:
            cmd.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
        if name == "efa":
            cmd.add_argument("--cross-validate", action="store_true")
        if name == "sem":
            cmd.add_argument("--compare", default=None, help="second model file to compare against")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = _build_parser().parse_args(argv)
        overrides = {
            f.name: getattr(args, f.name)
            for f in fields(PipelineConfig)
            if getattr(args, f.name, None) is not None
        }
        config = load_config(args.config, overrides)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "metrics":
            return cmd_metrics(config)
        if args.command == "efa":
            return cmd_efa(config, cross_validate=args.cross_validate)
        if args.command == "sem":
            return cmd_sem(config, compare_model=args.compare)
        return cmd_report(config)
    except UserError as exc:
        log.error("error: %s", exc)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        log.error("error: %s", exc)
        return 1
    except Exception:  # pragma: no cover - internal failure path
        logging.exception("internal error")
        return 2


if __name__ == "__main__":
    sys.exit(main())
