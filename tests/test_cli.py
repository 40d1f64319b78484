"""End-to-end pipeline runs, exit codes, and artifact determinism."""

import csv
import gzip
import importlib.util
import json
import logging
import math
import os
import shutil
import struct
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import EFA_VARIABLE_NAMES, FIXTURE_LINES, efa_population_correlation, sem_population_covariance
from oss_health import cli, dataset, factor, metrics, projects, sem
from oss_health.cli import PipelineConfig, UserError, load_config, parse_config_text
from oss_health import store as store_module
from oss_health.store import CORPUS_MAGIC, LEDGER, MAGIC, EventStore, StoreError

MODEL_FILE = "models/health.sem"
REDUCED_MODEL_FILE = "models/health_reduced.sem"

SEM_COLUMN_NAMES = [
    "forks",
    "stars",
    "mentions",
    "criticality",
    "months_since_update",
    "cmc_rank",
    "geo_rmse",
    "commits_3mo",
    "comments_3mo",
    "pull_requests_3mo",
    "authors_3mo",
]


def _extra_repo_line(actor, created, event_type="WatchEvent", payload=None, repo="ethereum/go-ethereum"):
    return json.dumps(
        {
            "type": event_type,
            "repo": {"name": repo},
            "actor": {"login": actor},
            "created_at": created,
            "payload": payload or {},
        }
    )


def _log_body(numbers=(8, 90, 1, 1), tail=b'[["someone__else"],["bitcoin"]]'):
    """A push-text log frame body of one entry and one text: its start, end,
    text count and text time, then the JSON of its names and texts."""
    return struct.pack(">II", 1, 1) + struct.pack(">QQIq", *numbers) + tail


@pytest.fixture
def workspace(tmp_path):
    """Archive directory, project list, ranks file, and a config file."""
    archives = tmp_path / "archives"
    archives.mkdir()
    lines = FIXTURE_LINES + [
        _extra_repo_line("zoe", "2016-12-03T09:00:00Z"),
        _extra_repo_line(
            "yann",
            "2016-12-04T09:00:00Z",
            event_type="PushEvent",
            payload={"commits": [{"message": "geth sync"}]},
        ),
    ]
    with gzip.open(archives / "2016-12-01-12.json.gz", "wt", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")

    (tmp_path / "projects.csv").write_text(
        "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
        "Bitcoin,BTC,1,https://bitcoin.org,https://github.com/bitcoin,900\n"
        "Ethereum,ETH,2,https://ethereum.org,https://github.com/ethereum,1100\n"
        "Shadow,SHD,3,https://shadow.example,,\n"
        "Foreign,FRN,4,https://foreign.example,https://gitlab.com/foreign/node,\n"
    )
    (tmp_path / "ranks.csv").write_text(
        "repo_id,cmc_rank,alexa_rank,mentions\n"
        "bitcoin/bitcoin,1,900,40\n"
        "ethereum/go-ethereum,2,1100,25\n"
    )
    (tmp_path / "run.cfg").write_text(
        f"archives = {archives}\n"
        f"projects = {tmp_path / 'projects.csv'}\n"
        f"ranks = {tmp_path / 'ranks.csv'}\n"
        "as_of = 2017-01-01T00:00:00Z\n"
        f"out = {tmp_path / 'out'}\n"
    )
    return tmp_path


def run(workspace, *args):
    return cli.main([*args, "--config", str(workspace / "run.cfg")])


def write_synthetic_metrics(out_dir, n=250, seed=0):
    """A metrics.csv sampled from the reference covariance generator."""
    sigma = sem_population_covariance()
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, len(SEM_COLUMN_NAMES))) @ np.linalg.cholesky(sigma).T
    # rank-like columns run opposite to health in raw metrics; preparation
    # reverse-scores them back into alignment
    for j, name in enumerate(SEM_COLUMN_NAMES):
        if name in ("months_since_update", "cmc_rank", "geo_rmse"):
            X[:, j] = -X[:, j]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["repo_id", *SEM_COLUMN_NAMES])
        for i, row in enumerate(X):
            writer.writerow([f"org/repo{i}", *row])


class TestConfig:
    def test_parse_config_text(self):
        assert parse_config_text("a = 1 # note\n\nb=x\n") == {"a": "1", "b": "x"}

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("a = 1\nnope\n")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("archvies = /x\n")
        with pytest.raises(UserError, match="archvies"):
            load_config(str(cfg), {})

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError) as excinfo:
            parse_config_text("seed = 1\nout = x\nseed = 2\n")
        assert str(excinfo.value) == "config lines 1 and 3: 'seed' given twice"

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        config = load_config(str(cfg), {"seed": "7"})
        assert config.seed == 7

    def test_bad_split_fraction(self):
        with pytest.raises(UserError):
            PipelineConfig(split_fraction=1.5)

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "1.5"), ("cutoff", "high"), ("cutoff", "nan"), ("split_fraction", "half")],
    )
    def test_non_numeric_value_names_key(self, key, value):
        with pytest.raises(UserError, match=key):
            load_config(None, {key: value})

    @pytest.mark.parametrize("factors", ["0", "-2"])
    def test_factors_below_one_rejected(self, factors):
        with pytest.raises(UserError, match="factors"):
            PipelineConfig(factors=factors)

    def test_negative_seed_names_key(self):
        with pytest.raises(UserError, match="seed"):
            load_config(None, {"seed": "-1"})

    def test_digest_changes_with_values(self):
        assert PipelineConfig(seed=0).digest() != PipelineConfig(seed=1).digest()

    def test_reports_do_not_depend_on_paths(self, tmp_path):
        reports = []
        for out, archives in ((tmp_path / "a", tmp_path / "archives"), (tmp_path / "b", tmp_path / "unused")):
            write_synthetic_metrics(out)
            paths = ["--out", str(out), "--archives", str(archives)]
            assert cli.main(["efa", "--cross-validate", *paths]) == 0
            assert cli.main(["sem", "--model", MODEL_FILE, "--compare", REDUCED_MODEL_FILE, *paths]) == 0
            reports.append([(out / name).read_bytes() for name in ("efa_report.json", "sem_report.json")])
        assert reports[0] == reports[1]


class TestIngest:
    def test_ingest_writes_store_and_report(self, workspace):
        assert run(workspace, "ingest") == 0
        report = json.loads((workspace / "out" / "ingest_report.json").read_text())
        assert report["kind"] == "ingest"
        assert report["stored_events"] == 12  # 10 fixture + 2 extra-repo events
        (file_stats,) = report["files"]
        assert file_stats["parsed"] == 12
        assert file_stats["skipped_malformed"] == 1
        assert file_stats["skipped_type"] == 1

    def test_reingest_skips_duplicates(self, workspace):
        run(workspace, "ingest")
        assert run(workspace, "ingest") == 0
        report = json.loads((workspace / "out" / "ingest_report.json").read_text())
        assert report["stored_events"] == 0
        assert report["files"][0]["duplicates_skipped"] == 12

    def test_type_that_is_not_a_string_is_type_skipped(self, workspace):
        archives = workspace / "plain"
        archives.mkdir()
        lines = [_extra_repo_line("zoe", "2016-12-03T09:00:00Z", event_type=kind) for kind in (["x"], {"a": 1})]
        lines.append(_extra_repo_line("yann", "2016-12-04T09:00:00Z"))
        (archives / "2016-12-03-09.json").write_text("\n".join(lines) + "\n")
        assert run(workspace, "ingest", "--archives", str(archives)) == 0
        report = json.loads((workspace / "out" / "ingest_report.json").read_text())
        (entry,) = report["files"]
        assert (entry["skipped_type"], entry["skipped_malformed"], entry["stored"]) == (2, 0, 1)

    def test_empty_archive_dir_is_user_error(self, workspace):
        empty = workspace / "nothing"
        empty.mkdir()
        assert run(workspace, "ingest", "--archives", str(empty)) == 1

    def test_missing_archive_dir_is_user_error(self, workspace):
        assert run(workspace, "ingest", "--archives", str(workspace / "absent")) == 1

    def test_truncated_archive_names_file_and_offset(self, workspace, caplog):
        data = ("\n".join(FIXTURE_LINES[:3]) + "\n").encode()
        truncated = workspace / "archives" / "2016-12-02-00.json.gz"
        truncated.write_bytes(gzip.compress(data)[:-8])  # no CRC / size trailer
        assert run(workspace, "ingest") == 1
        assert (
            f"error: {truncated}: at decompressed byte {len(data)}: decompression failed: "
            "Compressed file ended before the end-of-stream marker was reached"
        ) in caplog.text

    def test_corrupt_deflate_data_names_file_and_offset(self, workspace, caplog):
        corrupt = bytearray(gzip.compress(("\n".join(FIXTURE_LINES[:3]) + "\n").encode()))
        corrupt[10] = 0xFF  # the first deflate block: final, of the reserved type 3
        path = workspace / "archives" / "2016-12-02-00.json.gz"
        path.write_bytes(corrupt)
        assert run(workspace, "ingest") == 1
        assert (
            f"error: {path}: at decompressed byte 0: decompression failed: "
            "Error -3 while decompressing data: invalid block type"
        ) in caplog.text

    def test_failed_archive_leaves_report_of_those_stored(self, workspace, caplog):
        truncated = workspace / "archives" / "2016-12-02-00.json.gz"
        truncated.write_bytes(gzip.compress(("\n".join(FIXTURE_LINES[:3]) + "\n").encode())[:-8])
        assert run(workspace, "ingest") == 1
        assert f"error: {truncated}: " in caplog.text
        report = json.loads((workspace / "out" / "ingest_report.json").read_text())
        assert [entry["file"] for entry in report["files"]] == ["2016-12-01-12.json.gz"]
        store = EventStore(workspace / "out" / "store")
        held = sum(len(store.read(repo_id)) for repo_id in store.iter_repo_ids())
        assert report["stored_events"] == held == 12

    @staticmethod
    def _parsed(monkeypatch):
        """Names of the archives ``ingest`` parses from here on."""
        names, parse = [], cli.parse_archive_file

        def spied(path, *args):
            names.append(Path(path).name)
            return parse(path, *args)

        monkeypatch.setattr(cli, "parse_archive_file", spied)
        return names

    def test_reingest_from_ledger_writes_the_report_of_a_reparse(self, workspace, monkeypatch):
        # an archive holding one event twice counts a duplicate in its own first ingest
        with gzip.open(workspace / "archives" / "2016-12-02-00.json.gz", "wt") as handle:
            handle.write("\n".join([_extra_repo_line("zoe", "2016-12-02T09:00:00Z")] * 2) + "\n")
        assert run(workspace, "ingest") == 0
        report = workspace / "out" / "ingest_report.json"

        def refuse(*args, **kwargs):
            raise AssertionError("an archive in the ledger was parsed or appended")

        with monkeypatch.context() as patched:
            patched.setattr(cli, "parse_archive_file", refuse)
            patched.setattr(EventStore, "append", refuse)
            assert run(workspace, "ingest") == 0
        from_ledger = report.read_bytes()
        (workspace / "out" / "store" / store_module.LEDGER).unlink()
        assert run(workspace, "ingest") == 0
        assert report.read_bytes() == from_ledger
        assert [(f["parsed"], f["stored"], f["duplicates_skipped"]) for f in json.loads(from_ledger)["files"]] == [
            (12, 0, 12),
            (2, 0, 2),
        ]

    def test_one_archive_under_two_names_is_all_duplicates_the_second_time(self, workspace, monkeypatch):
        archives = workspace / "archives"
        (archives / "2016-12-01-13.json.gz").write_bytes((archives / "2016-12-01-12.json.gz").read_bytes())
        parsed = self._parsed(monkeypatch)
        assert run(workspace, "ingest") == 0
        assert parsed == ["2016-12-01-12.json.gz"]
        first, second = json.loads((workspace / "out" / "ingest_report.json").read_text())["files"]
        assert (first["stored"], first["duplicates_skipped"]) == (12, 0)
        assert second == {**first, "file": "2016-12-01-13.json.gz", "stored": 0, "duplicates_skipped": 12}

    def test_new_bytes_under_an_old_name_are_parsed(self, workspace, monkeypatch):
        assert run(workspace, "ingest") == 0
        archive = workspace / "archives" / "2016-12-01-12.json.gz"
        with gzip.open(archive, "at") as handle:  # a second gzip member
            handle.write(_extra_repo_line("xavier", "2016-12-06T09:00:00Z") + "\n")
        parsed = self._parsed(monkeypatch)
        assert run(workspace, "ingest") == 0
        assert parsed == [archive.name]
        (entry,) = json.loads((workspace / "out" / "ingest_report.json").read_text())["files"]
        assert (entry["parsed"], entry["stored"], entry["duplicates_skipped"]) == (13, 1, 12)
        assert "xavier" in {e.actor for e in EventStore(workspace / "out" / "store").read("ethereum/go-ethereum")}


class TestMetrics:
    def _rows(self, workspace):
        run(workspace, "ingest")
        assert run(workspace, "metrics") == 0
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            return {row["repo_id"]: row for row in csv.DictReader(handle)}

    def test_fixture_row_values(self, workspace):
        rows = self._rows(workspace)
        btc = rows["bitcoin/bitcoin"]
        assert int(btc["stars"]) == 3
        assert int(btc["forks"]) == 2
        assert int(btc["mentions"]) == 40  # taken from the ranks file
        assert int(btc["cmc_rank"]) == 1
        assert btc["as_of"] == "2017-01-01T00:00:00Z"
        assert set(rows) == {"bitcoin/bitcoin", "ethereum/go-ethereum"}

    def test_mentions_fall_back_to_push_corpus(self, workspace):
        (workspace / "ranks.csv").write_text(
            "repo_id,cmc_rank,alexa_rank\nbitcoin/bitcoin,1,900\nethereum/go-ethereum,2,1100\n"
        )
        rows = self._rows(workspace)
        # the three fixture commit messages contain the whole token twice
        assert int(rows["bitcoin/bitcoin"]["mentions"]) == 2

    def test_audit_sidecar_written(self, workspace):
        self._rows(workspace)
        lines = (workspace / "out" / "metrics_audit.jsonl").read_text().splitlines()
        head = json.loads(lines[0])
        assert head["kind"] == "exclusions"
        assert head["retained"] == 2
        assert head["not_listed"] == 1
        assert head["foreign_host"] == 1

    def test_audit_sidecar_records_imputed_cells(self, workspace):
        def imputed(alexa_ranks):
            (workspace / "ranks.csv").write_text(
                "repo_id,cmc_rank,alexa_rank,mentions\n"
                f"bitcoin/bitcoin,1,{alexa_ranks[0]},40\n"
                f"ethereum/go-ethereum,2,{alexa_ranks[1]},25\n"
            )
            self._rows(workspace)
            lines = (workspace / "out" / "metrics_audit.jsonl").read_text().splitlines()
            return [json.loads(line) for line in lines[1:]]

        assert imputed(["", "1100"]) == [
            {"kind": "imputed", "column": "alexa_rank", "row": "bitcoin/bitcoin"}
        ]
        # a column with no value at all has nothing to impute from; efa reports it
        assert imputed(["", ""]) == []

    def _with_bitcoin_source(self, workspace, location):
        path = workspace / "projects.csv"
        text = path.read_text()
        path.write_text(text.replace("https://github.com/bitcoin,", f"{location},", 1))

    @pytest.mark.parametrize("location", [
        "github.com/bitcoin",
        "www.github.com/bitcoin/bitcoin",
        "http://GitHub.com/Bitcoin/",
        "https://github.com/bitcoin",
        "git@github.com:bitcoin/bitcoin.git",
        "github.com:443/bitcoin",
        "https://github.com:443/bitcoin",
        "ssh://git@github.com/bitcoin/bitcoin",
    ])
    def test_source_location_forms_resolve(self, workspace, location):
        self._with_bitcoin_source(workspace, location)
        assert set(self._rows(workspace)) == {"bitcoin/bitcoin", "ethereum/go-ethereum"}

    def test_foreign_host_reads_none_of_its_owners_repositories(self, workspace, monkeypatch):
        # the Foreign project's owner also has a repository on GitHub
        with gzip.open(workspace / "archives" / "2016-12-05-09.json.gz", "wt") as handle:
            handle.write(_extra_repo_line("quinn", "2016-12-05T09:00:00Z", repo="foreign/node") + "\n")
        run(workspace, "ingest")
        reads, read = [], EventStore.read

        def spied_read(self, repo_id):
            reads.append(repo_id)
            return read(self, repo_id)

        monkeypatch.setattr(EventStore, "read", spied_read)
        assert run(workspace, "metrics") == 0
        assert "foreign/node" not in reads
        assert sorted(set(reads)) == ["bitcoin/bitcoin", "ethereum/go-ethereum"]

    def test_overrides_redirect_a_project(self, workspace):
        self._corpus_only_push(workspace, "2016-12-10T09:00:00Z")
        overrides = workspace / "overrides.txt"
        overrides.write_text("# manual fix\nBitcoin = someone/else\n")
        run(workspace, "ingest")
        assert run(workspace, "metrics", "--overrides", str(overrides)) == 0
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            rows = {row["repo_id"]: row for row in csv.DictReader(handle)}
        assert set(rows) == {"someone/else", "ethereum/go-ethereum"}
        assert int(rows["someone/else"]["cmc_rank"]) == 1  # the project's, as the ranks file has no row

    def test_repeated_override_names_both_lines(self, workspace, caplog):
        overrides = workspace / "overrides.txt"
        overrides.write_text("Bitcoin = bitcoin/bitcoin\n\nBitcoin = someone/else\n")
        run(workspace, "ingest")
        assert run(workspace, "metrics", "--overrides", str(overrides)) == 1
        assert "error: overrides lines 1 and 3: 'Bitcoin' given twice" in caplog.text
        assert not (workspace / "out" / "metrics.csv").exists()

    def test_missing_ranks_file_named(self, workspace, caplog):
        run(workspace, "ingest")
        missing = workspace / "no-such-ranks.csv"
        assert run(workspace, "metrics", "--ranks", str(missing)) == 1
        assert "no-such-ranks.csv" in caplog.text

    def test_ranks_without_cmc_rank_column_names_it(self, workspace, caplog):
        run(workspace, "ingest")
        (workspace / "ranks.csv").write_text("repo_id,alexa_rank\nbitcoin/bitcoin,900\n")
        assert run(workspace, "metrics") == 1
        assert f"{workspace / 'ranks.csv'}, line 1: no 'cmc_rank' column" in caplog.text

    def test_ranks_without_alexa_rank_column_keep_the_project_lists(self, workspace):
        (workspace / "ranks.csv").write_text("repo_id,cmc_rank,mentions\nbitcoin/bitcoin,1,40\n")
        rows = self._rows(workspace)
        assert [rows[r]["alexa_rank"] for r in ("bitcoin/bitcoin", "ethereum/go-ethereum")] == ["900", "1100"]

    @pytest.mark.parametrize("row, column, cell", [
        ("ethereum/go-ethereum,second,1100,25", "cmc_rank", "'second'"),
        ("ethereum/go-ethereum,2,1100,many", "mentions", "'many'"),
        ("ethereum/go-ethereum", "cmc_rank", None),  # a short row
    ])
    def test_ranks_cell_not_an_integer_names_line_and_column(self, workspace, caplog, row, column, cell):
        run(workspace, "ingest")
        (workspace / "ranks.csv").write_text(
            f"repo_id,cmc_rank,alexa_rank,mentions\nbitcoin/bitcoin,1,900,40\n{row}\n"
        )
        assert run(workspace, "metrics") == 1
        fault = f"{cell} is not an integer" if cell else "no cell"
        assert f"{workspace / 'ranks.csv'}, line 3, column '{column}': {fault}" in caplog.text

    def test_duplicate_ranks_row_names_both_lines(self, workspace, caplog):
        run(workspace, "ingest")
        (workspace / "ranks.csv").write_text(
            "repo_id,cmc_rank,alexa_rank,mentions\n"
            "bitcoin/bitcoin,1,900,40\n"
            "ethereum/go-ethereum,2,1100,25\n"
            "bitcoin/bitcoin,1,900,41\n"
        )
        assert run(workspace, "metrics") == 1
        assert f"{workspace / 'ranks.csv'}, lines 2 and 4: repo_id 'bitcoin/bitcoin' given twice" in caplog.text
        assert not (workspace / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("line", [
        "commit_frequncy = 1, 1000",
        "commit_frequency = nan, 1000",
        "recent_activity = 1, inf",
        "recent_activity = 1, 0",
        "recent_activity = 1 26",
    ])
    def test_bad_criticality_config_exits_one_before_the_store(self, workspace, caplog, monkeypatch, line):
        crit = workspace / "criticality.cfg"
        crit.write_text(f"contributor_count = 2, 5000\n{line}\n")
        monkeypatch.setattr(cli, "EventStore", lambda *args: pytest.fail("store opened"))
        assert run(workspace, "metrics", "--criticality-config", str(crit)) == 1
        assert f"criticality config line 2: {line!r}" in caplog.text
        assert not (workspace / "out" / "metrics.csv").exists()

    def test_default_criticality_config_changes_nothing(self, workspace):
        self._rows(workspace)
        first = (workspace / "out" / "metrics.csv").read_bytes()
        crit = workspace / "criticality.cfg"
        crit.write_text("".join(
            f"{name} = {weight}, {threshold}\n"
            for name, (weight, threshold) in metrics.DEFAULT_CRITICALITY_CONFIG.items()
        ))
        assert run(workspace, "metrics", "--criticality-config", str(crit)) == 0
        assert (workspace / "out" / "metrics.csv").read_bytes() == first

    def test_rerun_is_byte_identical(self, workspace):
        self._rows(workspace)
        first = (workspace / "out" / "metrics.csv").read_bytes()
        run(workspace, "metrics")
        assert (workspace / "out" / "metrics.csv").read_bytes() == first

    def test_events_after_as_of_are_ignored(self, workspace):
        self._rows(workspace)
        before = (workspace / "out" / "metrics.csv").read_bytes()
        late = [
            _extra_repo_line(
                "yann",
                "2017-01-05T09:00:00Z",
                event_type="PushEvent",
                payload={"commits": [{"message": "late fix"}]},
            ),
            _extra_repo_line("zack", "2017-01-06T09:00:00Z"),
        ]
        with gzip.open(workspace / "archives" / "2017-01-05-9.json.gz", "wt") as handle:
            handle.write("\n".join(late) + "\n")
        assert self._rows(workspace)
        assert (workspace / "out" / "metrics.csv").read_bytes() == before

    def test_no_timezone_data_in_window(self, workspace):
        run(workspace, "ingest")
        # every fixture event is older than six months at this as_of
        assert run(workspace, "metrics", "--as-of", "2017-08-01T00:00:00Z") == 0
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert {float(row["geo_rmse"]) for row in rows} == {0.0}

    def test_no_retained_project_names_exclusions(self, workspace):
        run(workspace, "ingest")
        (workspace / "projects.csv").write_text(
            "name,symbol,cmc_rank,website,source_location,alexa_rank\n"
            "Shadow,SHD,3,https://shadow.example,,\n"
            "Foreign,FRN,4,https://foreign.example,https://gitlab.com/foreign/node,\n"
        )
        config = load_config(str(workspace / "run.cfg"), {})
        with pytest.raises(UserError, match="not_listed 1, foreign_host 1"):
            cli.cmd_metrics(config)

    @staticmethod
    def _corpus_only_push(workspace, created, message="bitcoin fork"):
        """Archive one push to ``someone/else``, a repository no listed project owns."""
        line = _extra_repo_line(
            "quinn", created, "PushEvent", {"commits": [{"message": message}]}, repo="someone/else"
        )
        name = created[:13].replace("T", "-") + ".json.gz"
        with gzip.open(workspace / "archives" / name, "wt") as handle:
            handle.write(line + "\n")

    @pytest.mark.parametrize("supplied", [True, False])
    def test_one_pass_over_the_store(self, workspace, monkeypatch, supplied):
        self._corpus_only_push(workspace, "2016-12-10T09:00:00Z")
        if not supplied:
            (workspace / "ranks.csv").write_text("repo_id,cmc_rank,alexa_rank\n")
        run(workspace, "ingest")
        store_dir = workspace / "out" / "store"
        opened, lists = [], []
        partition_fields, iter_repo_ids = store_module._partition_fields, EventStore.iter_repo_ids

        def counted_fields(path, *args, **kwargs):
            opened.append(Path(path).relative_to(store_dir).as_posix())
            return partition_fields(path, *args, **kwargs)

        def counted_iter(self):
            lists.append(1)
            return iter_repo_ids(self)

        monkeypatch.setattr(store_module, "_partition_fields", counted_fields)
        monkeypatch.setattr(EventStore, "iter_repo_ids", counted_iter)
        assert run(workspace, "metrics") == 0
        assert len(lists) == 1
        # the push-text log covers the store, so counted mentions decode no
        # partition: counted and supplied mentions open the listed owners' only
        listed_owners = {"bitcoin__bitcoin", "ethereum__go-ethereum"}
        stored = [p.relative_to(store_dir).as_posix() for p in store_dir.glob("*/*.events")]
        assert sorted(opened) == sorted(p for p in stored if p.split("/", 1)[0] in listed_owners)

    def test_each_timezone_histogram_computed_once(self, workspace, monkeypatch):
        run(workspace, "ingest")
        clean = self._metrics_outputs(workspace)
        calls, timezone_histogram = [], metrics.timezone_histogram

        def counted(events, window):
            calls.append(window)
            return timezone_histogram(events, window)

        monkeypatch.setattr(metrics, "timezone_histogram", counted)
        assert self._metrics_outputs(workspace) == clean
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            assert len(calls) == len(list(csv.DictReader(handle)))  # one per retained project

    @pytest.mark.parametrize(
        "corrupt", ["torn_tail", "not_json", "unknown_event_type", "tz_offset_out_of_range"]
    )
    def test_corrupt_corpus_record_fails_counted_mentions(self, workspace, caplog, corrupt):
        self._corpus_only_push(workspace, "2016-12-10T09:00:00Z")
        run(workspace, "ingest")
        store_dir = workspace / "out" / "store"
        path = store_dir / "someone__else" / "2016-12.events"
        offset = path.stat().st_size
        doc = json.loads(store_module._record_to_json(EventStore(store_dir).read("someone/else")[0]))
        if corrupt == "unknown_event_type":
            doc["event_type"] = "Bogus"
        elif corrupt == "tz_offset_out_of_range":
            doc["tz_offset"] = 841
        body = b"{oops" if corrupt == "not_json" else json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        frame = len(body).to_bytes(4, "big") + body
        with open(path, "ab") as handle:
            handle.write(frame[:14] if corrupt == "torn_tail" else frame)
        with pytest.raises(StoreError) as expected:
            EventStore(store_dir).read("someone/else")
        where = "torn tail after byte" if corrupt == "torn_tail" else "record at byte"
        assert str(expected.value).startswith(f"{path}: {where} {offset}")

        assert run(workspace, "metrics") == 0  # supplied mentions never read the corpus
        caplog.clear()
        (workspace / "ranks.csv").write_text("repo_id,cmc_rank,alexa_rank\n")
        assert run(workspace, "metrics") == 1
        assert f"error: {expected.value}" in caplog.text

    def test_corpus_push_at_as_of_not_counted(self, workspace, caplog):
        caplog.set_level(logging.INFO, logger="oss_health")
        (workspace / "ranks.csv").write_text("repo_id,cmc_rank,alexa_rank\n")
        self._corpus_only_push(workspace, "2016-12-31T23:59:59Z")
        self._corpus_only_push(workspace, "2017-01-01T00:00:00Z")  # the configured as_of
        # two fixture pushes mention the whole token; the corpus-only push a second early adds one
        assert int(self._rows(workspace)["bitcoin/bitcoin"]["mentions"]) == 3
        # the log holds the push at as_of, and leaves it out as the decode does
        assert "from the push-text log, 0 partitions decoded" in caplog.text
        logged = self._metrics_outputs(workspace)
        shutil.rmtree(workspace / "out" / "store" / "corpus")
        assert self._metrics_outputs(workspace) == logged
        # a derived as_of is one second after the latest stored event, so that push counts too
        assert run(workspace, "metrics", "--as-of", "") == 0
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            rows = {row["repo_id"]: row for row in csv.DictReader(handle)}
        assert rows["bitcoin/bitcoin"]["as_of"] == "2017-01-01T00:00:01Z"
        assert int(rows["bitcoin/bitcoin"]["mentions"]) == 4

    @staticmethod
    def _metrics_outputs(workspace, out=None):
        """The bytes of metrics.csv and its sidecar from a metrics run on the store under ``out``."""
        out = out or workspace / "out"
        assert run(workspace, "metrics", "--out", str(out)) == 0
        return [(out / name).read_bytes() for name in ("metrics.csv", "metrics_audit.jsonl")]

    def _clean_outputs(self, workspace):
        """``_metrics_outputs`` of a fresh store ingested from the archives in one uninterrupted run."""
        clean = workspace / "clean"
        assert run(workspace, "ingest", "--out", str(clean)) == 0
        return self._metrics_outputs(workspace, clean)

    @staticmethod
    def _decoded(caplog) -> int:
        """The number of partitions the last metrics run logged it decoded to count mentions."""
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("mentions: ")]
        return int(lines[-1].split(", ")[1].split()[0])

    @pytest.fixture
    def counted(self, workspace, caplog):
        """The workspace with the mentions counted and one push to a repository no project owns."""
        caplog.set_level(logging.INFO, logger="oss_health")
        (workspace / "ranks.csv").write_text("repo_id,cmc_rank,alexa_rank\n")
        self._corpus_only_push(workspace, "2016-12-10T09:00:00Z")
        return workspace

    def test_push_counted_when_its_log_write_fails(self, counted, monkeypatch, caplog):
        append_cut = store_module._append_cut

        def fail_on_corpus_push(path, cut, magic, data):
            if magic == CORPUS_MAGIC and b"someone__else" in data:
                raise OSError("disk full")
            append_cut(path, cut, magic, data)

        monkeypatch.setattr(store_module, "_append_cut", fail_on_corpus_push)
        assert run(counted, "ingest") == 1
        assert f"{counted / 'out' / 'store' / 'corpus' / '2016-12.texts'} failed: disk full" in caplog.text
        monkeypatch.undo()
        outputs = self._metrics_outputs(counted)
        assert self._decoded(caplog) == 1  # the partition written before the failed log write
        assert outputs == self._clean_outputs(counted)
        assert self._decoded(caplog) == 0

    def test_torn_append_counted_once_after_reingest(self, counted, monkeypatch, caplog):
        assert run(counted, "ingest") == 0
        lines = [
            _extra_repo_line(
                "quinn", created, "PushEvent", {"commits": [{"message": "bitcoin"}]}, repo="someone/else"
            )
            for created in ("2016-12-11T09:00:00Z", "2016-12-11T09:30:00Z")
        ]
        with gzip.open(counted / "archives" / "2016-12-11-09.json.gz", "wt") as handle:
            handle.write("\n".join(lines) + "\n")
        # an ingest cut off inside its second record, before its log write
        append_cut = store_module._append_cut

        def cut_off(path, cut, magic, data):
            if magic == CORPUS_MAGIC:
                raise OSError("interrupted")
            append_cut(path, cut, magic, data)

        monkeypatch.setattr(store_module, "_append_cut", cut_off)
        assert run(counted, "ingest") == 1
        monkeypatch.undo()
        path = counted / "out" / "store" / "someone__else" / "2016-12.events"
        path.write_bytes(path.read_bytes()[:-5])
        assert run(counted, "ingest") == 0  # keeps the first record, appends the second again
        outputs = self._metrics_outputs(counted)
        assert self._decoded(caplog) == 1
        with open(counted / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            rows = {row["repo_id"]: row for row in csv.DictReader(handle)}
        assert int(rows["bitcoin/bitcoin"]["mentions"]) == 5  # 2 fixture pushes and 3 corpus-only ones
        assert outputs == self._clean_outputs(counted)

    def test_metrics_without_the_log_identical(self, counted, caplog):
        assert run(counted, "ingest") == 0
        logged = self._metrics_outputs(counted)
        assert self._decoded(caplog) == 0
        shutil.rmtree(counted / "out" / "store" / "corpus")  # a store older than the log
        assert self._metrics_outputs(counted) == logged
        assert self._decoded(caplog) == len(list((counted / "out" / "store").glob("*/*.events")))

    def test_reingest_without_ledger_does_not_double(self, counted):
        assert run(counted, "ingest") == 0
        corpus = counted / "out" / "store" / "corpus"
        logged = self._metrics_outputs(counted), sorted(p.read_bytes() for p in corpus.iterdir())
        (counted / "out" / "store" / LEDGER).unlink()
        assert run(counted, "ingest") == 0  # every event a duplicate: nothing appended
        assert (self._metrics_outputs(counted), sorted(p.read_bytes() for p in corpus.iterdir())) == logged

    def test_torn_log_tail_ignored_then_cut(self, counted, caplog):
        assert run(counted, "ingest") == 0
        log_path = counted / "out" / "store" / "corpus" / "2016-12.texts"
        intact = log_path.read_bytes()
        logged = self._metrics_outputs(counted)
        with open(log_path, "ab") as handle:
            handle.write((100).to_bytes(4, "big") + b'{"end":')
        assert self._metrics_outputs(counted) == logged
        assert self._decoded(caplog) == 0
        self._corpus_only_push(counted, "2016-12-12T09:00:00Z")
        assert run(counted, "ingest") == 0
        data = log_path.read_bytes()
        assert data.startswith(intact)
        assert store_module._frames(log_path, data, CORPUS_MAGIC)[1] == len(data) > len(intact)
        self._metrics_outputs(counted)
        assert self._decoded(caplog) == 0
        assert self._metrics_outputs(counted) == self._clean_outputs(counted)

    @pytest.mark.parametrize(
        "body",
        [
            _log_body(tail=b"{oops"),
            struct.pack(">II", 1000, 0) + b"[[],[]]",
            _log_body(numbers=(8, 8, 1, 1)),
            _log_body(numbers=(4, 90, 1, 1)),
            _log_body(numbers=(8, 90, 2, 1)),
            _log_body(tail=b'[["someone__else"],[2]]'),
            _log_body(tail=b'["someone__else",["bitcoin"]]'),
        ],
        ids=["not_json", "counts_pass_the_end", "empty_range", "range_in_magic_header", "count_mismatch",
             "text_not_a_string", "names_not_a_list"],
    )
    def test_malformed_log_frame_fails_counted_mentions(self, counted, caplog, body):
        assert run(counted, "ingest") == 0
        log_path = counted / "out" / "store" / "corpus" / "2016-12.texts"
        offset = log_path.stat().st_size
        with open(log_path, "ab") as handle:
            handle.write(len(body).to_bytes(4, "big") + body)
        caplog.clear()
        assert run(counted, "metrics") == 1
        assert f"error: {log_path}: frame at byte {offset}: " in caplog.text

    def test_log_bytes_independent_of_hash_seed(self, counted):
        for created in ("2016-11-20T09:00:00Z", "2017-01-02T09:00:00Z"):
            self._corpus_only_push(counted, created, "zcash")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        logs = []
        for seed in ("1", "2"):
            out = counted / f"out-{seed}"
            result = subprocess.run(
                [sys.executable, "-m", "oss_health.cli", "ingest",
                 "--archives", str(counted / "archives"), "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            logs.append({p.name: p.read_bytes() for p in (out / "store" / "corpus").glob("*.texts")})
        assert sorted(logs[0]) == ["2016-11.texts", "2016-12.texts", "2017-01.texts"]
        assert logs[0] == logs[1]

    def test_derived_as_of_reads_only_the_latest_month(self, workspace, monkeypatch):
        other = json.dumps(
            {
                "type": "WatchEvent",
                "repo": {"name": "someone/else"},
                "actor": {"login": "quinn"},
                "created_at": "2017-01-02T09:00:00Z",
                "payload": {},
            }
        )
        late = [other, _extra_repo_line("zack", "2017-01-06T09:00:00Z")]
        with gzip.open(workspace / "archives" / "2017-01-06-9.json.gz", "wt") as handle:
            handle.write("\n".join(late) + "\n")
        run(workspace, "ingest")
        store_dir = workspace / "out" / "store"
        # a later month whose only partition holds no record: the month below decides
        (store_dir / "bitcoin__bitcoin" / "2017-02.events").write_bytes(MAGIC)
        reads = []
        partition_fields = store_module._partition_fields

        def counted_read(path, *args, **kwargs):
            reads.append(Path(path).relative_to(store_dir).as_posix())
            return partition_fields(path, *args, **kwargs)

        monkeypatch.setattr(store_module, "_partition_fields", counted_read)
        assert run(workspace, "metrics", "--as-of", "") == 0
        stage = [
            p.relative_to(store_dir).as_posix()
            for owner in ("bitcoin", "ethereum")
            for p in store_dir.glob(f"{owner}__*/*.events")
        ]
        latest = [
            "bitcoin__bitcoin/2017-02.events",
            "ethereum__go-ethereum/2017-01.events",
            "someone__else/2017-01.events",
        ]
        assert sorted(reads) == sorted(stage + latest)
        with open(workspace / "out" / "metrics.csv", newline="", encoding="utf-8") as handle:
            assert {row["as_of"] for row in csv.DictReader(handle)} == {"2017-01-06T09:00:01Z"}

    def test_derived_as_of_is_one_second_after_the_last_event(self, workspace):
        last = "2017-01-03T09:00:00Z"
        push = _extra_repo_line("yann", last, "PushEvent", {"size": 5, "commits": []}, repo="bitcoin/bitcoin")
        with gzip.open(workspace / "archives" / "2017-01-03-9.json.gz", "wt") as handle:
            handle.write(push + "\n")
        run(workspace, "ingest")
        epoch = int(datetime.fromisoformat(last.replace("Z", "+00:00")).timestamp())
        outputs = []
        for as_of in ("", str(epoch + 1), str(epoch)):
            assert run(workspace, "metrics", "--as-of", as_of) == 0
            outputs.append([(workspace / "out" / name).read_bytes() for name in ("metrics.csv", "metrics_audit.jsonl")])
        derived, after_last, at_last = outputs
        assert derived == after_last
        assert derived != at_last  # the last push counts in the windowed metrics

    def test_derived_as_of_on_empty_store_is_user_error(self, workspace, caplog):
        (workspace / "out" / "store").mkdir(parents=True)
        assert run(workspace, "metrics", "--as-of", "") == 1
        assert "event store is empty and no as_of timestamp configured" in caplog.text


class TestEfa:
    def test_report_written(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "efa") == 0
        report = json.loads((workspace / "out" / "efa_report.json").read_text())
        block = report["full"]
        assert block["n"] == 250
        assert block["converged"]
        assert len(block["loadings"]) == len(block["columns"])
        assert (workspace / "out" / "efa_report.txt").is_file()

    def test_factor_override(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "efa", "--factors", "2") == 0
        report = json.loads((workspace / "out" / "efa_report.json").read_text())
        assert report["full"]["factors"] == 2

    def test_cross_validation_blocks(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert cli.main(
            ["efa", "--config", str(workspace / "run.cfg"), "--cross-validate"]
        ) == 0
        report = json.loads((workspace / "out" / "efa_report.json").read_text())
        assert report["train"]["n"] + report["test"]["n"] == 250
        assert isinstance(report["structure_equivalent"], bool)

    def test_optimiser_diagnostics_in_every_block(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "efa", "--cross-validate") == 0
        report = json.loads((workspace / "out" / "efa_report.json").read_text())
        for name in ("full", "train", "test"):
            block = report[name]
            assert isinstance(block["iterations"], int) and block["iterations"] >= 1
            assert set(block["floored"]) <= set(block["columns"])
            gradient = block["max_abs_gradient"]
            assert isinstance(gradient, float) and math.isfinite(gradient)
            if block["converged"]:
                assert gradient <= 1e-6

    def test_halves_parallel_analysis_equals_one_block_calls(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "efa", "--cross-validate", "--seed", "5") == 0
        report = json.loads((workspace / "out" / "efa_report.json").read_text())
        config = load_config(str(workspace / "run.cfg"), {})
        matrix = cli._prepared_matrix(workspace / "out" / "metrics.csv")
        halves = dataset.split(matrix, config.split_fraction, 5)
        for name, half in zip(("train", "test"), halves):
            pa = factor.parallel_analysis(
                [(factor.correlation_matrix(half.values), len(half.row_labels))], seed=5
            )[0]
            block = report[name]["parallel_analysis"]
            assert block["observed_eigenvalues"] == pa.observed_eigenvalues.tolist()
            assert block["simulated_mean_eigenvalues"] == pa.simulated_mean_eigenvalues.tolist()
            assert (
                block["simulated_quantile_eigenvalues"] == pa.simulated_quantile_eigenvalues.tolist()
            )
            assert block["suggested_factors"] == pa.suggested_factors

    def test_one_noise_draw_per_cross_validated_run(self, workspace, monkeypatch):
        spawned, child_generators = [], []
        default_rng = np.random.default_rng

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        def counting_default_rng(seed=None):
            if isinstance(seed, np.random.SeedSequence):
                child_generators.append(seed)
            return default_rng(seed)

        write_synthetic_metrics(workspace / "out")
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        assert run(workspace, "efa", "--cross-validate") == 0
        assert spawned == [factor.PA_SIMULATIONS]
        assert len(child_generators) == factor.PA_SIMULATIONS

    def test_csv_column_order_does_not_matter(self, workspace):
        out = workspace / "out"
        write_synthetic_metrics(out)
        expected = cli._prepared_matrix(out / "metrics.csv")
        with open(out / "metrics.csv", newline="", encoding="utf-8") as handle:
            header, *rows = list(csv.reader(handle))
        order = list(reversed(range(len(header))))
        with open(out / "metrics.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["as_of", *(header[i] for i in order)])
            writer.writerows(["2017-01-01T00:00:00Z", *(row[i] for i in order)] for row in rows)
        matrix = cli._prepared_matrix(out / "metrics.csv")
        assert matrix.row_labels == expected.row_labels
        assert matrix.column_names == expected.column_names
        assert np.array_equal(matrix.values, expected.values)

    def test_missing_repo_id_column_is_user_error(self, workspace, caplog):
        out = workspace / "out"
        out.mkdir()
        (out / "metrics.csv").write_text(
            "stars,forks,mentions\n" + "".join(f"{i % 3},{i},{i * i}\n" for i in range(10))
        )
        assert run(workspace, "efa") == 1
        assert "repo_id" in caplog.text

    def test_constant_column_is_user_error(self, workspace, caplog):
        out = workspace / "out"
        out.mkdir()
        (out / "metrics.csv").write_text(
            "repo_id,stars,forks,mentions\n"
            + "".join(f"r{i},5,{i},{i * i}\n" for i in range(10))
        )
        assert run(workspace, "efa") == 1
        assert "stars" in caplog.text

    def test_missing_metrics_is_user_error(self, workspace, caplog):
        assert run(workspace, "efa") == 1
        assert f"metrics file not found: {workspace / 'out' / 'metrics.csv'}" in caplog.text

    @pytest.mark.parametrize("row, column, message", [
        ("r9,2,9", "mentions", "no cell"),
        ("r9,x,9,81", "stars", "'x' is not a finite number"),
        ("r9,2,inf,81", "forks", "'inf' is not a finite number"),
        ("r9,2,9,nan", "mentions", "'nan' is not a finite number"),
    ])
    def test_bad_metrics_cell_names_line_and_column(self, workspace, caplog, row, column, message):
        out = workspace / "out"
        out.mkdir()
        (out / "metrics.csv").write_text(
            "repo_id,stars,forks,mentions\n"
            + "".join(f"r{i},{i % 3},{i},{i * i}\n" for i in range(9))
            + row + "\n"
        )
        assert run(workspace, "efa") == 1
        assert f"{out / 'metrics.csv'}, line 11, column '{column}': {message}" in caplog.text

    def test_warm_reliability_omega_equals_a_cold_fit(self):
        # each factor's one-factor fit runs on the block's own R from the
        # m-factor uniquenesses; the reference refits its members' data cold
        chol = np.linalg.cholesky(efa_population_correlation())
        config = PipelineConfig(factors="2")
        compared = 0
        for seed in range(20):
            X = np.random.default_rng(seed).standard_normal((384, 9)) @ chol.T
            matrix = dataset.MetricMatrix([f"r{i}" for i in range(384)], list(EFA_VARIABLE_NAMES), X)
            R = factor.correlation_matrix(X)
            block = cli._efa_block(matrix, R, factor.parallel_analysis([(R, 384)])[0], config)
            for j, members in block["assignment"].items():
                if len(members) >= 2:
                    sub = matrix.select(members).values
                    cold, _ = factor.efa_ml(factor.correlation_matrix(sub), n=384, m=1)
                    omega = factor.mcdonald_omega(cold.loadings[:, 0], cold.uniquenesses)
                    assert abs(block["reliability"][j]["omega"] - omega) <= 1e-7, (seed, j)
                    assert block["reliability"][j]["alpha"] == factor.cronbach_alpha(sub)
                    compared += 1
        assert compared == 40

    def test_rerun_is_byte_identical(self, workspace):
        write_synthetic_metrics(workspace / "out")
        run(workspace, "efa")
        first = (workspace / "out" / "efa_report.json").read_bytes()
        run(workspace, "efa")
        assert (workspace / "out" / "efa_report.json").read_bytes() == first


class TestSem:
    def test_fit_report_written(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "sem", "--model", MODEL_FILE) == 0
        report = json.loads((workspace / "out" / "sem_report.json").read_text())
        assert report["converged"]
        assert report["n"] == 250
        assert "Engagement~Interest" in report["estimates"]
        assert (workspace / "out" / "sem_report.txt").is_file()

    def test_comparison_block(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert (
            cli.main(
                [
                    "sem",
                    "--config",
                    str(workspace / "run.cfg"),
                    "--model",
                    MODEL_FILE,
                    "--compare",
                    REDUCED_MODEL_FILE,
                ]
            )
            == 0
        )
        report = json.loads((workspace / "out" / "sem_report.json").read_text())
        assert report["comparison"]["delta_df"] == -1
        assert report["comparison"]["other_model_file"] == "health_reduced.sem"

    def test_optimiser_diagnostics_for_both_fits(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "sem", "--model", MODEL_FILE, "--compare", REDUCED_MODEL_FILE) == 0
        report = json.loads((workspace / "out" / "sem_report.json").read_text())
        for block in (report, report["comparison"]):
            assert block["converged"]
            assert isinstance(block["iterations"], int)
            assert 1 <= block["iterations"] < block["evaluations"]
            assert 0.0 <= block["max_abs_gradient"] <= 1e-6
        # the reduced model is nested in the full one
        assert 0.0 <= report["fmin"] <= report["comparison"]["fmin"]

    def test_comparison_fitted_in_its_own_indicator_order(self, workspace, tmp_path):
        write_synthetic_metrics(workspace / "out")
        lines = Path(REDUCED_MODEL_FILE).read_text(encoding="utf-8").splitlines()
        interest, robustness, engagement = [line for line in lines if "=~" in line]
        reordered = tmp_path / "reordered.sem"
        reordered.write_text(
            "\n".join([engagement, interest, robustness] + [l for l in lines if "=~" not in l])
        )
        blocks = []
        for other in (REDUCED_MODEL_FILE, str(reordered)):
            assert run(workspace, "sem", "--model", MODEL_FILE, "--compare", other) == 0
            report = json.loads((workspace / "out" / "sem_report.json").read_text())
            blocks.append(report["comparison"])
        reference, shuffled = blocks
        assert shuffled["delta_df"] == reference["delta_df"]
        for key in ("delta_chi_square", "delta_bic"):
            assert shuffled[key] == pytest.approx(reference[key], abs=1e-6)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("F =~ forks\nnot a statement\n", "line 2"),
            ("F =~ forks + stars + mentions\n", "indicators differ"),
        ],
    )
    def test_bad_comparison_model_named(self, workspace, tmp_path, caplog, text, message):
        write_synthetic_metrics(workspace / "out")
        other = tmp_path / "other.sem"
        other.write_text(text)
        assert run(workspace, "sem", "--model", MODEL_FILE, "--compare", str(other)) == 1
        assert f"{other}: " in caplog.text
        assert message in caplog.text

    def test_missing_indicator_named(self, workspace, tmp_path, caplog):
        write_synthetic_metrics(workspace / "out")
        model = tmp_path / "bad.sem"
        model.write_text("F =~ forks + stars + open_issues\n")
        assert run(workspace, "sem", "--model", str(model)) == 1
        assert "open_issues" in caplog.text

    def test_model_parse_error_reported(self, workspace, tmp_path, caplog):
        write_synthetic_metrics(workspace / "out")
        model = tmp_path / "broken.sem"
        model.write_text("F =~ forks\nnot a statement\n")
        assert run(workspace, "sem", "--model", str(model)) == 1
        assert "line 2" in caplog.text

    def test_no_model_configured(self, workspace):
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "sem") == 1

    def test_rerun_is_byte_identical(self, workspace):
        write_synthetic_metrics(workspace / "out")
        run(workspace, "sem", "--model", MODEL_FILE)
        first = (workspace / "out" / "sem_report.json").read_bytes()
        run(workspace, "sem", "--model", MODEL_FILE)
        assert (workspace / "out" / "sem_report.json").read_bytes() == first


class TestReport:
    def test_summarises_available_stages(self, workspace, capsys):
        run(workspace, "ingest")
        write_synthetic_metrics(workspace / "out")
        run(workspace, "efa")
        run(workspace, "sem", "--model", MODEL_FILE)
        assert run(workspace, "report") == 0
        out = capsys.readouterr().out
        assert "ingest_report.json" in out
        assert "efa_report.json" in out
        assert "chi2" in out

    def test_nothing_to_report_is_user_error(self, workspace):
        assert run(workspace, "report") == 1


class TestEntryPoint:
    def test_consecutive_calls_share_no_options(self, workspace):
        out = workspace / "out"
        write_synthetic_metrics(out)
        assert run(workspace, "efa", "--cross-validate") == 0
        assert run(workspace, "efa") == 0
        report = json.loads((out / "efa_report.json").read_text())
        assert "train" not in report and "test" not in report
        assert run(workspace, "sem", "--model", MODEL_FILE, "--compare", REDUCED_MODEL_FILE) == 0
        assert run(workspace, "sem", "--model", MODEL_FILE) == 0
        assert "comparison" not in json.loads((out / "sem_report.json").read_text())
        assert cli._build_parser() is cli._build_parser()

    def test_unknown_command_exits_one(self):
        assert cli.main(["frobnicate"]) == 1

    def test_missing_config_file_exits_one(self):
        assert cli.main(["efa", "--config", "/no/such/file.cfg"]) == 1

    @pytest.mark.parametrize("command, flag, role", [
        ("ingest", "--archives", "archives directory"),
        ("metrics", "--projects", "project list"),
        ("metrics", "--ranks", "ranks file"),
        ("metrics", "--overrides", "overrides file"),
        ("metrics", "--criticality-config", "criticality config file"),
        ("sem", "--model", "model file"),
        ("sem", "--compare", "comparison model file"),
    ])
    def test_missing_input_names_its_role(self, workspace, caplog, command, flag, role):
        write_synthetic_metrics(workspace / "out")
        missing = workspace / "absent"
        model = ["--model", MODEL_FILE] if flag == "--compare" else []
        assert run(workspace, command, *model, flag, str(missing)) == 1
        assert f"{role} not found: {missing}" in caplog.text

    @pytest.mark.parametrize("name, args", [
        ("run.cfg", ["ingest"]),
        ("overrides.txt", ["metrics", "--overrides"]),
        ("criticality.cfg", ["metrics", "--criticality-config"]),
        ("projects.csv", ["metrics"]),
        ("ranks.csv", ["metrics"]),
        ("out/metrics.csv", ["efa"]),
        ("out/metrics.csv", ["sem", "--model", MODEL_FILE]),
    ], ids=["config", "overrides", "criticality", "projects", "ranks", "metrics-efa", "metrics-sem"])
    def test_key_given_twice_names_both_lines(self, workspace, caplog, name, args):
        (workspace / "overrides.txt").write_text("Bitcoin = bitcoin/bitcoin\n")
        (workspace / "criticality.cfg").write_text("recent_activity = 1, 26\n")
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "ingest") == 0
        path = workspace / name
        lines = path.read_text().splitlines(keepends=True)
        first = 2 if path.suffix == ".csv" else 1  # below a CSV header
        path.write_text("".join(lines) + lines[first - 1])
        if args[-1].startswith("--"):
            args = [*args, str(path)]
        assert run(workspace, *args) == 1
        assert f"lines {first} and {len(lines) + 1}: " in caplog.text
        assert "given twice" in caplog.text


def _perfbench_module(monkeypatch, name):
    """``perfbench/<name>.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_calls_exist(monkeypatch):
    # the benchmark's tracer replaces these attributes by name, so a rename
    # here would otherwise surface only in a traced benchmark run
    tracing = _perfbench_module(monkeypatch, "tracing")
    targets = tracing._targets((cli, store_module, projects, metrics, dataset, factor, sem))
    assert len(targets) > 20
    missing = [name for owner, attr, name, _ in targets if attr not in owner.__dict__]
    assert missing == []


def test_benchmark_tracer_runs_every_stage(workspace, monkeypatch):
    # the tracer also reads each traced call's result, so a changed result
    # type would otherwise surface only in a traced benchmark run
    tracing = _perfbench_module(monkeypatch, "tracing")
    tracer = tracing.Tracer((cli, store_module, projects, metrics, dataset, factor, sem))
    tracer.install()
    try:
        assert run(workspace, "ingest") == 0
        assert run(workspace, "metrics") == 0
        write_synthetic_metrics(workspace / "out")
        assert run(workspace, "efa", "--cross-validate") == 0
        assert run(workspace, "sem", "--model", MODEL_FILE, "--compare", REDUCED_MODEL_FILE) == 0
    finally:
        tracer.uninstall()
    for name, calls in (("store.append", 1), ("sem.fit_ml", 2)):
        counts = [span.counts for span in tracer.spans if span.name == name]
        assert len(counts) == calls and all(counts), name


def test_resolution_matches_benchmark_oracle(monkeypatch, tmp_path):
    # the benchmark checks metrics.csv against its generator's own resolution
    # rule, so a resolution regression would otherwise surface only there
    gen, worker = _perfbench_module(monkeypatch, "gen"), _perfbench_module(monkeypatch, "worker")
    shape = gen.Shape(months=13, files_per_month=1, lines_per_file=120, repos=20, projects=8)
    manifest = gen.generate("metrics", 61, tmp_path, shape)
    out = tmp_path / "out"
    assert cli.main(["ingest", "--archives", str(tmp_path / "archives"), "--out", str(out)]) == 0
    for ranks in ("ranks.csv", "ranks_mentions.csv"):
        argv = ["metrics", "--projects", str(tmp_path / "projects.csv"), "--ranks", str(tmp_path / ranks),
                "--as-of", str(manifest["as_of"]), "--out", str(out)]
        assert cli.main(argv) == 0
        assert worker.check_metrics_csv(out / "metrics.csv", manifest) == []


#: Blocks every scipy import, then runs the efa and sem stages on argv's files.
SCIPY_BLOCKED_RUN = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from oss_health import cli

out, model, reduced = sys.argv[1:]
assert cli.main(["efa", "--cross-validate", "--out", out]) == 0
assert cli.main(["sem", "--model", model, "--compare", reduced, "--out", out]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""


def test_efa_and_sem_run_without_scipy(tmp_path):
    write_synthetic_metrics(tmp_path)
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN, str(tmp_path),
         str(root / MODEL_FILE), str(root / REDUCED_MODEL_FILE)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "efa_report.json").is_file() and (tmp_path / "sem_report.json").is_file()
