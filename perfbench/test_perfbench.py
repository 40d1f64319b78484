"""Self-tests of the benchmark: inputs, metric names and output checks.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import worker  # noqa: E402

TINY = {
    "ingest": gen.Shape(months=1, files_per_month=3, lines_per_file=40, repos=8, hot_skew=1.2),
    "metrics": gen.Shape(months=3, files_per_month=3, lines_per_file=60, repos=6, hot_skew=0.8, projects=4),
}


def _inputs(workload: str, seed: int, root: Path) -> dict[str, bytes]:
    gen.generate(workload, seed, root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(gen.SHAPES))
def test_same_seed_gives_identical_inputs_and_other_seeds_differ(tmp_path, workload):
    first = _inputs(workload, 7, tmp_path / "a")
    assert _inputs(workload, 7, tmp_path / "b") == first
    assert _inputs(workload, 8, tmp_path / "c") != first


def test_sem_generator_matches_the_test_suite():
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        pytest.skip("no test suite in this checkout")
    spec = importlib.util.spec_from_file_location("_suite_conftest", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    assert abs(gen.sem_population_covariance() - suite.sem_population_covariance()).max() < 1e-12


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_in_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "models", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and not out.stdout.strip()


def _run_cli(argv):
    from oss_health import cli

    logging.disable(logging.CRITICAL)
    try:
        assert cli.main(argv) == 0
    finally:
        logging.disable(logging.NOTSET)


def test_checks_pass_on_real_ingest_and_fail_on_corrupted_copies(tmp_path):
    manifest = gen.generate("ingest", 5, tmp_path / "in", TINY["ingest"])
    out = tmp_path / "out"
    _run_cli(["ingest", "--archives", str(tmp_path / "in" / "archives"), "--out", str(out)])
    report = out / "ingest_report.json"
    assert worker.check_ingest_report(report, manifest, fresh=True) == []
    assert worker.check_store(out / "store", manifest) == []
    assert worker.check_ingest_report(report, manifest, fresh=False) != []

    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    doc = json.loads((bad / "ingest_report.json").read_text())
    doc["files"][0]["skipped_malformed"] += 1
    (bad / "ingest_report.json").write_text(json.dumps(doc))
    assert worker.check_ingest_report(bad / "ingest_report.json", manifest, fresh=True) != []
    next((bad / "store").glob("*/*.events")).unlink()
    assert worker.check_store(bad / "store", manifest) != []


def test_checks_pass_on_real_metrics_and_fail_on_corrupted_copies(tmp_path):
    work = tmp_path / "in"
    manifest = gen.generate("metrics", 5, work, TINY["metrics"])
    assert manifest["expected_rows"]
    out = tmp_path / "out"
    _run_cli(["ingest", "--archives", str(work / "archives"), "--out", str(out)])
    for ranks in ("ranks.csv", "ranks_mentions.csv"):
        _run_cli(["metrics", "--projects", str(work / "projects.csv"), "--ranks", str(work / ranks),
                  "--as-of", str(manifest["as_of"]), "--out", str(out)])
        assert worker.check_metrics_csv(out / "metrics.csv", manifest) == []

    wl = worker.Metrics(work, ROOT, manifest)
    assert wl.same_bytes("m", out / "metrics.csv") == []
    lines = (out / "metrics.csv").read_text().splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    first[header.index("stars")] = str(int(first[header.index("stars")]) + 1)
    corrupted = tmp_path / "metrics.csv"
    corrupted.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
    assert worker.check_metrics_csv(corrupted, manifest) != []
    assert wl.same_bytes("m", corrupted) != []
    corrupted.write_text("\n".join(lines[:-1]) + "\n")
    assert worker.check_metrics_csv(corrupted, manifest) != []


def test_checks_pass_on_real_models_and_fail_on_corrupted_copies(tmp_path):
    manifest = gen.generate("models", 3, tmp_path, gen.Shape(models_files=1, models_rows=384))
    out = tmp_path / manifest["files"][0]
    wl = worker.Models(tmp_path, ROOT, manifest)
    _run_cli(wl.argv("efa", 0))
    _run_cli(wl.argv("sem", 0))
    efa, sem = out / "efa_report.json", out / "sem_report.json"
    assert worker.check_efa_report(efa, manifest) == []
    assert worker.check_sem_report(sem, manifest) == []

    def corrupted(path, edit):
        doc = json.loads(path.read_text())
        edit(doc)
        bad = tmp_path / path.name
        bad.write_text(json.dumps(doc))
        return bad

    assert worker.check_efa_report(corrupted(efa, lambda d: d["full"].update(factors=2)), manifest) != []
    assert worker.check_efa_report(corrupted(efa, lambda d: d["test"].update(n=100)), manifest) != []
    assert worker.check_efa_report(corrupted(efa, lambda d: d["train"]["columns"].pop()), manifest) != []
    assert worker.check_efa_report(corrupted(efa, lambda d: d["full"]["loadings"][0].__setitem__(0, 0.5)),
                                   manifest) != []
    assert worker.check_efa_report(
        corrupted(efa, lambda d: d["full"]["parallel_analysis"]["observed_eigenvalues"].__setitem__(2, -1.0)),
        manifest) != []
    assert worker.check_efa_report(corrupted(efa, lambda d: d["train"]["dropped"].append("stars")),
                                   manifest) != []
    assert worker.check_efa_report(corrupted(efa, lambda d: d["full"]["loadings"][-1].__setitem__(0, 0.99)),
                                   manifest) != []
    other = dict(manifest, cutoff=0.95)
    assert worker.check_efa_report(efa, other) != []
    assert worker.check_sem_report(corrupted(sem, lambda d: d.update(n=383)), manifest) != []
    assert worker.check_sem_report(corrupted(sem, lambda d: d["fit"].update(df=41)), manifest) != []
    assert worker.check_sem_report(corrupted(sem, lambda d: d["estimates"].pop("Interest=~mentions")),
                                   manifest) != []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="defect (a), README.md: a factor left with 2 indicators at the default cutoff")
def test_efa_at_the_readme_defaults_on_a_models_dataset(tmp_path):
    # models dataset (seed 800, file 6) at factors = auto, cutoff = 0.3: the
    # full sample leaves Robustness with 2 indicators and efa exits 1.  The
    # models workload's options avoid this; once the defect is fixed this
    # test passes, and strict xfail reports that.
    gen.write_synthetic_metrics(tmp_path / "metrics.csv", 384, gen.np.random.default_rng([800, 6]))
    _run_cli(["efa", "--out", str(tmp_path)])


def test_only_the_known_defect_is_a_failure_and_not_a_wrong_output():
    models = worker.Models(Path("."), ROOT, {"files": ["models/0"]})
    ingest = worker.Ingest(Path("."), ROOT, {})
    defect = ["error: 1 factors on 2 variables: df = -1 < 0"]
    assert worker.judge(models, "efa", 0, 1, defect) == (True, [])
    assert worker.judge(models, "efa", 0, 1, ["error: something else"])[1]
    assert worker.judge(models, "efa", 0, 2, defect)[1]
    assert worker.judge(models, "sem", 0, 1, defect)[1]
    assert worker.judge(ingest, "fresh_ingest", 0, 1, defect)[1]


def test_traced_counts_must_equal_the_manifest_when_the_layer_is_seen():
    wl = worker.Ingest(Path("."), ROOT, {"records": 10, "malformed": 1, "type_skipped": 2})
    observed = {"events.records": 10, "events.malformed_skipped": 1, "events.type_skipped": 2,
                "events.parse_s": 0.1, "store.append_calls": 3}
    per_layer = {f"{p}.{k}": v for p in "ab" for k, v in observed.items()}
    per_layer.update({"a.store.events_written": 10, "a.store.duplicates_skipped": 0,
                      "b.store.events_written": 0, "b.store.duplicates_skipped": 10})
    assert worker.pinned_errors(per_layer, wl.pinned()) == []
    assert worker.pinned_errors({**per_layer, "b.store.events_written": 4}, wl.pinned()) != []
    # a layer the traced run did not see (say, parsing moved to other processes) is not checked
    unseen = {**per_layer, "a.events.parse_s": 0.0, "a.events.records": 0}
    assert worker.pinned_errors(unseen, wl.pinned()) == []
