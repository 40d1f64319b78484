"""One workload run in a fresh interpreter: set-up, closed-loop stage calls, checks.

Started by ``run.py`` with the generated inputs already on disk.  It calls
``oss_health.cli.main`` the way the ``oss-health`` entry point does, one
stage at a time, each call starting when the previous one returns (one
client, closed loop).  Every output is checked against the generator's
manifest and against the output of the same input earlier in the run.
With ``--replica``, started after the worker, it runs each input once,
untimed, so that ``run.py`` can compare the output digests of two
processes.  The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import resource
import shutil
import sys
import time
from pathlib import Path

MIN_ITERATIONS = 3
#: Store builds in the metrics workload's set-up; setup_s is their median.
SETUP_BUILDS = 3
#: Seconds the reference loop takes at the nominal CPU speed that reported
#: timings are scaled to (see README.md, "Why timings are scaled").
NOMINAL_REFERENCE_S = 1.0e-3


#: The one failure the seed program is known to have (README.md, defect
#: (a)): ``efa`` exits 1 with this message.  The models workload's options
#: keep it out of these inputs; should it occur, the call counts as failed.
#: Every other non-zero exit counts as a wrong output.
KNOWN_DEFECT = ("models", "efa", 1, "1 factors on 2 variables")


class ErrorLog(logging.Handler):
    """Keeps the messages the program logs at level ERROR or above."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def known_failure(workload: str, phase: str, rc: int, messages: list[str]) -> bool:
    """Whether a non-zero exit is the known defect rather than a wrong run."""
    name, stage, code, text = KNOWN_DEFECT
    return (workload, phase, rc) == (name, stage, code) and any(text in m for m in messages)


def reference_seconds() -> float:
    """Median of three timings of a fixed pure-Python loop: the CPU's speed now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for k in range(20_000):
            total += k
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def timed(fn, *args):
    """``(fn(*args), [wall seconds, wall seconds scaled to nominal CPU speed])``.

    The reference loop runs just before and just after the call; the
    scaled time divides out how fast the CPU ran the loop around it.
    """
    before = reference_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    reference = (before + reference_seconds()) / 2
    return result, [wall, wall * NOMINAL_REFERENCE_S / reference]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _store_digest(store_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(store_dir.glob("*/*.events")):
        digest.update(path.relative_to(store_dir).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def flush_tree(root: Path, since_ns: int = 0) -> None:
    """fsync every file and directory under ``root`` modified at or after ``since_ns``."""
    for path in [*root.rglob("*"), root]:
        if path.stat().st_mtime_ns < since_ns:
            continue
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def store_stats(store_dir: Path) -> tuple[int, int]:
    """(partition files, bytes) of an event store directory."""
    files = list(store_dir.glob("*/*.events")) if store_dir.is_dir() else []
    return len(files), sum(f.stat().st_size for f in files)


def check_store(store_dir: Path, manifest: dict) -> list[str]:
    """Stored events per repository and per kind equal the generated ones."""
    from oss_health.store import EventStore

    store = EventStore(store_dir)
    by_repo: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    for repo_id in store.iter_repo_ids():
        events = store.read(repo_id)
        by_repo[repo_id] = len(events)
        for event in events:
            by_kind[event.event_type.value] = by_kind.get(event.event_type.value, 0) + 1
    errors = []
    if by_repo != manifest["records_by_repo"]:
        errors.append("stored events per repository differ from the generated records")
    if by_kind != manifest["records_by_kind"]:
        errors.append(f"stored events per kind {by_kind} != generated {manifest['records_by_kind']}")
    return errors


def check_ingest_report(path: Path, manifest: dict, fresh: bool) -> list[str]:
    """Per-file parse counts match the manifest; a fresh ingest stores every
    record and a re-ingest stores none and skips every one as a duplicate."""
    if not path.is_file():
        return [f"{path.name} missing"]
    report = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    got = [{k: f[k] for k in ("file", "parsed", "skipped_type", "skipped_malformed")}
           for f in report["files"]]
    if got != manifest["files"]:
        errors.append("per-file parsed/skipped counts differ from the manifest")
    stored = report["stored_events"]
    duplicates = sum(f["duplicates_skipped"] for f in report["files"])
    want_stored, want_dups = (manifest["records"], 0) if fresh else (0, manifest["records"])
    if stored != want_stored or duplicates != want_dups:
        errors.append(f"stored {stored} / duplicates {duplicates}, expected {want_stored} / {want_dups}")
    return errors


def check_metrics_csv(path: Path, manifest: dict) -> list[str]:
    """One row per project with history, in rank order, with the manifest's
    stars, forks and mentions."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    expected = manifest["expected_rows"]
    if [r["repo_id"] for r in rows] != [e["repo_id"] for e in expected]:
        return [f"metrics.csv rows {len(rows)} do not match the {len(expected)} expected projects"]
    errors = []
    for row, want in zip(rows, expected):
        repo = want["repo_id"]
        got = (int(row["stars"]), int(row["forks"]), int(row["mentions"]))
        exp = (manifest["stars"].get(repo, 0), manifest["forks"].get(repo, 0), want["mentions"])
        if got != exp:
            errors.append(f"{repo}: stars/forks/mentions {got} != {exp}")
    return errors


def _leading_above(observed: list[float], thresholds: list[float]) -> int:
    """Parallel analysis' rule: leading observed eigenvalues above their thresholds."""
    count = 0
    while count < len(observed) and observed[count] > thresholds[count]:
        count += 1
    return count


def _assignment(loadings: list[list[float]], names: list[str], cutoff: float) -> tuple[dict, list[str]]:
    """Each indicator to the factor of its largest |loading| (ties to the
    lower index) when that exceeds the cutoff; the others are dropped."""
    assignment: dict[str, list[str]] = {str(j): [] for j in range(len(loadings[0]))}
    dropped = []
    for row, name in zip(loadings, names):
        size = [abs(x) for x in row]
        j = size.index(max(size))
        if size[j] > cutoff:
            assignment[str(j)].append(name)
        else:
            dropped.append(name)
    return assignment, dropped


def check_efa_report(path: Path, manifest: dict) -> list[str]:
    """In the full sample and both halves: the generator's columns, the
    requested factor count, a suggested count that follows from the
    reported parallel-analysis eigenvalues, loadings of that shape whose row
    sums of squares are the reported communalities, the EFA model's df, and
    indicators assigned and dropped by the requested cutoff; n in the full
    sample and in the two halves together.  Statistical outcomes (the
    suggested count, convergence) are not required: on a few seeds a half
    suggests four factors."""
    if not path.is_file():
        return [f"{path.name} missing"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    for name in ("full", "train", "test"):
        block = doc[name]
        p, m = len(block["columns"]), block["factors"]
        pa = block["parallel_analysis"]
        key = "simulated_quantile_eigenvalues" if pa["comparison"] == "quantile" else "simulated_mean_eigenvalues"
        suggested = _leading_above(pa["observed_eigenvalues"], pa[key])
        if sorted(block["columns"]) != sorted(manifest["columns"]):
            errors.append(f"efa {name}: columns {block['columns']}")
        if m != manifest["factors"]:
            errors.append(f"efa {name}: {m} factors, {manifest['factors']} requested")
        if pa["suggested_factors"] != suggested:
            errors.append(f"efa {name}: {pa['suggested_factors']} factors suggested, "
                          f"{suggested} eigenvalues above their thresholds")
        loadings = block["loadings"]
        if len(loadings) != p or any(len(row) != m for row in loadings):
            errors.append(f"efa {name}: loadings are not {p} x {m}")
            continue
        if any(abs(sum(x * x for x in row) - h2) > 1e-6
               for row, h2 in zip(loadings, block["communalities"])):
            errors.append(f"efa {name}: communalities differ from the loadings")
        if block["fit"]["df"] != ((p - m) ** 2 - (p + m)) // 2:
            errors.append(f"efa {name}: df {block['fit']['df']} for {m} factors on {p} variables")
        if (block["assignment"], block["dropped"]) != _assignment(loadings, block["columns"], manifest["cutoff"]):
            errors.append(f"efa {name}: assignment {block['assignment']}, dropped {block['dropped']} "
                          f"do not follow from the loadings at cutoff {manifest['cutoff']}")
    if doc["full"]["n"] != manifest["rows"] or doc["train"]["n"] + doc["test"]["n"] != manifest["rows"]:
        errors.append(f"efa: n {doc['full']['n']} = {doc['train']['n']} + {doc['test']['n']}, "
                      f"expected {manifest['rows']}")
    return errors


def check_sem_report(path: Path, manifest: dict) -> list[str]:
    """n, the generator's indicators, df = moments - free parameters, and a
    comparison model with more df.  Convergence is counted in the traced
    run (``sem.converged_ratio``), not required: 2 of 400 datasets of the
    seed code did not converge."""
    if not path.is_file():
        return [f"{path.name} missing"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    estimates = doc["estimates"]
    indicators = sorted(k.split("=~", 1)[1] for k in estimates if "=~" in k)
    p = len(manifest["columns"])
    free = sum(1 for e in estimates.values() if e["free"])
    errors = []
    if doc["n"] != manifest["rows"] or doc["fit"]["n"] != manifest["rows"]:
        errors.append(f"sem: n {doc['n']}, expected {manifest['rows']}")
    if indicators != sorted(manifest["columns"]):
        errors.append(f"sem: indicators {indicators}")
    if doc["fit"]["df"] != p * (p + 1) // 2 - free:
        errors.append(f"sem: df {doc['fit']['df']} with {free} free parameters on {p} variables")
    if doc["comparison"]["delta_df"] >= 0:
        errors.append(f"sem: the reduced model has no more df than the full one {doc['comparison']}")
    return errors


class _Workload:
    """Two stage calls per iteration, ``a`` then ``b``; subclasses say which."""

    name: str
    phases: tuple[str, str]
    #: Phases a replica runs: enough to make every output once
    replica_phases: tuple[str, ...]

    def __init__(self, work: Path, root: Path, manifest: dict):
        self.work = work
        self.root = root
        self.manifest = manifest
        self.out = work / "out"
        self.digests: dict[str, str] = {}
        self.flushed_ns = 0

    def flush(self) -> None:
        """Put every write since the last flush on disk, so that no write-back
        of earlier work lands in the next timed call, as in a one-off run.
        File times are coarse, so the window reaches a second further back."""
        start = time.time_ns()
        flush_tree(self.work, self.flushed_ns - 1_000_000_000)
        self.flushed_ns = start

    def setup(self, cli, builds: int) -> tuple[list[list[float]], list[str]]:
        """Program set-up beyond imports: (a :func:`timed` sample per repeat, errors)."""
        return [], []

    def inputs(self) -> int:
        """Distinct inputs; iteration i uses input i mod this."""
        return 1

    def prepare(self, i: int) -> None:
        pass

    def set_aside(self) -> None:
        """Move the previous output away, keeping the output path the same
        (it is part of the config hash in the reports). Deleting it here
        would let the file system's deferred delete work land in timed
        calls; the whole work directory is deleted after the run."""
        if self.out.exists():
            self.out.rename(self.work / f"old-{os.getpid()}-{time.perf_counter_ns()}")

    def remove_set_aside(self) -> None:
        """Delete the set-aside outputs and commit the deletion, outside any timing."""
        for old in self.work.glob("old-*"):
            shutil.rmtree(old)
        self.flush()

    def argv(self, phase: str, i: int) -> list[str]:
        raise NotImplementedError

    def check(self, phase: str, i: int) -> list[str]:
        raise NotImplementedError

    def pinned(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts the manifest fixes: name -> (value, guard).  They
        are checked when the traced run saw the guard metric non-zero, that
        is, when the program still calls the wrapped function in-process."""
        return {}

    def same_bytes(self, key: str, path: Path) -> list[str]:
        """The output of one input is byte-identical every time it is made."""
        if not path.is_file():
            return [f"{path.name} missing"]
        return self.same_digest(key, _digest(path))

    def same_digest(self, key: str, digest: str) -> list[str]:
        if self.digests.setdefault(key, digest) != digest:
            return [f"{key} differs from an earlier run of the same input"]
        return []


class Ingest(_Workload):
    name = "ingest"
    phases = ("fresh_ingest", "reingest")
    replica_phases = ("fresh_ingest",)

    def prepare(self, i):
        self.set_aside()

    def argv(self, phase, i):
        return ["ingest", "--archives", str(self.work / "archives"), "--out", str(self.out)]

    def check(self, phase, i):
        fresh = phase == "fresh_ingest"
        report = self.out / "ingest_report.json"
        errors = check_ingest_report(report, self.manifest, fresh)
        errors += self.same_bytes(f"{phase}/ingest_report.json", report)
        if fresh:
            errors += self.same_digest("fresh_ingest/store", _store_digest(self.out / "store"))
            if i == 0:
                errors += check_store(self.out / "store", self.manifest)
        return errors

    def pinned(self):
        m = self.manifest
        out = {}
        for prefix, written, duplicates in (("a", m["records"], 0), ("b", 0, m["records"])):
            for name, value in (("records", m["records"]), ("malformed_skipped", m["malformed"]),
                                ("type_skipped", m["type_skipped"])):
                out[f"{prefix}.events.{name}"] = (value, f"{prefix}.events.parse_s")
            out[f"{prefix}.store.events_written"] = (written, f"{prefix}.store.append_calls")
            out[f"{prefix}.store.duplicates_skipped"] = (duplicates, f"{prefix}.store.append_calls")
        return out


class Metrics(_Workload):
    name = "metrics"
    phases = ("metrics", "metrics_given_mentions")
    replica_phases = ("metrics_given_mentions",)  # writes the same bytes as phase a

    def setup(self, cli, builds):
        samples, errors = [], []
        for _ in range(builds):
            self.set_aside()  # the last build is the one used
            self.flush()
            argv = ["ingest", "--archives", str(self.work / "archives"), "--out", str(self.out)]
            rc, sample = timed(cli.main, argv)
            samples.append(sample)
            if rc != 0:
                errors.append(f"store build exited {rc}")
        self.remove_set_aside()
        errors += check_ingest_report(self.out / "ingest_report.json", self.manifest, fresh=True)
        errors += check_store(self.out / "store", self.manifest)
        return samples, errors

    def argv(self, phase, i):
        ranks = "ranks.csv" if phase == "metrics" else "ranks_mentions.csv"
        return ["metrics", "--projects", str(self.work / "projects.csv"),
                "--ranks", str(self.work / ranks), "--as-of", str(self.manifest["as_of"]),
                "--out", str(self.out)]

    def check(self, phase, i):
        path = self.out / "metrics.csv"
        # counted and supplied mentions agree, so both phases write the same bytes
        return check_metrics_csv(path, self.manifest) + self.same_bytes("metrics.csv", path)

    def pinned(self):
        return {"a.metrics.corpus_texts": (self.manifest["push_texts"], "a.metrics.count_mentions_calls")}


class Models(_Workload):
    name = "models"
    phases = ("efa", "sem")
    replica_phases = phases

    def inputs(self):
        return len(self.manifest["files"])

    def _dir(self, i: int) -> Path:
        return self.work / self.manifest["files"][i % self.inputs()]

    def argv(self, phase, i):
        if phase == "efa":
            return ["efa", "--cross-validate", "--factors", str(self.manifest["factors"]),
                    "--cutoff", str(self.manifest["cutoff"]), "--out", str(self._dir(i))]
        return ["sem", "--model", str(self.root / "models" / "health.sem"),
                "--compare", str(self.root / "models" / "health_reduced.sem"),
                "--out", str(self._dir(i))]

    def check(self, phase, i):
        path = self._dir(i) / f"{phase}_report.json"
        checker = check_efa_report if phase == "efa" else check_sem_report
        key = f"{self.manifest['files'][i % self.inputs()]}/{path.name}"
        return checker(path, self.manifest) + self.same_bytes(key, path)


WORKLOADS = {w.name: w for w in (Ingest, Metrics, Models)}


def judge(workload: _Workload, phase: str, i: int, rc: int, messages: list[str]) -> tuple[bool, list[str]]:
    """(known failure, problems) of one stage call.  A non-zero exit other
    than the known defect, or an output that fails a check, is a problem."""
    if rc == 0:
        return False, workload.check(phase, i)
    if known_failure(workload.name, phase, rc, messages):
        return True, []
    return False, [f"exit {rc}: {messages[-1] if messages else 'no error message'}"]


def pinned_errors(per_layer: dict, pinned: dict[str, tuple[float, str]]) -> list[str]:
    """Traced counts that differ from the manifest (see ``_Workload.pinned``)."""
    return [f"traced {name} = {per_layer[name]}, the manifest says {value}"
            for name, (value, guard) in pinned.items()
            if per_layer[guard] and per_layer[name] != value]


def _machine() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _import_program():
    from oss_health import cli, dataset, factor, metrics, projects, sem, store

    return cli, store, projects, metrics, dataset, factor, sem


def replica(workload: _Workload, cli, errlog: ErrorLog) -> dict:
    """Each input once, untimed, on the worker's set-up (its store on
    ``metrics``): the digests of a second process, with its own random
    string-hash seed, for ``run.py`` to compare with the worker's."""
    errors: list[str] = []
    wrong = 0
    for i in range(workload.inputs()):
        workload.prepare(i)
        for phase in workload.replica_phases:
            errlog.messages.clear()
            rc = cli.main(workload.argv(phase, i))
            _, problems = judge(workload, phase, i, rc, errlog.messages)
            wrong += bool(problems)
            errors += [f"replica {phase} #{i}: {p}" for p in problems]
    return {"digests": workload.digests, "errors": errors[:20], "wrong": wrong}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true",
                        help="print the timed import of the program and exit")
    parser.add_argument("--replica", action="store_true",
                        help="run each input once, untimed, and print the output digests")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work", type=Path)
    parser.add_argument("--root", type=Path)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    if not args.import_only and None in (args.workload, args.work, args.root):
        parser.error("--workload, --work and --root are required")
    if not (args.import_only or args.replica) and args.seconds is None:
        parser.error("--seconds is required")

    modules, import_sample = timed(_import_program)
    if args.import_only:
        print(json.dumps(import_sample))
        return 0
    cli = modules[0]
    errlog = ErrorLog()
    logging.getLogger("oss_health").addHandler(errlog)
    manifest = json.loads((args.work / "manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](args.work, args.root, manifest)
    if args.replica:
        print(json.dumps(replica(workload, cli, errlog)))
        return 0
    builds, setup_errors = workload.setup(cli, SETUP_BUILDS)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(modules)
    samples = {phase: [] for phase in workload.phases}  # [wall, scaled] per call
    traced_samples = {phase: [] for phase in workload.phases}
    traced_runs: dict[int, str] = {}
    attempted = failed = wrong = 0
    errors: list[str] = list(setup_errors)
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    longest = 0.0  # the longest iteration so far: no iteration starts that would end after the deadline
    i = 0
    while i < MIN_ITERATIONS + (1 if tracer else 0) or time.perf_counter() + longest <= deadline:
        iteration_start = time.perf_counter()
        # in a traced run, odd iterations are traced and even ones give the
        # untraced times that the tracing overhead is measured against
        traced = tracer is not None and i % 2 == 1
        # alternate the allowed CPUs every two iterations (a traced and an
        # untraced one share a CPU): on a shared host their speeds vary
        # independently of each other, so a run averages over them
        os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
        workload.prepare(i)
        for phase in workload.phases:
            workload.flush()
            if traced:
                tracer.run_id = attempted
                traced_runs[attempted] = phase
                tracer.install()
            errlog.messages.clear()
            try:
                rc, sample = timed(cli.main, workload.argv(phase, i))
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            known, problems = judge(workload, phase, i, rc, errlog.messages)
            if known:  # no output to check and no time to report
                failed += 1
                errors.append(f"{phase} #{i}: exit {rc}, known defect (a)")
                continue
            if problems:
                failed += 1
                wrong += 1
                errors += [f"{phase} #{i}: {p}" for p in problems]
            if rc == 0:
                (traced_samples if traced else samples)[phase].append(sample)
        longest = max(longest, time.perf_counter() - iteration_start)
        i += 1

    partitions, store_bytes = store_stats(workload.out / "store")
    result = {
        "import": import_sample,
        "builds": builds,
        "samples": samples,
        "phases": list(workload.phases),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:20],
        "setup_failed": bool(setup_errors),
        "digests": workload.digests,
        "store_partitions": partitions,
        "store_bytes": store_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        from layers import layer_metrics

        records = manifest.get("records", 0) if partitions else 0
        per_layer = layer_metrics(
            tracer.spans, traced_runs, workload.phases, samples, traced_samples,
            stored_events=records, partitions=partitions, store_bytes=store_bytes,
        )
        problems = pinned_errors(per_layer, workload.pinned())
        result["wrong"] += len(problems)
        result["errors"] += problems
        result["per_layer"] = per_layer
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
