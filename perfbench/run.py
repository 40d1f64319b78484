"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {ingest,metrics,models} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The script generates the workload's
inputs from the seed under ``.perfbench_work/``, times ``import
oss_health.cli`` in a few fresh interpreters, then starts one worker
process (``worker.py``) that runs the workload through
``oss_health.cli.main`` and checks every output.  Only one process runs at
a time, and numpy's BLAS pool is pinned to one thread.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics from a run that
alternates traced and untraced iterations, and the spans are written to
``.perfbench_out/<workload>.spans.jsonl``.  Lines before it are a readable
report.  Exit code 0 means a result line was printed; its ``correct``
field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: One BLAS thread, here and in every child, set before numpy is imported.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

import gen  # noqa: E402
import worker as worker_module  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 2
#: Each run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170

#: (name, unit) of the end-to-end metrics, printed on every workload.
END_TO_END = [
    ("setup_s", "s"),
    ("stage_a_ms", "ms"),
    ("stage_b_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

def _median(samples: list[list[float]], k: int) -> float:
    """Median of column k of [wall, scaled] samples."""
    return statistics.median(s[k] for s in samples)


def _tail(samples: list[list[float]], k: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    xs = sorted(s[k] for s in samples)
    return f"p{100 * (n - 10) / n:.0f} {xs[n - 11] * 1e3:.1f} ms, n={n}"


def _report(workload: str, manifest: dict, res: dict, metrics: dict) -> list[str]:
    phases = res["phases"]
    lines = [f"machine: {json.dumps(res['machine'], sort_keys=True)}"]
    imports, builds = res["imports"], res["builds"]
    lines.append(
        f"setup_s {metrics['setup_s']:.4f} s = median import {_median(imports, 1):.4f} s "
        f"over {len(imports)} interpreters"
        + (f" + median store build {_median(builds, 1):.4f} s over {len(builds)}" if builds else "")
        + f"; wall: import {_median(imports, 0):.4f} s"
        + (f", store build {_median(builds, 0):.4f} s" if builds else "")
    )
    for key, phase in zip(("stage_a_ms", "stage_b_ms"), phases):
        calls = res["samples"][phase]
        lines.append(f"{key} ({phase}): median {metrics[key]:.2f} ms, {_tail(calls, 1)}; "
                     f"wall: median {_median(calls, 0) * 1e3:.2f} ms, {_tail(calls, 0)}")
    a_s, b_s = metrics["stage_a_ms"] / 1e3, metrics["stage_b_ms"] / 1e3
    if workload == "ingest":
        lines.append(f"ingest_lines_per_s {manifest['lines'] / a_s:.1f} 1/s")
        lines.append(f"reingest_lines_per_s {manifest['lines'] / b_s:.1f} 1/s")
    if workload in ("ingest", "metrics") and manifest.get("records"):
        lines.append(f"store_bytes_per_event {res['store_bytes'] / manifest['records']:.2f} B")
    if workload == "metrics":
        lines.append(f"metrics_projects_per_s {len(manifest['expected_rows']) / a_s:.2f} 1/s")
    if workload == "models":
        lines.append(f"efa_ms {metrics['stage_a_ms']:.2f} ms, sem_ms {metrics['stage_b_ms']:.2f} ms")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_ratio {res['failed']}/{res['attempted']}")
    lines += [f"digest {key} {digest}" for key, digest in sorted(res["digests"].items())]
    lines += [f"error: {e}" for e in res["errors"]]
    return lines


def _worker(cmd: list[str], env: dict, log_path: Path, started: float) -> dict | None:
    """The last stdout line of a worker process, or None (reported) if it failed."""
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_LIMIT_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("perfbench: the worker ran out of time", file=sys.stderr)
            return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log_tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
        print(f"perfbench: worker exited {proc.returncode}\n{log_tail}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    needed = [ROOT / "src" / "oss_health" / "cli.py", ROOT / "models" / "health.sem",
              ROOT / "models" / "health_reduced.sem"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the program, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        manifest = gen.generate(args.workload, args.seed, work)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
              f"inputs generated in {time.perf_counter() - started:.2f} s (not timed)")
        imports = []
        for _ in range(IMPORT_PROBES):
            probe = subprocess.run([sys.executable, str(HERE / "worker.py"), "--import-only"],
                                   env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
            if probe.returncode != 0:
                print(f"perfbench: importing oss_health failed:\n{probe.stderr}", file=sys.stderr)
                return 1
            imports.append(json.loads(probe.stdout))
        base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                "--work", str(work), "--root", str(ROOT)]
        cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(ROOT / ".perfbench_out" / f"{args.workload}.spans.jsonl")]
        res = _worker(cmd, env, work / "worker.log", started)
        # a second process makes each input's outputs once more; their digests
        # must equal the worker's (byte-identical across runs of one seed)
        rep = _worker(base + ["--replica"], env, work / "replica.log", started) if res else None
        if rep is None:
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = ROOT / ".perfbench_work"
        if parent.is_dir():
            # commit the deletions now rather than during the next run's timing
            worker_module.flush_tree(parent)
            if not any(parent.iterdir()):
                parent.rmdir()

    res["imports"] = imports + [res["import"]]
    mismatched = sorted(k for k, d in rep["digests"].items() if res["digests"].get(k, d) != d)
    res["errors"] += rep["errors"] + [f"{k} differs between two processes" for k in mismatched]
    res["wrong"] += rep["wrong"] + len(mismatched)
    a, b = res["phases"]
    if not (res["samples"][a] and res["samples"][b]):
        print(f"perfbench: a phase had no successful call: {res['errors']}", file=sys.stderr)
        return 1
    # timings are reported scaled to the nominal CPU speed (README.md)
    setup_s = _median(res["imports"], 1) + (_median(res["builds"], 1) if res["builds"] else 0.0)
    end_to_end = {
        "setup_s": setup_s,
        "stage_a_ms": _median(res["samples"][a], 1) * 1e3,
        "stage_b_ms": _median(res["samples"][b], 1) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    for line in _report(args.workload, manifest, res, end_to_end):
        print(line)
    if args.trace:
        names = res["per_layer"]
        from layers import per_layer_names

        metrics = {name: {"value": names[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}
    failed = res["failed"] + (1 if res["setup_failed"] else 0)
    attempted = res["attempted"] + len(res["builds"])
    correct = res["wrong"] == 0 and not res["setup_failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
