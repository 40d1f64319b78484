"""Per-layer metrics from the spans of a traced run.

Every name is reported on every workload, so a layer that a workload does
not exercise reads 0 there.  Names ending in ``_s`` are seconds per stage
call, ``_calls`` and the counts are per stage call, and names ending in
``_ms`` are milliseconds per call of that function.  Phase ``a`` and
phase ``b`` are the two stage calls of each iteration (see README.md).
"""

from __future__ import annotations

import statistics

from tracing import Span, self_seconds

LAYERS = ("events", "store", "projects", "metrics", "dataset", "factor", "sem", "cli")

#: (name, unit) of the metrics reported for each phase, prefixed ``a.``/``b.``.
PHASE_METRICS = [
    ("events.parse_s", "s"),
    ("events.lines_per_s", "1/s"),
    ("events.records", "count"),
    ("events.malformed_skipped", "count"),
    ("events.type_skipped", "count"),
    ("store.append_s", "s"),
    ("store.append_calls", "count"),
    ("store.events_written", "count"),
    ("store.duplicates_skipped", "count"),
    ("store.append_us_per_event_first", "us"),
    ("store.append_us_per_event_last", "us"),
    ("store.append_growth", "ratio"),
    ("store.read_s", "s"),
    ("store.read_calls", "count"),
    ("store.events_read", "count"),
    ("store.read_amplification", "ratio"),
    ("store.list_calls", "count"),
    ("store.has_history_calls", "count"),
    ("projects.resolve_s", "s"),
    ("projects.resolve_calls", "count"),
    ("projects.mark_duplicates_s", "s"),
    ("metrics.count_mentions_s", "s"),
    ("metrics.count_mentions_calls", "count"),
    ("metrics.corpus_texts", "count"),
    ("metrics.build_row_s", "s"),
    ("metrics.timezone_histogram_s", "s"),
    ("metrics.count_stars_s", "s"),
    ("metrics.ms_per_project", "ms"),
    ("dataset.prepare_s", "s"),
    ("dataset.split_s", "s"),
    ("dataset.apply_exclusions_s", "s"),
    ("dataset.write_audit_sidecar_s", "s"),
    ("factor.parallel_analysis_ms", "ms"),
    ("factor.parallel_analysis_calls", "count"),
    ("factor.efa_ml_ms", "ms"),
    ("factor.efa_ml_calls", "count"),
    ("factor.rotate_ms", "ms"),
    ("sem.fit_ml_ms", "ms"),
    ("sem.fit_ml_calls", "count"),
    ("sem.converged_ratio", "ratio"),
    ("sem.heywood_ratio", "ratio"),
    ("cli.stage_s", "s"),
    ("cli.self_s", "s"),
] + [(f"self_s.{layer}", "s") for layer in LAYERS]

#: (name, unit) of the metrics reported once per run.
RUN_METRICS = [
    ("store.partitions", "count"),
    ("store.bytes", "B"),
    ("store.bytes_per_event", "B"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_names() -> list[tuple[str, str]]:
    return [(f"{p}.{n}", u) for p in ("a", "b") for n, u in PHASE_METRICS] + RUN_METRICS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _append_rates(spans: list[Span], runs: list[int]) -> tuple[float, float]:
    """Microseconds per appended input event over the first and the last
    quarter of each stage call's append calls (one call per archive file)."""
    first = [0.0, 0]
    last = [0.0, 0]
    for run in runs:
        calls = [s for s in spans if s.run_id == run and s.name == "store.append"]
        if not calls:
            continue
        q = max(1, len(calls) // 4)
        for acc, part in ((first, calls[:q]), (last, calls[-q:])):
            acc[0] += sum(s.seconds for s in part)
            acc[1] += sum(s.counts["events_in"] for s in part)
    return _ratio(first[0] * 1e6, first[1]), _ratio(last[0] * 1e6, last[1])


def _phase_metrics(spans: list[Span], own: list[float], runs: list[int], stored_events: int) -> dict:
    n = len(runs)
    run_set = set(runs)
    picked = [(s, o) for s, o in zip(spans, own) if s.run_id in run_set]

    def named(name):
        return [s for s, _ in picked if s.name == name]

    def secs(name):
        return sum(s.seconds for s in named(name))

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in named(name))

    def per_call_ms(name):
        calls = named(name)
        return _ratio(sum(s.seconds for s in calls) * 1e3, len(calls))

    parse_s = secs("events.parse_archive_file")
    first, last = _append_rates([s for s, _ in picked], runs)
    fits = named("sem.fit_ml")
    rows = len(named("metrics.build_metrics_row"))
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for s, o in picked:
        self_by_layer[s.layer] += o
    events_read = total("store.read", "items")
    mention_calls = len(named("metrics.count_mentions"))
    totals = {  # over the phase's n stage calls; reported per stage call
        "events.parse_s": parse_s,
        "events.records": total("events.parse_archive_file", "records"),
        "events.malformed_skipped": total("events.parse_archive_file", "malformed"),
        "events.type_skipped": total("events.parse_archive_file", "type_skipped"),
        "store.append_s": secs("store.append"),
        "store.append_calls": len(named("store.append")),
        "store.events_written": total("store.append", "written"),
        "store.duplicates_skipped": total("store.append", "duplicates"),
        "store.read_s": secs("store.read"),
        "store.read_calls": len(named("store.read")),
        "store.events_read": events_read,
        "store.list_calls": len(named("store.iter_repo_ids")),
        "store.has_history_calls": len(named("store.has_history")),
        "projects.resolve_s": secs("projects.resolve_repo"),
        "projects.resolve_calls": len(named("projects.resolve_repo")),
        "projects.mark_duplicates_s": secs("projects.mark_duplicates"),
        "metrics.count_mentions_s": secs("metrics.count_mentions"),
        "metrics.count_mentions_calls": mention_calls,
        "metrics.build_row_s": secs("metrics.build_metrics_row"),
        "metrics.timezone_histogram_s": secs("metrics.timezone_histogram"),
        "metrics.count_stars_s": secs("metrics.count_stars"),
        "dataset.prepare_s": secs("dataset.prepare"),
        "dataset.split_s": secs("dataset.split"),
        "dataset.apply_exclusions_s": secs("dataset.apply_exclusions"),
        "dataset.write_audit_sidecar_s": secs("dataset.write_audit_sidecar"),
        "factor.parallel_analysis_calls": len(named("factor.parallel_analysis")),
        "factor.efa_ml_calls": len(named("factor.efa_ml")),
        "sem.fit_ml_calls": len(fits),
        "cli.stage_s": sum(s.seconds for s, _ in picked if s.layer == "cli"),
        "cli.self_s": self_by_layer["cli"],
    }
    totals.update({f"self_s.{layer}": v for layer, v in self_by_layer.items()})
    out = {k: _ratio(v, n) for k, v in totals.items()}
    out.update({
        "events.lines_per_s": _ratio(total("events.parse_archive_file", "lines"), parse_s),
        "store.append_us_per_event_first": first,
        "store.append_us_per_event_last": last,
        "store.append_growth": _ratio(last, first),
        "store.read_amplification": _ratio(_ratio(events_read, n), stored_events),
        "metrics.corpus_texts": _ratio(total("metrics.count_mentions", "texts"), mention_calls),
        "metrics.ms_per_project": _ratio(self_by_layer["metrics"] * 1e3, rows),
        "factor.parallel_analysis_ms": per_call_ms("factor.parallel_analysis"),
        "factor.efa_ml_ms": per_call_ms("factor.efa_ml"),
        "factor.rotate_ms": per_call_ms("factor.rotate_solution"),
        "sem.fit_ml_ms": per_call_ms("sem.fit_ml"),
        "sem.converged_ratio": _ratio(sum(s.counts["converged"] for s in fits), len(fits)),
        "sem.heywood_ratio": _ratio(sum(s.counts["heywood"] for s in fits), len(fits)),
    })
    return out


def layer_metrics(spans, traced_runs, phases, samples, traced_samples, *,
                  stored_events, partitions, store_bytes) -> dict:
    """Metric name -> value for every name in :func:`per_layer_names`."""
    own = self_seconds(spans)
    out = {}
    for prefix, phase in zip(("a", "b"), phases):
        runs = sorted(r for r, p in traced_runs.items() if p == phase)
        for name, value in _phase_metrics(spans, own, runs, stored_events).items():
            out[f"{prefix}.{name}"] = value
    # scaled times, so that the CPU's speed changes between iterations cancel
    untraced = sum(statistics.median(s for _, s in calls) for calls in samples.values())
    traced = sum(statistics.median(s for _, s in calls) for calls in traced_samples.values())
    out.update({
        "store.partitions": partitions,
        "store.bytes": store_bytes,
        "store.bytes_per_event": _ratio(store_bytes, stored_events),
        "trace.overhead_ratio": _ratio(traced, untraced),
    })
    return out
