"""Spans around the calls into each layer of ``oss_health``, from outside it.

Wrappers are installed on the module attributes that the callers look up
at call time (``cli.parse_archive_file``, ``EventStore.append``,
``metrics.count_mentions`` ...), so the program itself is not edited and
the untraced runs execute none of this code.  Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None
    run_id: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _count_parse(args, kwargs, result):
    records, stats = result
    return {"records": len(records), "lines": stats.lines_in,
            "malformed": stats.malformed_skipped, "type_skipped": stats.type_skipped}


def _count_append(args, kwargs, result):
    events = args[1] if len(args) > 1 else kwargs["events"]
    return {"events_in": len(events), "written": result.count,
            "duplicates": result.duplicates_skipped}


def _count_len(args, kwargs, result):
    return {"items": len(result)}


def _count_corpus(args, kwargs, result):
    return {"texts": len(args[0])}


def _count_fit(args, kwargs, result):
    return {"converged": int(result.converged), "heywood": int(bool(result.heywood))}


def _targets(modules):
    """(owner, attribute, span name, counter) for every wrapped public call."""
    cli, store, projects, metrics, dataset, factor, sem = modules
    es = store.EventStore
    return [
        (cli, "parse_archive_file", "events.parse_archive_file", _count_parse),
        (es, "append", "store.append", _count_append),
        (es, "read", "store.read", _count_len),
        (es, "iter_repo_ids", "store.iter_repo_ids", None),
        (es, "has_history", "store.has_history", None),
        (projects, "resolve_repo", "projects.resolve_repo", None),
        (projects, "mark_duplicates", "projects.mark_duplicates", None),
        (metrics, "count_mentions", "metrics.count_mentions", _count_corpus),
        (metrics, "build_metrics_row", "metrics.build_metrics_row", None),
        (metrics, "timezone_histogram", "metrics.timezone_histogram", None),
        (metrics, "median_distribution", "metrics.median_distribution", None),
        (metrics, "count_stars", "metrics.count_stars", None),
        (dataset, "apply_exclusions", "dataset.apply_exclusions", None),
        (dataset, "matrix_from_metrics", "dataset.matrix_from_metrics", None),
        (dataset, "write_audit_sidecar", "dataset.write_audit_sidecar", None),
        (dataset, "prepare", "dataset.prepare", None),
        (dataset, "split", "dataset.split", None),
        (factor, "parallel_analysis", "factor.parallel_analysis", None),
        (factor, "efa_ml", "factor.efa_ml", None),
        (factor, "rotate_solution", "factor.rotate_solution", None),
        (sem, "parse_model", "sem.parse_model", None),
        (sem, "fit_ml", "sem.fit_ml", _count_fit),
        (cli, "cmd_ingest", "cli.ingest", None),
        (cli, "cmd_metrics", "cli.metrics", None),
        (cli, "cmd_efa", "cli.efa", None),
        (cli, "cmd_sem", "cli.sem", None),
    ]


class Tracer:
    """Records nested spans while installed; one ``run_id`` per stage call."""

    def __init__(self, modules):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._targets = _targets(modules)

    def _wrap(self, name, fn, counter, eager=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, self._stack[-1] if self._stack else None, self.run_id)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if eager:  # a generator: time the listing, not just its creation
                    result = iter(list(result))
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, counter in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter, eager=attr == "iter_repo_ids"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": s.name, "start_ns": s.start_ns,
                                         "end_ns": s.end_ns, "parent": s.parent,
                                         "run_id": s.run_id, "counts": s.counts}) + "\n")


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
