"""Exporters for recorded traces: Chrome ``trace_event`` JSON, a flat
metrics JSON, a terminal summary table, and a failure-report JSON.

Chrome trace
    :func:`chrome_trace` renders complete (``"ph": "X"``) events, one per
    span, on one track per discharging PID — load the file in
    ``chrome://tracing`` or https://ui.perfetto.dev to see obligations
    laid out over wall time, worker by worker. Timestamps are normalized
    to the tracer's origin and expressed in integer microseconds, as the
    trace-event spec requires.

Metrics JSON
    :func:`metrics_payload` aggregates spans into per-obligation rows and
    per-condition / per-scope / whole-run totals. The totals are exact:
    ``totals["checked"]`` equals the sum of the merged condition map's
    ``checked`` counters for the traced checks (tested in ``tests/obs``),
    so its enumeration counts are the per-obligation ``checked``
    figures that the benchmark ledger sums into ``obl.*.checks``.

Terminal summary
    :func:`render_summary` is the ``--trace``/``--metrics`` CLI footer: a
    per-condition table (spans, wall time, checks, cache hit rate) plus
    worker occupancy, readable without leaving the terminal.

Failure report
    :func:`failure_payload` serializes a ``repro.diagnose`` explanation —
    per-condition verdicts plus, for every counterexample, the original
    and minimized witnesses (tagged values, see
    :func:`repro.diagnose.render.witness_to_json`), the accepted shrink
    steps, and the replay-confirmation bit. This is the machine-readable
    twin of the ``repro explain`` terminal report, written by
    ``repro explain --json`` and uploaded as a CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List

from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "failure_payload",
    "metrics_payload",
    "render_summary",
    "write_chrome_trace",
    "write_failure_report",
    "write_metrics",
]

#: Schema tags written into the exported files, bumped on layout changes.
TRACE_SCHEMA = "repro.obs/chrome-trace/v1"
METRICS_SCHEMA = "repro.obs/metrics/v1"
FAILURE_SCHEMA = "repro.obs/failure/v1"


def _micros(seconds: float) -> int:
    return max(0, int(round(seconds * 1_000_000)))


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's spans as a Chrome ``trace_event`` document.

    Every span becomes one complete event; obligation spans carry their
    verdict, enumeration count, and cache delta in ``args``. A pair of
    metadata events per PID names the parent process ``repro (main)`` and
    each pool worker ``worker``, so Perfetto's track labels read sensibly.
    """
    origin = tracer.origin
    events: List[dict] = []
    pids = sorted({span.pid for span in tracer.spans})
    for pid in pids:
        role = "repro (main)" if pid == tracer.root_pid else "worker"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{role} pid={pid}"},
            }
        )
    for span in tracer.spans:
        args: Dict[str, object] = {"scope": span.scope}
        if span.backend:
            args["backend"] = span.backend
        if span.category == "obligation":
            args.update(
                {
                    "condition": span.condition,
                    "kind": span.kind,
                    "checked": span.checked,
                    "holds": span.holds,
                    "skipped": span.skipped,
                }
            )
            if span.attempts > 1:
                args["attempts"] = span.attempts
            if span.timed_out:
                args["timed_out"] = True
            if span.cached:
                args["cached"] = True
            if span.rcache:
                args["rcache"] = span.rcache
        if span.cache_delta is not None:
            args["cache_delta"] = span.cache_delta
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": _micros(span.start - origin),
                "dur": _micros(span.duration),
                "pid": span.pid,
                "tid": 0,
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "spans": len(tracer.spans)},
    }


def _merge_delta(
    total: Dict[str, Dict[str, int]], delta: Dict[str, Dict[str, int]]
) -> None:
    for kind, counters in delta.items():
        bucket = total.setdefault(kind, {"hits": 0, "misses": 0})
        bucket["hits"] += int(counters.get("hits", 0))
        bucket["misses"] += int(counters.get("misses", 0))


def _aggregate(spans: Iterable[Span]) -> dict:
    """Totals over a group of obligation spans."""
    group = {
        "obligations": 0,
        "skipped": 0,
        "failed": 0,
        "checked": 0,
        "seconds": 0.0,
        "cache_delta": {},
        "timeouts": 0,
        "retried": 0,
        "cached": 0,
    }
    for span in spans:
        group["obligations"] += 1
        group["checked"] += span.checked
        group["seconds"] += span.duration
        if span.timed_out:
            group["timeouts"] += 1
        elif span.skipped:
            group["skipped"] += 1
        elif span.holds is False:
            group["failed"] += 1
        if span.attempts > 1:
            group["retried"] += 1
        if span.cached:
            group["cached"] += 1
        if span.cache_delta:
            _merge_delta(group["cache_delta"], span.cache_delta)
    group["seconds"] = round(group["seconds"], 6)
    return group


def _grouped(spans: List[Span], key) -> Dict[str, dict]:
    buckets: Dict[str, List[Span]] = {}
    for span in spans:
        buckets.setdefault(key(span), []).append(span)
    return {label: _aggregate(group) for label, group in buckets.items()}


def _top_scope(span: Span) -> str:
    return span.scope.split("/", 1)[0] if span.scope else ""


def metrics_payload(tracer: Tracer) -> dict:
    """Flat, diffable metrics: per-obligation rows plus aggregates.

    ``per_condition`` groups by ``(scope, condition)`` — the granularity
    of the merged condition map — and ``per_scope`` by the top-level scope
    segment (one protocol per entry when the tracer wrapped a
    ``build_table1`` run). ``totals["checked"]`` is exactly the sum of the
    traced checks' ``ISResult.total_checked``.
    """
    obligations = tracer.obligation_spans()
    origin = tracer.origin
    per_obligation = []
    for span in sorted(obligations, key=lambda s: (s.start, s.name)):
        row = span.as_dict()
        row["start_seconds"] = round(span.start - origin, 6)
        per_obligation.append(row)
    payload = {
        "schema": METRICS_SCHEMA,
        "meta": dict(tracer.meta),
        "totals": _aggregate(obligations),
        "backends": sorted({s.backend for s in obligations if s.backend}),
        "workers": sorted({s.pid for s in obligations}),
        "per_condition": _grouped(
            obligations,
            lambda s: f"{s.scope}::{s.condition}" if s.scope else s.condition,
        ),
        "per_scope": _grouped(obligations, _top_scope),
        "per_obligation": per_obligation,
        "phases": [
            {
                "name": span.name,
                "scope": span.scope,
                "seconds": round(span.duration, 6),
                "start_seconds": round(span.start - origin, 6),
            }
            for span in tracer.phase_spans()
        ],
        "resilience_events": [
            {
                "kind": span.kind,
                "key": span.condition,
                "attempt": span.attempts,
                "scope": span.scope,
                "at_seconds": round(span.start - origin, 6),
            }
            for span in tracer.spans
            if span.category == "resilience"
        ],
    }
    payload["totals"]["spans"] = len(tracer.spans)
    return payload


def _hit_rate(delta: Dict[str, Dict[str, int]]) -> str:
    hits = sum(kind.get("hits", 0) for kind in delta.values())
    total = hits + sum(kind.get("misses", 0) for kind in delta.values())
    if not total:
        return "-"
    return f"{hits / total:6.1%}"


def render_summary(tracer: Tracer) -> str:
    """Per-condition terminal table over the recorded obligation spans."""
    obligations = tracer.obligation_spans()
    if not obligations:
        return "(no obligation spans recorded)"
    header = (
        f"{'Scope :: Condition':<46} {'#Obl':>5} {'ms':>9} "
        f"{'#Checks':>9} {'Cache':>7}  {'Status':<7}"
    )
    lines = [header, "-" * len(header)]
    groups = _grouped(
        obligations,
        lambda s: f"{s.scope}::{s.condition}" if s.scope else s.condition,
    )
    for label, group in groups.items():
        if group["failed"]:
            status = "FAIL"
        elif group["timeouts"]:
            status = "TIMEOUT"
        elif group["skipped"] == group["obligations"]:
            status = "SKIP"
        else:
            status = "OK"
        lines.append(
            f"{label:<46} {group['obligations']:>5} "
            f"{group['seconds'] * 1000:>9.1f} {group['checked']:>9} "
            f"{_hit_rate(group['cache_delta']):>7}  {status:<7}"
        )
    totals = _aggregate(obligations)
    workers = {s.pid for s in obligations}
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<46} {totals['obligations']:>5} "
        f"{totals['seconds'] * 1000:>9.1f} {totals['checked']:>9} "
        f"{_hit_rate(totals['cache_delta']):>7}  "
        f"{len(workers)} worker(s)"
    )
    return "\n".join(lines)


def failure_payload(explanation) -> dict:
    """A ``repro.diagnose`` explanation as a self-describing JSON document.

    ``explanation`` is a :class:`repro.diagnose.explain.Explanation`. Every
    witness appears twice — as found and as minimized — so downstream
    tooling can diff what the shrinker removed; ``replay_confirmed`` is the
    bit CI gates on (a report with unconfirmed witnesses is itself a bug).
    """
    from ..diagnose.render import witness_to_json

    witnesses = []
    for report in explanation.witnesses:
        witnesses.append(
            {
                "condition": report.condition,
                "skipped": report.skipped,
                "replay_confirmed": report.replay_confirmed,
                "original_size": report.original_size,
                "minimized_size": report.minimized_size,
                "shrink_steps": [list(step) for step in report.steps],
                "original": witness_to_json(report.original),
                "minimized": witness_to_json(report.minimized),
            }
        )
    return {
        "schema": FAILURE_SCHEMA,
        "target": explanation.target,
        "holds": explanation.holds,
        "conditions": dict(explanation.conditions),
        "all_confirmed": explanation.all_confirmed,
        "witnesses": witnesses,
    }


def write_failure_report(explanation, path) -> Path:
    """Serialize :func:`failure_payload` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(failure_payload(explanation), indent=2) + "\n")
    return path


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), indent=2) + "\n")
    return path


def write_metrics(tracer: Tracer, path) -> Path:
    """Serialize :func:`metrics_payload` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_payload(tracer), indent=2) + "\n")
    return path
