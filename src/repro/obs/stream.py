"""Streaming span export: the bridge from the tracer to server-sent events.

The exporters in :mod:`repro.obs.export` run *after* a pipeline finishes;
a verification daemon needs the opposite — progress while the job runs.
:class:`StreamingTracer` is a :class:`~repro.obs.tracer.Tracer` that
additionally hands its spans to a ``publish`` callable, one burst per
pipeline stage. The no-perturbation guarantee is untouched: spans are
still derived from outcomes the engine computes anyway, the subclass only
*forwards* them; a publisher that raises is detached (never propagated
into the engine), so a slow or dead SSE client cannot fail a
verification.

Granularity: the engine materializes obligation spans when each
``discharge()`` (one IS application) merges, and phase spans as each
pipeline stage closes — so a streaming consumer sees per-obligation
events in stage-sized bursts plus live phase boundaries, not a
per-obligation live tick. That is the honest granularity of a tracer
that cannot perturb scheduling, so a burst closes with each phase span.

:func:`sse_event` formats one event in the ``text/event-stream`` wire
format (https://html.spec.whatwg.org/multipage/server-sent-events.html):
an ``event:`` line, one ``data:`` line per payload line, a blank
terminator. ``id:`` carries a monotonically increasing sequence number so
clients can detect gaps after a reconnect.
"""

from __future__ import annotations

import json
import threading
from typing import Callable, List, Optional

from .tracer import Span, Tracer

__all__ = ["StreamingTracer", "sse_event"]


def sse_event(event: str, data: object, event_id: Optional[int] = None) -> bytes:
    """One server-sent event, wire-formatted.

    ``data`` is JSON-encoded (or already JSON text) onto a single
    ``data:`` line (JSON never contains raw newlines), so the event is
    exactly ``[id:N] event:NAME data:JSON`` followed by the blank
    terminator.
    """
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"event: {event}")
    lines.append(f"data: {data if isinstance(data, str) else json.dumps(data)}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class StreamingTracer(Tracer):
    """A tracer that forwards its spans to a publisher, stage by stage.

    ``publish`` receives a burst: a list of JSON-ready dicts, one per
    span, each the span's :meth:`~repro.obs.tracer.Span.as_dict`
    rendering plus its index in the tracer's span list (a stable per-job
    sequence number). All the base-class views — exporters,
    consistency checks — keep working on the accumulated spans, so a
    daemon job can both stream progress *and* serve the full trace
    afterwards.
    """

    def __init__(self, publish: Callable[[List[dict]], None]):
        super().__init__()
        self._publish: Optional[Callable[[List[dict]], None]] = publish
        self._burst: List[dict] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> Span:
        span = super().add(span)
        if self._publish is not None:
            record = span.as_dict()
            record["seq"] = len(self.spans) - 1
            with self._lock:
                self._burst.append(record)
            if span.category == "phase":
                self.flush()
        return span

    def flush(self) -> None:
        """Publish the spans added since the last burst (any thread)."""
        with self._lock:
            burst, self._burst = self._burst, []
            if not burst or self._publish is None:
                return
            try:
                self._publish(burst)
            except Exception:
                # A broken consumer must never fail the engine; stop
                # publishing, keep recording.
                self._publish = None
