"""Observability for the obligation-discharge engine.

``repro.obs`` is the engine's flight recorder: a :class:`~repro.obs.tracer.Tracer`
attached to :meth:`ISApplication.check <repro.core.sequentialize.ISApplication.check>`,
a protocol ``verify()`` pipeline, or a whole ``build_table1`` sweep records
one span per discharged obligation (and per pipeline phase), and the
exporters in
:mod:`repro.obs.export` turn the spans into a Chrome ``trace_event`` file,
a flat metrics JSON, or a terminal summary table.

The subsystem is opt-in and observation-only: with no tracer attached the
engine's outputs are identical, byte for byte, to a build without this
package (see DESIGN.md, "Observability" — the no-perturbation guarantee).
"""

from .export import (
    chrome_trace,
    failure_payload,
    metrics_payload,
    render_summary,
    write_chrome_trace,
    write_failure_report,
    write_metrics,
)
from .stream import StreamingTracer, sse_event
from .tracer import Span, Tracer

__all__ = [
    "Span",
    "StreamingTracer",
    "Tracer",
    "sse_event",
    "chrome_trace",
    "failure_payload",
    "metrics_payload",
    "render_summary",
    "write_chrome_trace",
    "write_failure_report",
    "write_metrics",
]
