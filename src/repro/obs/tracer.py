"""Span recording for obligation discharge.

One :class:`Span` is recorded per unit of traced work: every obligation
and every pipeline phase (``IS[label]``, ``sequential spec``, ``ground
truth``). A span carries wall
time, the discharging process's PID, the scheduler backend, the verdict,
the enumeration count, and the evaluation-cache hit/miss *delta* attributable
to that unit — the per-obligation visibility CIVL gets for free from Z3's
statistics and our explicit-state engine previously lacked.

The tracer is strictly an *observer*: schedulers compute span ingredients
(start stamp, cache-counter snapshots) unconditionally — they are a handful
of integer reads per obligation — and the tracer only turns outcomes the
engine already returns into records. No code path branches on whether a
tracer is attached before the merged result exists, which is what makes the
no-perturbation guarantee (``check(tracer=None)`` and ``check(tracer=t)``
produce equal condition maps) hold by construction rather than by testing
alone — though ``tests/obs`` tests it anyway.

Timestamps are ``time.perf_counter()`` values. On platforms with a
``fork`` start method (the only place the pool backend runs) the monotonic
clock is shared between parent and forked workers, so spans from different
PIDs live on one timeline and the Chrome trace shows true overlap.

Workers never touch a tracer object: they ship span ingredients back to the
parent inside their :class:`~repro.engine.scheduler.ObligationOutcome`
tuples, and the parent materializes the spans. A tracer is therefore
single-process state and needs no locking.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One traced unit of work.

    ``category`` is ``"obligation"`` for scheduler units and ``"phase"``
    for pipeline stages.
    ``start`` is a raw ``perf_counter`` stamp (exporters normalize to the
    trace origin); ``duration`` is in seconds. ``cache_delta`` is the
    evaluation-cache hit/miss increment observed by the discharging process
    across this span (``None`` for spans that do not evaluate actions).
    ``holds`` is ``None`` for non-verdict spans and for skipped obligations.

    Resilience: ``category == "resilience"`` spans are zero-duration
    markers of recovery actions (``kind`` is the event kind — timeout,
    crash, retry, pool-rebuild, ... — and ``condition`` the obligation
    key). Obligation spans additionally carry ``attempts`` (execution
    attempts; >1 means the obligation was retried), ``timed_out`` (its
    deadline expired), ``cached`` (satisfied from the content-addressed
    result cache, not executed), and ``rcache`` (the result cache's
    decision for this obligation — hit, miss, invalidation or
    uncacheable — or empty when the run had no cache).
    """

    name: str
    category: str
    start: float
    duration: float
    pid: int
    backend: str = ""
    scope: str = ""
    kind: str = ""
    condition: str = ""
    checked: int = 0
    holds: Optional[bool] = None
    skipped: bool = False
    cache_delta: Optional[Dict[str, Dict[str, int]]] = None
    attempts: int = 0
    timed_out: bool = False
    cached: bool = False
    rcache: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> dict:
        """Flat JSON-ready rendering (used by the metrics exporter)."""
        record = {
            "name": self.name,
            "category": self.category,
            "scope": self.scope,
            "seconds": round(self.duration, 6),
            "pid": self.pid,
            "backend": self.backend,
        }
        if self.kind:
            record["kind"] = self.kind
        if self.condition:
            record["condition"] = self.condition
        if self.category == "obligation":
            record["checked"] = self.checked
            record["holds"] = self.holds
            record["skipped"] = self.skipped
            if self.attempts > 1:
                record["attempts"] = self.attempts
            if self.timed_out:
                record["timed_out"] = True
            if self.cached:
                record["cached"] = True
            if self.rcache:
                record["rcache"] = self.rcache
        if self.category == "resilience":
            record["attempts"] = self.attempts
        if self.cache_delta is not None:
            record["cache_delta"] = self.cache_delta
        return record


@dataclass
class Tracer:
    """Collects spans across one or more verification pipelines.

    A tracer can be attached to a single ``ISApplication.check`` call, a
    protocol ``verify()`` pipeline, or a whole ``build_table1`` sweep; the
    *scope* stack (``scope("paxos")``, nested ``scope("IS[Paxos]")``)
    labels spans with where in the pipeline they were recorded, so the
    exporters can aggregate per protocol and per IS application.
    """

    spans: List[Span] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.root_pid = os.getpid()
        self._scopes: List[str] = []

    # ------------------------------------------------------------------ #
    # Scopes and recording
    # ------------------------------------------------------------------ #

    @property
    def current_scope(self) -> str:
        return "/".join(self._scopes)

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Label spans recorded inside the block with ``label`` (nested
        scopes join with ``/``)."""
        self._scopes.append(str(label))
        try:
            yield
        finally:
            self._scopes.pop()

    def add(self, span: Span) -> Span:
        """Record a fully-built span (scope defaults to the current one)."""
        if not span.scope:
            span.scope = self.current_scope
        self.spans.append(span)
        return span

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Record a ``phase`` span around a block of pipeline work."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(
                Span(
                    name=name,
                    category="phase",
                    start=started,
                    duration=time.perf_counter() - started,
                    pid=os.getpid(),
                )
            )

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    def obligation_spans(self) -> List[Span]:
        return [s for s in self.spans if s.category == "obligation"]

    def phase_spans(self) -> List[Span]:
        return [s for s in self.spans if s.category == "phase"]

    @property
    def origin(self) -> float:
        """Earliest recorded start stamp (0.0 on an empty tracer);
        exporters subtract it so traces begin at t=0."""
        return min((s.start for s in self.spans), default=0.0)

    def total_checked(self) -> int:
        """Total enumeration count across all obligation spans. For a
        single traced ``check`` this equals ``ISResult.total_checked``."""
        return sum(s.checked for s in self.obligation_spans())

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        obligations = len(self.obligation_spans())
        return (
            f"Tracer({len(self.spans)} spans, {obligations} obligations, "
            f"scope={self.current_scope!r})"
        )
