"""Resilience policy for obligation discharge: one cooperative stop,
crash retries, and interrupt salvage.

CIVL hands every proof obligation to an SMT solver that can time out,
crash, or be killed, and the verifier survives all three. This module is
the policy half of the same property for the explicit-state engine (the
mechanism half lives in ``repro.engine.scheduler``).

Stopping is cooperative. Each thread has one :class:`StopState`: an
obligation deadline on the monotonic clock, armed by the schedulers
around each attempt (:func:`obligation_deadline`), and a stop flag that
any thread may set (:meth:`StopState.request`). The kernels call
:func:`poll` where every enumeration passes (columnar fills and scans,
evaluation-cache misses, the ``hang`` fault's sleep slices), always
between whole cell evaluations, so a stop never leaves the interner or a
column half-updated. This module imports nothing from ``repro.core``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import monotonic
from typing import Dict, Iterator, List, Optional

__all__ = [
    "DischargeInterrupted",
    "ObligationTimeout",
    "ResilienceConfig",
    "ResilienceEvent",
    "StopState",
    "events_summary",
    "obligation_deadline",
    "poll",
    "stop_state",
]

#: Retry ``k`` (1-based) first sleeps ``BACKOFF * BACKOFF_FACTOR**(k-1)`` s;
#: the pool's parent waits ``timeout * BACKSTOP_FACTOR + BACKSTOP_SLACK`` s
#: on one future before declaring its worker wedged.
BACKOFF, BACKOFF_FACTOR = 0.05, 2.0
BACKSTOP_FACTOR, BACKSTOP_SLACK = 2.0, 5.0


class ObligationTimeout(Exception):
    """Raised by :func:`poll` once the armed deadline has passed."""


class DischargeInterrupted(Exception):
    """The structured form of Ctrl-C: a discharge run stopped by
    ``KeyboardInterrupt``, carrying the outcomes completed (and stored)
    before it; ``discharge`` turns it into a partial, marked result."""

    def __init__(self, outcomes: Dict[str, object]):
        super().__init__(f"interrupted after {len(outcomes)} outcomes")
        self.outcomes = outcomes


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fault-tolerant discharge path; one value end to end.

    ``timeout_per_obligation`` is the wall-clock deadline (seconds) per
    obligation attempt; ``None`` disables deadlines. ``max_retries``
    bounds per-obligation re-executions after a crash (a deadline expiry
    is *not* retried — retrying a hang would hang again).
    ``max_pool_rebuilds`` bounds how many times the pool scheduler
    re-forks a broken pool before degrading the run to the serial backend.
    """

    timeout_per_obligation: Optional[float] = None
    max_retries: int = 2
    max_pool_rebuilds: int = 3

    def parent_backstop(self) -> Optional[float]:
        """Parent-side wait per future; ``None`` (wait forever) without a
        configured deadline."""
        if self.timeout_per_obligation is None:
            return None
        return self.timeout_per_obligation * BACKSTOP_FACTOR + BACKSTOP_SLACK


def backoff_for(attempt: int) -> float:
    """Sleep before retry ``attempt`` (1-based): exponential."""
    return BACKOFF * BACKOFF_FACTOR ** max(0, attempt - 1)


class StopState:
    """One thread's deadline and stop flag (see the module docstring)."""

    __slots__ = ("deadline", "requested")

    def __init__(self) -> None:
        self.deadline: Optional[float] = None
        self.requested = False

    def request(self) -> None:
        """Stop this state's thread at its next poll; any thread may call."""
        self.requested = True


class _Local(threading.local):
    def __init__(self) -> None:
        self.state = StopState()


_LOCAL = _Local()


def stop_state(state: Optional[StopState] = None) -> StopState:
    """The calling thread's stop state, after adopting ``state`` if given
    (so a stop can be requested before the thread starts)."""
    if state is not None:
        _LOCAL.state = state
    return _LOCAL.state


def poll() -> None:
    """Raise ``KeyboardInterrupt`` once a stop is requested and
    :class:`ObligationTimeout` past the armed deadline."""
    state = _LOCAL.state
    if state.requested:
        raise KeyboardInterrupt("stop requested")
    if state.deadline is not None and monotonic() >= state.deadline:
        raise ObligationTimeout("obligation deadline exceeded")


@contextmanager
def obligation_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Arm the calling thread's deadline ``seconds`` from now around one
    obligation attempt; ``None`` or a non-positive value arms nothing."""
    if seconds is None or seconds <= 0:
        yield
        return
    state = _LOCAL.state
    state.deadline = monotonic() + seconds
    try:
        yield
    finally:
        state.deadline = None


@dataclass
class ResilienceEvent:
    """One recovery action the scheduler took, on the shared
    ``perf_counter`` timeline.

    ``kind`` is one of ``timeout``, ``crash``, ``retry``,
    ``pool-rebuild``, ``degrade-obligation`` (one obligation fell back to
    in-parent execution), ``degrade-run`` (the whole run fell back to the
    serial backend), ``parent-timeout`` (the parent-side backstop expired
    for a wedged worker), ``interrupted``, and ``rcache-write-error``
    (appended by ``discharge()`` after the run). Schedulers record these
    unconditionally, so attaching a tracer never changes recovery
    decisions (the no-perturbation guarantee).
    """

    kind: str
    key: str = ""
    attempt: int = 0
    at: float = 0.0
    detail: str = ""


def events_summary(events: List[ResilienceEvent]) -> Dict[str, int]:
    """Event counts by kind (diagnostics and metrics export)."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts
