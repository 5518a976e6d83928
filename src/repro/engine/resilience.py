"""Resilience policy for obligation discharge: deadlines, retries, and
interrupt salvage.

CIVL hands every proof obligation to an SMT solver that can time out,
crash, or be killed, and the verifier survives all three. This module is
the policy half of the same property for the explicit-state engine: a
:class:`ResilienceConfig` bundles the per-obligation wall-clock deadline,
the crash-retry budget with exponential backoff, the pool-rebuild bound,
and the checkpoint location, and travels as one value from the CLI down
to the schedulers (the mechanism half lives in
``repro.engine.scheduler``; the journal in ``repro.engine.journal``).

Deadlines are enforced *inside the discharging process* with a real-time
interval timer (``SIGALRM``): the worker — or the serial backend's parent
— arms :func:`deadline_guard` around one obligation, and a hung
enumeration is interrupted mid-sleep or between bytecodes and surfaces as
:class:`ObligationTimeout`, which the scheduler converts into a typed
``TIMEOUT`` outcome instead of a wedged run. On platforms (or threads)
without ``SIGALRM`` the guard degrades to a no-op — the parent-side
backstop in the pool scheduler still bounds the damage there.

:class:`DischargeInterrupted` is the structured form of Ctrl-C: the
scheduler salvages every completed outcome, flushes the checkpoint
journal, and raises this instead of letting ``KeyboardInterrupt``
unwind with everything lost; ``discharge`` turns it into a partial,
explicitly-marked result.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "DischargeInterrupted",
    "ObligationTimeout",
    "ResilienceConfig",
    "ResilienceEvent",
    "deadline_guard",
    "events_summary",
]


class ObligationTimeout(Exception):
    """Raised inside :func:`deadline_guard` when the deadline expires."""


class DischargeInterrupted(Exception):
    """A discharge run stopped by ``KeyboardInterrupt``, carrying the
    outcomes completed (and journaled) before the interrupt."""

    def __init__(self, outcomes: Dict[str, object]):
        super().__init__(f"interrupted after {len(outcomes)} outcomes")
        self.outcomes = outcomes


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fault-tolerant discharge path; one value end to end.

    ``timeout_per_obligation`` is the wall-clock deadline (seconds) per
    obligation attempt; ``None`` disables deadlines (the pre-resilience
    behaviour). ``max_retries`` bounds per-obligation re-executions after
    a crash (a deadline expiry is *not* retried — retrying a hang would
    hang again); retry ``k`` sleeps ``backoff * backoff_factor**(k-1)``
    seconds first. ``max_pool_rebuilds`` bounds how many times the pool
    scheduler re-forks a broken pool before degrading the whole run to
    the serial backend. The parent-side backstop —
    ``timeout * parent_backstop_factor + parent_backstop_slack`` — is how
    long the parent waits on a single future before declaring the worker
    wedged beyond the in-worker alarm's reach.

    ``checkpoint_dir``/``resume`` configure the append-only outcome
    journal (``repro.engine.journal``); they are carried here so one
    object plumbs through every ``verify()`` pipeline.
    """

    timeout_per_obligation: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_pool_rebuilds: int = 3
    parent_backstop_factor: float = 2.0
    parent_backstop_slack: float = 5.0
    checkpoint_dir: Optional[str] = None
    resume: bool = False

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based): exponential."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** max(0, attempt - 1)

    def parent_backstop(self) -> Optional[float]:
        """Parent-side wait per future; ``None`` (wait forever) without a
        configured deadline — exactly the pre-resilience behaviour."""
        if self.timeout_per_obligation is None:
            return None
        return (
            self.timeout_per_obligation * self.parent_backstop_factor
            + self.parent_backstop_slack
        )


@dataclass
class ResilienceEvent:
    """One recovery action the scheduler took, on the shared
    ``perf_counter`` timeline.

    ``kind`` is one of ``timeout`` (deadline expired), ``crash`` (a
    worker raised or died), ``retry`` (an obligation was resubmitted),
    ``pool-rebuild`` (a broken pool was re-forked), ``degrade-obligation``
    (an obligation fell back to in-parent execution),
    ``degrade-run`` (the whole run fell back to the serial backend),
    ``parent-timeout`` (the parent-side backstop expired for a wedged
    worker), ``interrupted``, and ``journal-write-error`` (a checkpoint
    append failed on disk and the journal degraded to no-checkpoint —
    appended by ``discharge()`` after the run, not by a scheduler).
    Schedulers record these unconditionally — they cost one list
    append — so attaching a tracer never changes recovery decisions (the
    no-perturbation guarantee).
    """

    kind: str
    key: str = ""
    attempt: int = 0
    at: float = 0.0
    detail: str = ""

    def as_dict(self) -> dict:
        record = {"kind": self.kind, "key": self.key, "attempt": self.attempt}
        if self.detail:
            record["detail"] = self.detail
        return record


def _alarm_available() -> bool:
    return (
        hasattr(signal, "setitimer")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def deadline_guard(seconds: Optional[float]) -> Iterator[bool]:
    """Arm a wall-clock deadline around one obligation attempt.

    Yields ``True`` when the deadline is armed, ``False`` when it could
    not be (no deadline configured, no ``SIGALRM`` on this platform, or
    not on the main thread — pool workers always qualify: a forked
    worker's work runs on its main thread). On expiry the running frame
    receives :class:`ObligationTimeout`.
    """
    if seconds is None or seconds <= 0 or not _alarm_available():
        yield False
        return

    def _expired(_signum, _frame):
        raise ObligationTimeout(f"deadline of {seconds}s exceeded")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def events_summary(events: List[ResilienceEvent]) -> Dict[str, int]:
    """Event counts by kind (diagnostics and metrics export)."""
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts
