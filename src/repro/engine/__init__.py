"""Execution-level engines: the constructive soundness argument of IS.

``repro.engine.rewriting`` turns the proof of Lemmas 4.2/4.3 into an
executable transformation producing certified sequentialized executions.
``repro.engine.obligations`` + ``repro.engine.scheduler`` decompose the IS
condition checks into a DAG of obligations discharged serially or across a
process pool (the backend behind ``ISApplication.check`` and ``--jobs``).
Both backends run the same obligation list; the pool forks cold and ships
whole obligations.
"""

from .obligations import (
    Obligation,
    build_obligations,
    discharge,
    execute_obligation,
    merge_outcomes,
)
from .rewriting import RewriteError, RewriteResult, RewriteStats, rewrite_execution
from .scheduler import (
    ObligationOutcome,
    ProcessPoolScheduler,
    SerialScheduler,
    make_scheduler,
)

__all__ = [
    "RewriteError",
    "RewriteResult",
    "RewriteStats",
    "rewrite_execution",
    "Obligation",
    "build_obligations",
    "execute_obligation",
    "merge_outcomes",
    "discharge",
    "ObligationOutcome",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
]
