"""Execution-level engines: the constructive soundness argument of IS.

``repro.engine.rewriting`` turns the proof of Lemmas 4.2/4.3 into an
executable transformation producing certified sequentialized executions.
``repro.engine.obligations`` + ``repro.engine.scheduler`` decompose the IS
condition checks into a DAG of obligations discharged serially or across a
process pool (the backend behind ``ISApplication.check`` and ``--jobs``).
Both backends run the same obligation list; the pool forks cold and ships
whole obligations.

Names load lazily: ``repro.core`` imports ``repro.engine.resilience``.
"""

import importlib

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

_LAZY = {
    **dict.fromkeys(__all__[:4], "rewriting"),
    **dict.fromkeys(__all__[4:9], "obligations"),
    **dict.fromkeys(__all__[9:], "scheduler"),
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
