"""Operational semantics: configurations, steps, and executions.

Implements the transition relation :math:`\\xrightarrow{\\mathcal{P}}` of
Section 3. A configuration is a pair :math:`(g, \\Omega)` of a global store
and a finite multiset of pending asyncs, or the unique failure configuration
:math:`\\lightning`. In a configuration, any pending async
:math:`(\\ell, A) \\in \\Omega` may be scheduled next: if the gate of ``A``
fails on :math:`g \\cdot \\ell` the program *fails*; otherwise a transition
of ``A`` atomically updates the global store and adds the newly created PAs.

An execution is a sequence of configurations connected by steps. It is

* **initialized** if it starts in :math:`(g, \\{(\\ell, \\mathtt{Main})\\})`,
* **terminating** if it ends in :math:`(g, \\emptyset)`, and
* **failing** if it ends in :math:`\\lightning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Union

from .action import PendingAsync, Transition
from .multiset import Multiset
from .program import MAIN, Program
from .store import Store, combine

__all__ = [
    "Config",
    "FAILURE",
    "Failure",
    "Step",
    "Execution",
    "initial_config",
    "steps_from",
    "step_successors",
]


class Failure:
    """The unique failure configuration :math:`\\lightning`."""

    _instance: Optional["Failure"] = None

    def __new__(cls) -> "Failure":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "FAILURE"


#: Singleton failure configuration.
FAILURE = Failure()


@dataclass(frozen=True)
class Config:
    """A non-failure configuration :math:`(g, \\Omega)`."""

    glob: Store
    pending: Multiset

    @property
    def terminated(self) -> bool:
        """True if no pending asyncs remain."""
        return len(self.pending) == 0

    def __repr__(self) -> str:
        return f"Config({self.glob!r}, {self.pending!r})"


ConfigOrFailure = Union[Config, Failure]


@dataclass(frozen=True)
class Step:
    """One step of the transition relation.

    ``executed`` is the scheduled pending async; ``transition`` is the
    action transition taken (``None`` when the step is a gate failure);
    ``target`` is the successor configuration (:data:`FAILURE` on failure).
    """

    executed: PendingAsync
    transition: Optional[Transition]
    target: ConfigOrFailure

    @property
    def failing(self) -> bool:
        return self.transition is None

    def __repr__(self) -> str:
        if self.failing:
            return f"Step({self.executed!r} -> FAILURE)"
        return f"Step({self.executed!r})"


def initial_config(global_store: Store, main_locals: Store = Store()) -> Config:
    """The initialized configuration with a single PA to ``Main``."""
    return Config(global_store, Multiset([PendingAsync(MAIN, main_locals)]))


def steps_from(program: Program, config: Config) -> Iterator[Step]:
    """Enumerate all steps of the transition relation from ``config``.

    Scheduling a PA whose action gate fails yields a failing step; otherwise
    one step per transition of the action. A PA whose action is enabled but
    has no transitions (blocking) contributes no steps.
    """
    for pending in config.pending.support():
        action = program[pending.action]
        state = combine(config.glob, pending.locals)
        if not action.gate(state):
            yield Step(pending, None, FAILURE)
            continue
        remaining = config.pending.remove(pending)
        for tr in action.transitions(state):
            target = Config(tr.new_global, remaining.union(tr.created))
            yield Step(pending, tr, target)


def step_successors(program: Program, config: Config) -> List[ConfigOrFailure]:
    """Successor configurations (deduplicated order-preserving)."""
    seen = set()
    result: List[ConfigOrFailure] = []
    for step in steps_from(program, config):
        key = step.target if isinstance(step.target, Config) else FAILURE
        if key not in seen:
            seen.add(key)
            result.append(step.target)
    return result


@dataclass
class Execution:
    """A finite execution: an initial configuration plus a list of steps.

    The i-th step leads from :meth:`config_at(i) <config_at>` to
    ``config_at(i+1)``. Provides the paper's classification predicates.
    """

    initial: Config
    steps: List[Step]

    def config_at(self, index: int) -> ConfigOrFailure:
        """Configuration after ``index`` steps (0 = initial)."""
        if index == 0:
            return self.initial
        return self.steps[index - 1].target

    @property
    def final(self) -> ConfigOrFailure:
        return self.config_at(len(self.steps))

    @property
    def failing(self) -> bool:
        return isinstance(self.final, Failure)

    @property
    def terminating(self) -> bool:
        final = self.final
        return isinstance(final, Config) and final.terminated

    @property
    def initialized(self) -> bool:
        pending = list(self.initial.pending)
        return len(pending) == 1 and pending[0].action == MAIN

    def configs(self) -> Iterator[ConfigOrFailure]:
        yield self.initial
        for step in self.steps:
            yield step.target

    def validate(self, program: Program) -> None:
        """Check the execution is well-formed w.r.t. ``program``.

        Raises :class:`ValueError` on the first ill-formed step. Used by
        tests and by the execution-rewriting engine to certify its output.
        """
        current: ConfigOrFailure = self.initial
        for i, step in enumerate(self.steps):
            if isinstance(current, Failure):
                raise ValueError(f"step {i} follows the failure configuration")
            if step.executed not in current.pending:
                raise ValueError(
                    f"step {i} executes {step.executed!r} not pending in {current!r}"
                )
            action = program[step.executed.action]
            state = combine(current.glob, step.executed.locals)
            if step.failing:
                if action.gate(state):
                    raise ValueError(f"step {i} fails although the gate holds")
                current = FAILURE
                continue
            if not action.gate(state):
                raise ValueError(f"step {i} executes {step.executed!r} with false gate")
            tr = step.transition
            if tr not in action.outcomes(state):
                raise ValueError(
                    f"step {i}: {tr!r} is not a transition of {step.executed.action}"
                )
            expected = Config(
                tr.new_global,
                current.pending.remove(step.executed).union(tr.created),
            )
            if step.target != expected:
                raise ValueError(f"step {i} target mismatch: {step.target!r}")
            current = expected

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        kinds = []
        if self.initialized:
            kinds.append("initialized")
        if self.terminating:
            kinds.append("terminating")
        if self.failing:
            kinds.append("failing")
        tag = " ".join(kinds) or "partial"
        return f"Execution(<{tag}, {len(self.steps)} steps>)"
