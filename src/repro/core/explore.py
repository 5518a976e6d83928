"""Explicit-state exploration of asynchronous programs.

This module is the workhorse that substitutes for the SMT backend of the
paper's CIVL implementation: on a finite protocol instance it computes the
exact sets used in Definition 3.2,

* :math:`Good(\\mathcal{P})` — initial stores from which the program cannot
  fail, and
* :math:`Trans(\\mathcal{P})` — the input/output summary relating initial
  stores to final global stores of terminating executions,

by exhaustive breadth-first search over configurations. It also provides
execution sampling and bounded enumeration of terminating executions, used
by the refinement tests and the execution-rewriting engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .program import Program
from .semantics import (
    Config,
    Execution,
    Failure,
    Step,
    initial_config,
    steps_from,
)
from .store import Store, combine

__all__ = [
    "ExplorationResult",
    "ExplorationBudgetExceeded",
    "explore",
    "instance_summary",
    "InstanceSummary",
    "good_and_trans",
    "reachable_globals",
    "random_execution",
    "terminating_executions",
]


class ExplorationBudgetExceeded(RuntimeError):
    """Raised when exploration exceeds its configuration budget.

    Carries what the aborted search had already learned: ``explored`` is
    the number of distinct configurations reached before the budget blew
    (always ``limit + 1`` — the overflowing configuration is counted) and
    ``limit`` is the budget itself. Callers report this as a BUDGET
    verdict (see ``repro.protocols.common`` and ``repro.analysis.table1``)
    rather than letting the traceback discard the partial count.
    """

    def __init__(self, explored: int, limit: int):
        super().__init__(
            f"exploration budget exceeded: {explored} reachable "
            f"configurations (limit {limit})"
        )
        self.explored = explored
        self.limit = limit


@dataclass
class ExplorationResult:
    """Result of exploring a program from a set of initial configurations."""

    reachable: Set[Config]
    can_fail: bool
    final_globals: Set[Store]
    #: Reachable configurations that are deadlocked: not terminated, yet no
    #: enabled step exists (every pending action is blocking).
    deadlocks: Set[Config] = field(default_factory=set)

    @property
    def num_configs(self) -> int:
        return len(self.reachable)


def explore(
    program: Program,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
    canonicalize=None,
) -> ExplorationResult:
    """Breadth-first exploration of all configurations reachable from
    ``initials``. Collects terminating global stores, whether a failure is
    reachable, and deadlocked configurations.

    ``canonicalize`` (a ``Config -> Config`` map, e.g.
    :meth:`repro.core.symmetry.Canonicalizer.config`) folds every visited
    configuration to its orbit representative *before* deduplication, so
    the search explores the quotient state space: ``reachable`` then holds
    one configuration per orbit. Sound when the program is equivariant
    under the underlying permutation group — each representative's
    successors are representatives of the original successors' orbits —
    which is exactly what a protocol asserts by declaring a
    :class:`~repro.core.symmetry.SymmetrySpec`.
    """
    frontier: List[Config] = []
    reachable: Set[Config] = set()
    final_globals: Set[Store] = set()
    deadlocks: Set[Config] = set()
    can_fail = False

    for config in initials:
        if canonicalize is not None:
            config = canonicalize(config)
        if config not in reachable:
            reachable.add(config)
            frontier.append(config)

    while frontier:
        config = frontier.pop()
        if config.terminated:
            final_globals.add(config.glob)
            continue
        progressed = False
        for step in steps_from(program, config):
            progressed = True
            if isinstance(step.target, Failure):
                can_fail = True
                continue
            target = step.target
            if canonicalize is not None:
                target = canonicalize(target)
            if target not in reachable:
                reachable.add(target)
                if max_configs is not None and len(reachable) > max_configs:
                    raise ExplorationBudgetExceeded(len(reachable), max_configs)
                frontier.append(target)
        if not progressed:
            deadlocks.add(config)

    return ExplorationResult(reachable, can_fail, final_globals, deadlocks)


@dataclass
class InstanceSummary:
    """Summary of one initialized instance: failure possibility + outputs."""

    initial: Config
    can_fail: bool
    final_globals: Set[Store]
    #: Distinct configurations the exhaustive search visited — the honest
    #: work measure program-level refinement checks report as ``checked``.
    num_configs: int = 0
    #: The program and budget the search ran under. A summary stands in
    #: for another search only if it :meth:`answers` that search.
    program: Optional[Program] = field(default=None, repr=False, compare=False)
    max_configs: Optional[int] = None

    def answers(
        self, program: Program, initial: Config, max_configs: Optional[int]
    ) -> bool:
        """Whether this summary is what ``instance_summary`` would compute
        for ``(program, initial, max_configs)``: the same program object,
        an equal initial configuration and the same budget."""
        return (
            self.program is program
            and self.max_configs == max_configs
            and self.initial == initial
        )


def instance_summary(
    program: Program,
    global_store: Store,
    main_locals: Store = Store(),
    max_configs: Optional[int] = None,
) -> InstanceSummary:
    """Explore a single initialized instance ``(g, {(ℓ, Main)})``."""
    init = initial_config(global_store, main_locals)
    result = explore(program, [init], max_configs=max_configs)
    return InstanceSummary(
        init,
        result.can_fail,
        result.final_globals,
        result.num_configs,
        program=program,
        max_configs=max_configs,
    )


def good_and_trans(
    program: Program,
    initial_stores: Iterable[Tuple[Store, Store]],
    max_configs: Optional[int] = None,
) -> Tuple[Set[Store], Set[Tuple[Store, Store]]]:
    """Compute :math:`Good(\\mathcal{P})` and :math:`Trans(\\mathcal{P})`
    restricted to the given initial ``(global, main-local)`` store pairs.

    Returns ``(good, trans)`` where ``good`` contains the combined initial
    stores :math:`g \\cdot \\ell` without reachable failure and ``trans``
    contains pairs :math:`(g \\cdot \\ell, g')` for terminating executions.
    """
    good: Set[Store] = set()
    trans: Set[Tuple[Store, Store]] = set()
    for global_store, main_locals in initial_stores:
        summary = instance_summary(program, global_store, main_locals, max_configs)
        sigma = combine(global_store, main_locals)
        if not summary.can_fail:
            good.add(sigma)
        for final in summary.final_globals:
            trans.add((sigma, final))
    return good, trans


def reachable_globals(
    program: Program,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
) -> Set[Store]:
    """All global stores occurring in reachable configurations.

    The primary source of store universes for discharging mover and IS
    conditions on an instance (see ``repro.core.universe``).
    """
    result = explore(program, initials, max_configs=max_configs)
    return {config.glob for config in result.reachable}


def random_execution(
    program: Program,
    init: Config,
    rng: random.Random,
    max_steps: int = 10_000,
) -> Execution:
    """Sample one execution under a uniformly random scheduler.

    Runs until termination, failure, deadlock, or the step bound. Used by
    randomized refinement tests and as input to the rewriting engine.
    """
    steps: List[Step] = []
    current = init
    for _ in range(max_steps):
        if current.terminated:
            break
        options = list(steps_from(program, current))
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        if isinstance(step.target, Failure):
            break
        current = step.target
    return Execution(init, steps)


def terminating_executions(
    program: Program,
    init: Config,
    limit: Optional[int] = None,
    max_depth: int = 10_000,
) -> Iterator[Execution]:
    """Enumerate terminating executions from ``init`` by depth-first search.

    Intended for small instances only (the number of interleavings grows
    factorially); ``limit`` caps the number of executions yielded.
    """
    count = 0
    stack: List[Tuple[Config, List[Step]]] = [(init, [])]
    while stack:
        config, prefix = stack.pop()
        if config.terminated:
            yield Execution(init, list(prefix))
            count += 1
            if limit is not None and count >= limit:
                return
            continue
        if len(prefix) >= max_depth:
            continue
        for step in steps_from(program, config):
            if isinstance(step.target, Failure):
                continue
            stack.append((step.target, prefix + [step]))
