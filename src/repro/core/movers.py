"""Mover types and commutativity checks (Section 3, "Left movers").

An action ``l`` is a **left mover** w.r.t. an action ``x`` if

1. the gate of ``l`` is *forward-preserved* by ``x``,
2. the gate of ``x`` is *backward-preserved* by ``l``,
3. ``l`` *commutes to the left* of ``x`` (executing ``x`` then ``l`` can be
   replaced by ``l`` then ``x`` with the same final global store and the
   same created pending asyncs), and
4. ``l`` is *non-blocking* (has a transition from every store in its gate).

``l`` is a left mover w.r.t. a program if it is a left mover w.r.t. every
action of the program. Right movers are the mirror image used by Lipton
reduction (``repro.reduction``). All conditions are discharged by exhaustive
enumeration over a :class:`~repro.core.universe.StoreUniverse`, whose PA
context encodes CIVL's linear-permission discipline (which PAs may coexist).

The loops below are the checker's reference oracle for LM: a plain
transcription of the four conditions. Each condition is first offered to
the columnar fast path (``repro.core.columnar``), which runs the same
enumeration over interned columns and declines only for a PA context
whose ``cache_key`` is ``None``; wrapping a context in
:class:`~repro.core.context.UncachableContext` therefore runs these loops.

For bulk mover-type inference use :class:`MoverOracle`, which memoizes
action outcomes and stops at the first counterexample.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Tuple

from ..diagnose.witness import COUNTEREXAMPLE_KEEP, CommutationWitness, GateWitness
from .action import Action, PendingAsync
from .cache import CachedAction, process_cache
from .columnar import left_mover_condition_columnar
from .program import Program
from .refinement import CheckResult, _fail
from .store import Store, combine
from .universe import StoreUniverse

__all__ = [
    "MoverType",
    "MoverOracle",
    "left_mover_conditions",
    "is_left_mover",
    "is_left_mover_wrt_program",
    "is_right_mover",
    "infer_mover_type",
]

class MoverType(enum.Enum):
    """Lipton mover types."""

    BOTH = "both"
    LEFT = "left"
    RIGHT = "right"
    NON = "non"

    @property
    def is_left(self) -> bool:
        return self in (MoverType.LEFT, MoverType.BOTH)

    @property
    def is_right(self) -> bool:
        return self in (MoverType.RIGHT, MoverType.BOTH)


def _cached(action) -> CachedAction:
    """A memoized view of ``action`` through the process-wide evaluation
    cache, so gate/transition enumerations are shared across all mover and
    IS obligations of a discharge run. The columnar tables cache LM
    evaluations too, but without these views LM re-evaluates what abs and
    CO already memoized and holds second copies of the transition lists:
    about 3% more peak memory on the benchmark ledger (EXPERIMENTS.md,
    "Memo views under LM: kept")."""
    return process_cache().cached(action)


def _gate_forward_preserved(
    l, x, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Condition (1): ρ_l stays true across any gate-satisfying x step."""
    fast = left_mover_condition_columnar(
        "forward_preservation", l, x, universe, fail_fast
    )
    if fast is not None:
        return fast
    result = CheckResult(f"gate of {l.name} forward-preserved by {x.name}", True)
    pair = universe.context.pair
    for g in universe.globals_:
        for ll in universe.locals_for(l.name):
            if not l.gate(combine(g, ll)):
                continue
            for lx in universe.locals_for(x.name):
                if not pair(g, PendingAsync(l.name, ll), PendingAsync(x.name, lx)):
                    continue
                state_x = combine(g, lx)
                if not x.gate(state_x):
                    continue
                for tr in x.transitions(state_x):
                    result.checked += 1
                    if not l.gate(combine(tr.new_global, ll)):
                        _fail(
                            result,
                            CommutationWitness(
                                reason="gate lost",
                                check="forward-preservation",
                                actors=(l.name, x.name),
                                global_store=g,
                                left_locals=ll,
                                right_locals=lx,
                                first_transition=tr,
                            ),
                        )
                        if fail_fast:
                            return result
    return result


def _gate_backward_preserved(
    l, x, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Condition (2): if ρ_x holds after an l step, it held before."""
    fast = left_mover_condition_columnar(
        "backward_preservation", l, x, universe, fail_fast
    )
    if fast is not None:
        return fast
    result = CheckResult(f"gate of {x.name} backward-preserved by {l.name}", True)
    pair = universe.context.pair
    for g in universe.globals_:
        for ll in universe.locals_for(l.name):
            state_l = combine(g, ll)
            if not l.gate(state_l):
                continue
            for tr in l.transitions(state_l):
                for lx in universe.locals_for(x.name):
                    if not pair(g, PendingAsync(l.name, ll), PendingAsync(x.name, lx)):
                        continue
                    result.checked += 1
                    if x.gate(combine(tr.new_global, lx)) and not x.gate(
                        combine(g, lx)
                    ):
                        _fail(
                            result,
                            CommutationWitness(
                                reason="gate introduced",
                                check="backward-preservation",
                                actors=(l.name, x.name),
                                global_store=g,
                                left_locals=ll,
                                right_locals=lx,
                                first_transition=tr,
                            ),
                        )
                        if fail_fast:
                            return result
    return result


def _commutes_left(
    l, x, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Condition (3): every x;l execution has a matching l;x execution."""
    fast = left_mover_condition_columnar(
        "commutation", l, x, universe, fail_fast
    )
    if fast is not None:
        return fast
    result = CheckResult(f"{l.name} commutes to the left of {x.name}", True)
    pair = universe.context.pair
    for g in universe.globals_:
        for ll in universe.locals_for(l.name):
            if not l.gate(combine(g, ll)):
                continue
            for lx in universe.locals_for(x.name):
                if not pair(g, PendingAsync(l.name, ll), PendingAsync(x.name, lx)):
                    continue
                state_x = combine(g, lx)
                if not x.gate(state_x):
                    continue
                for tr_x in x.transitions(state_x):
                    mid = tr_x.new_global
                    state_l = combine(mid, ll)
                    for tr_l in l.transitions(state_l):
                        result.checked += 1
                        if not _has_swapped(l, x, g, ll, lx, tr_x, tr_l):
                            _fail(
                                result,
                                CommutationWitness(
                                    reason="no matching l-then-x execution",
                                    check="commutation",
                                    actors=(l.name, x.name),
                                    global_store=g,
                                    left_locals=ll,
                                    right_locals=lx,
                                    first_transition=tr_x,
                                    second_transition=tr_l,
                                ),
                            )
                            if fail_fast:
                                return result
    return result


def _has_swapped(l, x, g, ll, lx, tr_x, tr_l) -> bool:
    """∃ĝ: l from g reaches ĝ with tr_l's PAs, then x from ĝ reaches the
    same final global with tr_x's PAs."""
    for tr_l2 in l.transitions(combine(g, ll)):
        if tr_l2.created != tr_l.created:
            continue
        for tr_x2 in x.transitions(combine(tr_l2.new_global, lx)):
            if tr_x2.created == tr_x.created and tr_x2.new_global == tr_l.new_global:
                return True
    return False


def _non_blocking(
    l, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Condition (4): the action has a transition from every gate store."""
    fast = left_mover_condition_columnar(
        "non_blocking", l, l, universe, fail_fast
    )
    if fast is not None:
        return fast
    result = CheckResult(f"{l.name} non-blocking", True)
    for g in universe.globals_:
        for ll in universe.locals_for(l.name):
            if not universe.context.single(g, PendingAsync(l.name, ll)):
                continue
            state = combine(g, ll)
            if not l.gate(state):
                continue
            result.checked += 1
            if not l.transitions(state):
                _fail(
                    result,
                    GateWitness(
                        reason="blocks in gate-satisfying store",
                        check="non-blocking",
                        actors=(l.name,),
                        state=state,
                    ),
                )
                if fail_fast:
                    return result
    return result


def left_mover_conditions(
    l: Action, x: Action, universe: StoreUniverse
) -> Dict[str, CheckResult]:
    """The four left-mover conditions of ``l`` w.r.t. ``x``, individually."""
    lc, xc = _cached(l), _cached(x)
    return {
        "forward_preservation": _gate_forward_preserved(lc, xc, universe),
        "backward_preservation": _gate_backward_preserved(lc, xc, universe),
        "commutation": _commutes_left(lc, xc, universe),
        "non_blocking": _non_blocking(lc, universe),
    }


def _combine_conditions(name: str, conditions: Dict[str, CheckResult]) -> CheckResult:
    result = CheckResult(name, True)
    for condition in conditions.values():
        result.checked += condition.checked
        if not condition.holds:
            result.holds = False
            result.counterexamples.extend(
                cx.with_prefix(condition.name) for cx in condition.counterexamples
            )
    del result.counterexamples[COUNTEREXAMPLE_KEEP:]
    return result


def is_left_mover(
    l: Action, x: Action, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Combined left-mover check of ``l`` w.r.t. a single action ``x``."""
    lc, xc = _cached(l), _cached(x)
    conditions = {
        "forward_preservation": _gate_forward_preserved(lc, xc, universe, fail_fast),
        "backward_preservation": _gate_backward_preserved(lc, xc, universe, fail_fast),
        "commutation": _commutes_left(lc, xc, universe, fail_fast),
        "non_blocking": _non_blocking(lc, universe, fail_fast),
    }
    return _combine_conditions(f"{l.name} left mover wrt {x.name}", conditions)


def is_right_mover(
    r: Action, x: Action, universe: StoreUniverse, fail_fast: bool = False
) -> CheckResult:
    """Right-mover check of ``r`` w.r.t. ``x``.

    ``r`` may commute to the right of ``x``: every ``r;x`` execution has a
    matching ``x;r`` execution, and moving ``x`` earlier neither introduces
    a failure of ``x`` (gate backward-preservation by ``r``) nor destroys a
    failure of ``r`` (gate forward-preservation by ``x``). The commutation
    diagram of ``r;x -> x;r`` is exactly condition (3) with the roles of
    the two actions swapped.
    """
    rc, xc = _cached(r), _cached(x)
    conditions = {
        "commutation": _commutes_left(xc, rc, universe, fail_fast),
        "backward_preservation": _gate_backward_preserved(rc, xc, universe, fail_fast),
        "forward_preservation": _gate_forward_preserved(rc, xc, universe, fail_fast),
    }
    return _combine_conditions(f"{r.name} right mover wrt {x.name}", conditions)


def is_left_mover_wrt_program(
    l: Action,
    program: Program,
    universe: StoreUniverse,
    skip: Iterable[str] = (),
) -> CheckResult:
    """``LeftMover(l, P)``: left mover w.r.t. every action of ``program``.

    ``skip`` lists action names to exclude (e.g. in iterated IS, actions
    already eliminated from the pool, cf. Section 5.3).
    """
    skipped = set(skip)
    lc = _cached(l)
    result = CheckResult(f"{l.name} left mover wrt program", True)
    for name, x in program.actions():
        if name in skipped:
            continue
        sub = is_left_mover(lc, _cached(x), universe)  # type: ignore[arg-type]
        result.checked += sub.checked
        if not sub.holds:
            result.holds = False
            result.counterexamples.extend(
                cx.with_prefix(f"wrt {name}") for cx in sub.counterexamples
            )
    del result.counterexamples[COUNTEREXAMPLE_KEEP:]
    return result


class MoverOracle:
    """Memoized, fail-fast mover-type inference over a whole program.

    Used by Lipton reduction, where every action is classified against
    every other: action outcomes are cached per store and each pairwise
    check stops at its first counterexample.
    """

    def __init__(self, program: Program, universe: StoreUniverse):
        self.program = program
        self.universe = universe
        self._cached = {name: _cached(a) for name, a in program.actions()}
        self._left: Dict[Tuple[str, str], bool] = {}
        self._right: Dict[Tuple[str, str], bool] = {}

    def left(self, l_name: str, x_name: str) -> bool:
        key = (l_name, x_name)
        if key not in self._left:
            self._left[key] = is_left_mover(
                self._cached[l_name],  # type: ignore[arg-type]
                self._cached[x_name],  # type: ignore[arg-type]
                self.universe,
                fail_fast=True,
            ).holds
        return self._left[key]

    def right(self, r_name: str, x_name: str) -> bool:
        key = (r_name, x_name)
        if key not in self._right:
            self._right[key] = is_right_mover(
                self._cached[r_name],  # type: ignore[arg-type]
                self._cached[x_name],  # type: ignore[arg-type]
                self.universe,
                fail_fast=True,
            ).holds
        return self._right[key]

    def mover_type(self, name: str, skip: Iterable[str] = ()) -> MoverType:
        skipped = set(skip)
        left = True
        right = True
        for other in self.program.action_names():
            if other in skipped:
                continue
            if left and not self.left(name, other):
                left = False
            if right and not self.right(name, other):
                right = False
            if not left and not right:
                return MoverType.NON
        if left and right:
            return MoverType.BOTH
        return MoverType.LEFT if left else MoverType.RIGHT


def infer_mover_type(
    action: Action,
    program: Program,
    universe: StoreUniverse,
    skip: Iterable[str] = (),
) -> MoverType:
    """Infer the mover type of ``action`` against the pool of actions in
    ``program`` (convenience wrapper over :class:`MoverOracle`)."""
    oracle = MoverOracle(program, universe)
    oracle._cached[action.name] = _cached(action)
    return oracle.mover_type(action.name, skip=skip)
