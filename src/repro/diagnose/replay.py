"""Replay a counterexample witness against the predicate it violates.

The point of a typed witness is that it can be *re-executed*: given the
:class:`~repro.core.sequentialize.ISApplication` it came from and the
condition-map key it was reported under, this module rebuilds the exact
predicate the original checker evaluated — the refinement inclusion, the
left-mover diagram, the induction step, the cooperation measure — and
re-evaluates it on the witness's stores. :func:`replay_witness` returns
``True`` iff the predicate still *fails*, which serves two purposes:

* **confirmation** — every witness the ``explain`` pipeline emits is
  re-checked, so a report never shows a stale or miscopied store;
* **shrinking** — the delta-debugging loop in ``repro.diagnose.shrink``
  uses replay as its oracle, so every accepted edit is proof-preserving.

Replay checks the *semantic* violation only: universe admissibility
(which stores the original enumeration visited, PA-context linearity) is
deliberately dropped, since a shrunk store is usually outside the
enumerated grid — that is the point. What replay does insist on is that
claimed transitions are really transitions of the claimed actions (a
witness must exhibit real behaviour, not fabricated tuples).
"""

from __future__ import annotations

from typing import Tuple

from ..core.action import Action, PendingAsync
from ..core.movers import _has_swapped
from ..core.multiset import Multiset
from ..core.semantics import Config
from ..core.sequentialize import ISApplication, Transition, derive_m_prime
from ..core.store import combine
from .witness import Counterexample, SkippedMarker, TimeoutMarker

__all__ = [
    "replay_witness",
    "replay_refinement",
    "replay_mover",
]


def replay_refinement(concrete: Action, abstract: Action, cx: Counterexample) -> bool:
    """Does ``cx`` still violate ``concrete ≼ abstract``?"""
    if cx.check == "gate-inclusion":
        return abstract.gate(cx.state) and not concrete.gate(cx.state)
    if cx.check == "transition-inclusion":
        if not abstract.gate(cx.state):
            return False
        return cx.transition in concrete.outcomes(
            cx.state
        ) and cx.transition not in abstract.outcomes(cx.state)
    raise ValueError(f"not a refinement witness: {cx.check!r}")


def replay_mover(l: Action, x: Action, cx: Counterexample) -> bool:
    """Does ``cx`` still violate its left-mover condition of ``l`` wrt ``x``?"""
    if cx.check == "non-blocking":
        return l.gate(cx.state) and not l.outcomes(cx.state)
    g, ll, lx = cx.global_store, cx.left_locals, cx.right_locals
    if cx.check == "forward-preservation":
        tr = cx.first_transition
        state_x = combine(g, lx)
        return (
            l.gate(combine(g, ll))
            and x.gate(state_x)
            and tr in x.outcomes(state_x)
            and not l.gate(combine(tr.new_global, ll))
        )
    if cx.check == "backward-preservation":
        tr = cx.first_transition
        state_l = combine(g, ll)
        return (
            l.gate(state_l)
            and tr in l.outcomes(state_l)
            and x.gate(combine(tr.new_global, lx))
            and not x.gate(combine(g, lx))
        )
    if cx.check == "commutation":
        tr_x, tr_l = cx.first_transition, cx.second_transition
        state_x = combine(g, lx)
        return (
            l.gate(combine(g, ll))
            and x.gate(state_x)
            and tr_x in x.outcomes(state_x)
            and tr_l in l.outcomes(combine(tr_x.new_global, ll))
            and not _has_swapped(l, x, g, ll, lx, tr_x, tr_l)
        )
    raise ValueError(f"not a mover witness: {cx.check!r}")


def _refinement_pair(app: ISApplication, condition: str) -> Tuple[Action, Action]:
    """The (concrete, abstract) action pair of a refinement-shaped
    condition entry, rebuilt exactly as the checker built it."""
    if condition == "I1":
        invariant = app.invariant
        return app.program[app.m_name], Action(
            app.m_name, invariant.gate, invariant.transitions, invariant.params
        )
    if condition == "I2":
        restricted = derive_m_prime(app.invariant, app.eliminated, name="I|E-free")
        return (
            Action(app.m_name, restricted.gate, restricted.transitions),
            Action(app.m_name, app.m_prime.gate, app.m_prime.transitions),
        )
    if condition.startswith("abs[") and condition.endswith("]"):
        name = condition[4:-1]
        return app.program[name], app.abstractions[name]
    raise ValueError(f"no refinement pair for condition {condition!r}")


def _lm_pair(app: ISApplication, cx: Counterexample) -> Tuple[Action, Action]:
    """The (α(name)-as-name, other) action pair of an LM witness, from its
    ``actors`` — the same renaming ``check_lm_pair`` applies."""
    name = cx.actors[0]
    abstraction = app.abstraction_of(name)
    l = Action(name, abstraction.gate, abstraction.transitions, abstraction.params)
    if len(cx.actors) == 1:  # non-blocking involves l alone
        return l, l
    return l, app.program[cx.actors[1]]


def _replay_i3(app: ISApplication, cx: Counterexample) -> bool:
    sigma = cx.state
    t, chosen = cx.context
    invariant = app.invariant
    if not invariant.gate(sigma):
        return False
    outcomes = invariant.outcomes(sigma)
    if t not in outcomes:
        return False
    names = set(app.eliminated)
    if cx.check == "choice":
        try:
            rechosen = app.choice(sigma, t)
        except Exception:
            return False
        return rechosen.action not in names or rechosen not in t.created
    try:
        if app.choice(sigma, t) != chosen:
            return False
    except Exception:
        return False
    abstraction = app.abstraction_of(chosen.action)
    state_a = combine(t.new_global, chosen.locals)
    if cx.check == "i3-gate":
        return not abstraction.gate(state_a)
    if cx.check == "i3-composition":
        tr_a = cx.transition
        if not abstraction.gate(state_a) or tr_a not in abstraction.outcomes(state_a):
            return False
        remaining = t.created.remove(chosen)
        composed = Transition(tr_a.new_global, remaining.union(tr_a.created))
        return composed not in set(outcomes)
    raise ValueError(f"not an I3 witness: {cx.check!r}")


def _replay_co(app: ISApplication, cx: Counterexample) -> bool:
    name = cx.actors[0]
    g, l = cx.context
    abstraction = app.abstraction_of(name)
    state = combine(g, l)
    if not abstraction.gate(state):
        return False
    before = Config(g, Multiset([PendingAsync(name, l)]))
    for tr in abstraction.outcomes(state):
        after = Config(tr.new_global, tr.created)
        if app.measure.decreases(before, after):
            return False
    return True


def replay_witness(app: ISApplication, condition: str, cx: Counterexample) -> bool:
    """Re-evaluate the predicate ``cx`` claims to violate.

    ``condition`` is the condition-map key the witness was reported under
    (``abs[Name]``, ``I1``, ``I2``, ``I3``, ``LM[Name]``, ``CO``). Returns
    ``True`` iff the violation still holds — i.e. the witness is real.
    Skip markers record scheduling, not violations, and cannot be
    replayed.
    """
    if isinstance(cx, (SkippedMarker, TimeoutMarker)) or cx.check in (
        "skipped",
        "timeout",
        "crash",
        "interrupted",
    ):
        raise ValueError(
            "skip/timeout markers record scheduling, not violations"
        )
    if cx.check in ("gate-inclusion", "transition-inclusion"):
        concrete, abstract = _refinement_pair(app, condition)
        return replay_refinement(concrete, abstract, cx)
    if cx.check in (
        "forward-preservation",
        "backward-preservation",
        "commutation",
        "non-blocking",
    ):
        l, x = _lm_pair(app, cx)
        return replay_mover(l, x, cx)
    if cx.check in ("choice", "i3-gate", "i3-composition"):
        return _replay_i3(app, cx)
    if cx.check == "cooperation":
        return _replay_co(app, cx)
    raise ValueError(f"no replay rule for check {cx.check!r}")
