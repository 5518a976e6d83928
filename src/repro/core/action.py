"""Gated atomic actions and pending asyncs.

The paper (Section 3) models programs as finite maps from *action names* to
*gated atomic actions*. An action is a pair :math:`(\\rho, \\tau)` where

* the **gate** :math:`\\rho` is a set of stores from which the action does
  not fail (an assertion: executing the action from a store outside the gate
  drives the program to the failure configuration :math:`\\lightning`), and
* the **transition relation** :math:`\\tau` is a set of transitions
  :math:`(\\sigma, g', \\Omega')` — from combined store :math:`\\sigma` the
  action may atomically update the global store to :math:`g'` and create the
  finite multiset :math:`\\Omega'` of **pending asyncs** (PAs).

A pending async is a pair :math:`(\\ell, A)` of a local store (parameter
values) and an action name; it denotes a spawned computation whose effect is
*not* part of the spawning action.

This module represents gates and transition relations extensionally as
Python callables: ``gate(state) -> bool`` and
``transitions(state) -> Iterable[Transition]``. The separation of gate and
transition relation distinguishes *failure* (gate false) from *blocking*
(gate true but no transitions), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

from .multiset import EMPTY, Multiset
from .store import EMPTY_STORE, Store

__all__ = [
    "PendingAsync",
    "Transition",
    "Action",
    "pa",
    "pas",
    "transition",
    "havoc_action",
    "assert_action",
    "skip_action",
]


class _HashOnce:
    """Base of the slotted value dataclasses below: their hash lives in
    one slot, computed on first use from the fields, so a PA that sits in
    thousands of multisets is hashed once, not once per dict insertion or
    lookup. ``dataclasses.fields`` does not see the slot, so structural
    digests (``repro.engine.rcache``) are unchanged."""

    __slots__ = ("_hash",)


def _getstate(self) -> dict:
    # The plain-dataclass pickle state: the field dict, never the hash
    # slot (it derives from the process's ``PYTHONHASHSEED``).
    return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _setstate(self, state: dict) -> None:
    for name, value in state.items():
        object.__setattr__(self, name, value)


def _value_class(cls):
    """``cls`` as a frozen, slotted dataclass whose pickles are the field
    dict, as a plain dataclass's are: a pickle written before the slots
    existed loads unchanged, and one written now loads there too. (The
    generated slotted ``__setstate__`` takes a field list, and would read
    a field dict's keys as the field values.)"""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__getstate__ = _getstate
    cls.__setstate__ = _setstate
    return cls


@_value_class
class PendingAsync(_HashOnce):
    """A pending async :math:`(\\ell, A)`: an action name plus its parameters."""

    action: str
    locals: Store = EMPTY_STORE

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.action, self.locals))
            object.__setattr__(self, "_hash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.action == other.action and self.locals == other.locals

    def __repr__(self) -> str:
        if len(self.locals) == 0:
            return f"{self.action}()"
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.locals.items()))
        return f"{self.action}({args})"


@_value_class
class Transition(_HashOnce):
    """One outcome of executing an action: new global store + created PAs.

    The initial store :math:`\\sigma` is implicit (it is the store the
    transition was enumerated from); bundling only the *effect* keeps
    transition objects small and hashable.
    """

    new_global: Store
    created: Multiset = EMPTY

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.new_global, self.created))
            object.__setattr__(self, "_hash", value)
            return value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.new_global == other.new_global and self.created == other.created
        )

    def __repr__(self) -> str:
        if self.created:
            return f"Transition({self.new_global!r}, +{self.created!r})"
        return f"Transition({self.new_global!r})"


def pa(action: str, **params) -> PendingAsync:
    """Convenience constructor: ``pa("Broadcast", i=3)``."""
    return PendingAsync(action, Store(params))


def pas(*pending: PendingAsync) -> Multiset:
    """Build a multiset of pending asyncs from individual PAs."""
    return Multiset(pending)


def transition(new_global: Store, *pending: PendingAsync) -> Transition:
    """Convenience constructor for a transition creating the given PAs."""
    return Transition(new_global, Multiset(pending))


GateFn = Callable[[Store], bool]
TransitionsFn = Callable[[Store], Iterable[Transition]]


@dataclass(frozen=True)
class Action:
    """A gated atomic action :math:`(\\rho, \\tau)` given by callables.

    Parameters
    ----------
    name:
        Human-readable name, used in diagnostics (the authoritative name of
        an action within a program is its key in the program mapping).
    gate:
        Predicate over the combined store :math:`g \\cdot \\ell`.
    transitions:
        Enumerator of :class:`Transition` outcomes from a combined store.
        It is only meaningful on states satisfying the gate; an action that
        *blocks* simply enumerates no transitions.
    params:
        Names of the action's local variables (parameters). Used by store
        universes to enumerate parameter values and by pretty-printers.
    """

    name: str
    gate: GateFn
    transitions: TransitionsFn
    params: Tuple[str, ...] = ()

    def enabled(self, state: Store) -> bool:
        """True if the gate holds and at least one transition exists."""
        return self.gate(state) and any(True for _ in self.transitions(state))

    def outcomes(self, state: Store) -> List[Transition]:
        """All transitions from ``state`` as a list (gate not consulted)."""
        return list(self.transitions(state))

    def __repr__(self) -> str:
        return f"Action({self.name})"


def havoc_action(
    name: str,
    choices: Callable[[Store], Iterable[Store]],
    params: Sequence[str] = (),
) -> Action:
    """An always-enabled action that nondeterministically picks a new global
    store from ``choices(state)`` and creates no PAs."""

    def transitions_fn(state: Store) -> Iterable[Transition]:
        for new_global in choices(state):
            yield Transition(new_global)

    return Action(name, lambda _s: True, transitions_fn, tuple(params))


def assert_action(
    name: str,
    gate: GateFn,
    globals_of: Callable[[Store], Store],
    params: Sequence[str] = (),
) -> Action:
    """An action that asserts ``gate`` and otherwise does nothing.

    ``globals_of`` projects the combined store back to the global store
    (the action leaves it unchanged).
    """

    def transitions_fn(state: Store) -> Iterable[Transition]:
        yield Transition(globals_of(state))

    return Action(name, gate, transitions_fn, tuple(params))


def skip_action(
    name: str,
    globals_of: Callable[[Store], Store],
    params: Sequence[str] = (),
) -> Action:
    """A no-op action (gate true, single stuttering transition)."""
    return assert_action(name, lambda _s: True, globals_of, params)
