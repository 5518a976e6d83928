"""Pending-async contexts: CIVL's linear-permission discipline, reproduced.

The paper's mover and IS conditions quantify over stores, but in CIVL they
are discharged under a *linear permission* discipline which guarantees that
(1) an action only executes when its pending async is actually present in
the configuration, and (2) two actions being commuted correspond to two
*distinct* pending asyncs. The case studies rely on this: their actions and
abstractions assert facts about a ghost global ``pendingAsyncs`` mirroring
the PA multiset :math:`\\Omega` (Figure 4(b), line 14), and without the
distinctness guarantee even a plain send action would fail gate forward
preservation against a second copy of itself.

This module reproduces that discipline as an explicit *PA context* attached
to a :class:`~repro.core.universe.StoreUniverse`:

* :meth:`PAContext.single` — may PA ``(ℓ, A)`` execute from global ``g``?
* :meth:`PAContext.pair` — may the two PAs coexist in one configuration?
* :meth:`PAContext.pair_row` — the ``pair`` decisions of one PA against a
  row of others, as the indices that pass (what the columnar LM loops ask).

:class:`NoContext` imposes nothing (the fully general check);
:class:`GhostContext` reads a ghost multiset variable and requires joint
multiset membership, exactly matching a program that keeps ``pendingAsyncs``
in sync with :math:`\\Omega`.

:class:`UncachableContext` wraps any context and declares its decisions
uncachable. That one input property selects the checker's reference
oracle: the dict-shaped loops of ``repro.core.movers`` and
``ISApplication.check_i3`` and the per-cell loop of
``repro.core.columnar.admitted_cells``, which ask the context per store,
with the columnar tables and class masks (``repro.core.columnar``)
stepping aside. The differential tests and the obligation benchmark reach
the oracle through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .action import PendingAsync
from .multiset import Multiset
from .store import Store

__all__ = [
    "PAContext",
    "NoContext",
    "GhostContext",
    "InstanceContext",
    "UncachableContext",
]


class PAContext:
    """Interface for constraining which (global, PA) combinations to check."""

    #: False when the constraint ignores the global store (enables caching
    #: of pair decisions across the whole universe).
    state_dependent: bool = True

    def cache_key(self, global_store: Store):
        """The part of ``global_store`` this context's decisions depend on.

        Returning a hashable key lets the columnar layer
        (``repro.core.columnar``) decide ``single``/``pair`` once per key
        (many globals share one key: e.g. all stores with the same ghost
        multiset). Return ``None`` to declare the decision uncachable.
        State-independent contexts depend on nothing, hence the constant.
        """
        return None if self.state_dependent else ()

    def single(self, global_store: Store, pending: PendingAsync) -> bool:
        """True if ``pending`` may be scheduled from ``global_store``."""
        raise NotImplementedError

    def pair(
        self,
        global_store: Store,
        first: PendingAsync,
        second: PendingAsync,
    ) -> bool:
        """True if both PAs may be simultaneously pending in a configuration
        with global store ``global_store`` (distinct PAs: an identical pair
        requires multiplicity two)."""
        raise NotImplementedError

    def pair_row(
        self, global_store: Store, first: PendingAsync, seconds
    ) -> Tuple[int, ...]:
        """The indices ``i``, ascending, for which ``pair(global_store,
        first, seconds[i])`` holds. Overrides must keep exactly that
        meaning; they exist only to decide a whole row at once."""
        pair = self.pair
        return tuple(
            i for i, second in enumerate(seconds) if pair(global_store, first, second)
        )


class NoContext(PAContext):
    """The unconstrained context: check every store/PA combination."""

    state_dependent = False

    def single(self, global_store: Store, pending: PendingAsync) -> bool:
        return True

    def pair(
        self, global_store: Store, first: PendingAsync, second: PendingAsync
    ) -> bool:
        return True


class InstanceContext(PAContext):
    """Context for instruction-level programs: per-instance linearity.

    In the fine-grained layer, every pending async is a continuation
    ``proc#pc`` of some procedure *instance* identified by the procedure
    name plus its parameter values. A single instance has exactly one
    program counter, so two PAs belonging to the same instance can never
    coexist — the instruction-level analogue of CIVL's linear thread
    identifiers. (This presumes the module never spawns two instances of
    the same procedure with equal arguments;
    ``repro.reduction`` validates that on the explored instance.)

    ``instance_of`` maps an action name to ``(procedure, params)`` where
    ``params`` are the parameter names identifying the instance, or to
    ``None`` for multi-instance procedures (no exclusion applies: several
    identical PAs may be live at once).
    """

    state_dependent = False

    def __init__(self, instance_of):
        self._instance_of = instance_of

    def _identity(self, pending: PendingAsync):
        resolved = self._instance_of(pending.action)
        if resolved is None:
            return None
        proc, params = resolved
        return proc, tuple((p, pending.locals.get(p)) for p in params)

    def single(self, global_store: Store, pending: PendingAsync) -> bool:
        return True

    def pair(
        self, global_store: Store, first: PendingAsync, second: PendingAsync
    ) -> bool:
        a, b = self._identity(first), self._identity(second)
        if a is None or b is None:
            return True
        return a != b


@dataclass(frozen=True)
class GhostContext(PAContext):
    """Context induced by a ghost ``pendingAsyncs`` multiset variable.

    ``ghost_var`` names a global variable holding a
    :class:`~repro.core.multiset.Multiset` of
    :class:`~repro.core.action.PendingAsync` values that the program keeps
    equal to the configuration's :math:`\\Omega`.
    """

    ghost_var: str = "pendingAsyncs"

    def _ghost(self, global_store: Store) -> Multiset:
        value = global_store.get(self.ghost_var)
        if not isinstance(value, Multiset):
            raise TypeError(
                f"ghost variable {self.ghost_var!r} does not hold a Multiset"
            )
        return value

    def cache_key(self, global_store: Store):
        # Decisions depend only on the ghost multiset, so all globals
        # sharing a ghost value share one cache entry.
        return self._ghost(global_store)

    def single(self, global_store: Store, pending: PendingAsync) -> bool:
        return pending in self._ghost(global_store)

    def pair(
        self, global_store: Store, first: PendingAsync, second: PendingAsync
    ) -> bool:
        ghost = self._ghost(global_store)
        if first == second:
            return ghost.count(first) >= 2
        return first in ghost and second in ghost

    def pair_row(
        self, global_store: Store, first: PendingAsync, seconds
    ) -> Tuple[int, ...]:
        ghost = self._ghost(global_store)
        count = ghost.count(first)
        if not count:
            return ()
        return tuple(
            i
            for i, second in enumerate(seconds)
            if second in ghost and (count >= 2 or second != first)
        )


@dataclass(frozen=True)
class UncachableContext(PAContext):
    """``inner``'s decisions, declared uncachable: ``cache_key`` is
    ``None``, so every consumer asks ``inner`` per store and the checker
    runs its reference oracle (see the module docstring)."""

    inner: PAContext

    def cache_key(self, global_store: Store):
        return None

    def single(self, global_store: Store, pending: PendingAsync) -> bool:
        return self.inner.single(global_store, pending)

    def pair(
        self, global_store: Store, first: PendingAsync, second: PendingAsync
    ) -> bool:
        return self.inner.pair(global_store, first, second)
