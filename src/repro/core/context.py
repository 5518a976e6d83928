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
* :meth:`PAContext.admitted` — the ``single`` decisions of a whole pool of
  one action's locals, as the indices that pass;
* :meth:`PAContext.admitted_pairs` — the ``pair`` decisions of two pools,
  as one row of passing right indices per left index.

The last two are what the columnar conditions ask, once per (pool, context
class), passing each pool as a :class:`Pool`. The base class implements
them as loops over ``single`` and ``pair``; an override must keep exactly
that meaning.

:class:`NoContext` imposes nothing (the fully general check);
:class:`GhostContext` reads a ghost multiset variable and requires joint
multiset membership, exactly matching a program that keeps ``pendingAsyncs``
in sync with :math:`\\Omega`; it decides a pool from the ghost's distinct
members, so its work follows the ghost's size, not the pool's.

:class:`UncachableContext` wraps any context and declares its decisions
uncachable. That one input property selects the checker's reference
oracle: the dict-shaped loops of ``repro.core.movers`` and
``ISApplication.check_i3`` and the per-cell loop of
``repro.core.columnar.admitted_cells``, which ask the context per store,
with the columnar tables and class index (``repro.core.columnar``)
stepping aside. The differential tests and the obligation benchmark reach
the oracle through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .action import PendingAsync
from .multiset import Multiset
from .store import Store

__all__ = [
    "PAContext",
    "Pool",
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

    def admitted(
        self, global_store: Store, name: str, pool: Sequence[Store]
    ) -> Tuple[int, ...]:
        """The indices ``i``, ascending, for which ``single(global_store,
        PendingAsync(name, pool[i]))`` holds."""
        single = self.single
        return tuple(
            i
            for i, locals_ in enumerate(pool)
            if single(global_store, PendingAsync(name, locals_))
        )

    def admitted_pairs(
        self,
        global_store: Store,
        name_l: str,
        pool_l: Sequence[Store],
        name_x: str,
        pool_x: Sequence[Store],
    ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(il, row)`` per left index ``il``, ascending, whose ``row`` is
        non-empty: the right indices ``ix``, ascending, for which
        ``pair(global_store, PendingAsync(name_l, pool_l[il]),
        PendingAsync(name_x, pool_x[ix]))`` holds."""
        pair = self.pair
        seconds = [PendingAsync(name_x, locals_) for locals_ in pool_x]
        rows = []
        for il, locals_ in enumerate(pool_l):
            first = PendingAsync(name_l, locals_)
            row = tuple(
                ix
                for ix, second in enumerate(seconds)
                if pair(global_store, first, second)
            )
            if row:
                rows.append((il, row))
        return tuple(rows)


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

    def admitted(
        self, global_store: Store, name: str, pool: Sequence[Store]
    ) -> Tuple[int, ...]:
        # Only exact-type PAs are looked up, as ``in ghost`` matches them.
        index = _positions(pool)
        hits = []
        for member in self._ghost(global_store).support():
            if type(member) is PendingAsync and member.action == name:
                positions = index.get(member.locals)
                if positions:
                    hits.extend(positions)
        hits.sort()
        return tuple(hits)

    def admitted_pairs(
        self,
        global_store: Store,
        name_l: str,
        pool_l: Sequence[Store],
        name_x: str,
        pool_x: Sequence[Store],
    ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        index_l, index_x = _positions(pool_l), _positions(pool_x)
        lefts, row = [], []
        for member, count in self._ghost(global_store).counts():
            if type(member) is not PendingAsync:
                continue
            action = member.action
            if action == name_x:
                positions = index_x.get(member.locals)
                if positions:
                    row.extend(positions)
            if action == name_l:
                positions = index_l.get(member.locals)
                if positions:
                    lefts.append((member.locals, count, positions))
        if not row or not lefts:
            return ()
        row.sort()
        row = tuple(row)
        same = name_l == name_x
        rows = []
        for locals_, count, positions in lefts:
            own = row
            if same and count < 2:
                # An identical pair needs the ghost to hold the PA twice.
                twins = index_x.get(locals_, ())
                own = tuple(ix for ix in row if ix not in twins)
            if own:
                rows.extend((il, own) for il in positions)
        rows.sort(key=itemgetter(0))
        return tuple(rows)


class Pool(tuple):
    """One action's pool of local stores, as ``admitted`` and
    ``admitted_pairs`` read it: a tuple that builds its ``store ->
    positions`` index on first use, so a context asked about one pool at
    many globals indexes it once."""

    @cached_property
    def positions(self) -> Dict[Store, List[int]]:
        """``store -> positions`` (ascending) in this pool."""
        index: Dict[Store, List[int]] = {}
        for i, locals_ in enumerate(self):
            index.setdefault(locals_, []).append(i)
        return index


def _positions(pool: Sequence[Store]) -> Dict[Store, List[int]]:
    return (pool if isinstance(pool, Pool) else Pool(pool)).positions


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
