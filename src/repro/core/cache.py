"""Shared memoization for obligation discharge.

Every IS obligation (I1, I2, I3, LM, CO — see Figure 3) is discharged by
enumerating ``action.transitions(store)`` and ``action.gate(store)`` over a
finite universe, and the same ``(action, store)`` evaluations recur across
obligations: the invariant's transitions are enumerated by I1, I2 and I3
alike, and every left-mover pair check re-evaluates the gates and outcomes
of both actions. CIVL leans on Z3's aggressive term caching for the same
effect; this module is the explicit-state analogue.

:class:`EvaluationCache` memoizes gate and transition evaluations *per
underlying callable pair*, so distinct :class:`~repro.core.action.Action`
wrappers around the same gate/transition functions (the IS checks build
several such views of the invariant) share one memo. Memoization is safe
because actions are pure: their gates and transition enumerators depend
only on the store argument.

The per-process singleton (:func:`process_cache`) is keyed by PID: a
process-pool worker never shares a cache with its parent. A forked child
lazily rebuilds an empty cache of its own, and the parent's memo dicts
become unreachable copy-on-write pages.

The layer has no off switch. Purity makes a memo entry indistinguishable
from a fresh evaluation (``tests/core/test_cache.py`` checks exactly that
on every protocol), and the reference oracle the fast path is tested
against — the dict-shaped loops selected by a PA context whose
``cache_key`` is ``None`` (:class:`repro.core.context.UncachableContext`)
— shares these memos, so it differs from the fast path in the enumeration
code only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..engine.resilience import poll
from .action import Action, Transition
from .store import Store, memo_key, reset_store_interner

__all__ = [
    "CacheStats",
    "CachedAction",
    "EvaluationCache",
    "process_cache",
    "reset_process_cache",
    "register_reset_hook",
    "counts_snapshot",
    "snapshot_delta",
]


@dataclass
class CacheStats:
    """Monotone hit/miss counters for one cache (or an aggregate of them)."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.total if self.total else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Memo:
    """Shared memo tables for one (gate, transitions) callable pair.

    Keyed by :func:`repro.core.store.memo_key` — the store's intern id,
    an int, so lookups hash a machine word instead of a frozen item set.
    Int keys are only meaningful against the intern table
    that minted them, which is why :func:`reset_process_cache` clears the
    interner and these memos together.
    """

    __slots__ = ("gates", "outcomes", "gate_stats", "transition_stats")

    def __init__(self) -> None:
        self.gates: Dict[object, bool] = {}
        self.outcomes: Dict[object, List[Transition]] = {}
        self.gate_stats = CacheStats()
        self.transition_stats = CacheStats()


class CachedAction:
    """A memoizing view of an action.

    Presents the same evaluation surface as :class:`~repro.core.action.Action`
    (``name``, ``params``, ``gate``, ``transitions``, ``outcomes``) while
    routing every evaluation through a :class:`_Memo`, which may be shared
    with other views of the same underlying callables.
    """

    __slots__ = ("action", "name", "params", "_memo")

    def __init__(self, action: Action, memo: Optional[_Memo] = None):
        self.action = action
        self.name = action.name
        self.params = action.params
        self._memo = memo if memo is not None else _Memo()

    def gate(self, state: Store) -> bool:
        memo = self._memo
        key = memo_key(state)
        cached = memo.gates.get(key)
        if cached is None:
            poll()
            memo.gate_stats.misses += 1
            cached = bool(self.action.gate(state))
            memo.gates[key] = cached
        else:
            memo.gate_stats.hits += 1
        return cached

    def transitions(self, state: Store) -> List[Transition]:
        memo = self._memo
        key = memo_key(state)
        cached = memo.outcomes.get(key)
        if cached is None:
            poll()
            memo.transition_stats.misses += 1
            cached = list(self.action.transitions(state))
            memo.outcomes[key] = cached
        else:
            memo.transition_stats.hits += 1
        return cached

    def outcomes(self, state: Store) -> List[Transition]:
        """Alias matching :meth:`Action.outcomes` (already a list here)."""
        return self.transitions(state)

    def __repr__(self) -> str:
        return f"CachedAction({self.name})"


class EvaluationCache:
    """Per-process registry of shared action memos.

    Keyed by the ``(gate, transitions)`` callable pair, so the many
    :class:`Action` views the IS checks construct around one invariant all
    hit the same memo. Holding the callables as keys also keeps them alive,
    ruling out id-reuse aliasing.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._memos: Dict[Tuple[object, object], _Memo] = {}

    def cached(self, action) -> CachedAction:
        """A memoized view of ``action`` (idempotent on cached views)."""
        if isinstance(action, CachedAction):
            return action
        key = (action.gate, action.transitions)
        memo = self._memos.get(key)
        if memo is None:
            memo = _Memo()
            self._memos[key] = memo
        return CachedAction(action, memo)

    def stats_by_kind(self) -> Dict[str, CacheStats]:
        gate = CacheStats()
        transitions = CacheStats()
        for memo in self._memos.values():
            gate = gate.merged(memo.gate_stats)
            transitions = transitions.merged(memo.transition_stats)
        return {"gate": gate, "transitions": transitions}

    def stats(self) -> CacheStats:
        by_kind = self.stats_by_kind()
        return by_kind["gate"].merged(by_kind["transitions"])

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {kind: s.as_dict() for kind, s in self.stats_by_kind().items()}

    def counts_snapshot(self) -> Dict[str, Tuple[int, int]]:
        """Raw ``{kind: (hits, misses)}`` counters, cheap enough to take
        around every obligation (a handful of integer reads — the number
        of distinct memos, not the number of cached stores). Pair two
        snapshots with :func:`snapshot_delta` to attribute cache activity
        to one span of work."""
        return {
            kind: (stats.hits, stats.misses)
            for kind, stats in self.stats_by_kind().items()
        }

    def clear(self) -> None:
        self._memos.clear()

    def __len__(self) -> int:
        return len(self._memos)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"EvaluationCache(pid={self.pid}, {len(self._memos)} actions, "
            f"{s.hits} hits / {s.misses} misses)"
        )


_PROCESS_CACHE: Optional[EvaluationCache] = None


def process_cache() -> EvaluationCache:
    """The calling process's evaluation cache.

    Lazily constructed. When the PID changed (the caller is a forked
    child), the inherited singleton is dropped and a fresh, empty cache
    built: the child never reads or mutates the parent's memos.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None or _PROCESS_CACHE.pid != os.getpid():
        _PROCESS_CACHE = EvaluationCache()
    return _PROCESS_CACHE


#: Reset hooks for caches whose keys are minted from the intern table
#: (``repro.core.columnar`` registers its column store here). Running them
#: from :func:`reset_process_cache` keeps every int-keyed layer coherent
#: with the table that minted its keys.
_RESET_HOOKS: List = []


def register_reset_hook(hook) -> None:
    """Run ``hook()`` whenever :func:`reset_process_cache` fires."""
    _RESET_HOOKS.append(hook)


def reset_process_cache() -> None:
    """Drop the process cache (tests and benchmarks use this for cold runs).

    Also clears the store interner and every registered dependent cache:
    evaluation memos and columnar tables key by intern ids, so the three
    layers must reset as one — a cleared interner would otherwise re-mint
    ids that alias stale memo entries.
    """
    global _PROCESS_CACHE
    _PROCESS_CACHE = None
    reset_store_interner()
    for hook in _RESET_HOOKS:
        hook()


def counts_snapshot() -> Dict[str, Tuple[int, int]]:
    """The process cache's raw counters right now (see
    :meth:`EvaluationCache.counts_snapshot`)."""
    return process_cache().counts_snapshot()


def snapshot_delta(
    before: Dict[str, Tuple[int, int]], after: Dict[str, Tuple[int, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-kind hit/miss increments between two counter snapshots.

    The schedulers bracket every obligation with snapshots and ship the
    delta back with the result, giving the tracing layer per-span cache
    attribution without a second accounting path. Counters are monotone
    within a process, so the delta is non-negative; kinds absent from
    ``before`` (memos created inside the span) count from zero.
    """
    delta: Dict[str, Dict[str, int]] = {}
    for kind, (hits_after, misses_after) in after.items():
        hits_before, misses_before = before.get(kind, (0, 0))
        delta[kind] = {
            "hits": max(0, hits_after - hits_before),
            "misses": max(0, misses_after - misses_before),
        }
    return delta
