"""The one canonical hash for unordered ``(key, value)`` collections, and
the one cross-process order key (:func:`structural_key`, with
:class:`KeyMemo` sessions for sorting many stores).

:class:`~repro.core.store.Store`, :class:`~repro.core.multiset.Multiset`
and :class:`~repro.core.mapping.FrozenDict` are all content-hashed
containers whose equality ignores insertion order. Their ``__hash__``
implementations used to be three copy-pasted ``hash(frozenset(...))``
expressions — three places for the digest to silently drift apart (and the
store interner and the rcache fingerprints both assume eq/hash agree).
This module is the single shared definition; the hypothesis properties in
``tests/core/test_hashing.py`` pin eq/hash consistency for all three
containers against it.
"""

from __future__ import annotations

import functools
from typing import Dict, Hashable, Iterable, Optional, Tuple

__all__ = ["unordered_items_hash", "structural_key", "KeyMemo"]


def unordered_items_hash(items: Iterable[Tuple[Hashable, Hashable]]) -> int:
    """Order-insensitive hash of an ``(key, value)`` item collection.

    Two collections with equal item *sets* hash equal regardless of
    iteration order — exactly the invariant ``dict``-backed equality
    needs. ``frozenset`` hashing already mixes the per-item hashes
    commutatively and is C-implemented; wrapping it here (rather than
    inlining it at every call site) is what keeps the three containers'
    digests provably identical.
    """
    return hash(frozenset(items))


def structural_key(value) -> str:
    """A deterministic total order key for protocol values.

    ``unordered_items_hash`` (above) inherits Python's per-process string
    hashing, so it cannot order anything across ``PYTHONHASHSEED``
    boundaries; ``repr`` is worse — address-bearing reprs make two runs
    disagree about the same store. This renders a value to a *structural*
    string recursively: primitives with a type tag, sequences elementwise,
    unordered containers by sorted element keys. Two equal values always
    render identically, two unequal values of the repo's store vocabulary
    render differently, and the rendering is byte-identical across
    processes, hash seeds, and dict insertion orders.

    It is the sort key for harvested store universes
    (:meth:`~repro.core.universe.StoreUniverse.from_reachable`, through a
    :class:`KeyMemo`) and the lexicographic order under which
    ``repro.core.symmetry`` picks orbit representatives — both need
    exactly this cross-process stability.
    """
    return _render(value, None)


@functools.lru_cache(maxsize=None)
def _memo_types() -> frozenset:
    """The container types a :class:`KeyMemo` memoizes (imported late:
    they import this module). Each has a cheap hash and a type-strict
    ``==``, and ``structural_key`` is a function of its ``==`` class, so
    a value-keyed memo cannot alias two different keys."""
    from .action import PendingAsync
    from .mapping import FrozenDict
    from .multiset import Multiset
    from .store import Store

    return frozenset((Store, Multiset, FrozenDict, PendingAsync))


class KeyMemo:
    """One short-lived ``structural_key`` session: ``KeyMemo()(v)`` is
    ``structural_key(v)`` byte for byte, but every distinct
    :class:`~repro.core.store.Store`, :class:`~repro.core.multiset.Multiset`,
    :class:`~repro.core.mapping.FrozenDict` and
    :class:`~repro.core.action.PendingAsync` — at any depth — renders at
    most once per session. Harvested stores share most of their
    sub-values (a channel map, a ghost bag, a PA's locals), so a universe
    sort keyed through one session renders each shared sub-value once
    instead of once per store. The memo is keyed by value, like
    ``repro.engine.rcache``'s digest memo, and lives as long as the
    session: create one per harvest and let it go when the harvest
    returns.
    """

    __slots__ = ("keys", "types")

    def __init__(self) -> None:
        self.keys: Dict[object, str] = {}
        self.types = _memo_types()

    def __call__(self, value) -> str:
        return _render(value, self)


def _render(value, memo: Optional[KeyMemo]) -> str:
    """``structural_key``, with container keys served from and added to
    ``memo`` when one is given."""
    if value is None:
        return "N"
    if isinstance(value, (bool, int, float)):
        # One numeric rendering for all three types: Python's container
        # equality is cross-type (``False == 0 == 0.0``), and the key
        # must agree with ``==`` or canonicalization would not be
        # well-defined on store equality classes.
        try:
            if value == int(value):
                return f"n{int(value)}"
        except (OverflowError, ValueError):
            pass  # inf / nan: fall through to repr
        return f"n{value!r}"
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, bytes):
        return f"y{len(value)}:{value.hex()}"
    if memo is None or type(value) not in memo.types:
        return _render_compound(value, memo)
    key = memo.keys.get(value)
    if key is None:
        key = memo.keys[value] = _render_compound(value, memo)
    return key


def _render_compound(value, memo: Optional[KeyMemo]) -> str:
    if isinstance(value, (tuple, list)):
        return "t(" + ",".join(_render(v, memo) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "S{" + ",".join(sorted(_render(v, memo) for v in value)) + "}"
    counts = getattr(value, "counts", None)
    if callable(counts):
        # Multiset-shaped: unordered (element, multiplicity) pairs.
        rendered = sorted(_render(e, memo) + "*" + str(c) for e, c in counts())
        return "m{" + ",".join(rendered) + "}"
    action = getattr(value, "action", None)
    locals_ = getattr(value, "locals", None)
    if isinstance(action, str) and locals_ is not None:
        # PendingAsync-shaped (duck-typed to avoid a circular import).
        return "p(" + action + ";" + _render(locals_, memo) + ")"
    items = getattr(value, "items", None)
    if callable(items):
        # Store / FrozenDict / dict: unordered (key, value) pairs.
        rendered = sorted(
            _render(k, memo) + "=" + _render(v, memo) for k, v in items()
        )
        return type(value).__name__ + "{" + ",".join(rendered) + "}"
    # Last resort for values outside the store vocabulary; repr must then
    # be deterministic for the ordering to be (same caveat stable_digest
    # documents for unfingerprintable values).
    return "r" + repr(value)
