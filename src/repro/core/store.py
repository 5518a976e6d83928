"""Stores: immutable assignments of values to variables.

Section 3 of the paper partitions variables into globals :math:`V_G` and
locals :math:`V_L`; a store :math:`\\sigma : V \\to D` assigns a value to
every variable, and :math:`g \\cdot \\ell` denotes the combination of a
global store ``g`` and a local store ``ℓ``.

In this implementation a :class:`Store` is an immutable, hashable mapping
from variable names (strings) to hashable values. The global/local split is
by convention: an action's local store carries its parameters (e.g. the node
id ``i`` of ``Broadcast(i)``), while the global store carries protocol state
and channels. :func:`combine` implements :math:`g \\cdot \\ell` and
:meth:`Store.globals_of` projects the global part back out.

Interning
---------

The IS conditions quantify over *finite* store universes, so the same few
thousand stores are combined, hashed and compared millions of times per
discharge run. :class:`StoreInterner` maps every distinct store to a small
integer exactly once (structural sharing: equal stores resolve to one
canonical object and one id), which turns the engine's memo keys into
ints, lets predicate evaluation run over integer-indexed columns (see
``repro.core.columnar``), and makes fork-pool work shipping a matter of
int ranges over a copy-on-write-inherited table. Intern ids are
process-local and ephemeral — persistent fingerprints
(``repro.engine.rcache``) always hash canonical store *contents*, never
ids, so cached verification results survive interner resets and process
boundaries.

Interning has no off switch. The reference oracle the columnar fast path
is tested against (see ``repro.core.context.UncachableContext``) uses the
same interned stores and differs from the fast path only in its
enumeration loops.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Tuple

from .hashing import unordered_items_hash

__all__ = [
    "Store",
    "EMPTY_STORE",
    "combine",
    "StoreInterner",
    "store_interner",
    "intern_epoch",
    "reset_store_interner",
    "memo_key",
]

Value = Hashable


class Store:
    """An immutable mapping from variable names to (hashable) values.

    >>> s = Store({"x": 1, "y": 2})
    >>> s["x"]
    1
    >>> s.set("x", 7)["x"]
    7
    >>> s["x"]  # the original is unchanged
    1
    """

    __slots__ = ("_data", "_hash", "_iid")

    def __init__(self, data: Mapping[str, Value] = ()):
        self._data: Dict[str, Value] = dict(data)
        self._hash = None
        self._iid = None

    def __getitem__(self, name: str) -> Value:
        return self._data[name]

    def get(self, name: str, default: Value = None) -> Value:
        return self._data.get(name, default)

    # Every update below builds its result dict once and hands it to
    # ``_store_of``; ``Store(...)`` would copy it a second time.

    def set(self, name: str, value: Value) -> "Store":
        """Return a new store with ``name`` bound to ``value``."""
        data = dict(self._data)
        data[name] = value
        return _store_of(data)

    def update(self, changes: Mapping[str, Value]) -> "Store":
        """Return a new store applying all bindings in ``changes``."""
        data = dict(self._data)
        data.update(changes)
        return _store_of(data)

    def without(self, names: Iterable[str]) -> "Store":
        """Return a new store with the given variables removed."""
        drop = set(names)
        return _store_of({k: v for k, v in self._data.items() if k not in drop})

    def restrict(self, names: Iterable[str]) -> "Store":
        """Return a new store keeping only the given variables."""
        keep = set(names)
        return _store_of({k: v for k, v in self._data.items() if k in keep})

    def globals_of(self, global_vars: Iterable[str]) -> "Store":
        """Project out the global part of a combined store."""
        return self.restrict(global_vars)

    def merge(self, other: "Store") -> "Store":
        """Combine two stores; ``other`` wins on overlapping variables."""
        data = dict(self._data)
        data.update(other._data)
        return _store_of(data)

    def variables(self) -> Iterator[str]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[str, Value]]:
        return iter(self._data.items())

    def as_dict(self) -> Dict[str, Value]:
        """A mutable copy of the underlying mapping."""
        return dict(self._data)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Store):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = unordered_items_hash(self._data.items())
        return self._hash

    def __getstate__(self):
        # Only the contents travel across pickling: the cached hash is
        # cheap to recompute and the intern tag is meaningless in any
        # other process (ids are process-local).
        return self._data

    def __setstate__(self, state):
        self._data = state
        self._hash = None
        self._iid = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"Store({inner})"


def _store_of(data: Dict[str, Value]) -> Store:
    """A store owning ``data`` (not copied: the caller built it)."""
    store = object.__new__(Store)
    store._data = data
    store._hash = None
    store._iid = None
    return store


#: The empty store (e.g. the local store of a parameterless action).
EMPTY_STORE = Store()


class StoreInterner:
    """Process-wide intern table: every distinct store gets one small int.

    ``intern`` resolves a store to its id (assigning the next id on first
    sight) and stamps the id onto the object, so repeat lookups are an
    attribute read instead of a dict probe. The stamp carries the
    interner's *epoch* (a fresh sentinel per table), so a stamp minted
    against a cleared or replaced table is detected and re-resolved rather
    than trusted — a stale id can never alias a different store.

    The interner also owns the memo for :func:`combine` (g·l): keyed by
    the ``(global id, local id)`` int pair, with the result canonicalized
    through the table so equal combined stores are one object everywhere.
    This replaces the old module-level ``lru_cache``, whose entries
    survived across protocol runs and test cases with no way to account
    for or release them; the interner is explicitly scoped — ``clear()``
    drops everything, and ``repro.core.cache.reset_process_cache`` calls
    it so eval-cache and interner lifetimes stay coupled (int memo keys
    must never outlive the table that minted them).

    Forked pool workers inherit the parent's table through copy-on-write:
    ids agree across the pool by construction, and a child's inserts land
    on its own pages.
    """

    __slots__ = (
        "_ids",
        "_stores",
        "_combined",
        "_epoch",
        "hits",
        "misses",
    )

    def __init__(self) -> None:
        self._ids: Dict[Store, int] = {}
        self._stores: List[Store] = []
        self._combined: Dict[Tuple[int, int], Store] = {}
        self._epoch = object()
        self.hits = 0
        self.misses = 0

    def intern(self, store: Store) -> int:
        """The id of ``store`` (assigned on first sight, O(1) after)."""
        tag = store._iid
        if tag is not None and tag[0] is self._epoch:
            return tag[1]
        idx = self._ids.get(store)
        if idx is None:
            idx = len(self._stores)
            self._ids[store] = idx
            self._stores.append(store)
        store._iid = (self._epoch, idx)
        return idx

    def canonical(self, store: Store) -> Store:
        """The one shared object equal stores resolve to."""
        return self._stores[self.intern(store)]

    def store_of(self, idx: int) -> Store:
        """The canonical store with id ``idx``."""
        return self._stores[idx]

    def combine(self, global_store: Store, local_store: Store) -> Store:
        """Memoized g·l, keyed by the ``(int, int)`` id pair."""
        key = (self.intern(global_store), self.intern(local_store))
        result = self._combined.get(key)
        if result is None:
            self.misses += 1
            result = self.canonical(global_store.merge(local_store))
            self._combined[key] = result
        else:
            self.hits += 1
        return result

    def combine_ids(self, gid: int, lid: int) -> Store:
        """g·l straight from intern ids (the columnar layer's entry)."""
        key = (gid, lid)
        result = self._combined.get(key)
        if result is None:
            self.misses += 1
            result = self.canonical(self._stores[gid].merge(self._stores[lid]))
            self._combined[key] = result
        else:
            self.hits += 1
        return result

    def clear(self) -> None:
        """Drop the table, the combine memo, and all outstanding id
        stamps (the epoch changes, so stamped stores re-resolve)."""
        self._ids.clear()
        self._stores.clear()
        self._combined.clear()
        self._epoch = object()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._stores)

    @property
    def combined_entries(self) -> int:
        return len(self._combined)

    def stats(self) -> Dict[str, int]:
        """Counters for ``cache_stats`` reporting: table size, combine
        memo size, and combine hit/miss counts."""
        return {
            "stores": len(self._stores),
            "combined": len(self._combined),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:
        return (
            f"StoreInterner({len(self._stores)} stores, "
            f"{len(self._combined)} combined, "
            f"{self.hits} hits / {self.misses} misses)"
        )


_INTERNER = StoreInterner()


def store_interner() -> StoreInterner:
    """The process's intern table (forked children share it COW)."""
    return _INTERNER


def intern_epoch() -> object:
    """Identity token of the current intern-table generation (changes on
    every :meth:`StoreInterner.clear`). Caches that key by intern ids but
    live outside :func:`repro.core.cache.reset_process_cache`'s reach —
    e.g. a long-lived :class:`~repro.core.universe.StoreUniverse`'s
    interned gids list — compare it (by identity) to detect staleness."""
    return _INTERNER._epoch


def memo_key(store: Store) -> int:
    """The key memo layers index evaluations by: the store's intern id."""
    return _INTERNER.intern(store)


def reset_store_interner() -> None:
    """Clear the process intern table.

    Int memo keys elsewhere (``repro.core.cache``, ``repro.core.columnar``)
    are minted from this table, so prefer
    :func:`repro.core.cache.reset_process_cache`, which resets all three
    layers together.
    """
    _INTERNER.clear()


def combine(global_store: Store, local_store: Store) -> Store:
    """The paper's :math:`g \\cdot \\ell` combination of stores.

    Local variables shadow globals of the same name; protocols in this
    repository keep the two namespaces disjoint, so the distinction never
    matters in practice.

    This is the single authoritative definition (``repro.core.movers``
    re-exports it). Memoized through the process :class:`StoreInterner`
    under ``(int, int)`` id keys — explicitly scoped (cleared with the
    interner) instead of the old module-level ``lru_cache``, which
    accumulated stores across runs forever.
    """
    return _INTERNER.combine(global_store, local_store)
