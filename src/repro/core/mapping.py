"""Immutable, hashable finite maps for map-valued global variables.

Protocol state is naturally map-shaped: ``decision: Node -> Option<Value>``,
``CH: Node -> Bag<Message>``, ``joinedNodes: Round -> Set<Node>`` (compare
the variable declarations in Figure 4(a) of the paper). Since stores must be
hashable for state-space exploration, such values are represented with
:class:`FrozenDict`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Mapping, Tuple

from .hashing import unordered_items_hash

__all__ = ["FrozenDict"]


class FrozenDict:
    """An immutable, hashable mapping with functional update.

    >>> d = FrozenDict({1: "a"})
    >>> d.set(2, "b")[2]
    'b'
    >>> 2 in d
    False
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Mapping[Hashable, Hashable] = ()):
        self._data: Dict[Hashable, Hashable] = dict(data)
        self._hash = None

    # Both updates build their result dict once and hand it to ``_of``;
    # ``FrozenDict(...)`` would copy it a second time.

    def set(self, key: Hashable, value: Hashable) -> "FrozenDict":
        data = dict(self._data)
        data[key] = value
        return _of(data)

    def update(self, changes: Mapping[Hashable, Hashable]) -> "FrozenDict":
        data = dict(self._data)
        data.update(changes)
        return _of(data)

    def get(self, key: Hashable, default: Hashable = None) -> Hashable:
        return self._data.get(key, default)

    def items(self) -> Iterator[Tuple[Hashable, Hashable]]:
        return iter(self._data.items())

    def keys(self) -> Iterator[Hashable]:
        return iter(self._data.keys())

    def values(self) -> Iterator[Hashable]:
        return iter(self._data.values())

    def as_dict(self) -> Dict[Hashable, Hashable]:
        return dict(self._data)

    def __getitem__(self, key: Hashable) -> Hashable:
        return self._data[key]

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozenDict):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = unordered_items_hash(self._data.items())
        return self._hash

    def __getstate__(self):
        # Like ``Store``: the cached hash derives from per-process string
        # hashing (``PYTHONHASHSEED``), so it must not travel in a pickle.
        return self._data

    def __setstate__(self, state):
        self._data = state
        self._hash = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in sorted(self._data.items(), key=lambda kv: repr(kv[0])))
        return "{" + inner + "}"


def _of(data: Dict[Hashable, Hashable]) -> FrozenDict:
    """A frozen dict owning ``data`` (not copied: the caller built it)."""
    result = object.__new__(FrozenDict)
    result._data = data
    result._hash = None
    return result
