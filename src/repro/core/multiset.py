"""Immutable, hashable multisets (bags).

Multisets are pervasive in the paper's formalization: the set of pending
asyncs :math:`\\Omega` attached to a configuration or created by a transition
is a *finite multiset* of pending asyncs, and the message channels of all
case-study protocols are bags of messages (modelling a network that can
reorder and duplicate deliveries).

The implementation stores elements in a canonical ``(element, count)``
mapping and freezes it, so multisets can be used as dictionary keys and as
parts of hashable configurations during state-space exploration.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Tuple

from .hashing import unordered_items_hash

__all__ = ["Multiset", "EMPTY"]


class Multiset:
    """An immutable multiset over hashable elements.

    Supports the operations used by the formal development: union
    (``+`` / :meth:`union`, written :math:`\\uplus` in the paper), strict
    element removal (:meth:`remove`), truncated difference
    (``-`` / :meth:`difference`), containment, counting, and iteration
    with multiplicity.

    The ``-`` operator takes a :class:`Multiset` right-hand side *only*
    and always means :meth:`difference`. Removing a single element is
    spelled :meth:`remove` — never ``-`` — so a multiset whose *elements*
    are themselves multisets cannot be silently misinterpreted (an earlier
    version dispatched ``m - x`` on ``isinstance(x, Multiset)``, which
    turned element removal of a multiset-valued element into a truncated
    difference over its contents).

    >>> m = Multiset(["a", "b", "a"])
    >>> m.count("a")
    2
    >>> sorted(m)
    ['a', 'a', 'b']
    >>> m.remove("a").count("a")
    1
    >>> (m - Multiset(["a", "a", "a"])).count("a")
    0
    """

    __slots__ = ("_counts", "_hash", "_size")

    def __init__(self, elements: Iterable[Hashable] = ()):
        counts: Dict[Hashable, int] = {}
        for element in elements:
            counts[element] = counts.get(element, 0) + 1
        self._counts = counts
        self._size = sum(counts.values())
        self._hash = None

    @classmethod
    def from_counts(cls, counts: Dict[Hashable, int]) -> "Multiset":
        """Build a multiset directly from an ``element -> count`` mapping.

        Entries with non-positive counts are dropped.
        """
        result = cls.__new__(cls)
        clean = {e: c for e, c in counts.items() if c > 0}
        result._counts = clean
        result._size = sum(clean.values())
        result._hash = None
        return result

    def count(self, element: Hashable) -> int:
        """Multiplicity of ``element`` (0 if absent)."""
        return self._counts.get(element, 0)

    # The updates below copy the counts dict once (``dict(d)`` reuses the
    # stored hashes, so no element is rehashed), adjust the copy in
    # place, and keep ``_size`` by arithmetic. An element whose count
    # reaches zero is deleted, so ``counts()`` keeps insertion order
    # minus zeroed elements, exactly as a rebuild would. A deletion
    # leaves a dead slot that every later copy would inherit or inflate
    # (``dict(d)`` of a dict with dead slots reallocates, oversized), so
    # a copy that lost an element is rebuilt once, compactly, from its
    # items: the one place an element is rehashed.

    def union(self, other: "Multiset") -> "Multiset":
        """Multiset union :math:`\\uplus` (multiplicities add up)."""
        if not other._size:
            return self
        if not self._size:
            return other
        counts = dict(self._counts)
        get = counts.get
        for element, count in other._counts.items():
            counts[element] = get(element, 0) + count
        return _of(counts, self._size + other._size)

    def add(self, element: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` extra copies of ``element``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if not count:
            return self
        counts = dict(self._counts)
        counts[element] = counts.get(element, 0) + count
        return _of(counts, self._size + count)

    def remove(self, element: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``element`` removed.

        Raises :class:`KeyError` if fewer than ``count`` copies are present,
        mirroring the side condition of the paper's step rule, which only
        fires for a pending async actually present in the configuration.
        A non-positive ``count`` removes nothing and adds ``-count`` copies.
        """
        present = self._counts.get(element, 0)
        if present < count:
            raise KeyError(element)
        if count <= 0:
            return self.add(element, -count)
        counts = dict(self._counts)
        if present == count:
            del counts[element]
            counts = dict(counts.items())
        else:
            counts[element] = present - count
        return _of(counts, self._size - count)

    def difference(self, other: "Multiset") -> "Multiset":
        """Multiset difference (truncated at zero)."""
        if not other._size or not self._size:
            return self
        counts = dict(self._counts)
        size = self._size
        for element, count in other._counts.items():
            present = counts.get(element)
            if present is None:
                continue
            if present > count:
                counts[element] = present - count
                size -= count
            else:
                del counts[element]
                size -= present
        if size == self._size:
            return self
        if len(counts) < len(self._counts):
            counts = dict(counts.items())
        return _of(counts, size)

    def includes(self, other: "Multiset") -> bool:
        """True if ``other`` is a sub-multiset of ``self``."""
        return all(
            self._counts.get(element, 0) >= count
            for element, count in other._counts.items()
        )

    def support(self) -> Iterator[Hashable]:
        """Iterate over distinct elements (ignoring multiplicity)."""
        return iter(self._counts)

    def counts(self) -> Iterator[Tuple[Hashable, int]]:
        """Iterate over ``(element, multiplicity)`` pairs."""
        return iter(self._counts.items())

    def __contains__(self, element: Hashable) -> bool:
        return element in self._counts

    def __iter__(self) -> Iterator[Hashable]:
        for element, count in self._counts.items():
            for _ in range(count):
                yield element

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __add__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.union(other)

    def __sub__(self, other: "Multiset") -> "Multiset":
        if not isinstance(other, Multiset):
            return NotImplemented
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = unordered_items_hash(self._counts.items())
        return self._hash

    def __getstate__(self):
        # Like ``Store``: the cached hash derives from per-process string
        # hashing (``PYTHONHASHSEED``), so it must not travel in a pickle.
        return self._counts

    def __setstate__(self, state):
        self._counts = state
        self._size = sum(state.values())
        self._hash = None

    def __repr__(self) -> str:
        if not self._counts:
            return "Multiset()"
        parts = []
        for element, count in sorted(self._counts.items(), key=repr):
            if count == 1:
                parts.append(repr(element))
            else:
                parts.append(f"{element!r}*{count}")
        return "Multiset({" + ", ".join(parts) + "})"


def _of(counts: Dict[Hashable, int], size: int) -> Multiset:
    """A multiset owning ``counts`` (all positive, summing to ``size``)."""
    result = object.__new__(Multiset)
    result._counts = counts
    result._size = size
    result._hash = None
    return result


#: The empty multiset, shared since :class:`Multiset` is immutable.
EMPTY = Multiset()
