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

    def union(self, other: "Multiset") -> "Multiset":
        """Multiset union :math:`\\uplus` (multiplicities add up)."""
        counts = dict(self._counts)
        for element, count in other._counts.items():
            counts[element] = counts.get(element, 0) + count
        return Multiset.from_counts(counts)

    def add(self, element: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` extra copies of ``element``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        counts = dict(self._counts)
        counts[element] = counts.get(element, 0) + count
        return Multiset.from_counts(counts)

    def remove(self, element: Hashable, count: int = 1) -> "Multiset":
        """Return a new multiset with ``count`` copies of ``element`` removed.

        Raises :class:`KeyError` if fewer than ``count`` copies are present,
        mirroring the side condition of the paper's step rule, which only
        fires for a pending async actually present in the configuration.
        """
        present = self._counts.get(element, 0)
        if present < count:
            raise KeyError(element)
        counts = dict(self._counts)
        counts[element] = present - count
        return Multiset.from_counts(counts)

    def difference(self, other: "Multiset") -> "Multiset":
        """Multiset difference (truncated at zero)."""
        counts = dict(self._counts)
        for element, count in other._counts.items():
            counts[element] = counts.get(element, 0) - count
        return Multiset.from_counts(counts)

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


#: The empty multiset, shared since :class:`Multiset` is immutable.
EMPTY = Multiset()
