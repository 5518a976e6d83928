"""Unit and property tests for multisets."""

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMPTY, Multiset

elements = st.lists(st.integers(min_value=0, max_value=5), max_size=12)


class TestBasics:
    def test_empty(self):
        assert len(EMPTY) == 0
        assert not EMPTY
        assert list(EMPTY) == []

    def test_count_and_len(self):
        m = Multiset("aabc")
        assert m.count("a") == 2
        assert m.count("z") == 0
        assert len(m) == 4

    def test_iteration_respects_multiplicity(self):
        m = Multiset([1, 1, 2])
        assert sorted(m) == [1, 1, 2]

    def test_contains(self):
        m = Multiset([1])
        assert 1 in m
        assert 2 not in m

    def test_add(self):
        m = Multiset([1]).add(1).add(2, count=3)
        assert m.count(1) == 2
        assert m.count(2) == 3

    def test_add_negative_raises(self):
        with pytest.raises(ValueError):
            Multiset().add(1, count=-1)

    def test_remove(self):
        m = Multiset([1, 1])
        assert m.remove(1).count(1) == 1

    def test_remove_too_many_raises(self):
        with pytest.raises(KeyError):
            Multiset([1]).remove(1, count=2)

    def test_remove_absent_raises(self):
        with pytest.raises(KeyError):
            Multiset().remove("x")

    def test_union_operator(self):
        assert (Multiset([1]) + Multiset([1, 2])).count(1) == 2

    def test_difference_truncates(self):
        m = Multiset([1]) - Multiset([1, 1, 2])
        assert len(m) == 0

    def test_sub_requires_multiset(self):
        """``-`` is multiset difference only; element removal is spelled
        ``remove`` so the two can never be confused."""
        with pytest.raises(TypeError):
            Multiset([1, 2]) - 1

    def test_nested_multiset_elements(self):
        """A bag of bags: removing a multiset-valued *element* is spelled
        ``remove`` (strict), while ``-`` is always a difference over
        elements. The old isinstance dispatch made ``outer - inner``
        silently diff against ``inner``'s contents, so the element-removal
        reading was unreachable for nested multisets."""
        inner = Multiset([1])
        other = Multiset([1, 2])
        outer = Multiset([inner, inner, other])
        # Element removal: one copy of the element ``inner`` goes away.
        assert outer.remove(inner).count(inner) == 1
        # Operator: difference over outer's elements. ``inner`` contains
        # the element 1, which outer (a bag of bags) does not contain, so
        # the difference leaves outer unchanged — and equals the explicit
        # method spelling, never a disguised ``remove``.
        assert outer - inner == outer.difference(inner) == outer
        # Difference with a bag holding the element removes one copy.
        assert (outer - Multiset([inner])) == outer.remove(inner)
        # Strict removal of an absent nested element still raises.
        with pytest.raises(KeyError):
            outer.remove(Multiset([2]))

    def test_includes(self):
        assert Multiset([1, 1, 2]).includes(Multiset([1, 2]))
        assert not Multiset([1]).includes(Multiset([1, 1]))

    def test_from_counts_drops_nonpositive(self):
        m = Multiset.from_counts({"a": 2, "b": 0, "c": -1})
        assert m == Multiset("aa")

    def test_support_and_counts(self):
        m = Multiset("aab")
        assert sorted(m.support()) == ["a", "b"]
        assert dict(m.counts()) == {"a": 2, "b": 1}

    def test_repr_roundtrip_info(self):
        assert "2" in repr(Multiset([7, 7]))

    def test_hashable_as_dict_key(self):
        d = {Multiset([1, 2]): "v"}
        assert d[Multiset([2, 1])] == "v"


class TestProperties:
    @given(elements, elements)
    def test_union_commutative(self, a, b):
        assert Multiset(a) + Multiset(b) == Multiset(b) + Multiset(a)

    @given(elements, elements, elements)
    def test_union_associative(self, a, b, c):
        ma, mb, mc = Multiset(a), Multiset(b), Multiset(c)
        assert (ma + mb) + mc == ma + (mb + mc)

    @given(elements)
    def test_union_identity(self, a):
        assert Multiset(a) + EMPTY == Multiset(a)

    @given(elements, st.integers(min_value=0, max_value=5))
    def test_add_then_remove_roundtrip(self, a, x):
        m = Multiset(a)
        assert m.add(x).remove(x) == m

    @given(elements, elements)
    def test_union_then_difference_roundtrip(self, a, b):
        ma, mb = Multiset(a), Multiset(b)
        assert (ma + mb) - mb == ma

    @given(elements, elements)
    def test_includes_iff_difference_empty(self, a, b):
        ma, mb = Multiset(a), Multiset(b)
        assert ma.includes(mb) == (len(mb - ma) == 0)

    @given(elements)
    def test_hash_consistent_with_eq(self, a):
        assert hash(Multiset(a)) == hash(Multiset(list(reversed(a))))

    @given(elements, elements)
    def test_len_additive_under_union(self, a, b):
        assert len(Multiset(a) + Multiset(b)) == len(a) + len(b)


# ---------------------------------------------------------------------- #
# Model-based checks of the update fast paths
# ---------------------------------------------------------------------- #

# Few distinct elements, so updates hit present and absent ones alike.
ELEMENT = st.integers(min_value=0, max_value=4)
COUNT = st.integers(min_value=-2, max_value=3)
OTHER = st.lists(ELEMENT, max_size=6)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ELEMENT, COUNT),
        st.tuples(st.just("remove"), ELEMENT, COUNT),
        st.tuples(st.just("union"), OTHER),
        st.tuples(st.just("difference"), OTHER),
    ),
    max_size=25,
)


def _apply(m: Multiset, model: Counter, op):
    """One operation on the multiset and on its ``Counter`` model. The
    model keeps only positive counts, deletes an element whose count
    reaches zero and appends a new one, so its item order is the
    multiset's: insertion order, minus zeroed elements."""
    kind = op[0]
    if kind == "add":
        _, x, k = op
        if k < 0:
            with pytest.raises(ValueError):
                m.add(x, k)
            return m
        result = m.add(x, k)
        if k == 0:
            assert result is m
        else:
            model[x] += k
        return result
    if kind == "remove":
        _, x, k = op
        if model[x] < k:
            with pytest.raises(KeyError):
                m.remove(x, k)
            if not model[x]:
                del model[x]  # the model's lookup must not add the key
            return m
        if not model[x]:
            del model[x]
        result = m.remove(x, k)
        if k == 0:
            assert result is m
        elif k < 0:
            model[x] += -k  # a non-positive count removes nothing
        else:
            model[x] -= k
            if not model[x]:
                del model[x]
        return result
    other = Multiset(op[1])
    if kind == "union":
        result = m.union(other)
        if not other:
            assert result is m
        elif not m:
            assert result is other
        for x, c in other.counts():
            model[x] += c
        return result
    result = m.difference(other)
    if not other or not m:
        assert result is m
    for x, c in other.counts():
        if x in model:
            model[x] -= c
            if model[x] <= 0:
                del model[x]
    return result


def _agrees(m: Multiset, model: Counter) -> None:
    assert list(m.counts()) == list(model.items())
    assert list(m.support()) == list(model)
    assert len(m) == sum(model.values())
    assert bool(m) == bool(model)
    assert all(m.count(x) == model[x] for x in range(5))
    fresh = Multiset.from_counts(dict(model))
    assert m == fresh and hash(m) == hash(fresh)
    # Compact: no dead slots or spare capacity beyond a fresh build's.
    assert sys.getsizeof(m._counts) <= sys.getsizeof(fresh._counts)


class TestAgainstCounterModel:
    @settings(max_examples=300, deadline=None)
    @given(OTHER, OPS)
    def test_operation_sequences(self, start, ops):
        m, model = Multiset(start), Counter(start)
        _agrees(m, model)
        for op in ops:
            before = list(m.counts())
            m_before = m
            m = _apply(m, model, op)
            _agrees(m, model)
            # Values are immutable: the operand never changes.
            assert list(m_before.counts()) == before

    def test_non_positive_counts(self):
        m = Multiset([1, 2])
        assert m.add(3, 0) is m and 3 not in m.add(3, 0)
        assert m.remove(3, 0) is m and 3 not in m.remove(3, 0)
        assert list(m.remove(3, -2).counts()) == [(1, 1), (2, 1), (3, 2)]
        with pytest.raises(ValueError):
            m.add(1, -1)
        assert Multiset.from_counts({1: 0, 2: -1, 3: 1}) == Multiset([3])

    def test_remove_to_zero_keeps_the_remaining_order(self):
        m = Multiset("abcab")
        assert list(m.remove("a", 2).support()) == ["b", "c"]
        assert list(m.remove("b").counts()) == [("a", 2), ("b", 1), ("c", 1)]
        # A zeroed element that comes back is appended, as in a rebuild.
        assert list(m.remove("a", 2).add("a").support()) == ["b", "c", "a"]

    def test_empty_sides_return_an_operand_unchanged(self):
        m = Multiset([1, 1, 2])
        assert m + EMPTY is m
        assert EMPTY + m is m
        assert m - EMPTY is m
        assert EMPTY - m is EMPTY
        # A difference that removes nothing is the operand as well.
        assert m - Multiset([3]) is m
