"""Eq/hash-consistency properties for the content-hashed containers.

Store, Multiset and FrozenDict all hash through
:func:`repro.core.hashing.unordered_items_hash`; the interner's identity
discipline and the evaluation-cache memo keys both assume that equal
containers hash equal (and that insertion order never leaks into either
side).  These hypothesis properties pin that contract for all three.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.hashing import unordered_items_hash
from repro.core.mapping import FrozenDict
from repro.core.multiset import Multiset
from repro.core.store import Store

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
)

ITEMS = st.dictionaries(st.text(max_size=6), SCALARS, max_size=8)


@settings(max_examples=100, deadline=None)
@given(ITEMS, st.randoms())
def test_unordered_items_hash_ignores_order(data, rng):
    items = list(data.items())
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert unordered_items_hash(items) == unordered_items_hash(shuffled)


@settings(max_examples=100, deadline=None)
@given(ITEMS, st.randoms())
def test_store_eq_implies_hash_eq(data, rng):
    items = list(data.items())
    rng.shuffle(items)
    a, b = Store(data), Store(dict(items))
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(SCALARS, max_size=8), st.randoms())
def test_multiset_eq_implies_hash_eq(elements, rng):
    shuffled = list(elements)
    rng.shuffle(shuffled)
    a, b = Multiset(elements), Multiset(shuffled)
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(ITEMS, st.randoms())
def test_frozendict_eq_implies_hash_eq(data, rng):
    items = list(data.items())
    rng.shuffle(items)
    a, b = FrozenDict(data), FrozenDict(dict(items))
    assert a == b
    assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(ITEMS)
def test_containers_share_one_hash_definition(data):
    # All three containers hash their items through the same helper, so a
    # drift in any one implementation shows up as a mismatch here.
    assert hash(Store(data)) == unordered_items_hash(data.items())
    assert hash(FrozenDict(data)) == unordered_items_hash(data.items())


@settings(max_examples=100, deadline=None)
@given(st.lists(SCALARS, max_size=8))
def test_multiset_hash_matches_count_items(elements):
    m = Multiset(elements)
    assert hash(m) == unordered_items_hash(m.counts())


# --------------------------------------------------------------------- #
# structural_key: the cross-process total order
# --------------------------------------------------------------------- #

from repro.core.hashing import structural_key  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(ITEMS, ITEMS)
def test_structural_key_separates_unequal_stores(a, b):
    sa, sb = Store(a), Store(b)
    assert (structural_key(sa) == structural_key(sb)) == (sa == sb)


@settings(max_examples=100, deadline=None)
@given(ITEMS, st.randoms())
def test_structural_key_ignores_insertion_order(data, rng):
    items = list(data.items())
    rng.shuffle(items)
    assert structural_key(Store(data)) == structural_key(Store(dict(items)))
    assert structural_key(Multiset(items)) == structural_key(
        Multiset(reversed(items))
    )


def test_structural_key_agrees_with_equality_across_types():
    # The key must mirror ``==`` exactly: Python's numeric equality is
    # cross-type (False == 0 == 0.0), everything else keys apart.
    assert structural_key(True) == structural_key(1) == structural_key(1.0)
    assert structural_key(False) == structural_key(0)
    assert structural_key(0.5) != structural_key(0)
    assert structural_key(1) != structural_key("1")
    assert structural_key(float("inf")) != structural_key(float("-inf"))
    assert structural_key(Store({"a": 1})) != structural_key(
        FrozenDict({"a": 1})
    )


def test_structural_key_stable_across_hash_seeds():
    """The regression the sort-key switch exists for: ``repr`` of
    address-bearing values and ``hash`` of strings both vary across
    processes / ``PYTHONHASHSEED``; ``structural_key`` must not. Two
    subprocesses with different seeds must key an identical store spread
    identically — this is what makes ``from_reachable``'s pool order
    (and therefore shard boundaries and counterexample attribution)
    reproducible across machines."""
    import os
    import subprocess
    import sys

    snippet = """
import sys
sys.path.insert(0, {src!r})
from repro.core.hashing import structural_key
from repro.core.mapping import FrozenDict
from repro.core.multiset import Multiset
from repro.core.store import Store
from repro.core.action import PendingAsync

stores = [
    Store({{"x": i, "who": chr(97 + i % 5), "bag": Multiset(["a", "b", "a"]),
           "m": FrozenDict({{"k": frozenset({{i, 2}})}}),
           "pa": Multiset([PendingAsync("Act", Store({{"i": i}}))])}})
    for i in range(8)
]
for s in sorted(stores, key=structural_key):
    print(structural_key(s))
"""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = snippet.format(src=os.path.abspath(src))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "424242")
    }
    assert len(outputs) == 1, "structural_key drifted across hash seeds"


# --------------------------------------------------------------------- #
# KeyMemo: one memo session renders structural_key byte for byte
# --------------------------------------------------------------------- #

from repro.core.action import PendingAsync  # noqa: E402
from repro.core.hashing import KeyMemo  # noqa: E402

NUMBERS = st.sampled_from([True, 1, 1.0, False, 0, 0.0, 2, 0.5])

LEAVES = st.one_of(SCALARS, NUMBERS)


def _nested(children):
    names = st.text(alphabet="abc", max_size=2)
    return st.one_of(
        st.builds(Store, st.dictionaries(names, children, max_size=3)),
        st.builds(Multiset, st.lists(children, max_size=3)),
        st.builds(
            FrozenDict,
            st.dictionaries(st.one_of(names, NUMBERS), children, max_size=3),
        ),
        st.builds(
            PendingAsync,
            st.sampled_from(["Act", "Other"]),
            st.builds(Store, st.dictionaries(names, children, max_size=2)),
        ),
        st.tuples(children, children),
    )


NESTED = st.recursive(LEAVES, _nested, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(NESTED, min_size=1, max_size=8))
def test_key_memo_session_matches_structural_key(values):
    """Within one session — values sharing sub-values, equal values of
    different spellings (``True``/``1``/``1.0``) among them — every key
    is ``structural_key`` byte for byte, whichever spelling the memo saw
    first."""
    memo = KeyMemo()
    for value in values + values:
        assert memo(value) == structural_key(value)


def test_key_memo_mixes_numeric_spellings_in_one_session():
    memo = KeyMemo()
    spellings = [True, 1, 1.0]
    stores = [Store({"x": v, "bag": Multiset([v])}) for v in spellings]
    dicts = [FrozenDict({v: Store({"y": v})}) for v in spellings]
    pas = [PendingAsync("Act", Store({"i": v})) for v in spellings]
    for group in (stores, dicts, pas):
        assert len({hash(v) for v in group}) == 1  # one == class
        for value in group:
            assert memo(value) == structural_key(value)
        assert len({memo(v) for v in group}) == 1
