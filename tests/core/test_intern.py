"""Unit tests for the store interner and the combine-memo lifecycle.

The regression this file guards: ``combine`` used to memoize through a
module-level ``functools.lru_cache``, which survived ``reset_process_cache``
— back-to-back ``verify()`` runs accumulated every (global, local) pair of
every prior run, unbounded.  The memo now lives on the interner and resets
with it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.cache import reset_process_cache
from repro.core.store import (
    Store,
    StoreInterner,
    combine,
    intern_epoch,
    memo_key,
    reset_store_interner,
    store_interner,
)


@pytest.fixture(autouse=True)
def _fresh_interner():
    reset_process_cache()
    yield
    reset_process_cache()


class TestStoreInterner:
    def test_equal_stores_share_one_id(self):
        itn = StoreInterner()
        a, b = Store({"x": 1, "y": 2}), Store({"y": 2, "x": 1})
        assert a == b
        assert itn.intern(a) == itn.intern(b)

    def test_distinct_stores_get_distinct_ids(self):
        itn = StoreInterner()
        assert itn.intern(Store({"x": 1})) != itn.intern(Store({"x": 2}))

    def test_ids_are_dense_and_resolvable(self):
        itn = StoreInterner()
        stores = [Store({"i": i}) for i in range(5)]
        ids = [itn.intern(s) for s in stores]
        assert ids == list(range(5))
        for s, idx in zip(stores, ids):
            assert itn.store_of(idx) == s

    def test_canonical_returns_the_first_interned_witness(self):
        itn = StoreInterner()
        first = Store({"x": 1})
        itn.intern(first)
        assert itn.canonical(Store({"x": 1})) is first

    def test_repeat_intern_hits_the_tag_fast_path(self):
        itn = StoreInterner()
        s = Store({"x": 1})
        idx = itn.intern(s)
        assert s._iid == (itn._epoch, idx)  # tagged on first sight
        assert itn.intern(s) == idx
        assert len(itn._ids) == 1  # the table saw it exactly once

    def test_combine_ids_matches_combine(self):
        itn = StoreInterner()
        g, l = Store({"g": 1}), Store({"l": 2})
        gid, lid = itn.intern(g), itn.intern(l)
        assert itn.combine_ids(gid, lid) == itn.combine(g, l)

    def test_combine_memo_returns_identical_object(self):
        itn = StoreInterner()
        g, l = Store({"g": 1}), Store({"l": 2})
        assert itn.combine(g, l) is itn.combine(Store({"g": 1}), Store({"l": 2}))

    def test_clear_moves_the_epoch_and_invalidates_tags(self):
        itn = StoreInterner()
        s = Store({"x": 1})
        first = itn.intern(s)
        itn.intern(Store({"y": 9}))
        itn.clear()
        assert len(itn) == 0
        # The stale tag on ``s`` must not alias into the new table.
        assert itn.intern(s) == 0
        assert itn.store_of(0) == s
        del first

    def test_interned_store_pickles_without_its_tag(self):
        itn = StoreInterner()
        s = Store({"x": 1})
        itn.intern(s)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        # A fresh interner assigns the clone its own id — the pickled
        # payload must not smuggle the parent's tag across.
        other = StoreInterner()
        assert other.intern(clone) == 0


class TestModuleLifecycle:
    def test_epoch_token_changes_on_reset(self):
        before = intern_epoch()
        reset_store_interner()
        assert intern_epoch() is not before

    def test_memo_key_is_an_int_while_active(self):
        s = Store({"x": 1})
        assert isinstance(memo_key(s), int)
        assert memo_key(s) == store_interner().intern(s)

    def test_combine_is_memoized_through_the_interner(self):
        g, l = Store({"g": 1}), Store({"l": 2})
        assert combine(g, l) is combine(g, l)
        assert store_interner().combined_entries >= 1

    def test_combine_cache_clear_resets_the_memo(self):
        combine(Store({"g": 1}), Store({"l": 2}))
        assert store_interner().combined_entries >= 1
        reset_store_interner()
        assert store_interner().combined_entries == 0


class TestNoResidueAcrossVerifyRuns:
    def test_back_to_back_verify_runs_do_not_accumulate(self):
        """The lru_cache regression: a second ``verify()`` must start from
        a reset interner/memo, so its footprint equals the first run's."""
        from repro.protocols import pingpong

        report1 = pingpong.verify(rounds=1)
        stats1 = store_interner().stats()
        report2 = pingpong.verify(rounds=1)
        stats2 = store_interner().stats()
        assert report1.ok and report2.ok
        assert stats1["stores"] == stats2["stores"]
        assert stats1["combined"] == stats2["combined"]

    def test_reset_process_cache_clears_interner_state(self):
        combine(Store({"g": 1}), Store({"l": 2}))
        assert len(store_interner()) > 0
        reset_process_cache()
        assert len(store_interner()) == 0
        assert store_interner().combined_entries == 0
