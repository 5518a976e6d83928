"""Tests for the shared protocol infrastructure."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Multiset, Store, pa
from repro.protocols.common import (
    GHOST,
    ProtocolReport,
    bag_send,
    count_pas_to,
    ghost_of,
    ghost_step,
    has_pa_to,
    sub_multisets,
    timed,
)


def _state(*pending):
    return Store({GHOST: Multiset(pending)})


class TestGhost:
    def test_ghost_of(self):
        assert ghost_of(_state(pa("A"))) == Multiset([pa("A")])

    def test_ghost_step_removes_self_adds_created(self):
        state = _state(pa("A"), pa("B"))
        updated = ghost_step(state, pa("A"), [pa("C")])
        assert updated == Multiset([pa("B"), pa("C")])

    def test_ghost_step_tolerant_removal(self):
        state = _state(pa("B"))
        updated = ghost_step(state, pa("A"), [])
        assert updated == Multiset([pa("B")])

    def test_ghost_step_none_self(self):
        state = _state(pa("B"))
        assert ghost_step(state, None, [pa("C")]).count(pa("C")) == 1

    def test_has_pa_to_and_count(self):
        state = _state(pa("A", i=1), pa("A", i=2), pa("B"))
        assert has_pa_to(state, "A")
        assert not has_pa_to(state, "Z")
        assert count_pas_to(state, "A") == 2


class TestSubMultisets:
    def test_exhaustive_small(self):
        bag = Multiset([1, 1, 2])
        subs = set(sub_multisets(bag, 2))
        assert subs == {Multiset([1, 1]), Multiset([1, 2])}

    def test_size_zero(self):
        assert list(sub_multisets(Multiset([1]), 0)) == [Multiset()]

    def test_oversized_yields_nothing(self):
        assert list(sub_multisets(Multiset([1]), 2)) == []

    @given(st.lists(st.integers(0, 3), max_size=6), st.integers(0, 4))
    def test_all_results_are_included_subsets_of_right_size(self, elems, k):
        bag = Multiset(elems)
        results = list(sub_multisets(bag, k))
        assert len(set(results)) == len(results)  # distinct
        for sub in results:
            assert len(sub) == k
            assert bag.includes(sub)

    @given(st.lists(st.integers(0, 2), min_size=0, max_size=5))
    def test_counts_match_binomial_product(self, elems):

        bag = Multiset(elems)
        k = len(bag) // 2
        expected_total = 0
        # number of distinct sub-multisets: product over counts is not a
        # simple binomial; verify instead against brute force.
        import itertools

        brute = {
            Multiset(combo)
            for combo in itertools.combinations(sorted(bag), k)
        }
        assert set(sub_multisets(bag, k)) == brute


class TestBagSend:
    def test_appends(self):
        assert bag_send(Multiset(["m"]), "m").count("m") == 2


class TestProtocolReport:
    def test_ok_requires_all_parts(self):
        report = ProtocolReport("p", {})
        assert report.ok  # nothing failed (vacuous)
        report.spec_ok = False
        assert not report.ok

    def test_failed_is_result_blocks_ok(self):
        from repro.core import ISResult
        from repro.core.refinement import CheckResult

        report = ProtocolReport("p", {})
        bad = ISResult({"X": CheckResult("X", False)})
        report.is_results.append(("stage", bad))
        assert not report.ok
        assert "FAIL" in report.summary()

    def test_timed_accumulates(self):
        report = ProtocolReport("p", {})
        with timed(report, "phase"):
            pass
        with timed(report, "phase"):
            pass
        assert report.timings["phase"] >= 0
        assert report.total_time == pytest.approx(
            sum(report.timings.values())
        )


def test_cli_list_and_verify(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    assert "paxos" in capsys.readouterr().out
    assert main(["verify", "prodcons"]) == 0
    assert "producer-consumer" in capsys.readouterr().out
    assert main(["verify", "nope"]) == 2
