"""Integration tests for N-Buyer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EMPTY_STORE,
    Store,
    check_program_refinement,
    combine,
    instance_summary,
)
from repro.protocols import nbuyer


def test_atomic_program_correct():
    n = 2
    summary = instance_summary(nbuyer.make_atomic(n), nbuyer.initial_global(n))
    assert not summary.can_fail
    assert all(nbuyer.spec_holds(g, n) for g in summary.final_globals)


def test_order_placed_iff_contributions_cover_price():
    n = 2
    summary = instance_summary(
        nbuyer.make_atomic(n, prices=(2,), contributions=(0, 2)),
        nbuyer.initial_global(n),
    )
    placed = [g for g in summary.final_globals if g["ordered"]]
    skipped = [g for g in summary.final_globals if not g["ordered"]]
    assert placed and skipped
    for g in placed:
        assert g["order_total"] >= g["price"]
    for g in skipped:
        assert g["order_total"] < g["price"]


def test_quote_blocks_before_request():
    program = nbuyer.make_atomic(2)
    state = combine(nbuyer.initial_global(2), Store())
    assert program["Quote"].outcomes(state) == []


def test_decide_blocks_for_all_contributions():
    n = 3
    program = nbuyer.make_atomic(n)
    g = nbuyer.initial_global(n)
    channels = g["CH"]
    partial = channels.set("decide", channels["decide"].add(1).add(1))
    state = combine(g.set("CH", partial), Store())
    assert program["Decide"].outcomes(state) == []  # needs n = 3


def test_four_is_applications_pass():
    report = nbuyer.verify(n=3)
    assert report.ok, report.summary()
    assert report.num_is_applications == 4  # the Table 1 count


def test_transformed_program_refines():
    applications = nbuyer.make_sequentializations(2)
    original = applications[0][1].program
    final = applications[-1][1].apply_and_drop()
    oracle = check_program_refinement(
        original, final, [(nbuyer.initial_global(2), EMPTY_STORE)]
    )
    assert oracle.holds


def test_spec_rejects_mismatched_total():
    n = 2
    g = nbuyer.initial_global(n).update(
        {"ordered": True, "order_total": 99, "price": 1}
    )
    from repro.core import FrozenDict

    g = g.set("contrib", FrozenDict({1: 1, 2: 1}))
    assert not nbuyer.spec_holds(g, n)


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),
    st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=5, deadline=None)
def test_arbitrary_price_and_contribution_domains(prices, contributions):
    report = nbuyer.verify(
        n=2, prices=prices, contributions=contributions, ground_truth=False
    )
    assert report.ok
