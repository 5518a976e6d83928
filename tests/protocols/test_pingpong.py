"""Integration tests for Ping-Pong."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EMPTY_STORE,
    Multiset,
    Store,
    check_program_refinement,
    combine,
    instance_summary,
    pa,
)
from repro.protocols import pingpong


def test_atomic_program_asserts_hold():
    summary = instance_summary(pingpong.make_atomic(3), pingpong.initial_global(3))
    assert not summary.can_fail
    assert all(pingpong.spec_holds(g, 3) for g in summary.final_globals)


def test_pong_gate_rejects_wrong_number():
    program = pingpong.make_atomic(2)
    g = pingpong.initial_global(2).set("pong_ch", Multiset([7]))
    assert not program["Pong"].gate(combine(g, Store({"x": 1})))
    assert program["Pong"].gate(combine(g, Store({"x": 7})))


def test_await_gate_rejects_wrong_ack():
    program = pingpong.make_atomic(2)
    g = pingpong.initial_global(2).set("ping_ch", Multiset([5]))
    assert not program["PingAwait"].gate(combine(g, Store({"x": 1})))


def test_handlers_block_on_empty_channels():
    program = pingpong.make_atomic(2)
    g = pingpong.initial_global(2)
    assert program["Pong"].outcomes(combine(g, Store({"x": 1}))) == []
    assert program["PingAwait"].outcomes(combine(g, Store({"x": 1}))) == []


def test_abstractions_are_nonblocking_where_gated():
    program = pingpong.make_atomic(2)
    abstractions = pingpong.make_abstractions(2, program)
    g = pingpong.initial_global(2).set("pong_ch", Multiset([1]))
    state = combine(g, Store({"x": 1}))
    assert abstractions["Pong"].gate(state)
    assert abstractions["Pong"].outcomes(state)


def test_measure_decreases_across_rounds():
    measure = pingpong.make_measure(3)
    from repro.core import Config

    before = Config(pingpong.initial_global(3), Multiset([pa("Pong", x=1)]))
    after = Config(pingpong.initial_global(3), Multiset([pa("Pong", x=2)]))
    assert measure.decreases(before, after)


def test_is_conditions_pass():
    report = pingpong.verify(rounds=3)
    assert report.ok, report.summary()
    assert report.num_is_applications == 1  # the Table 1 count


def test_transformed_program_refines():
    app = pingpong.make_sequentialization(2)
    oracle = check_program_refinement(
        app.program, app.apply(), [(pingpong.initial_global(2), EMPTY_STORE)]
    )
    assert oracle.holds


def test_sequentialization_alternates():
    """In the policy-driven schedule the channels never hold more than one
    message — the alternation of the paper's description."""
    app = pingpong.make_sequentialization(3)
    sigma = pingpong.initial_global(3)
    for t in app.invariant.outcomes(sigma):
        assert len(t.new_global["ping_ch"]) + len(t.new_global["pong_ch"]) <= 1


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=4, deadline=None)
def test_scales_over_rounds(rounds):
    assert pingpong.verify(rounds=rounds, ground_truth=(rounds <= 3)).ok
