"""Integration tests for Producer-Consumer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EMPTY_STORE,
    Store,
    check_program_refinement,
    combine,
    explore,
    initial_config,
    instance_summary,
)
from repro.protocols import prodcons


def test_atomic_program_correct():
    summary = instance_summary(prodcons.make_atomic(4), prodcons.initial_global(4))
    assert not summary.can_fail
    assert all(prodcons.spec_holds(g, 4) for g in summary.final_globals)


def test_consumer_gate_is_fifo_order_assertion():
    program = prodcons.make_atomic(3)
    g = prodcons.initial_global(3).set("queue", (2, 1))
    assert not program["Consume"].gate(combine(g, Store({"x": 1})))
    assert program["Consume"].gate(combine(g, Store({"x": 2})))


def test_consumer_blocks_on_empty_queue():
    program = prodcons.make_atomic(3)
    state = combine(prodcons.initial_global(3), Store({"x": 1}))
    assert program["Consume"].gate(state)  # blocking, not failing
    assert program["Consume"].outcomes(state) == []


def test_consumer_abs_requires_nonempty_queue():
    program = prodcons.make_atomic(3)
    abs_action = prodcons.make_consumer_abs(3, program)
    empty = combine(prodcons.initial_global(3), Store({"x": 1}))
    assert not abs_action.gate(empty)
    loaded = combine(
        prodcons.initial_global(3).set("queue", (1,)), Store({"x": 1})
    )
    assert abs_action.gate(loaded)
    assert abs_action.outcomes(loaded)


def test_is_conditions_pass():
    report = prodcons.verify(bound=4)
    assert report.ok, report.summary()
    assert report.num_is_applications == 1  # the Table 1 count


def test_transformed_program_refines():
    app = prodcons.make_sequentialization(3)
    oracle = check_program_refinement(
        app.program, app.apply(), [(prodcons.initial_global(3), EMPTY_STORE)]
    )
    assert oracle.holds


def test_concurrent_queue_grows_sequential_queue_does_not():
    """The paper's headline simplification: concurrently the queue grows to
    the full bound; in the sequential schedule it never exceeds one."""
    bound = 4
    program = prodcons.make_atomic(bound)
    assert prodcons.max_queue_length(program, prodcons.initial_global(bound)) == bound
    app = prodcons.make_sequentialization(bound)
    sigma = prodcons.initial_global(bound)
    assert max(len(t.new_global["queue"]) for t in app.invariant.outcomes(sigma)) <= 1


def test_interleaving_count_collapses():
    """The sequentialization removes all scheduling freedom."""
    bound = 3
    concurrent = prodcons.make_atomic(bound)
    init = initial_config(prodcons.initial_global(bound))
    concurrent_configs = explore(concurrent, [init]).num_configs
    sequential = prodcons.make_sequentialization(bound).apply_and_drop()
    sequential_configs = explore(sequential, [init]).num_configs
    assert sequential_configs < concurrent_configs


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_scales_over_bound(bound):
    assert prodcons.verify(bound=bound, ground_truth=(bound <= 4)).ok
