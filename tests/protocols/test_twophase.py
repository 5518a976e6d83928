"""Integration tests for two-phase commit with early abort."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EMPTY_STORE,
    Store,
    check_program_refinement,
    combine,
    instance_summary,
)
from repro.protocols import twophase
from repro.protocols.twophase import ABORT, COMMIT, NO, YES


def test_atomic_program_correct():
    n = 3
    summary = instance_summary(twophase.make_atomic(n), twophase.initial_global(n))
    assert not summary.can_fail
    assert all(twophase.spec_holds(g, n) for g in summary.final_globals)


def test_both_outcomes_reachable():
    n = 2
    summary = instance_summary(twophase.make_atomic(n), twophase.initial_global(n))
    decisions = {g["decision"] for g in summary.final_globals}
    assert decisions == {COMMIT, ABORT}


def test_early_abort_leaves_votes_undelivered():
    """With an abort, some yes-votes may remain in the coordinator channel
    forever — the early-abort optimization at work."""
    n = 3
    summary = instance_summary(twophase.make_atomic(n), twophase.initial_global(n))
    leftovers = [
        g
        for g in summary.final_globals
        if g["decision"] == ABORT and len(g["CH"]["coord"]) > 0
    ]
    assert leftovers, "expected aborts that skipped vote collection"


def test_collect_early_abort_transition():
    n = 3
    program = twophase.make_atomic(n)
    g = twophase.initial_global(n)
    channels = g["CH"]
    g = g.set("CH", channels.set("coord", channels["coord"].add(NO).add(YES)))
    outcomes = program["CollectVotes"].outcomes(combine(g, Store({"j": 0})))
    aborts = [t for t in outcomes if t.new_global["decision"] == ABORT]
    continues = [t for t in outcomes if t.new_global["decision"] is None]
    assert aborts and continues
    # The abort immediately spawns the decision broadcast.
    assert any(
        p.action == "BroadcastDecision"
        for t in aborts
        for p in t.created.support()
    )


def test_commit_requires_all_votes():
    n = 2
    program = twophase.make_atomic(n)
    g = twophase.initial_global(n)
    channels = g["CH"]
    g = g.set("CH", channels.set("coord", channels["coord"].add(YES)))
    outcomes = program["CollectVotes"].outcomes(combine(g, Store({"j": 1})))
    assert all(t.new_global["decision"] == COMMIT for t in outcomes)


def test_decision_handlers_concurrent_with_request_handlers():
    """A participant can learn the decision before voting: after an early
    abort, HandleDecision(i) and HandleRequest(i) are both pending."""
    from repro.core import explore, initial_config

    n = 2
    program = twophase.make_atomic(n)
    result = explore(program, [initial_config(twophase.initial_global(n))])
    both_pending = [
        c
        for c in result.configs()
        for i in (1, 2)
        if any(p.action == "HandleRequest" and p.locals["i"] == i for p in c.pending.support())
        and any(p.action == "HandleDecision" and p.locals["i"] == i for p in c.pending.support())
    ]
    assert both_pending


def test_four_is_applications_pass():
    report = twophase.verify(n=3)
    assert report.ok, report.summary()
    assert report.num_is_applications == 4  # the Table 1 count


def test_transformed_program_refines():
    applications = twophase.make_sequentializations(2)
    original = applications[0][1].program
    final = applications[-1][1].apply_and_drop()
    oracle = check_program_refinement(
        original, final, [(twophase.initial_global(2), EMPTY_STORE)]
    )
    assert oracle.holds


def test_spec_rejects_mixed_finalizations():
    from repro.core import FrozenDict

    g = twophase.initial_global(2).update({"decision": COMMIT})
    g = g.set("finalized", FrozenDict({1: COMMIT, 2: ABORT}))
    g = g.set("vote", FrozenDict({1: YES, 2: YES}))
    assert not twophase.spec_holds(g, 2)


def test_spec_rejects_commit_without_unanimity():
    from repro.core import FrozenDict

    g = twophase.initial_global(2).update({"decision": COMMIT})
    g = g.set("finalized", FrozenDict({1: COMMIT, 2: COMMIT}))
    g = g.set("vote", FrozenDict({1: YES, 2: NO}))
    assert not twophase.spec_holds(g, 2)


@given(st.integers(min_value=1, max_value=3))
@settings(max_examples=3, deadline=None)
def test_scales_over_participants(n):
    assert twophase.verify(n=n, ground_truth=(n <= 2)).ok
