"""Tests for gated atomic actions and pending asyncs."""

from repro.core import (
    Action,
    EMPTY,
    Multiset,
    Store,
    Transition,
    assert_action,
    havoc_action,
    pa,
    pas,
    skip_action,
    transition,
)


def test_pa_constructor():
    pending = pa("Broadcast", i=3)
    assert pending.action == "Broadcast"
    assert pending.locals["i"] == 3
    assert "Broadcast" in repr(pending)


def test_pa_no_params_repr():
    assert repr(pa("Main")) == "Main()"


def test_pas_builds_multiset():
    bag = pas(pa("A", i=1), pa("A", i=1), pa("B"))
    assert bag.count(pa("A", i=1)) == 2
    assert len(bag) == 3


def test_transition_helper():
    t = transition(Store({"x": 1}), pa("A"))
    assert t.new_global["x"] == 1
    assert t.created == Multiset([pa("A")])


def test_transition_default_empty():
    assert Transition(Store()).created == EMPTY


def test_action_enabled_requires_gate_and_transition():
    blocked = Action("B", lambda _s: True, lambda _s: iter(()))
    assert not blocked.enabled(Store())
    gated = Action("G", lambda _s: False, lambda s: iter([Transition(Store())]))
    assert not gated.enabled(Store())
    live = Action("L", lambda _s: True, lambda s: iter([Transition(Store())]))
    assert live.enabled(Store())


def test_outcomes_lists_transitions():
    action = havoc_action("H", lambda s: [Store({"x": 0}), Store({"x": 1})])
    outs = action.outcomes(Store())
    assert len(outs) == 2
    assert {t.new_global["x"] for t in outs} == {0, 1}


def test_assert_action_gate():
    action = assert_action("A", lambda s: s["x"] > 0, lambda s: s.restrict(["x"]))
    assert action.gate(Store({"x": 1}))
    assert not action.gate(Store({"x": 0}))
    [t] = action.outcomes(Store({"x": 5}))
    assert t.new_global == Store({"x": 5})


def test_skip_action_noop():
    action = skip_action("S", lambda s: s.restrict(["x"]))
    assert action.gate(Store({"x": 0}))
    [t] = action.outcomes(Store({"x": 0, "l": 9}))
    assert t.new_global == Store({"x": 0})
    assert t.created == EMPTY


def test_pending_async_hashable_and_eq():
    assert pa("A", i=1) == pa("A", i=1)
    assert pa("A", i=1) != pa("A", i=2)
    assert len({pa("A", i=1), pa("A", i=1)}) == 1
