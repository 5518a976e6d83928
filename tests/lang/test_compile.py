"""Tests for atomic summarization (big-step compilation to actions)."""

import pytest

from repro.core import (
    EMPTY,
    Multiset,
    Store,
    instance_summary,
    pa,
)
from repro.core.mapping import FrozenDict
from repro.lang import (
    Assert,
    Assign,
    Async,
    C,
    Foreach,
    Havoc,
    If,
    Module,
    Procedure,
    Receive,
    Send,
    Skip,
    SummaryExplosion,
    V,
    While,
    summarize_module,
    summarize_procedure,
)
from repro.protocols.common import GHOST

GLOBALS = ("x", "CH", GHOST)


def _module(body, locals=None, extra=None):
    procs = {"Main": Procedure("Main", (), tuple(body), locals=dict(locals or {}))}
    procs.update(extra or {})
    return Module(procs, global_vars=GLOBALS)


def _g(x=0, ch=None):
    return Store(
        {
            "x": x,
            "CH": FrozenDict({"c": ch if ch is not None else EMPTY}),
            GHOST: Multiset([pa("Main")]),
        }
    )


def test_summary_single_transition():
    module = _module([Assign("x", V("x") + C(1))])
    action = summarize_procedure(module, module.procedure("Main"))
    [t] = action.outcomes(_g(x=3))
    assert t.new_global["x"] == 4
    assert t.created == EMPTY


def test_summary_enumerates_havoc_branches():
    module = _module([Havoc("x", lambda _s: (1, 2))])
    action = summarize_procedure(module, module.procedure("Main"))
    outs = action.outcomes(_g())
    assert {t.new_global["x"] for t in outs} == {1, 2}


def test_summary_gate_from_assert():
    module = _module([Assert(V("x") > C(0))])
    action = summarize_procedure(module, module.procedure("Main"))
    assert action.gate(_g(x=1))
    assert not action.gate(_g(x=0))


def test_summary_gate_rejects_any_failing_branch():
    module = _module([Havoc("x", lambda _s: (0, 1)), Assert(V("x") > C(0))])
    action = summarize_procedure(module, module.procedure("Main"))
    assert not action.gate(_g(x=5))


def test_summary_blocks_on_empty_receive():
    module = _module([Receive("y", "CH", C("c"))], locals={"y": None})
    action = summarize_procedure(module, module.procedure("Main"))
    assert action.outcomes(_g()) == []
    assert action.gate(_g())  # blocking, not failing


def test_summary_spawns_pas_by_procedure_name():
    worker = Procedure("Work", ("k",), (Skip(),))
    module = _module([Async.of("Work", k=C(9))], extra={"Work": worker})
    action = summarize_procedure(module, module.procedure("Main"))
    [t] = action.outcomes(_g())
    assert t.created == Multiset([pa("Work", k=9)])


def test_summary_maintains_ghost():
    worker = Procedure("Work", ("k",), (Skip(),))
    module = _module([Async.of("Work", k=C(9))], extra={"Work": worker})
    action = summarize_procedure(module, module.procedure("Main"))
    [t] = action.outcomes(_g())
    assert t.new_global[GHOST] == Multiset([pa("Work", k=9)])


def test_summary_loop_and_branch():
    body = [
        Foreach.of(
            "i",
            lambda _s: (1, 2, 3, 4),
            [If.of(V("i") % C(2) == C(0), [Assign("x", V("x") + V("i"))])],
        )
    ]
    module = _module(body)
    action = summarize_procedure(module, module.procedure("Main"))
    [t] = action.outcomes(_g())
    assert t.new_global["x"] == 6


def test_summary_explosion_guard():
    module = _module([While.of(C(True), [Assign("x", V("x") + C(1))])])
    action = summarize_procedure(module, module.procedure("Main"))
    with pytest.raises(SummaryExplosion):
        action.outcomes(_g())


def test_summarize_module_matches_finegrained_behaviour():
    """The summarized program must have the same terminating states as the
    fine-grained program (modulo the ghost, which only it maintains)."""
    from repro.lang import build_finegrained

    worker = Procedure(
        "Work", ("k",), (Send("CH", C("c"), V("k")),)
    )
    collector = Procedure(
        "Collect",
        (),
        (Receive("y", "CH", C("c")), Assign("x", V("x") + V("y"))),
        locals={"y": None},
    )
    module = _module(
        [Async.of("Work", k=C(5)), Async.of("Collect")],
        extra={"Work": worker, "Collect": collector},
    )
    atomic = summarize_module(module)
    fine = build_finegrained(module)
    summary_atomic = instance_summary(atomic, _g())
    init_locals = module.initial_main_locals()
    from repro.core import initial_config, explore

    fine_result = explore(fine, [initial_config(_g(), init_locals)])
    finals_atomic = {g.without([GHOST]) for g in summary_atomic.final_globals}
    finals_fine = {g.without([GHOST]) for g in fine_result.final_globals}
    assert finals_atomic == finals_fine == {
        Store({"x": 5, "CH": FrozenDict({"c": EMPTY})})
    }


def test_summarized_broadcast_equals_handwritten():
    """The summarizer reproduces the hand-written atomic actions of
    Figure 1-② from the Figure 1-① implementation."""
    from repro.protocols import broadcast

    n = 2
    module = broadcast.make_module(n)
    summarized = summarize_module(module)
    handwritten = broadcast.make_atomic(n)
    g0 = broadcast.initial_global(n)
    s1 = instance_summary(summarized, g0)
    s2 = instance_summary(handwritten, g0)
    assert s1.final_globals == s2.final_globals
    assert not s1.can_fail and not s2.can_fail
