"""Tests for the fine-grained semantics of mini-CIVL modules."""

import pytest

from repro.core import (
    EMPTY,
    Store,
    explore,
    initial_config,
)
from repro.core.mapping import FrozenDict
from repro.lang import (
    Assert,
    Assign,
    Assume,
    Async,
    C,
    Foreach,
    Havoc,
    If,
    MapAssign,
    Module,
    Procedure,
    Receive,
    Send,
    Skip,
    V,
    action_name,
    build_finegrained,
)

GLOBALS = ("x", "CH")


def _module(body, locals=None, extra_procs=None, global_vars=GLOBALS):
    procs = {"Main": Procedure("Main", (), tuple(body), locals=dict(locals or {}))}
    procs.update(extra_procs or {})
    return Module(procs, global_vars=global_vars)


def _run(module, global_store):
    program = build_finegrained(module)
    init = initial_config(global_store, module.initial_main_locals())
    return explore(program, [init])


def _g(x=0, ch=None):
    return Store({"x": x, "CH": FrozenDict({"c": ch if ch is not None else EMPTY})})


def test_assign_global():
    result = _run(_module([Assign("x", C(42))]), _g())
    assert {g["x"] for g in result.final_globals} == {42}


def test_assign_local_then_global():
    module = _module(
        [Assign("t", V("x") + C(1)), Assign("x", V("t") * C(2))], locals={"t": 0}
    )
    result = _run(module, _g(x=3))
    assert {g["x"] for g in result.final_globals} == {8}


def test_map_assign():
    module = _module([MapAssign("CH", C("c"), C("payload"))], global_vars=GLOBALS)
    result = _run(module, _g())
    assert {g["CH"]["c"] for g in result.final_globals} == {"payload"}


def test_havoc_enumerates_choices():
    module = _module([Havoc("x", lambda _s: (1, 2, 3))])
    result = _run(module, _g())
    assert {g["x"] for g in result.final_globals} == {1, 2, 3}


def test_assume_blocks():
    module = _module([Assume(V("x") > C(0)), Assign("x", C(9))])
    result = _run(module, _g(x=0))
    assert result.final_globals == set()
    assert result.deadlocks  # the assume blocks forever


def test_assert_failure():
    module = _module([Assert(V("x") > C(0))])
    result = _run(module, _g(x=0))
    assert result.can_fail


def test_assert_pass():
    module = _module([Assert(V("x") == C(0))])
    result = _run(module, _g(x=0))
    assert not result.can_fail
    assert len(result.final_globals) == 1


def test_send_receive_roundtrip():
    module = _module(
        [Send("CH", C("c"), C("msg")), Receive("y", "CH", C("c")), Assign("x", V("y"))],
        locals={"y": None},
    )
    result = _run(module, _g())
    assert {g["x"] for g in result.final_globals} == {"msg"}
    assert all(len(g["CH"]["c"]) == 0 for g in result.final_globals)


def test_receive_blocks_on_empty_channel():
    module = _module([Receive("y", "CH", C("c"))], locals={"y": None})
    result = _run(module, _g())
    assert result.deadlocks


def test_fifo_receive_delivers_head():
    module = _module(
        [
            Send("CH", C("c"), C(1), kind="fifo"),
            Send("CH", C("c"), C(2), kind="fifo"),
            Receive("y", "CH", C("c"), kind="fifo"),
            Assign("x", V("y")),
        ],
        locals={"y": None},
    )
    g0 = Store({"x": 0, "CH": FrozenDict({"c": ()})})
    result = _run(module, g0)
    assert {g["x"] for g in result.final_globals} == {1}


def test_async_spawns_concurrent_instance():
    worker = Procedure("Work", ("k",), (Assign("x", V("x") + V("k")),))
    module = _module(
        [Async.of("Work", k=C(5)), Async.of("Work", k=C(7))],
        extra_procs={"Work": worker},
    )
    result = _run(module, _g())
    assert {g["x"] for g in result.final_globals} == {12}


def test_foreach_iterates_snapshot():
    module = _module(
        [Foreach.of("i", lambda _s: (1, 2, 3), [Assign("x", V("x") + V("i"))])]
    )
    result = _run(module, _g())
    assert {g["x"] for g in result.final_globals} == {6}


def test_if_branches():
    body = [
        If.of(V("x") > C(0), [Assign("x", C(100))], [Assign("x", C(-100))]),
    ]
    assert {g["x"] for g in _run(_module(body), _g(x=1)).final_globals} == {100}
    assert {g["x"] for g in _run(_module(body), _g(x=0)).final_globals} == {-100}


def test_action_names():
    module = _module([Skip(), Skip()])
    assert action_name(module, "Main", 0) == "Main"
    assert action_name(module, "Main", 1) == "Main#1"


def test_missing_argument_rejected():
    worker = Procedure("Work", ("k",), (Skip(),))
    with pytest.raises(ValueError):
        worker.local_frame({})


def test_empty_body_rejected():
    with pytest.raises(ValueError):
        build_finegrained(
            Module({"Main": Procedure("Main", (), ())}, global_vars=GLOBALS)
        )


def test_module_requires_main():
    with pytest.raises(ValueError):
        Module({"NotMain": Procedure("NotMain", (), (Skip(),))}, global_vars=())
