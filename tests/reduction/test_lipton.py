"""Tests for Lipton reduction: mover inference and the atomicity pattern."""

import pytest

from repro.core import MoverType, Store, initial_config
from repro.core.mapping import FrozenDict
from repro.core.multiset import EMPTY
from repro.lang import (
    Assign,
    Async,
    C,
    Module,
    Procedure,
    Receive,
    Send,
    Skip,
    V,
)
from repro.reduction import analyze_module, successors
from repro.reduction.lipton import module_context

GLOBALS = ("x", "CH")


def _g(x=0):
    return Store({"x": x, "CH": FrozenDict({"a": EMPTY, "b": EMPTY})})


def test_successors_shapes():
    proc = Procedure(
        "P",
        (),
        (
            Send("CH", C("a"), C(1)),
            Send("CH", C("a"), C(2)),
        ),
    )
    assert successors(proc.instrs, 0) == [1]
    assert successors(proc.instrs, 1) == []


def test_module_context_excludes_same_instance():
    module = Module(
        {"Main": Procedure("Main", (), (Skip(), Skip()))}, global_vars=GLOBALS
    )
    context = module_context(module)
    from repro.core import pa

    assert not context.pair(Store(), pa("Main"), pa("Main#1"))


def test_send_then_receive_is_atomic_pattern_violation_free():
    """receive (right mover) before send (left mover) is the atomic
    pattern; the converse send-then-receive breaks it."""
    fine = Module(
        {
            "Main": Procedure("Main", (), (Async.of("Fwd"), Send("CH", C("a"), C(1)))),
            "Fwd": Procedure(
                "Fwd",
                (),
                (Receive("y", "CH", C("a")), Send("CH", C("b"), V("y"))),
                locals={"y": None},
            ),
        },
        global_vars=GLOBALS,
    )
    analysis = analyze_module(fine, [initial_config(_g())])
    assert analysis.patterns["Fwd"].atomic
    assert analysis.sound


def test_receive_after_send_violates_pattern():
    """Two symmetric processes that send then receive on crossing channels:
    each send is a genuine left-only mover (the peer receives from that
    channel) and each receive a right-only mover — so receive-after-send
    breaks the R*;N?;L* pattern and summarization is refused."""
    module = Module(
        {
            "Main": Procedure("Main", (), (Async.of("P"), Async.of("Q"))),
            "P": Procedure(
                "P",
                (),
                (Send("CH", C("a"), C(1)), Receive("y", "CH", C("b"))),
                locals={"y": None},
            ),
            "Q": Procedure(
                "Q",
                (),
                (Send("CH", C("b"), C(2)), Receive("y", "CH", C("a"))),
                locals={"y": None},
            ),
        },
        global_vars=GLOBALS,
    )
    analysis = analyze_module(module, [initial_config(_g())])
    assert not analysis.patterns["P"].atomic
    assert not analysis.patterns["Q"].atomic
    assert any(v.reason for v in analysis.patterns["P"].violations)
    assert not analysis.sound


def test_linearity_violation_detected():
    """Spawning two identical instances of a procedure breaks the
    per-instance linearity assumption and is reported."""
    module = Module(
        {
            "Main": Procedure("Main", (), (Async.of("W"), Async.of("W"))),
            "W": Procedure("W", (), (Assign("x", V("x") + C(1)),)),
        },
        global_vars=GLOBALS,
    )
    analysis = analyze_module(module, [initial_config(_g())])
    assert analysis.linearity_violations
    assert not analysis.sound


def test_report_is_readable():
    module = Module(
        {"Main": Procedure("Main", (), (Assign("x", C(1)),))},
        global_vars=GLOBALS,
    )
    analysis = analyze_module(module, [initial_config(_g())])
    text = analysis.report()
    assert "mover types" in text
    assert "Main" in text


def test_pingpong_module_is_atomic():
    """The Ping-Pong handlers follow receive-then-send: atomic pattern."""
    from repro.protocols import pingpong

    module = pingpong.make_module(2)
    init = initial_config(
        pingpong.initial_impl_global(2), module.initial_main_locals()
    )
    analysis = analyze_module(module, [init])
    assert analysis.sound, analysis.report()


def test_prodcons_module_is_atomic():
    """FIFO enqueue (left) after dequeue (right) per procedure: atomic."""
    from repro.protocols import prodcons

    module = prodcons.make_module(2)
    init = initial_config(
        prodcons.initial_impl_global(2), module.initial_main_locals()
    )
    analysis = analyze_module(module, [init])
    assert analysis.sound, analysis.report()


def test_changroberts_module_is_atomic():
    """Handlers are multi-instance (one per in-flight message) yet still
    follow receive-then-forward: atomic."""
    from repro.protocols import changroberts as cr

    module = cr.make_module(3)
    init = initial_config(cr.initial_global(3), module.initial_main_locals())
    analysis = analyze_module(module, [init])
    assert analysis.sound, analysis.report()


def test_nbuyer_module_is_atomic():
    from repro.protocols import nbuyer

    module = nbuyer.make_module(2, prices=(2,), contributions=(0, 2))
    init = initial_config(nbuyer.initial_global(2), module.initial_main_locals())
    analysis = analyze_module(module, [init])
    assert analysis.sound, analysis.report()


@pytest.mark.slow
def test_twophase_module_is_atomic():
    from repro.protocols import twophase

    module = twophase.make_module(2)
    init = initial_config(twophase.initial_global(2), module.initial_main_locals())
    analysis = analyze_module(module, [init])
    assert analysis.sound, analysis.report()


@pytest.mark.slow
def test_paxos_module_needs_the_abstraction_step():
    """Negative result matching the paper: Paxos's fine-grained layer does
    *not* satisfy the plain atomicity pattern (Join and Vote of the same
    acceptor conflict on ``acceptorState``; proposers' aggregation loops
    interleave). The paper's P1 ≼ P2 step for Paxos is therefore not pure
    reduction — it changes the state representation and introduces the
    message-loss nondeterminism (Section 5.2), which we validate instead
    via the decision-view layer refinement (test_layers_impl)."""
    from repro.protocols import paxos

    module = paxos.make_module(1, 2)
    init = initial_config(
        paxos.initial_impl_global(1, 2), module.initial_main_locals()
    )
    analysis = analyze_module(module, [init])
    assert not analysis.sound
    broken = {name for name, p in analysis.patterns.items() if not p.atomic}
    assert "Join" in broken or "Vote" in broken


def test_linear_class_violation_detected():
    """Declaring a linear class that the program violates is reported."""
    from repro.lang import Assign, Async, C, Module, Procedure, V

    module = Module(
        {
            "Main": Procedure(
                "Main", (), (Async.of("W", k=C(1)), Async.of("W", k=C(2)))
            ),
            "W": Procedure(
                "W",
                ("k",),
                (Assign("x", V("x") + V("k")),),
                linear_class="only-one",  # wrong: two live instances
            ),
        },
        global_vars=GLOBALS,
    )
    analysis = analyze_module(module, [initial_config(_g())])
    assert analysis.linearity_violations
    assert not analysis.sound


@pytest.mark.slow
def test_broadcast_module_mover_types_match_paper():
    """The full Section 2.1 story, derived not asserted: on the broadcast
    implementation of Figure 1-①, sends are left movers, receives right
    movers, local/disjoint accesses both movers — and all three procedures
    satisfy the atomicity pattern, licensing Figure 1-②."""
    from repro.protocols import broadcast

    module = broadcast.make_module(2)
    init = initial_config(
        broadcast.initial_global(2), module.initial_main_locals()
    )
    analysis = analyze_module(module, [init])
    assert analysis.sound
    # Broadcast's send instruction: a left (not right) mover.
    send_types = [
        t for name, t in analysis.mover_types.items()
        if name.startswith("Broadcast#") and t is MoverType.LEFT
    ]
    assert send_types, "expected a genuine left-mover send"
    # Collect's receive instruction: a right (not left) mover.
    receive_types = [
        t for name, t in analysis.mover_types.items()
        if name.startswith("Collect#") and t is MoverType.RIGHT
    ]
    assert receive_types, "expected a genuine right-mover receive"
    assert all(p.atomic for p in analysis.patterns.values())


def _repr_ordered_universe(module, init):
    """The universe ``analyze_module`` used to hand-build: the same
    harvest, sorted by ``repr``."""
    from repro.core.explore import explore
    from repro.core.universe import StoreUniverse
    from repro.lang.interp import build_finegrained

    reachable = explore(build_finegrained(module), [init]).configs()
    locals_seen = {}
    for config in reachable:
        for pending in config.pending.support():
            locals_seen.setdefault(pending.action, set()).add(pending.locals)
    return StoreUniverse(
        sorted({config.glob for config in reachable}, key=repr),
        {name: sorted(pool, key=repr) for name, pool in locals_seen.items()},
        context=module_context(module),
    )


def _example_module():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "examples"
    spec = importlib.util.spec_from_file_location(
        "build_your_own", path / "build_your_own.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    module = example.make_module(3)
    init = initial_config(example.initial_global(3), module.initial_main_locals())
    return module, init


def _protocol_module(name, *args, initial="initial_global", **kwargs):
    import importlib

    protocol = importlib.import_module(f"repro.protocols.{name}")
    module = protocol.make_module(*args, **kwargs)
    init = initial_config(
        getattr(protocol, initial)(*args), module.initial_main_locals()
    )
    return module, init


@pytest.mark.parametrize(
    "build",
    [
        _example_module,
        lambda: _protocol_module("pingpong", 2, initial="initial_impl_global"),
        lambda: _protocol_module("prodcons", 2, initial="initial_impl_global"),
        lambda: _protocol_module("nbuyer", 2, prices=(2,), contributions=(0, 2)),
    ],
    ids=["build_your_own", "pingpong", "prodcons", "nbuyer"],
)
def test_structural_harvest_keeps_mover_types_and_patterns(build):
    """``analyze_module`` harvests through ``StoreUniverse.harvest``
    (structural order) instead of its old ``repr``-sorted copy; mover
    types and atomicity patterns must not move."""
    module, init = build()
    analysis = analyze_module(module, [init])
    legacy = analyze_module(
        module, [init], universe=_repr_ordered_universe(module, init)
    )
    assert analysis.mover_types == legacy.mover_types
    assert analysis.patterns == legacy.patterns
    assert analysis.sound == legacy.sound
