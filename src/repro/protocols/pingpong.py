"""Ping-Pong (Section 5.3).

A Ping process sends increasing numbers ``1..B`` to a Pong process and
expects each number to be acknowledged back. The verified assertions state
that Pong receives increasing numbers and Ping receives correct
acknowledgments; both live in the gates of the message-handler actions, so
IS (which preserves failures) verifies them: the sequentialization cannot
fail, hence neither can the original program.

The sequentialization makes the alternation explicit: in round ``x``,
``Ping(x)`` sends, ``Pong(x)`` acknowledges, ``PingAwait(x)`` checks the
acknowledgment and starts round ``x + 1``. Because handlers *replace* their
own PA with the next round's, the cooperation measure is a PA *potential*
(remaining work per pending async) rather than a plain count.
"""

from __future__ import annotations

from typing import Iterator

from ..core.action import Action, PendingAsync, Transition
from ..core.multiset import EMPTY, Multiset
from ..core.program import MAIN, Program
from ..core.schedule import choice_from_policy, invariant_from_policy, policy_by_key
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.wellfounded import LexicographicMeasure, pa_potential
from .common import (
    GHOST,
    Instance,
    ProtocolReport,
    RunOptions,
    ghost_step,
    verify_protocol,
)

__all__ = [
    "GLOBAL_VARS",
    "PARAMETERS",
    "initial_global",
    "make_atomic",
    "make_abstractions",
    "make_measure",
    "make_sequentialization",
    "make_module",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("ping_ch", "pong_ch", "last_ping", "last_pong", GHOST)

#: The instance parameters of :func:`verify`; every other keyword is a
#: :class:`RunOptions` field.
PARAMETERS = ("rounds",)

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def _ping(x: int) -> PendingAsync:
    return PendingAsync("Ping", Store({"x": x}))


def _pong(x: int) -> PendingAsync:
    return PendingAsync("Pong", Store({"x": x}))


def _await(x: int) -> PendingAsync:
    return PendingAsync("PingAwait", Store({"x": x}))


def initial_global(rounds: int) -> Store:
    """Empty channels, no rounds completed, ghost = {Main}."""
    del rounds  # the bound lives in the actions, not the store
    return Store(
        {
            "ping_ch": EMPTY,
            "pong_ch": EMPTY,
            "last_ping": 0,
            "last_pong": 0,
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def make_atomic(rounds: int) -> Program:
    """The atomic-action Ping-Pong program.

    * ``Main`` spawns ``Ping(1)`` and ``Pong(1)``.
    * ``Ping(x)`` sends ``x`` and spawns ``PingAwait(x)``.
    * ``Pong(x)`` receives a number, asserts it equals ``x`` (increasing
      numbers), acknowledges it, and continues as ``Pong(x + 1)``.
    * ``PingAwait(x)`` receives an acknowledgment, asserts it equals ``x``,
      and continues as ``Ping(x + 1)``.
    """

    def main_transitions(state: Store) -> Iterator[Transition]:
        created = [_ping(1), _pong(1)]
        yield Transition(
            _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
            Multiset(created),
        )

    def ping_transitions(state: Store) -> Iterator[Transition]:
        x = state["x"]
        created = [_await(x)]
        new_global = _globals(state).update(
            {
                "pong_ch": state["pong_ch"].add(x),
                GHOST: ghost_step(state, _ping(x), created),
            }
        )
        yield Transition(new_global, Multiset(created))

    def pong_gate(state: Store) -> bool:
        x = state["x"]
        return all(y == x for y in state["pong_ch"].support())

    def pong_transitions(state: Store) -> Iterator[Transition]:
        x = state["x"]
        for y in state["pong_ch"].support():
            created = [_pong(x + 1)] if x < rounds else []
            new_global = _globals(state).update(
                {
                    "pong_ch": state["pong_ch"].remove(y),
                    "ping_ch": state["ping_ch"].add(y),
                    "last_pong": y,
                    GHOST: ghost_step(state, _pong(x), created),
                }
            )
            yield Transition(new_global, Multiset(created))

    def await_gate(state: Store) -> bool:
        x = state["x"]
        return all(y == x for y in state["ping_ch"].support())

    def await_transitions(state: Store) -> Iterator[Transition]:
        x = state["x"]
        for y in state["ping_ch"].support():
            created = [_ping(x + 1)] if x < rounds else []
            new_global = _globals(state).update(
                {
                    "ping_ch": state["ping_ch"].remove(y),
                    "last_ping": y,
                    GHOST: ghost_step(state, _await(x), created),
                }
            )
            yield Transition(new_global, Multiset(created))

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "Ping": Action("Ping", lambda _s: True, ping_transitions, ("x",)),
            "Pong": Action("Pong", pong_gate, pong_transitions, ("x",)),
            "PingAwait": Action(
                "PingAwait", await_gate, await_transitions, ("x",)
            ),
        },
        global_vars=GLOBAL_VARS,
    )


def make_abstractions(rounds: int, program: Program):
    """Left-mover abstractions: the receiving handlers additionally assert
    that their message has already arrived (making them non-blocking)."""

    def pong_abs_gate(state: Store) -> bool:
        return len(state["pong_ch"]) >= 1 and program["Pong"].gate(state)

    def await_abs_gate(state: Store) -> bool:
        return len(state["ping_ch"]) >= 1 and program["PingAwait"].gate(state)

    return {
        "Pong": Action(
            "PongAbs", pong_abs_gate, program["Pong"].transitions, ("x",)
        ),
        "PingAwait": Action(
            "PingAwaitAbs", await_abs_gate, program["PingAwait"].transitions, ("x",)
        ),
    }


def make_measure(rounds: int) -> LexicographicMeasure:
    """PA potential: remaining handler executions of each pending async.

    ``Ping(x)`` needs the send plus the remaining rounds; ``PingAwait(x)``
    one less; ``Pong(x)`` its remaining receives. Every action strictly
    decreases the total potential.
    """

    def weight(pending: PendingAsync) -> int:
        x = pending.locals.get("x", 0)
        remaining_rounds = rounds - x
        if pending.action == "Ping":
            return 2 * remaining_rounds + 2
        if pending.action == "PingAwait":
            return 2 * remaining_rounds + 1
        if pending.action == "Pong":
            return remaining_rounds + 1
        return 1  # Main

    return LexicographicMeasure((pa_potential(weight),), name="pingpong potential")


_PHASE = {"Ping": 0, "Pong": 1, "PingAwait": 2}


def make_policy(rounds: int):
    """Round-robin schedule: ``Ping(x)``, ``Pong(x)``, ``PingAwait(x)``."""
    return policy_by_key(
        ("Ping", "Pong", "PingAwait"),
        lambda _g, p: (p.locals["x"], _PHASE[p.action]),
    )


def make_sequentialization(rounds: int) -> ISApplication:
    """One IS application eliminating all three handler actions from Main
    (Table 1 reports #IS = 1 for Ping-Pong)."""
    program = make_atomic(rounds)
    policy = make_policy(rounds)
    return ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Ping", "Pong", "PingAwait"),
        invariant=invariant_from_policy(program, MAIN, policy),
        measure=make_measure(rounds),
        choice=choice_from_policy(policy),
        abstractions=make_abstractions(rounds, program),
    )


def initial_impl_global(rounds: int) -> Store:
    """Initial global store of the fine-grained layer (channels as one
    two-entry map ``CHS``)."""
    from ..core.mapping import FrozenDict

    del rounds
    return Store(
        {
            "CHS": FrozenDict({"ping": EMPTY, "pong": EMPTY}),
            "last_ping": 0,
            "last_pong": 0,
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def make_module(rounds: int):
    """The fine-grained implementation in the mini-CIVL language."""
    from ..lang import (
        Assert,
        Assign,
        Async,
        If,
        Module,
        Procedure,
        Receive,
        Send,
        V,
        C,
        MapGet,
    )

    # Channels at this layer are a 2-entry map {"ping": ..., "pong": ...}
    # stored in one global, matching the per-direction bags of the atomic
    # layer via the layer refinement's variable correspondence.
    main = Procedure(
        MAIN,
        (),
        body=(Async.of("Ping", x=C(1)), Async.of("Pong", x=C(1))),
    )
    ping = Procedure(
        "Ping",
        ("x",),
        body=(
            Send("CHS", C("pong"), V("x")),
            Async.of("PingAwait", x=V("x")),
        ),
        linear_class="ping",
    )
    pong = Procedure(
        "Pong",
        ("x",),
        locals={"y": None},
        body=(
            Receive("y", "CHS", C("pong")),
            Assert(V("y") == V("x")),
            Assign("last_pong", V("y")),
            Send("CHS", C("ping"), V("y")),
            If.of(V("x") < C(rounds), [Async.of("Pong", x=V("x") + C(1))]),
        ),
        linear_class="pong",
    )
    ping_await = Procedure(
        "PingAwait",
        ("x",),
        locals={"y": None},
        body=(
            Receive("y", "CHS", C("ping")),
            Assert(V("y") == V("x")),
            Assign("last_ping", V("y")),
            If.of(V("x") < C(rounds), [Async.of("Ping", x=V("x") + C(1))]),
        ),
        linear_class="ping",
    )
    return Module(
        {MAIN: main, "Ping": ping, "Pong": pong, "PingAwait": ping_await},
        global_vars=("CHS", "last_ping", "last_pong", GHOST),
    )


def spec_holds(final_global: Store, rounds: int) -> bool:
    """All rounds completed, all messages consumed."""
    return (
        final_global["last_ping"] == rounds
        and final_global["last_pong"] == rounds
        and len(final_global["ping_ch"]) == 0
        and len(final_global["pong_ch"]) == 0
    )


def verify(rounds: int = 3, **options) -> ProtocolReport:
    """Full pipeline for Ping-Pong; ``options`` are :class:`RunOptions`
    fields.

    Ping-Pong has two distinguished roles and no replicated identity, so
    there is no nontrivial permutation group to quotient by; ``symmetry``
    is accepted for pipeline uniformity and ignored."""
    application = make_sequentialization(rounds)
    instance = Instance(
        "ping-pong",
        {"rounds": rounds},
        [("Ping+Pong+Await", application)],
        initial_global(rounds),
        lambda final: spec_holds(final, rounds),
    )
    return verify_protocol(instance, RunOptions(**options))
