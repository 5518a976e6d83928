"""Producer-Consumer (Section 5.3).

A producer enqueues increasing numbers ``1..B`` into a shared FIFO queue;
a consumer dequeues and asserts that the numbers are indeed increasing.
Unlike Ping-Pong, the producer can run arbitrarily far ahead, so the queue
can grow up to ``B`` elements and the concurrent program has many more
interleavings. IS reduces it to the strict alternation
``Produce(1) Consume(1) Produce(2) Consume(2) ...``, in which the queue
never holds more than one element — exactly the simplification highlighted
in the paper.
"""

from __future__ import annotations

from typing import Iterator

from ..core.action import Action, PendingAsync, Transition
from ..core.multiset import Multiset
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
    "make_consumer_abs",
    "make_measure",
    "make_sequentialization",
    "make_module",
    "max_queue_length",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("queue", "consumed", GHOST)

#: The instance parameters of :func:`verify`; every other keyword is a
#: :class:`RunOptions` field.
PARAMETERS = ("bound",)

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def _producer(x: int) -> PendingAsync:
    return PendingAsync("Produce", Store({"x": x}))


def _consumer(x: int) -> PendingAsync:
    return PendingAsync("Consume", Store({"x": x}))


def initial_global(bound: int) -> Store:
    """Empty queue, nothing consumed."""
    del bound
    return Store({"queue": (), "consumed": 0, GHOST: Multiset([_MAIN_PA])})


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def make_atomic(bound: int) -> Program:
    """``Produce(x)`` appends ``x`` and continues as ``Produce(x + 1)``;
    ``Consume(x)`` pops the head, asserts it is ``x``, and continues as
    ``Consume(x + 1)`` (both stop after ``bound`` rounds)."""

    def main_transitions(state: Store) -> Iterator[Transition]:
        created = [_producer(1), _consumer(1)]
        yield Transition(
            _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
            Multiset(created),
        )

    def produce_transitions(state: Store) -> Iterator[Transition]:
        x = state["x"]
        created = [_producer(x + 1)] if x < bound else []
        new_global = _globals(state).update(
            {
                "queue": state["queue"] + (x,),
                GHOST: ghost_step(state, _producer(x), created),
            }
        )
        yield Transition(new_global, Multiset(created))

    def consume_gate(state: Store) -> bool:
        queue = state["queue"]
        return len(queue) == 0 or queue[0] == state["x"]

    def consume_transitions(state: Store) -> Iterator[Transition]:
        x = state["x"]
        queue = state["queue"]
        if not queue:
            return  # blocks on the empty queue
        created = [_consumer(x + 1)] if x < bound else []
        new_global = _globals(state).update(
            {
                "queue": queue[1:],
                "consumed": queue[0],
                GHOST: ghost_step(state, _consumer(x), created),
            }
        )
        yield Transition(new_global, Multiset(created))

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "Produce": Action("Produce", lambda _s: True, produce_transitions, ("x",)),
            "Consume": Action("Consume", consume_gate, consume_transitions, ("x",)),
        },
        global_vars=GLOBAL_VARS,
    )


def make_consumer_abs(bound: int, program: Program) -> Action:
    """``ConsumeAbs(x)``: gate strengthened to a non-empty queue (making the
    dequeue non-blocking; head-dequeue and tail-enqueue commute, so this is
    a left mover even against the producer)."""

    def gate(state: Store) -> bool:
        return len(state["queue"]) >= 1 and program["Consume"].gate(state)

    return Action("ConsumeAbs", gate, program["Consume"].transitions, ("x",))


def make_measure(bound: int) -> LexicographicMeasure:
    """PA potential: remaining rounds of each pending async."""

    def weight(pending: PendingAsync) -> int:
        x = pending.locals.get("x", 0)
        return bound - x + 1 if pending.action in ("Produce", "Consume") else 1

    return LexicographicMeasure((pa_potential(weight),), name="prodcons potential")


def make_policy(bound: int):
    """Alternation: ``Produce(x)`` before ``Consume(x)`` before round x+1."""
    phase = {"Produce": 0, "Consume": 1}
    return policy_by_key(
        ("Produce", "Consume"), lambda _g, p: (p.locals["x"], phase[p.action])
    )


def make_sequentialization(bound: int) -> ISApplication:
    program = make_atomic(bound)
    policy = make_policy(bound)
    return ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Produce", "Consume"),
        invariant=invariant_from_policy(program, MAIN, policy),
        measure=make_measure(bound),
        choice=choice_from_policy(policy),
        abstractions={"Consume": make_consumer_abs(bound, program)},
    )


def initial_impl_global(bound: int) -> Store:
    """Initial global store of the fine-grained layer (the queue lives in
    the one-entry channel map ``Q``)."""
    from ..core.mapping import FrozenDict

    del bound
    return Store(
        {"Q": FrozenDict({"q": ()}), "consumed": 0, GHOST: Multiset([_MAIN_PA])}
    )


def make_module(bound: int):
    """The fine-grained implementation in the mini-CIVL language (FIFO)."""
    from ..lang import Assert, Assign, Async, C, If, Module, Procedure, Receive, Send, V

    main = Procedure(
        MAIN, (), body=(Async.of("Produce", x=C(1)), Async.of("Consume", x=C(1)))
    )
    produce = Procedure(
        "Produce",
        ("x",),
        body=(
            Send("Q", C("q"), V("x"), kind="fifo"),
            If.of(V("x") < C(bound), [Async.of("Produce", x=V("x") + C(1))]),
        ),
        linear_class="producer",
    )
    consume = Procedure(
        "Consume",
        ("x",),
        locals={"y": None},
        body=(
            Receive("y", "Q", C("q"), kind="fifo"),
            Assert(V("y") == V("x")),
            Assign("consumed", V("y")),
            If.of(V("x") < C(bound), [Async.of("Consume", x=V("x") + C(1))]),
        ),
        linear_class="consumer",
    )
    return Module(
        {MAIN: main, "Produce": produce, "Consume": consume},
        global_vars=("Q", "consumed", GHOST),
    )


def max_queue_length(program: Program, initial: Store) -> int:
    """The largest queue observed over all reachable configurations — used
    by the benchmark contrasting the concurrent program (queue grows to B)
    with its sequentialization (queue never exceeds 1)."""
    from ..core.explore import explore
    from ..core.semantics import initial_config

    result = explore(program, [initial_config(initial)])
    return max(len(config.glob["queue"]) for config in result.configs())


def spec_holds(final_global: Store, bound: int) -> bool:
    return final_global["consumed"] == bound and final_global["queue"] == ()


def verify(bound: int = 4, **options) -> ProtocolReport:
    """Full pipeline for Producer-Consumer; ``options`` are
    :class:`RunOptions` fields.

    The producer and consumer are distinguished roles and queue slots are
    ordered, so there is no nontrivial permutation group to quotient by;
    ``symmetry`` is accepted for pipeline uniformity and ignored."""
    application = make_sequentialization(bound)
    instance = Instance(
        "producer-consumer",
        {"bound": bound},
        [("Produce+Consume", application)],
        initial_global(bound),
        lambda final: spec_holds(final, bound),
    )
    return verify_protocol(instance, RunOptions(**options))
