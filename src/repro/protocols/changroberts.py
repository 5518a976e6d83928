"""Chang-Roberts leader election on a ring (Section 5.3, [10]).

Nodes ``1..n`` form a directed ring with unique ids. Every node sends its
id to its successor; a node receiving id ``m`` forwards it if it exceeds
its own id, declares itself leader if it equals its own id, and drops it
otherwise. We prove that exactly the maximum-id node becomes leader.

Following the paper, the sequentialization processes nodes in ring order
*starting with the successor of the maximum-id node* ``m`` and ending with
``m``: first every node initializes and handles the messages that reached
it (all of which die before passing ``m``), then ``m``'s own id travels the
full circle back to ``m``. Two IS applications are used (Table 1 reports
#IS = 2): the first eliminates the ``Init`` sends (unconditional left
movers), the second the ``Handle`` message handlers, whose abstraction
asserts the *no-upstream-threat* condition: no message (or yet-to-run
initialization) elsewhere in the ring can still be forwarded into this
node's channel. That assertion holds exactly in the sequential schedule and
makes the handler a left mover.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.mapping import FrozenDict
from ..core.multiset import EMPTY, Multiset
from ..core.program import MAIN, Program
from ..core.schedule import choice_from_policy, invariant_from_policy, policy_by_key
from ..core.semantics import Config
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.wellfounded import LexicographicMeasure, pa_count, total_pa_count
from .common import (
    GHOST,
    Instance,
    ProtocolReport,
    RunOptions,
    ghost_of,
    ghost_step,
    verify_protocol,
)

__all__ = [
    "GLOBAL_VARS",
    "PARAMETERS",
    "default_ids",
    "initial_global",
    "make_atomic",
    "make_handle_abs",
    "make_measure",
    "make_sequentializations",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("id", "CH", "leader", GHOST)

#: The instance parameters of :func:`verify`; every other keyword is a
#: :class:`RunOptions` field.
PARAMETERS = ("n", "ids")

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def default_ids(n: int) -> Tuple[int, ...]:
    """Unique ids with the maximum *not* at a ring boundary, so the
    interesting wrap-around behaviour is exercised."""
    ids = list(range(1, n + 1))
    # e.g. n=4 -> (2, 4, 1, 3): max at position 2.
    ids = ids[1::2] + ids[0::2]
    return tuple(reversed(ids)) if n % 2 == 0 else tuple(ids)


def _next(node: int, n: int) -> int:
    return 1 if node == n else node + 1


def _init_pa(i: int) -> PendingAsync:
    return PendingAsync("Init", Store({"i": i}))


def _handle_pa(j: int) -> PendingAsync:
    return PendingAsync("Handle", Store({"j": j}))


def initial_global(n: int, ids: Optional[Sequence[int]] = None) -> Store:
    ids = tuple(ids if ids is not None else default_ids(n))
    if sorted(ids) != list(range(1, n + 1)) and len(set(ids)) != n:
        raise ValueError("ids must be unique")
    return Store(
        {
            "id": FrozenDict({i: ids[i - 1] for i in range(1, n + 1)}),
            "CH": FrozenDict({i: EMPTY for i in range(1, n + 1)}),
            "leader": FrozenDict({i: False for i in range(1, n + 1)}),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def make_atomic(n: int) -> Program:
    """``Main`` spawns ``Init(i)`` for every node; ``Init(i)`` sends
    ``id[i]`` to the successor and spawns its message handler; ``Handle(j)``
    receives one message at node ``j`` and forwards / elects / drops.

    The model maintains the invariant that node ``j`` has exactly one
    pending ``Handle(j)`` per message in ``CH[j]``."""

    def main_transitions(state: Store) -> Iterator[Transition]:
        created = [_init_pa(i) for i in range(1, n + 1)]
        yield Transition(
            _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
            Multiset(created),
        )

    def init_transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        successor = _next(i, n)
        created = [_handle_pa(successor)]
        channels = state["CH"]
        new_global = _globals(state).update(
            {
                "CH": channels.set(successor, channels[successor].add(state["id"][i])),
                GHOST: ghost_step(state, _init_pa(i), created),
            }
        )
        yield Transition(new_global, Multiset(created))

    def handle_transitions(state: Store) -> Iterator[Transition]:
        j = state["j"]
        channels = state["CH"]
        own = state["id"][j]
        for message in channels[j].support():
            rest = channels.set(j, channels[j].remove(message))
            if message > own:
                successor = _next(j, n)
                created = [_handle_pa(successor)]
                new_global = _globals(state).update(
                    {
                        "CH": rest.set(successor, rest[successor].add(message)),
                        GHOST: ghost_step(state, _handle_pa(j), created),
                    }
                )
                yield Transition(new_global, Multiset(created))
            elif message == own:
                new_global = _globals(state).update(
                    {
                        "CH": rest,
                        "leader": state["leader"].set(j, True),
                        GHOST: ghost_step(state, _handle_pa(j)),
                    }
                )
                yield Transition(new_global)
            else:
                new_global = _globals(state).update(
                    {"CH": rest, GHOST: ghost_step(state, _handle_pa(j))}
                )
                yield Transition(new_global)

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "Init": Action("Init", lambda _s: True, init_transitions, ("i",)),
            "Handle": Action("Handle", lambda _s: True, handle_transitions, ("j",)),
        },
        global_vars=GLOBAL_VARS,
    )


# --------------------------------------------------------------------- #
# The no-upstream-threat condition
# --------------------------------------------------------------------- #


def _travels(state: Store, message: int, start: int, target: int, n: int) -> bool:
    """Would ``message``, currently deliverable at node ``start``, be
    forwarded all the way into ``CH[target]``? It must exceed the id of
    every node from ``start`` up to (and including) the predecessor of
    ``target``."""
    node = start
    while node != target:
        if message <= state["id"][node]:
            return False
        node = _next(node, n)
    return True


def upstream_threat(state: Store, j: int, n: int) -> bool:
    """True if some pending activity elsewhere can still send into CH[j]:
    either a pending ``Init(k)`` whose id would be forwarded to ``j``, or a
    message in some other channel that its handlers would forward to ``j``.
    """
    ghost = ghost_of(state)
    for pending in ghost.support():
        if pending.action == "Init":
            k = pending.locals["i"]
            if _travels(state, state["id"][k], _next(k, n), j, n):
                return True
    channels = state["CH"]
    for k in range(1, n + 1):
        if k == j:
            continue
        for message in channels[k].support():
            if _travels(state, message, k, j, n):
                return True
    return False


def make_handle_abs(n: int, program: Program, init_in_pool: bool) -> Action:
    """``HandleAbs(j)``: the handler with its gate strengthened to
    "a message is available and no upstream threat remains".

    After the first IS application has eliminated ``Init`` from the pool,
    the pending-``Init`` half of the threat check is vacuous but harmless;
    we keep one definition for both stages (`init_in_pool` only documents
    the stage)."""
    del init_in_pool

    def gate(state: Store) -> bool:
        j = state["j"]
        return len(state["CH"][j]) >= 1 and not upstream_threat(state, j, n)

    return Action("HandleAbs", gate, program["Handle"].transitions, ("j",))


# --------------------------------------------------------------------- #
# Measure, policies, IS applications
# --------------------------------------------------------------------- #


def _message_potential(config: Config) -> int:
    """Total remaining travel distance of all in-flight messages."""
    state = config.glob
    channels = state["CH"]
    n = len(state["id"])
    total = 0
    for k in channels:
        for message in channels[k]:
            node = k
            distance = 0
            while message > state["id"][node]:
                distance += 1
                node = _next(node, n)
                if node == k:
                    break
            total += distance
    return total


def make_measure() -> LexicographicMeasure:
    """Lexicographic: (pending Inits, total message distance, pending PAs).

    ``Init`` consumes the first component; a forwarding ``Handle`` shortens
    a message's journey; a dropping/electing ``Handle`` removes a PA."""
    return LexicographicMeasure(
        (pa_count("Init"), _message_potential, total_pa_count()),
        name="(inits, msg distance, |Ω|)",
    )


def _position(state: Store, node: int) -> int:
    """Ring position relative to the maximum-id node ``m``: its successor
    has position 0, ``m`` itself position n-1."""
    ids = state["id"]
    n = len(ids)
    max_node = max(ids, key=lambda u: ids[u])
    return (node - max_node - 1) % n


def make_init_policy(n: int):
    """First application: run the Inits in ring order starting after m."""
    return policy_by_key(("Init",), lambda g, p: (_position(g, p.locals["i"]),))


def make_handle_policy(n: int):
    """Second application: handlers in ring order (each node drains its
    channel); the wrap-around traversal of id[m] emerges from pending-ness."""
    return policy_by_key(("Handle",), lambda g, p: (_position(g, p.locals["j"]),))


def make_sequentializations(n: int) -> List[Tuple[str, ISApplication]]:
    """The two IS applications of Table 1 (#IS = 2)."""
    program = make_atomic(n)
    init_policy = make_init_policy(n)
    first = ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Init",),
        invariant=invariant_from_policy(program, MAIN, init_policy, name="InvInit"),
        measure=make_measure(),
        choice=choice_from_policy(init_policy),
    )
    after_first = first.apply_and_drop()
    handle_policy = make_handle_policy(n)
    second = ISApplication(
        program=after_first,
        m_name=MAIN,
        eliminated=("Handle",),
        invariant=invariant_from_policy(
            after_first, MAIN, handle_policy, name="InvHandle"
        ),
        measure=make_measure(),
        choice=choice_from_policy(handle_policy),
        abstractions={
            "Handle": make_handle_abs(n, after_first, init_in_pool=False)
        },
    )
    return [("Init", first), ("Handle", second)]


def make_module(n: int):
    """The fine-grained implementation in the mini-CIVL language: one send
    per hop, one blocking receive per handler task (handlers are spawned
    with the message that triggers them, the paper's short-lived
    message-handler idiom)."""
    from ..lang import Async, Call, Foreach, If, MapAssign, MapGet, Module, Procedure, Receive, Send, V, C

    def successor(j):
        return Call("next", lambda node: 1 if node == n else node + 1, (j,))

    main = Procedure(
        MAIN,
        (),
        (
            Foreach.of(
                "i",
                lambda _s: tuple(range(1, n + 1)),
                [Async.of("Init", i=V("i"))],
            ),
        ),
    )
    init = Procedure(
        "Init",
        ("i",),
        (
            Send("CH", successor(V("i")), MapGet(V("id"), V("i"))),
            Async.of("Handle", j=successor(V("i"))),
        ),
    )
    handle = Procedure(
        "Handle",
        ("j",),
        (
            Receive("m", "CH", V("j")),
            If.of(
                V("m") > MapGet(V("id"), V("j")),
                [
                    Send("CH", successor(V("j")), V("m")),
                    Async.of("Handle", j=successor(V("j"))),
                ],
                [
                    If.of(
                        V("m") == MapGet(V("id"), V("j")),
                        [MapAssign("leader", V("j"), C(True))],
                    )
                ],
            ),
        ),
        locals={"m": None},
        # Two messages in flight to the same node mean two live Handle(j)
        # instances: handlers are genuinely multi-instance.
        multi_instance=True,
    )
    return Module(
        {MAIN: main, "Init": init, "Handle": handle}, global_vars=GLOBAL_VARS
    )


def spec_holds(final_global: Store, n: int) -> bool:
    """Exactly the maximum-id node is leader; all messages consumed."""
    ids = final_global["id"]
    max_node = max(ids, key=lambda u: ids[u])
    leader = final_global["leader"]
    channels = final_global["CH"]
    return all(leader[u] == (u == max_node) for u in ids) and all(
        len(channels[u]) == 0 for u in ids
    )


def verify(
    n: int = 4, ids: Optional[Sequence[int]] = None, **options
) -> ProtocolReport:
    """Full pipeline for Chang-Roberts; ``options`` are
    :class:`RunOptions` fields.

    Ring positions are *not* symmetric: the election compares node ids
    (ordered) and messages travel a fixed orientation, so a permutation
    of positions does not commute with the program; ``symmetry`` is
    accepted for pipeline uniformity and ignored."""
    instance = Instance(
        "chang-roberts",
        {"n": n, "ids": tuple(ids if ids is not None else default_ids(n))},
        make_sequentializations(n),
        initial_global(n, ids),
        lambda final: spec_holds(final, n),
    )
    return verify_protocol(instance, RunOptions(**options))
