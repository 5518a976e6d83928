"""Two-phase commit with early abort (Section 5.3).

A coordinator and ``n`` participants decide whether to commit a
transaction. The implementation is the *optimized, realistic* variant of
the paper:

* the coordinator broadcasts the vote request, then collects votes one at a
  time — and **aborts early**: as soon as one negative vote arrives, it
  broadcasts ABORT without waiting for the remaining votes (which stay
  forever undelivered in its channel);
* participants process the request and the decision **concurrently**: a
  participant may learn the (early-abort) decision before it has even
  voted.

We verify that all participants finalize the same decision and that COMMIT
implies every participant voted yes. The sequential reduction follows the
natural flow: broadcast requests, all vote responses, the vote collection
by a nondeterministic number of steps, the decision broadcast, and the
finalizations — established with four IS applications (Table 1: #IS = 4).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.mapping import FrozenDict
from ..core.multiset import EMPTY, Multiset
from ..core.program import MAIN, Program
from ..core.schedule import choice_from_policy, invariant_from_policy, policy_by_key
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.wellfounded import LexicographicMeasure, pa_count, pa_potential
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
    "COMMIT",
    "ABORT",
    "YES",
    "NO",
    "initial_global",
    "make_atomic",
    "make_measure",
    "make_sequentializations",
    "make_symmetry",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("vote", "decision", "finalized", "CH", GHOST)

#: The instance parameters of :func:`verify`; every other keyword is a
#: :class:`RunOptions` field.
PARAMETERS = ("n",)

COMMIT, ABORT = "commit", "abort"
YES, NO = "yes", "no"

#: Channel keys: per-participant request channels, the coordinator's vote
#: channel, per-participant decision channels.
_COORD = "coord"

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def _breq_pa() -> PendingAsync:
    return PendingAsync("BroadcastRequest", EMPTY_STORE)


def _hreq_pa(i: int) -> PendingAsync:
    return PendingAsync("HandleRequest", Store({"i": i}))


def _collect_pa(j: int) -> PendingAsync:
    return PendingAsync("CollectVotes", Store({"j": j}))


def _bdec_pa() -> PendingAsync:
    return PendingAsync("BroadcastDecision", EMPTY_STORE)


def _hdec_pa(i: int) -> PendingAsync:
    return PendingAsync("HandleDecision", Store({"i": i}))


def initial_global(n: int) -> Store:
    channels = {_COORD: EMPTY}
    channels.update({("req", i): EMPTY for i in range(1, n + 1)})
    channels.update({("dec", i): EMPTY for i in range(1, n + 1)})
    return Store(
        {
            "vote": FrozenDict({i: None for i in range(1, n + 1)}),
            "decision": None,
            "finalized": FrozenDict({i: None for i in range(1, n + 1)}),
            "CH": FrozenDict(channels),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def make_atomic(n: int) -> Program:
    """The atomic-action 2PC program.

    * ``Main`` spawns ``BroadcastRequest``.
    * ``BroadcastRequest`` sends a vote request to every participant,
      spawning their ``HandleRequest`` handlers and the coordinator's
      ``CollectVotes(0)``.
    * ``HandleRequest(i)`` receives the request, votes nondeterministically
      yes/no, and sends the vote to the coordinator.
    * ``CollectVotes(j)`` receives one vote (j already processed): a NO
      triggers the early abort (decision broadcast, collection stops); the
      n-th YES triggers commit.
    * ``BroadcastDecision`` sends the decision to every participant,
      spawning their ``HandleDecision`` handlers.
    * ``HandleDecision(i)`` finalizes the transaction at participant ``i``.
    """

    def main_transitions(state: Store) -> Iterator[Transition]:
        created = [_breq_pa()]
        yield Transition(
            _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
            Multiset(created),
        )

    def breq_transitions(state: Store) -> Iterator[Transition]:
        channels = state["CH"]
        updated = channels.update(
            {("req", i): channels[("req", i)].add("req") for i in range(1, n + 1)}
        )
        created = [_hreq_pa(i) for i in range(1, n + 1)] + [_collect_pa(0)]
        new_global = _globals(state).update(
            {"CH": updated, GHOST: ghost_step(state, _breq_pa(), created)}
        )
        yield Transition(new_global, Multiset(created))

    def hreq_transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        channels = state["CH"]
        key = ("req", i)
        if len(channels[key]) == 0:
            return  # blocks until the request arrives
        drained = channels.set(key, channels[key].remove("req"))
        for vote in (YES, NO):
            new_global = _globals(state).update(
                {
                    "vote": state["vote"].set(i, vote),
                    "CH": drained.set(_COORD, drained[_COORD].add(vote)),
                    GHOST: ghost_step(state, _hreq_pa(i)),
                }
            )
            yield Transition(new_global)

    def collect_transitions(state: Store) -> Iterator[Transition]:
        j = state["j"]
        channels = state["CH"]
        for vote in channels[_COORD].support():
            drained = channels.set(_COORD, channels[_COORD].remove(vote))
            if vote == NO:
                # Early abort: stop collecting, broadcast immediately.
                created = [_bdec_pa()]
                new_global = _globals(state).update(
                    {
                        "decision": ABORT,
                        "CH": drained,
                        GHOST: ghost_step(state, _collect_pa(j), created),
                    }
                )
                yield Transition(new_global, Multiset(created))
            elif j + 1 == n:
                created = [_bdec_pa()]
                new_global = _globals(state).update(
                    {
                        "decision": COMMIT,
                        "CH": drained,
                        GHOST: ghost_step(state, _collect_pa(j), created),
                    }
                )
                yield Transition(new_global, Multiset(created))
            else:
                created = [_collect_pa(j + 1)]
                new_global = _globals(state).update(
                    {"CH": drained, GHOST: ghost_step(state, _collect_pa(j), created)}
                )
                yield Transition(new_global, Multiset(created))

    def bdec_transitions(state: Store) -> Iterator[Transition]:
        channels = state["CH"]
        decision = state["decision"]
        updated = channels.update(
            {("dec", i): channels[("dec", i)].add(decision) for i in range(1, n + 1)}
        )
        created = [_hdec_pa(i) for i in range(1, n + 1)]
        new_global = _globals(state).update(
            {"CH": updated, GHOST: ghost_step(state, _bdec_pa(), created)}
        )
        yield Transition(new_global, Multiset(created))

    def hdec_transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        channels = state["CH"]
        key = ("dec", i)
        for decision in channels[key].support():
            new_global = _globals(state).update(
                {
                    "finalized": state["finalized"].set(i, decision),
                    "CH": channels.set(key, channels[key].remove(decision)),
                    GHOST: ghost_step(state, _hdec_pa(i)),
                }
            )
            yield Transition(new_global)

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "BroadcastRequest": Action(
                "BroadcastRequest", lambda _s: True, breq_transitions
            ),
            "HandleRequest": Action(
                "HandleRequest", lambda _s: True, hreq_transitions, ("i",)
            ),
            "CollectVotes": Action(
                "CollectVotes", lambda _s: True, collect_transitions, ("j",)
            ),
            "BroadcastDecision": Action(
                "BroadcastDecision", lambda _s: True, bdec_transitions
            ),
            "HandleDecision": Action(
                "HandleDecision", lambda _s: True, hdec_transitions, ("i",)
            ),
        },
        global_vars=GLOBAL_VARS,
    )


def make_measure(n: int) -> LexicographicMeasure:
    """Lexicographic: broadcasts pending, handler potential, collector
    progress. The collector chain ``CollectVotes(j) -> CollectVotes(j+1)``
    is measured by its remaining capacity ``n - j``."""

    def collector_potential(config) -> int:
        return sum(
            (n - p.locals["j"]) * c
            for p, c in config.pending.counts()
            if p.action == "CollectVotes"
        )

    def handler_weight(pending: PendingAsync) -> int:
        return 1 if pending.action in ("HandleRequest", "HandleDecision") else 0

    return LexicographicMeasure(
        (
            pa_count(MAIN),
            pa_count("BroadcastRequest"),
            # Collector progress must dominate the decision broadcast: the
            # collector's final step *creates* the BroadcastDecision PA.
            collector_potential,
            pa_count("BroadcastDecision"),
            pa_potential(handler_weight),
        ),
        name="2pc measure",
    )


def _availability_abs(program: Program, name: str, gate) -> Action:
    return Action(f"{name}Abs", gate, program[name].transitions, program[name].params)


def make_sequentializations(n: int) -> List[Tuple[str, ISApplication]]:
    """Four IS applications (Table 1: #IS = 4), enlarging the sequential
    prefix: request broadcast; all vote responses; vote collection and the
    decision broadcast; the finalizations."""
    program = make_atomic(n)
    measure = make_measure(n)
    applications: List[Tuple[str, ISApplication]] = []

    def add(label, current, eliminated, key, abstractions):
        policy = policy_by_key(eliminated, key)
        application = ISApplication(
            program=current,
            m_name=MAIN,
            eliminated=tuple(eliminated),
            invariant=invariant_from_policy(current, MAIN, policy, name=f"Inv{label}"),
            measure=measure,
            choice=choice_from_policy(policy),
            abstractions=abstractions,
        )
        applications.append((label, application))
        return application.apply_and_drop()

    current = add(
        "BroadcastRequest", program, ("BroadcastRequest",), lambda _g, _p: (0,), {}
    )
    current = add(
        "HandleRequest",
        current,
        ("HandleRequest",),
        lambda _g, p: (p.locals["i"],),
        {
            "HandleRequest": _availability_abs(
                current,
                "HandleRequest",
                lambda s: len(s["CH"][("req", s["i"])]) >= 1,
            )
        },
    )
    # Collection and decision broadcast chain into one another; eliminating
    # them together keeps the prefix contiguous.
    current = add(
        "Collect+BroadcastDecision",
        current,
        ("CollectVotes", "BroadcastDecision"),
        lambda _g, p: (0, p.locals["j"]) if p.action == "CollectVotes" else (1, 0),
        {
            "CollectVotes": _availability_abs(
                current, "CollectVotes", lambda s: len(s["CH"][_COORD]) >= 1
            )
        },
    )
    add(
        "HandleDecision",
        current,
        ("HandleDecision",),
        lambda _g, p: (p.locals["i"],),
        {
            "HandleDecision": _availability_abs(
                current,
                "HandleDecision",
                lambda s: len(s["CH"][("dec", s["i"])]) >= 1,
            )
        },
    )
    return applications


def make_module(n: int):
    """The fine-grained implementation in the mini-CIVL language, with the
    same early-abort structure as the atomic layer: the collector chain
    stops at the first NO and leaves the remaining votes undelivered."""
    from ..lang import (
        Assign,
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
        V,
    )

    participants = tuple(range(1, n + 1))

    main = Procedure(MAIN, (), (Async.of("BroadcastRequest"),))
    broadcast_request = Procedure(
        "BroadcastRequest",
        (),
        (
            Foreach.of(
                "i",
                lambda _s: participants,
                [
                    Send("CH", _chan_key("req", V("i")), C("req")),
                    Async.of("HandleRequest", i=V("i")),
                ],
            ),
            Async.of("CollectVotes", j=C(0)),
        ),
    )
    handle_request = Procedure(
        "HandleRequest",
        ("i",),
        (
            Receive("m", "CH", _chan_key("req", V("i"))),
            Havoc("v", lambda _s: (YES, NO)),
            MapAssign("vote", V("i"), V("v")),
            Send("CH", C(_COORD), V("v")),
        ),
        locals={"m": None, "v": None},
    )
    # The decision travels as a parameter of the broadcast task (CIVL's
    # idiom): re-reading the global inside the broadcast would make the
    # sends non-movers against the collector's write.
    collect_votes = Procedure(
        "CollectVotes",
        ("j",),
        (
            Receive("v", "CH", C(_COORD)),
            If.of(
                V("v") == C(NO),
                [
                    Assign("decision", C(ABORT)),
                    Async.of("BroadcastDecision", d=C(ABORT)),
                ],
                [
                    If.of(
                        V("j") + C(1) == C(n),
                        [
                            Assign("decision", C(COMMIT)),
                            Async.of("BroadcastDecision", d=C(COMMIT)),
                        ],
                        [Async.of("CollectVotes", j=V("j") + C(1))],
                    )
                ],
            ),
        ),
        locals={"v": None},
        linear_class="collector",
    )
    broadcast_decision = Procedure(
        "BroadcastDecision",
        ("d",),
        (
            Foreach.of(
                "i",
                lambda _s: participants,
                [
                    Send("CH", _chan_key("dec", V("i")), V("d")),
                    Async.of("HandleDecision", i=V("i")),
                ],
            ),
        ),
    )
    handle_decision = Procedure(
        "HandleDecision",
        ("i",),
        (
            Receive("d", "CH", _chan_key("dec", V("i"))),
            MapAssign("finalized", V("i"), V("d")),
        ),
        locals={"d": None},
    )
    return Module(
        {
            MAIN: main,
            "BroadcastRequest": broadcast_request,
            "HandleRequest": handle_request,
            "CollectVotes": collect_votes,
            "BroadcastDecision": broadcast_decision,
            "HandleDecision": handle_decision,
        },
        global_vars=GLOBAL_VARS,
    )


def _chan_key(kind: str, index_expr):
    """Expression computing a per-participant channel key ``(kind, i)``."""
    from ..lang import Call

    return Call(f"{kind}Key", lambda i, _k=kind: (_k, i), (index_expr,))


def make_symmetry(n: int):
    """Two-phase commit is symmetric in the participant identity.

    Participant ids index ``vote``/``finalized`` and appear in the
    ``("req", i)``/``("dec", i)`` channel keys and the ``i`` parameter of
    ``HandleRequest``/``HandleDecision``.  Message payloads ("req", the
    vote strings, the decision strings) carry no ids, and the coordinator
    (``CollectVotes``'s ``j`` is a plain counter) treats participants
    uniformly, so gates, transitions, abstractions, the measure, and
    ``spec_holds`` (universally quantified over participants) all commute
    with the renaming.  Group order: ``n!``.
    """
    from ..core import symmetry as sym

    part = sym.atom("part")

    def chkey(perm, key):
        if isinstance(key, tuple):
            return (key[0], part(perm, key[1]))
        return key

    return sym.SymmetrySpec(
        name=f"twophase-n{n}",
        sorts={"part": tuple(range(1, n + 1))},
        global_rules={
            "vote": sym.fmap(part, sym.ID),
            "finalized": sym.fmap(part, sym.ID),
            "CH": sym.fmap(chkey, sym.ID),
        },
        local_rules={
            "HandleRequest": {"i": part},
            "HandleDecision": {"i": part},
        },
        ghost_var=GHOST,
    )


def spec_holds(final_global: Store, n: int) -> bool:
    """All participants finalized the coordinator's decision; COMMIT only
    if every participant voted yes."""
    decision = final_global["decision"]
    finalized = final_global["finalized"]
    vote = final_global["vote"]
    if decision not in (COMMIT, ABORT):
        return False
    if any(finalized[i] != decision for i in range(1, n + 1)):
        return False
    if decision == COMMIT and any(vote[i] != YES for i in range(1, n + 1)):
        return False
    return True


def verify(n: int = 3, **options) -> ProtocolReport:
    """Full pipeline for two-phase commit; ``options`` are
    :class:`RunOptions` fields. ``symmetry=True`` quotients the
    exploration and the IS universes by :func:`make_symmetry`'s
    participant-permutation group."""
    instance = Instance(
        "two-phase-commit",
        {"n": n},
        make_sequentializations(n),
        initial_global(n),
        lambda final: spec_holds(final, n),
        symmetry=lambda: make_symmetry(n),
    )
    return verify_protocol(instance, RunOptions(**options))
