"""Failure injection: seeded protocol bugs must be caught by the pipeline.

Each mutation models a realistic implementation mistake; the corresponding
detection point differs (sequential spec, gate failure, deadlock, IS
condition), which is itself part of what these tests document.
"""

from repro.core import (
    Action,
    pa,
    ISApplication,
    Multiset,
    Transition,
    choice_from_policy,
    instance_summary,
    invariant_from_policy,
)
from repro.protocols import broadcast, changroberts, paxos, prodcons, twophase
from repro.protocols.common import GHOST, ghost_step, sub_multisets


def test_broadcast_undercounting_collect_caught():
    """Collect that decides after n-1 messages can decide a non-maximal
    value: the sequential spec (and the ground truth) reject it."""
    n = 3
    program = broadcast.make_atomic(n)

    def buggy_transitions(state):
        i = state["i"]
        channel = state["CH"][i]
        if len(channel) < n - 1:
            return
        for received in sub_multisets(channel, n - 1):
            new_global = (
                state.restrict(broadcast.GLOBAL_VARS)
                .update(
                    {
                        "CH": state["CH"].set(i, channel - received),
                        "decision": state["decision"].set(i, max(received)),
                        GHOST: ghost_step(
                            state,
                            pa(
                                "Collect", i=i
                            ),
                        ),
                    }
                )
            )
            yield Transition(new_global)

    buggy = program.with_action(
        "Collect", Action("Collect", lambda _s: True, buggy_transitions, ("i",))
    )
    summary = instance_summary(buggy, broadcast.initial_global(n))
    values = broadcast.default_values(n)
    assert not all(
        broadcast.spec_holds(final, n, values) for final in summary.final_globals
    )


def test_twophase_off_by_one_commit_caught():
    """A coordinator committing after n-1 yes votes violates 'commit only
    with unanimity' — caught by the spec on the concurrent program and on
    the sequentialization alike."""
    n = 3
    program = twophase.make_atomic(n)
    original = program["CollectVotes"]

    def buggy_transitions(state):
        j = state["j"]
        channels = state["CH"]
        for vote in channels["coord"].support():
            drained = channels.set("coord", channels["coord"].remove(vote))
            if vote == twophase.NO:
                yield from original.transitions(state)
                return
            # BUG: commit one vote early (j + 2 instead of j + 1).
            if j + 2 >= n:
                created = Multiset(
                    [pa("BroadcastDecision")]
                )
                new_global = state.restrict(twophase.GLOBAL_VARS).update(
                    {
                        "decision": twophase.COMMIT,
                        "CH": drained,
                        GHOST: ghost_step(state, pa("CollectVotes", j=j), created),
                    }
                )
                yield Transition(new_global, created)
            else:
                created = Multiset([pa("CollectVotes", j=j + 1)])
                new_global = state.restrict(twophase.GLOBAL_VARS).update(
                    {"CH": drained, GHOST: ghost_step(state, pa("CollectVotes", j=j), created)}
                )
                yield Transition(new_global, created)

    buggy = program.with_action(
        "CollectVotes",
        Action("CollectVotes", original.gate, buggy_transitions, ("j",)),
    )
    summary = instance_summary(buggy, twophase.initial_global(n))
    assert not all(twophase.spec_holds(g, n) for g in summary.final_globals)


def test_paxos_ignoring_prior_votes_caught():
    """A proposer that always proposes a fresh value (ignoring reported
    votes) breaks agreement across rounds; the sequentialization's spec
    catches the conflict."""
    R, N = 2, 3
    program = paxos.make_atomic(R, N, values=(1, 2))
    from itertools import combinations

    def buggy_transitions(state):
        r = state["r"]
        ghost_only = state.restrict(paxos.GLOBAL_VARS).set(
            GHOST,
            ghost_step(
                state, pa("Propose", r=r)
            ),
        )
        yield Transition(ghost_only)
        joined = state["joinedNodes"][r]
        for size in range(1, len(joined) + 1):
            for ns in combinations(sorted(joined), size):
                if not paxos.is_quorum(frozenset(ns), N):
                    continue
                for v in (1, 2):  # BUG: free choice even with prior votes
                    created = [
                        pa(
                            "Vote", r=r, n=n, v=v
                        )
                        for n in range(1, N + 1)
                    ] + [
                        pa(
                            "Conclude", r=r, v=v
                        )
                    ]
                    new_global = state.restrict(paxos.GLOBAL_VARS).update(
                        {
                            "voteInfo": state["voteInfo"].set(r, (v, frozenset())),
                            GHOST: ghost_step(
                                state,
                                pa(
                                    "Propose", r=r
                                ),
                                created,
                            ),
                        }
                    )
                    yield Transition(new_global, Multiset(created))

    buggy = program.with_action(
        "Propose",
        Action("Propose", program["Propose"].gate, buggy_transitions, ("r",)),
    )
    application = paxos.make_sequentialization(R, N)
    buggy_app = ISApplication(
        program=buggy,
        m_name=application.m_name,
        eliminated=application.eliminated,
        invariant=invariant_from_policy(
            buggy, "Main", paxos.make_policy(R, N), name="BuggyInv"
        ),
        measure=application.measure,
        choice=choice_from_policy(paxos.make_policy(R, N)),
        abstractions=paxos.make_abstractions(R, N, buggy),
    )
    sequential = buggy_app.apply_and_drop()
    summary = instance_summary(sequential, paxos.initial_global(R, N))
    assert not all(paxos.spec_holds(g, R) for g in summary.final_globals)


def test_changroberts_greedy_election_caught():
    """Electing on m >= id (instead of strict equality) produces multiple
    leaders."""
    n = 3
    program = changroberts.make_atomic(n)
    original = program["Handle"]

    def buggy_transitions(state):
        j = state["j"]
        own = state["id"][j]
        for t in original.transitions(state):
            yield t
            # BUG: additionally declare leadership on any m >= own id.
            channel = state["CH"][j]
            for message in channel.support():
                if message > own:
                    yield Transition(
                        t.new_global.set(
                            "leader", state["leader"].set(j, True)
                        ),
                        t.created,
                    )

    buggy = program.with_action(
        "Handle", Action("Handle", original.gate, buggy_transitions, ("j",))
    )
    summary = instance_summary(buggy, changroberts.initial_global(n))
    assert not all(changroberts.spec_holds(g, n) for g in summary.final_globals)


def test_prodcons_missing_producer_round_deadlocks():
    """A producer that stops one item early starves the consumer: no
    terminating execution remains, which the pipeline reports as a failing
    sequential spec (empty summary)."""
    bound = 3
    program = prodcons.make_atomic(bound)
    original = program["Produce"]

    def buggy_transitions(state):
        if state["x"] == bound:
            # BUG: drop the final item (and its continuation).
            new_global = state.restrict(prodcons.GLOBAL_VARS).set(
                GHOST,
                ghost_step(
                    state,
                    pa(
                        "Produce", x=state["x"]
                    ),
                ),
            )
            yield Transition(new_global)
            return
        yield from original.transitions(state)

    buggy = program.with_action(
        "Produce", Action("Produce", original.gate, buggy_transitions, ("x",))
    )
    summary = instance_summary(buggy, prodcons.initial_global(bound))
    assert not summary.final_globals  # consumer waits forever


def test_pingpong_wrong_assertion_surfaces_in_i3():
    """Failure preservation: a protocol whose assertion is wrong (Pong
    expects x+1) cannot be sequentialized with the failure hidden — the
    gate obligation resurfaces as an I3 violation, mirroring how IS
    propagates potential failures into the invariant's gate (Section 4)."""
    from repro.core import (
        choice_from_policy,
        invariant_from_policy,
    )
    from repro.core.context import GhostContext
    from repro.core.semantics import initial_config
    from repro.core.universe import StoreUniverse
    from repro.protocols import pingpong

    rounds = 2
    program = pingpong.make_atomic(rounds)
    original = program["Pong"]

    def wrong_gate(state):
        return all(y == state["x"] + 1 for y in state["pong_ch"].support())

    buggy = program.with_action(
        "Pong", Action("Pong", wrong_gate, original.transitions, ("x",))
    )
    assert instance_summary(buggy, pingpong.initial_global(rounds)).can_fail

    policy = pingpong.make_policy(rounds)
    application = ISApplication(
        buggy,
        "Main",
        ("Ping", "Pong", "PingAwait"),
        invariant=invariant_from_policy(buggy, "Main", policy),
        measure=pingpong.make_measure(rounds),
        choice=choice_from_policy(policy),
        abstractions=pingpong.make_abstractions(rounds, buggy),
    )
    universe = StoreUniverse.from_reachable(
        buggy, [initial_config(pingpong.initial_global(rounds))]
    ).with_context(GhostContext(GHOST))
    result = application.check(universe)
    assert not result.holds
    assert not result.conditions["I3"].holds
