"""The baseline invariants: the paper's invariant (2) and Ivy-style Paxos.

Two reference artifacts for the Section 5.2 invariant-complexity
comparison:

* :func:`broadcast_invariant` — the flat inductive invariant (2) of
  Section 2.1 for the broadcast consensus protocol, transcribed verbatim:
  a three-way disjunction over the protocol phase with existentially
  quantified "done" sets. Its conjunct/disjunct structure is exactly what
  IS lets the prover avoid.
* :func:`paxos_invariants` — analogues of the Ivy invariants of
  "Paxos made EPR" [39] over our abstract Paxos state, split into the
  "easy" conjuncts (quorum before decision, vote implies proposal, ...) and
  the "hard" ones involving the ``choosable`` quantifier alternation
  (formulas (8)-(12) in [39]) that IS renders unnecessary.

Both come with deliberately weakened variants whose consecution check
fails, demonstrating that the hard conjuncts are load-bearing.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

from ..core.action import PendingAsync
from ..core.multiset import Multiset
from ..core.store import Store
from ..logic.formulas import And, Atom, Exists, Formula, Or

__all__ = [
    "broadcast_invariant",
    "broadcast_invariant_weakened",
    "paxos_invariants",
    "paxos_easy_invariant",
    "paxos_full_invariant",
]


# --------------------------------------------------------------------- #
# Invariant (2) for broadcast consensus
# --------------------------------------------------------------------- #


def _nodes(env) -> range:
    return range(1, len(env["value"]) + 1)


def _subsets(env):
    nodes = list(_nodes(env))
    for size in range(len(nodes) + 1):
        yield from (frozenset(c) for c in combinations(nodes, size))


def _broadcast_pa(i: int) -> PendingAsync:
    return PendingAsync("Broadcast", Store({"i": i}))


def _collect_pa(i: int) -> PendingAsync:
    return PendingAsync("Collect", Store({"i": i}))


def broadcast_invariant(include_middle: bool = True) -> Formula:
    """Invariant (2) of Section 2.1, transcribed disjunct by disjunct.

    ``include_middle=False`` drops the second disjunct (the states where
    only some Broadcasts have executed), producing the weakened variant
    whose consecution check fails.
    """

    initial = And(
        (
            Atom(
                "Ω = {Main}",
                lambda e: e["Omega"] == Multiset([PendingAsync("Main", Store())]),
            ),
            Atom(
                "∀i. CH[i] = ∅",
                lambda e: all(len(e["CH"][i]) == 0 for i in _nodes(e)),
            ),
        )
    )

    def middle_channels(e) -> bool:
        expected = Multiset(e["value"][j] for j in e["D"])
        return all(e["CH"][i] == expected for i in _nodes(e))

    def middle_pending(e) -> bool:
        expected = Multiset(
            [_broadcast_pa(i) for i in _nodes(e) if i not in e["D"]]
            + [_collect_pa(i) for i in _nodes(e)]
        )
        return e["Omega"] == expected

    middle = Exists(
        "D",
        _subsets,
        And(
            (
                Atom("∀i. CH[i] = {value[j] | j ∈ D}", middle_channels),
                Atom("Ω = Broadcasts∉D ⊎ Collects", middle_pending),
            )
        ),
    )

    def final_channels(e) -> bool:
        everyone = Multiset(e["value"][j] for j in _nodes(e))
        return all(e["CH"][i] == everyone for i in _nodes(e) if i not in e["D"])

    def final_decisions(e) -> bool:
        top = max(e["value"][j] for j in _nodes(e))
        return all(e["decision"][i] == top for i in e["D"])

    def final_pending(e) -> bool:
        expected = Multiset(_collect_pa(i) for i in _nodes(e) if i not in e["D"])
        return e["Omega"] == expected

    def final_drained(e) -> bool:
        return all(len(e["CH"][i]) == 0 for i in e["D"])

    final = Exists(
        "D",
        _subsets,
        And(
            (
                Atom("∀i∉D. CH[i] = {value[j] | j ∈ [1,n]}", final_channels),
                Atom("∀i∈D. decision[i] = max value", final_decisions),
                Atom("Ω = {Collect(i) | i ∉ D}", final_pending),
                Atom("∀i∈D. CH[i] = ∅", final_drained),
            )
        ),
    )

    disjuncts = [initial, middle, final] if include_middle else [initial, final]
    return Or(tuple(disjuncts))


def broadcast_invariant_weakened() -> Formula:
    """The variant missing the intermediate disjunct — not inductive."""
    return broadcast_invariant(include_middle=False)


# --------------------------------------------------------------------- #
# Ivy-style Paxos invariants (after "Paxos made EPR" [39])
# --------------------------------------------------------------------- #


def _rounds(env) -> range:
    return range(1, len(env["decision"]) + 1)


def paxos_invariants(num_nodes: int) -> Tuple[List[Formula], List[Formula]]:
    """(easy, hard) conjunct lists of the baseline Paxos invariant.

    The *easy* conjuncts correspond roughly to formulas (4)-(7) of [39]
    (and to properties 2/3/4 of the paper's ``PaxosInv``); the *hard* ones
    to the ``choosable``-style formulas (8)-(12) capturing dependencies of
    overlapping rounds, which the IS proof does not need.
    """
    acceptors = tuple(range(1, num_nodes + 1))

    def quorums():
        result = []
        for size in range(1, num_nodes + 1):
            for q in combinations(acceptors, size):
                if len(q) * 2 > num_nodes:
                    result.append(frozenset(q))
        return tuple(result)

    all_quorums = quorums()

    def proposal(e, r) -> Optional[int]:
        info = e["voteInfo"][r]
        return None if info is None else info[0]

    def voted(e, n, r, v) -> bool:
        info = e["voteInfo"][r]
        return info is not None and info[0] == v and n in info[1]

    def left_round(e, n, r) -> bool:
        return any(n in e["joinedNodes"][r2] for r2 in _rounds(e) if r2 > r)

    def choosable(e, r, v, quorum) -> bool:
        return all(voted(e, n, r, v) or not left_round(e, n, r) for n in quorum)

    easy = [
        Atom(
            "decision(r,v) ⇒ quorum voted v in r",
            lambda e: all(
                e["decision"][r] is None
                or any(
                    all(voted(e, n, r, e["decision"][r]) for n in q)
                    for q in all_quorums
                )
                for r in _rounds(e)
            ),
        ),
        Atom(
            "vote(n,r,v) ⇒ proposal(r,v)",
            lambda e: all(
                e["voteInfo"][r] is None or proposal(e, r) is not None
                for r in _rounds(e)
            ),
        ),
        Atom(
            "decision(r,v) ⇒ proposal(r,v)",
            lambda e: all(
                e["decision"][r] is None or e["decision"][r] == proposal(e, r)
                for r in _rounds(e)
            ),
        ),
        Atom(
            "safety: decisions agree",
            lambda e: len(
                {e["decision"][r] for r in _rounds(e) if e["decision"][r] is not None}
            )
            <= 1,
        ),
    ]

    hard = [
        Atom(
            "choosable ⇒ later proposals agree",
            lambda e: all(
                v1 == proposal(e, r2)
                for r1 in _rounds(e)
                for r2 in _rounds(e)
                if r1 < r2 and proposal(e, r2) is not None
                for v1 in {proposal(e, r1)}
                if v1 is not None
                for q in all_quorums
                if choosable(e, r1, v1, q)
            ),
        ),
        Atom(
            "vote only after proposal in own round",
            lambda e: all(
                e["voteInfo"][r] is None or isinstance(e["voteInfo"][r], tuple)
                for r in _rounds(e)
            ),
        ),
    ]
    return easy, hard


def paxos_candidate_space(
    rounds: int, num_nodes: int, values: Tuple[int, ...] = (1, 2)
):
    """A structured space of candidate configurations for the consecution
    check — the enumerative stand-in for Ivy's unrestricted frame.

    Enumerates all abstract states (joined sets, per-round vote info,
    decisions) and pairs each with the pending-async multiset of the
    outstanding votes and conclusions its proposals still license. This
    space contains the classical counterexamples-to-induction: states
    satisfying the easy conjuncts where a stale round can still reach a
    conflicting decision.
    """
    from ..core.mapping import FrozenDict
    from ..core.semantics import Config
    from ..protocols.common import GHOST

    acceptors = tuple(range(1, num_nodes + 1))
    round_ids = tuple(range(1, rounds + 1))

    def vote_infos():
        yield None
        for v in values:
            for size in range(num_nodes + 1):
                for ns in combinations(acceptors, size):
                    yield (v, frozenset(ns))

    def joined_sets():
        for size in range(num_nodes + 1):
            for ns in combinations(acceptors, size):
                yield frozenset(ns)

    from itertools import product

    vote_options = list(vote_infos())
    join_options = list(joined_sets())

    for joined in product(join_options, repeat=rounds):
        for infos in product(vote_options, repeat=rounds):
            decision_options: List[Tuple[Optional[int], ...]] = []
            for decisions in product(
                *[
                    [None] + ([infos[r - 1][0]] if infos[r - 1] is not None else [])
                    for r in round_ids
                ]
            ):
                decision_options.append(decisions)
            for decisions in decision_options:
                pending = []
                for r in round_ids:
                    info = infos[r - 1]
                    if info is None:
                        continue
                    v, ns = info
                    pending.extend(
                        PendingAsync("Vote", Store({"r": r, "n": n, "v": v}))
                        for n in acceptors
                        if n not in ns
                    )
                    if decisions[r - 1] is None:
                        pending.append(
                            PendingAsync("Conclude", Store({"r": r, "v": v}))
                        )
                omega = Multiset(pending)
                glob = Store(
                    {
                        "joinedNodes": FrozenDict(
                            {r: joined[r - 1] for r in round_ids}
                        ),
                        "voteInfo": FrozenDict({r: infos[r - 1] for r in round_ids}),
                        "decision": FrozenDict(
                            {r: decisions[r - 1] for r in round_ids}
                        ),
                        GHOST: omega,
                    }
                )
                yield Config(glob, omega)


def paxos_easy_invariant(num_nodes: int) -> Formula:
    """Only the easy conjuncts — NOT inductive (consecution fails): the
    proposal step of a later round cannot be justified without the
    ``choosable`` conjunct."""
    easy, _hard = paxos_invariants(num_nodes)
    return And(tuple(easy))


def paxos_full_invariant(num_nodes: int) -> Formula:
    """Easy plus hard conjuncts — the full baseline invariant."""
    easy, hard = paxos_invariants(num_nodes)
    return And(tuple(easy + hard))
