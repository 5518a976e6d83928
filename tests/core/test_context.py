"""The ``PAContext.pair_row`` contract.

``pair_row(g, first, seconds)`` must equal the indices ``i`` for which
``pair(g, first, seconds[i])`` holds, ascending — the columnar left-mover
loops read admissibility only through it. Checked for every shipped
context and for a subclass that defines nothing but ``pair``, at one
representative global per ghost class of two real universes, with
``first`` among the seconds once and twice, and with every ghost
multiplicity doubled so the count-two rule for an identical pair is
reached.
"""

from __future__ import annotations

import pytest

from repro.core import initial_config
from repro.core.action import PendingAsync
from repro.core.context import GhostContext, InstanceContext, NoContext, PAContext
from repro.core.universe import StoreUniverse
from repro.protocols import paxos, twophase
from repro.protocols.common import GHOST


class _PairOnly(PAContext):
    """A context that defines only ``pair``: the base ``pair_row`` serves
    it. The rule reads the global store, so rows differ by class."""

    def pair(self, global_store, first, second):
        ghost = global_store[GHOST]
        return (first in ghost) != (second in ghost) or first.action < second.action


def _instance_of(action):
    # Some actions single-instance, the rest multi-instance, so the rows
    # reach both branches of InstanceContext.pair.
    if action in ("Main", "Vote", "HandleRequest"):
        return action, ("i", "n", "r")
    return None


CONTEXTS = {
    "ghost": GhostContext(GHOST),
    "none": NoContext(),
    "instance": InstanceContext(_instance_of),
    "pair-only": _PairOnly(),
}

UNIVERSES = {
    "twophase-n3": lambda: (
        _first_app(twophase.make_sequentializations(3)),
        twophase.initial_global(3),
    ),
    "paxos-r1n2": lambda: (
        paxos.make_sequentialization(1, 2),
        paxos.initial_global(1, 2),
    ),
}


def _first_app(pairs):
    return pairs[0][1]


def _doubled(global_store):
    ghost = global_store[GHOST]
    return global_store.update({GHOST: ghost + ghost})


@pytest.fixture(scope="module", params=sorted(UNIVERSES))
def case(request):
    app, init_global = UNIVERSES[request.param]()
    universe = StoreUniverse.from_reachable(app.program, [initial_config(init_global)])
    ghost = GhostContext(GHOST)
    reps = list({ghost.cache_key(g): g for g in universe.globals_}.values())
    pas = [
        PendingAsync(name, locals_)
        for name, pool in sorted(universe.locals_by_action.items())
        for locals_ in pool
    ]
    return reps + [_doubled(g) for g in reps], pas


@pytest.mark.parametrize("context", sorted(CONTEXTS))
def test_pair_row_is_the_pair_loop(case, context):
    ctx = CONTEXTS[context]
    globals_, pas = case
    rows = 0
    for g in globals_:
        for first in pas:
            for seconds in (pas, pas + [first]):
                expected = tuple(
                    i for i, s in enumerate(seconds) if ctx.pair(g, first, s)
                )
                assert ctx.pair_row(g, first, seconds) == expected, (g, first)
                rows += bool(expected)
    assert rows


def test_ghost_rows_reach_the_identical_pair_rule(case):
    """Some row admits ``first`` with itself only because the ghost holds
    it twice — the doubled globals exercise that branch."""
    ctx = CONTEXTS["ghost"]
    globals_, pas = case
    assert any(
        ctx.pair_row(g, first, [first]) == (0,)
        for g in globals_
        for first in pas
    )
    assert all(
        ctx.pair_row(g, first, [first]) == ()
        for g in globals_
        for first in pas
        if g[GHOST].count(first) < 2
    )
