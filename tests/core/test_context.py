"""The ``PAContext.admitted`` / ``admitted_pairs`` contract.

``admitted(g, name, pool)`` must equal the indices ``i``, ascending, for
which ``single(g, PendingAsync(name, pool[i]))`` holds, and
``admitted_pairs(g, name_l, pool_l, name_x, pool_x)`` the ``(il, row)``
of every left index whose row — the right indices ``ix``, ascending, for
which ``pair`` admits the two PAs — is non-empty. The columnar conditions
read admissibility only through them. Checked for every shipped context
and for subclasses that define nothing but ``single`` or ``pair``, at one
representative global per ghost class of two real universes, over every
(l, x) pair of action pools, each pool also with a store held twice, and
with every ghost multiplicity doubled so the count-two rule for an
identical pair is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core import initial_config
from repro.core.action import PendingAsync
from repro.core.context import (
    GhostContext,
    InstanceContext,
    NoContext,
    PAContext,
    Pool,
)
from repro.core.multiset import Multiset
from repro.core.store import Store
from repro.core.universe import StoreUniverse
from repro.protocols import paxos, twophase
from repro.protocols.common import GHOST


class _PairOnly(PAContext):
    """A context that defines only ``pair``: the base ``admitted_pairs``
    serves it. The rule reads the global store, so rows differ by class."""

    def pair(self, global_store, first, second):
        ghost = global_store[GHOST]
        return (first in ghost) != (second in ghost) or first.action < second.action


class _SingleOnly(PAContext):
    """A context that defines only ``single``: the base ``admitted``
    serves it. The rule reads the global store, so pools differ by class."""

    def single(self, global_store, pending):
        return (pending in global_store[GHOST]) != (len(pending.locals) % 2 == 1)


class _NoCountRule(GhostContext):
    """A mutant ghost context whose rows drop the count ≥ 2 rule: an
    identical pair is admitted when the ghost holds the PA once."""

    def admitted_pairs(self, global_store, name_l, pool_l, name_x, pool_x):
        row = self.admitted(global_store, name_x, pool_x)
        if not row:
            return ()
        return tuple((il, row) for il in self.admitted(global_store, name_l, pool_l))


@dataclass(frozen=True)
class _Tagged(PendingAsync):
    """A ``PendingAsync`` subtype: never equal to a plain PA."""


def _instance_of(action):
    # Some actions single-instance, the rest multi-instance, so the rows
    # reach both branches of InstanceContext.pair.
    if action in ("Main", "Vote", "HandleRequest"):
        return action, ("i", "n", "r")
    return None


GHOST_CONTEXT = GhostContext(GHOST)

CONTEXTS = {
    "ghost": GHOST_CONTEXT,
    "none": NoContext(),
    "instance": InstanceContext(_instance_of),
    "pair-only": _PairOnly(),
    "single-only": _SingleOnly(),
}

SINGLE_CONTEXTS = sorted(set(CONTEXTS) - {"pair-only"})
PAIR_CONTEXTS = sorted(set(CONTEXTS) - {"single-only"})

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


def _single_loop(ctx, g, name, pool):
    return tuple(
        i
        for i, locals_ in enumerate(pool)
        if ctx.single(g, PendingAsync(name, locals_))
    )


def _pair_loop(ctx, g, name_l, pool_l, name_x, pool_x):
    rows = []
    for il, locals_l in enumerate(pool_l):
        first = PendingAsync(name_l, locals_l)
        row = tuple(
            ix
            for ix, locals_x in enumerate(pool_x)
            if ctx.pair(g, first, PendingAsync(name_x, locals_x))
        )
        if row:
            rows.append((il, row))
    return tuple(rows)


def _pair_mismatches(ctx, globals_, pools):
    """Every ``(g, name_l, name_x)`` whose ``admitted_pairs`` differs from
    the ``pair`` loop, and the number of non-empty rows seen."""
    bad, rows = [], 0
    for g in globals_:
        for name_l, pool_l in pools:
            for name_x, pool_x in pools:
                expected = _pair_loop(ctx, g, name_l, pool_l, name_x, pool_x)
                got = ctx.admitted_pairs(g, name_l, pool_l, name_x, pool_x)
                if got != expected:
                    bad.append((g, name_l, name_x))
                rows += len(expected)
    return bad, rows


@pytest.fixture(scope="module", params=sorted(UNIVERSES))
def case(request):
    app, init_global = UNIVERSES[request.param]()
    universe = StoreUniverse.from_reachable(app.program, [initial_config(init_global)])
    reps = list({GHOST_CONTEXT.cache_key(g): g for g in universe.globals_}.values())
    pools = []
    for name, pool in sorted(universe.locals_by_action.items()):
        # Each pool as the universe holds it, and with a store held twice.
        pools.append((name, list(pool)))
        pools.append((name, [*pool, pool[0]]))
    return reps + [_doubled(g) for g in reps], pools


@pytest.mark.parametrize("context", SINGLE_CONTEXTS)
def test_admitted_is_the_single_loop(case, context):
    ctx = CONTEXTS[context]
    globals_, pools = case
    admitted = 0
    for g in globals_:
        for name, pool in pools:
            expected = _single_loop(ctx, g, name, pool)
            assert ctx.admitted(g, name, pool) == expected, (g, name)
            admitted += len(expected)
    assert admitted


@pytest.mark.parametrize("context", PAIR_CONTEXTS)
def test_pair_row_is_the_pair_loop(case, context):
    """Every row ``admitted_pairs`` returns is the ``pair`` loop's."""
    bad, rows = _pair_mismatches(CONTEXTS[context], *case)
    assert not bad, bad[:3]
    assert rows


def test_ghost_rows_reach_the_identical_pair_rule(case):
    """Some row admits a PA with itself only because the ghost holds it
    twice — the doubled globals exercise that branch."""
    globals_, pools = case
    singletons = [(name, [locals_]) for name, pool in pools for locals_ in pool]
    ctx = GHOST_CONTEXT
    assert any(
        ctx.admitted_pairs(g, name, pool, name, pool) == ((0, (0,)),)
        for g in globals_
        for name, pool in singletons
    )
    assert all(
        ctx.admitted_pairs(g, name, pool, name, pool) == ()
        for g in globals_
        for name, pool in singletons
        if g[GHOST].count(PendingAsync(name, pool[0])) < 2
    )


def test_contract_catches_a_ghost_without_the_count_rule(case):
    """The pair check fails on a ghost context that admits an identical
    pair the ghost holds only once."""
    globals_, pools = case
    bad, _ = _pair_mismatches(_NoCountRule(GHOST), globals_, pools)
    assert bad


# -------------------------------------------------------------------- #
# Hand-built ghosts
# -------------------------------------------------------------------- #

A, B = Store({"i": 1}), Store({"i": 2})


def _ghost_global(*members):
    return Store({GHOST: Multiset(members)})


@pytest.mark.parametrize(
    "g",
    [
        # A pool holding the same store twice.
        _ghost_global(PendingAsync("Act", A)),
        _ghost_global(PendingAsync("Act", A), PendingAsync("Act", A)),
        # Members that are not PendingAsyncs, or not of the exact type.
        _ghost_global("Act", ("Act", A), _Tagged("Act", A), PendingAsync("Act", B)),
        # l and x of the same action, ghost multiplicities 1 and 2.
        _ghost_global(PendingAsync("Act", A), *[PendingAsync("Act", B)] * 2),
        _ghost_global(),
    ],
    ids=["twice-once", "twice-twice", "non-pa-members", "counts-1-2", "empty"],
)
def test_ghost_pools_match_the_loops(g):
    ctx = GHOST_CONTEXT
    pools = [
        ("Act", [A, A]),
        ("Act", [A, B]),
        ("Act", Pool([B, A, B])),
        ("Other", [A, B]),
    ]
    for name, pool in pools:
        assert ctx.admitted(g, name, pool) == _single_loop(ctx, g, name, pool)
    bad, _ = _pair_mismatches(ctx, [g], pools)
    assert not bad, bad


def test_identical_pair_multiplicities():
    """A held once never pairs with itself; B, held twice, does."""
    g = _ghost_global(PendingAsync("Act", A), *[PendingAsync("Act", B)] * 2)
    pool = [A, B]
    assert GHOST_CONTEXT.admitted_pairs(g, "Act", pool, "Act", pool) == (
        (0, (1,)),
        (1, (0, 1)),
    )
