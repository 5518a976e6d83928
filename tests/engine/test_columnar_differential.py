"""Differential suite: interned/columnar evaluation vs the reference oracle.

Every Table 1 protocol is checked three times — once by the reference
oracle (the dict-shaped loops of ``repro.core.movers`` and
``ISApplication.check_i3``, selected by wrapping the PA context in
:class:`~repro.core.context.UncachableContext`), once on the default
columnar fast path serially, and once on the fast path through a real
process pool.  The three condition maps must be **typed-identical**: same
condition keys, same :class:`CheckResult` type, same (name, holds,
checked, counterexamples) field for field.  ``checked`` equality is the
strongest part of the contract — the columnar loops must enumerate
exactly the (global, locals, transition) triples the oracle does, in the
same order, or attribution and counterexample replay silently drift.

Six failing applications (two seeded broadcast mutants and four
Ping-Pong mutations, failing LM, I1, CO and abs between them) pin the
same contract on the failing path: witness order and content, and the
``fail_fast`` cut point of every left-mover check of the stuck mutant.

The final tests pin the representation-independence of the persistent
result cache: fingerprints hash store *contents*, never intern ids, so a
cache written under one assignment of intern ids must warm-hit a run in
which every universe store carries a different id, with **zero**
obligations executed.
"""

from __future__ import annotations

import pytest

from repro.core import Action, initial_config
from repro.core.cache import reset_process_cache
from repro.core.columnar import columnar_store
from repro.core.context import GhostContext, UncachableContext
from repro.core.movers import is_left_mover
from repro.core.refinement import CheckResult
from repro.core.store import Store, store_interner
from repro.core.universe import StoreUniverse
from repro.diagnose.fixtures import FIXTURES
from repro.protocols import (
    broadcast,
    changroberts,
    nbuyer,
    paxos,
    pingpong,
    prodcons,
    twophase,
)
from repro.protocols.common import GHOST

from .rcache_cases import count_executions
from .test_obligation_mutations import (
    ROUNDS,
    _constant_measure,
    _drop_left_mover,
    _invariant_missing_base_case,
    _wrong_abstraction,
)


def _first_app(pairs):
    return pairs[0][1]


#: One (application, initial global) per Table 1 protocol, plus Paxos at
#: R=1/N=2.  Broadcast at n=3 and Paxos at R=2/N=2 dominate wall time
#: (their universes are the benchmark instances) and run in the slow
#: lane; the others cover the representation semantics fast.
PROTOCOL_CASES = {
    "broadcast": lambda: (
        broadcast.make_sequentialization(3),
        broadcast.initial_global(3),
    ),
    "pingpong": lambda: (
        pingpong.make_sequentialization(3),
        pingpong.initial_global(3),
    ),
    "prodcons": lambda: (
        prodcons.make_sequentialization(4),
        prodcons.initial_global(4),
    ),
    "nbuyer": lambda: (
        _first_app(nbuyer.make_sequentializations(3)),
        nbuyer.initial_global(3),
    ),
    "changroberts": lambda: (
        _first_app(changroberts.make_sequentializations(4)),
        changroberts.initial_global(4),
    ),
    "twophase": lambda: (
        _first_app(twophase.make_sequentializations(3)),
        twophase.initial_global(3),
    ),
    "paxos": lambda: (
        paxos.make_sequentialization(2, 2),
        paxos.initial_global(2, 2),
    ),
    # Many ghost classes (24 over 58 globals) at a fast-lane price.
    "paxos-r1n2": lambda: (
        paxos.make_sequentialization(1, 2),
        paxos.initial_global(1, 2),
    ),
}

SLOW = {"broadcast", "paxos"}


def _universe(app, init_global, oracle=False):
    context = GhostContext(GHOST)
    return StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(UncachableContext(context) if oracle else context)


def _typed_condition_map(result):
    """Every field the condition map determines, plus the result type —
    the columnar path must hand back plain :class:`CheckResult`s, not a
    lookalike."""
    out = {}
    for key, r in result.conditions.items():
        assert type(r) is CheckResult, (key, type(r))
        out[key] = (r.name, r.holds, r.checked, tuple(r.counterexamples))
    return out


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_process_cache()
    yield
    reset_process_cache()


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n
        for n in sorted(PROTOCOL_CASES)
    ],
)
@pytest.mark.usefixtures("unclamped_pool")
def test_columnar_matches_dict_oracle(name):
    app, init_global = PROTOCOL_CASES[name]()

    # Oracle: the dict-shaped loops, asking the PA context per store.  No
    # column may be filled and no admissibility decision memoized (the
    # universe's exploration fills the columns of its own cells first).
    oracle_universe = _universe(app, init_global, oracle=True)
    store = columnar_store()
    explored = (store.gate_fills, store.succ_fills)
    oracle = app.check(oracle_universe, jobs=1)
    assert (store.gate_fills, store.succ_fills) == explored
    assert oracle_universe.context_cache_stats.total == 0

    reset_process_cache()

    # Fast path, serial: interned stores + columnar batch evaluation.
    serial = app.check(_universe(app, init_global), jobs=1)
    assert columnar_store().gate_fills > 0

    assert _typed_condition_map(serial) == _typed_condition_map(oracle)
    assert serial.holds == oracle.holds
    assert serial.total_checked == oracle.total_checked

    # Fast path through a real pool: workers fork cold and rebuild their
    # own columns; the pool runs the serial layout and merges to the same
    # typed map.
    reset_process_cache()
    pooled = app.check(_universe(app, init_global), jobs=2)
    assert _typed_condition_map(pooled) == _typed_condition_map(serial)
    assert list(pooled.obligation_checked.items()) == list(
        serial.obligation_checked.items()
    )
    assert pooled.total_checked == oracle.total_checked


def _pingpong(mutate):
    """A Ping-Pong mutation of ``test_obligation_mutations`` over the
    ghost-context universe."""

    def build():
        good = pingpong.make_sequentialization(ROUNDS)
        universe = StoreUniverse.from_reachable(
            good.program, [initial_config(pingpong.initial_global(ROUNDS))]
        ).with_context(GhostContext(GHOST))
        return mutate(good), universe

    return build


#: Failing applications: (build, a condition each one must fail). The
#: Ping-Pong mutations fail the single-PA conditions through the scan:
#: I1, CO, and abs[Pong] (with I3).
FAILING_CASES = {
    "stuck-broadcast": (FIXTURES["stuck-broadcast"].build, "LM[Collect]"),
    "broken-broadcast": (FIXTURES["broken-broadcast"].build, "abs[Collect]"),
    "pingpong-drop-left-mover": (_pingpong(_drop_left_mover), "LM[Pong]"),
    "pingpong-invariant-missing-base-case": (
        _pingpong(_invariant_missing_base_case),
        "I1",
    ),
    "pingpong-constant-measure": (_pingpong(_constant_measure), "CO"),
    "pingpong-wrong-abstraction": (_pingpong(_wrong_abstraction), "abs[Pong]"),
}


def _oracle(universe):
    return universe.with_context(UncachableContext(universe.context))


@pytest.mark.parametrize("name", sorted(FAILING_CASES))
def test_failing_columnar_matches_dict_oracle(name):
    """Witness order and counts on the failing path: every field of every
    condition, failed ones included, matches the oracle."""
    build, failing = FAILING_CASES[name]
    app, universe = build()
    oracle = app.check(_oracle(universe), jobs=1)
    assert not oracle.conditions[failing].holds

    reset_process_cache()
    fast = app.check(universe, jobs=1)
    assert _typed_condition_map(fast) == _typed_condition_map(oracle)


def test_fail_fast_left_mover_cut_matches_oracle():
    """``fail_fast`` stops at the first witness; the cut point (``checked``)
    and the witness are the oracle's for every (l, x) of the stuck mutant."""
    app, universe = FIXTURES["stuck-broadcast"].build()
    failed = 0
    for name in app.eliminated:
        abstraction = app.abstraction_of(name)
        l = Action(name, abstraction.gate, abstraction.transitions, abstraction.params)
        lm_universe = app.lm_universe(universe, name)
        for _, x in app.program.actions():
            reset_process_cache()
            oracle = is_left_mover(l, x, _oracle(lm_universe), fail_fast=True)
            reset_process_cache()
            fast = is_left_mover(l, x, lm_universe, fail_fast=True)
            assert (fast.holds, fast.checked, fast.counterexamples) == (
                oracle.holds,
                oracle.checked,
                oracle.counterexamples,
            ), (name, x.name)
            failed += not oracle.holds
    assert failed


def _universe_stores(universe):
    """Every store a discharge quantifies over: globals, then locals."""
    stores = list(universe.globals_)
    for pool in universe.locals_by_action.values():
        stores.extend(pool)
    return list(dict.fromkeys(stores))


def _reintern_reversed(stores, avoid):
    """Reset the process caches and intern ``stores`` back to front, so a
    run built next sees every one of them under a different id than in
    ``avoid`` (store -> id); returns the new ids.  Reversal alone can
    leave a store on its old id, so the fewest padding stores that move
    all of them are interned first."""
    n = len(stores)
    pad = next(
        k
        for k in range(n + 1)
        if all(k + n - 1 - i != avoid[s] for i, s in enumerate(stores))
    )
    reset_process_cache()
    itn = store_interner()
    for k in range(pad):
        itn.intern(Store({"__pad__": k}))
    for store in reversed(stores):
        itn.intern(store)
    return {store: itn.intern(store) for store in stores}


def _current_ids(stores):
    """Each store's id in the process intern table right now."""
    itn = store_interner()
    return {store: itn.intern(store) for store in stores}


def test_cold_cache_warm_hits_reversed_intern_ids(tmp_path):
    """Result-cache fingerprints are content-addressed: a cache filled
    under natural intern ids serves a re-verify whose universe stores all
    carry different ids with zero obligations executed (and identical
    verdicts)."""
    app, init_global = PROTOCOL_CASES["pingpong"]()

    universe = _universe(app, init_global)
    cold = app.check(universe, jobs=1, cache=tmp_path)
    assert cold.holds
    stores = _universe_stores(universe)
    cold_ids = _current_ids(stores)

    warm_ids = _reintern_reversed(stores, avoid=cold_ids)
    assert all(warm_ids[s] != cold_ids[s] for s in stores)
    with count_executions() as executed:
        warm = app.check(_universe(app, init_global), jobs=1, cache=tmp_path)
    assert not executed, f"warm re-verify executed {sorted(executed)}"
    assert _current_ids(stores) == warm_ids
    assert _typed_condition_map(warm) == _typed_condition_map(cold)


def test_reversed_intern_cold_cache_warm_hits_natural_ids(tmp_path):
    """The reverse direction: a cache filled while every universe store
    carries a reversed-order id warm-hits a natural-order re-verify."""
    app, init_global = PROTOCOL_CASES["pingpong"]()
    stores = _universe_stores(_universe(app, init_global))
    natural_ids = _current_ids(stores)

    cold_ids = _reintern_reversed(stores, avoid=natural_ids)
    cold = app.check(_universe(app, init_global), jobs=1, cache=tmp_path)
    assert cold.holds
    assert _current_ids(stores) == cold_ids

    reset_process_cache()
    universe = _universe(app, init_global)
    assert _current_ids(stores) == natural_ids
    with count_executions() as executed:
        warm = app.check(universe, jobs=1, cache=tmp_path)
    assert not executed, f"warm re-verify executed {sorted(executed)}"
    assert _typed_condition_map(warm) == _typed_condition_map(cold)
