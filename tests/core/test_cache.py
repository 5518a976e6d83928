"""The shared evaluation cache: correctness, counters, process isolation.

Memoizing ``action.gate``/``action.transitions`` must be invisible to the
checker: after a discharge run fills the memos, every memoized evaluation
equals the raw action's, store by store, on every Table 1 protocol. The
layer has no off switch, so this purity check is what licenses it. The
hit/miss counters backing the
benchmark report must be exposed and monotone, and process-pool workers
must each rebuild a private cache (the singleton is keyed by PID) instead
of sharing the parent's.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import Action, initial_config
from repro.core.cache import (
    CacheStats,
    process_cache,
    reset_process_cache,
)
from repro.core.context import GhostContext
from repro.core.store import combine
from repro.core.universe import StoreUniverse
from repro.engine.obligations import build_obligations
from repro.engine.scheduler import (
    ProcessPoolScheduler,
    SerialScheduler,
    _fork_available,
)
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


def _first_app(pairs):
    return pairs[0][1]


PROTOCOL_CASES = {
    "broadcast": lambda: (
        broadcast.make_sequentialization(2),
        broadcast.initial_global(2),
    ),
    "pingpong": lambda: (
        pingpong.make_sequentialization(2),
        pingpong.initial_global(2),
    ),
    "prodcons": lambda: (
        prodcons.make_sequentialization(3),
        prodcons.initial_global(3),
    ),
    "nbuyer": lambda: (
        _first_app(nbuyer.make_sequentializations(2)),
        nbuyer.initial_global(2),
    ),
    "changroberts": lambda: (
        _first_app(changroberts.make_sequentializations(3)),
        changroberts.initial_global(3),
    ),
    "twophase": lambda: (
        _first_app(twophase.make_sequentializations(2)),
        twophase.initial_global(2),
    ),
    "paxos": lambda: (
        paxos.make_sequentialization(1, 2, (1, 2)),
        paxos.initial_global(1, 2),
    ),
}


def _universe(app, init_global):
    return StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(GhostContext(GHOST))


def _evaluated_actions(app, universe):
    """(raw action, candidate locals) for every action the IS obligations
    evaluate: the program's actions, the invariant on M's locals, and
    the abstractions."""
    pairs = [
        (action, universe.locals_for(name)) for name, action in app.program.actions()
    ]
    pairs.append((app.invariant, universe.locals_for(app.m_name)))
    for name, abstraction in app.abstractions.items():
        pairs.append((abstraction, universe.locals_for(name)))
    return pairs


@pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
def test_cached_discharge_equals_uncached(name):
    """Memo purity: after a full discharge has filled the process cache,
    the memoized gate and transitions of every evaluated action equal the
    raw action's on every store of the universe, on a miss and on a hit
    alike."""
    app, init_global = PROTOCOL_CASES[name]()
    universe = _universe(app, init_global)

    reset_process_cache()
    assert app.check(universe, jobs=1).holds
    cache = process_cache()
    compared = 0
    for action, locals_pool in _evaluated_actions(app, universe):
        view = cache.cached(action)
        for g in universe.globals_:
            for l in locals_pool:
                state = combine(g, l)
                gate = bool(action.gate(state))
                transitions = list(action.transitions(state))
                for _ in range(2):
                    assert view.gate(state) == gate, (action.name, state)
                    assert view.transitions(state) == transitions, (
                        action.name,
                        state,
                    )
                compared += 1
    assert compared > 0
    assert cache.stats_by_kind()["transitions"].hits > 0


def test_counters_monotone_and_exposed():
    """Counters only grow, totals add up, and ``as_dict`` exposes the
    hits/misses/hit_rate triple per evaluation kind."""
    app, init_global = PROTOCOL_CASES["pingpong"]()
    universe = _universe(app, init_global)

    reset_process_cache()
    app.check(universe, jobs=1)
    first = process_cache().stats_by_kind()
    assert first["transitions"].misses > 0

    app.check(universe, jobs=1)
    second = process_cache().stats_by_kind()
    for kind in ("gate", "transitions"):
        assert second[kind].hits >= first[kind].hits
        assert second[kind].misses >= first[kind].misses
        assert second[kind].total == second[kind].hits + second[kind].misses
        assert 0.0 <= second[kind].hit_rate <= 1.0
    # The second, identical run is served from cache: no new misses.
    assert second["transitions"].misses == first["transitions"].misses
    assert second["transitions"].hits > first["transitions"].hits

    exposed = process_cache().as_dict()
    for kind in ("gate", "transitions"):
        assert set(exposed[kind]) == {"hits", "misses", "hit_rate"}


def test_cache_stats_merge_and_empty_rate():
    assert CacheStats().hit_rate == 0.0
    merged = CacheStats(hits=3, misses=1).merged(CacheStats(hits=1, misses=5))
    assert (merged.hits, merged.misses, merged.total) == (4, 6, 10)


def test_shared_memo_across_action_views():
    """Distinct Action wrappers around the same callables share one memo:
    the second view's evaluations are hits, not misses."""
    reset_process_cache()
    cache = process_cache()

    def gate(_s):
        return True

    def transitions(state):
        yield from ()

    from repro.core.store import Store

    store = Store({"x": 0})
    view_a = cache.cached(Action("A", gate, transitions))
    view_b = cache.cached(Action("B", gate, transitions))
    view_a.transitions(store)
    view_b.transitions(store)
    stats = cache.stats_by_kind()["transitions"]
    assert (stats.misses, stats.hits) == (1, 1)
    # Idempotent on already-cached views.
    assert cache.cached(view_a) is view_a


def _child_probe(queue):
    # Runs in a forked child whose parent has a warmed cache: the PID-keyed
    # singleton must be rebuilt fresh, not inherited live.
    cache = process_cache()
    queue.put((os.getpid(), cache.pid, cache.stats().total))


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
def test_forked_child_rebuilds_cache():
    app, init_global = PROTOCOL_CASES["pingpong"]()
    universe = _universe(app, init_global)
    reset_process_cache()
    app.check(universe, jobs=1)
    parent = process_cache()
    assert parent.pid == os.getpid()
    assert parent.stats().total > 0

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_probe, args=(queue,))
    child.start()
    child_os_pid, child_cache_pid, child_total = queue.get(timeout=60)
    child.join(timeout=60)

    assert child_cache_pid == child_os_pid != parent.pid
    assert child_total == 0  # fresh counters, nothing inherited
    # The parent's cache is untouched by the child's existence.
    assert process_cache() is parent


def test_serial_outcomes_carry_cache_snapshots():
    """The serial backend brackets every obligation with counter
    snapshots: each outcome carries its own hit/miss delta, and the deltas
    add up to the process cache's counters, so the per-obligation
    drill-down (trace spans) accounts for every evaluation."""
    app, init_global = PROTOCOL_CASES["pingpong"]()
    universe = _universe(app, init_global)
    obligations = build_obligations(app, universe)

    reset_process_cache()
    outcomes = SerialScheduler().run(app, universe, obligations)
    assert len(outcomes) == len(obligations)
    summed = {}
    for ob in obligations:
        delta = outcomes[ob.key].cache_delta
        assert delta is not None
        assert set(delta) == {"gate", "transitions"}
        for kind, counts in delta.items():
            hits, misses = summed.get(kind, (0, 0))
            summed[kind] = (hits + counts["hits"], misses + counts["misses"])
    assert summed == process_cache().counts_snapshot()
    assert sum(hits + misses for hits, misses in summed.values()) > 0


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("unclamped_pool")
def test_pool_workers_use_private_caches():
    """Every process-pool outcome carries the cache delta of the worker
    that discharged it; workers are real separate processes, and the
    parent's own counters do not move."""
    app, init_global = PROTOCOL_CASES["pingpong"]()
    universe = _universe(app, init_global)
    obligations = build_obligations(app, universe)

    parent_counts = process_cache().counts_snapshot()
    outcomes = ProcessPoolScheduler(jobs=2).run(
        app, universe, obligations
    )
    assert len(outcomes) == len(obligations)
    worker_pids = {o.pid for o in outcomes.values()}
    assert os.getpid() not in worker_pids
    for outcome in outcomes.values():
        assert outcome.cache_delta is not None
        assert set(outcome.cache_delta) == {"gate", "transitions"}
    assert process_cache().counts_snapshot() == parent_counts
