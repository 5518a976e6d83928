"""The single-PA admissibility scan (``repro.core.columnar.admitted_cells``).

abs, I1, I2, I3 and CO enumerate their cells through the scan, so it must
equal the reference loop it replaces — every (global, local) of the
universe, global-major then locals in pool order, kept when
``context.single`` admits the PA — for M and every eliminated action of
two real universes, on a shard of the globals, and under ``NoContext``.
The scan asks the context one ``admitted`` decision per (pool, context
class), which the base class serves with one ``single`` per (class,
local), and a check over it combines only admitted cells, so the intern
table grows by at most the number of checks.
"""

from __future__ import annotations

import pytest

from repro.core import initial_config
from repro.core.action import PendingAsync
from repro.core.cache import reset_process_cache
from repro.core.columnar import admitted_cells
from repro.core.context import GhostContext, NoContext, PAContext, UncachableContext
from repro.core.store import Store, store_interner
from repro.core.universe import StoreUniverse
from repro.protocols import paxos, twophase
from repro.protocols.common import GHOST

UNIVERSES = {
    "twophase-n3": lambda: (
        twophase.make_sequentializations(3)[0][1],
        twophase.initial_global(3),
    ),
    "paxos-r1n2": lambda: (
        paxos.make_sequentialization(1, 2),
        paxos.initial_global(1, 2),
    ),
}


class _Counting(PAContext):
    """``inner``'s decisions, counting every ``single`` call per
    (class, PA)."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = {}

    def cache_key(self, global_store):
        return self.inner.cache_key(global_store)

    def single(self, global_store, pending):
        key = (self.inner.cache_key(global_store), pending)
        self.asked[key] = self.asked.get(key, 0) + 1
        return self.inner.single(global_store, pending)


def _reference(universe, name):
    single = universe.context.single
    return [
        (g, l)
        for g in universe.globals_
        for l in universe.locals_for(name)
        if single(g, PendingAsync(name, l))
    ]


@pytest.fixture(scope="module", params=sorted(UNIVERSES))
def case(request):
    app, init_global = UNIVERSES[request.param]()
    universe = StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(GhostContext(GHOST))
    return app, universe


def _names(app):
    return [app.m_name, *app.eliminated]


@pytest.mark.parametrize("context", ["ghost", "none"])
def test_scan_is_the_reference_loop(case, context):
    app, universe = case
    if context == "none":
        universe = universe.with_context(NoContext())
    admitted = 0
    for name in _names(app):
        expected = _reference(universe, name)
        assert list(admitted_cells(universe, name)) == expected, name
        admitted += len(expected)
    assert admitted


def test_scan_on_a_globals_shard(case):
    """A universe over a strided slice of the reachable globals: the
    class masks cover only the globals the universe holds."""
    app, universe = case
    shard = StoreUniverse(
        universe.globals_[len(universe.globals_) // 3 :: 2],
        universe.locals_by_action,
        universe.context,
    )
    for name in _names(app):
        assert list(admitted_cells(shard, name)) == _reference(shard, name), name


def test_uncachable_context_gets_the_reference_loop(case):
    app, universe = case
    oracle = universe.with_context(UncachableContext(universe.context))
    for name in _names(app):
        assert list(admitted_cells(oracle, name)) == _reference(universe, name)
    assert oracle.context_cache_stats.total == 0


def test_single_asked_once_per_class_and_local(case):
    app, universe = case
    context = _Counting(universe.context)
    counted = universe.with_context(context)
    classes = {context.cache_key(g) for g in counted.globals_}
    cells = 0
    for name in _names(app):
        for _ in range(2):
            assert list(admitted_cells(counted, name)) == _reference(universe, name)
        cells += 2 * len(counted.globals_) * len(counted.locals_for(name))
    assert set(context.asked.values()) == {1}
    assert len(context.asked) == len(classes) * sum(
        len(counted.locals_for(name)) for name in _names(app)
    )
    # A miss per (pool, class) decision, a hit per other cell.
    stats = counted.context_cache_stats
    assert stats.misses == len(classes) * len(_names(app))
    assert stats.total == cells


def test_state_independent_context_is_one_class():
    """A context that ignores the global store decides each pool once
    for the whole universe, asking ``single`` once per PA."""
    context = _Counting(NoContext())
    universe = StoreUniverse(
        [Store({"x": 0}), Store({"x": 1})],
        {"A": [Store({"i": 1}), Store({"i": 2})]},
        context=context,
    )
    assert list(admitted_cells(universe, "A")) == [
        (g, l) for g in universe.globals_ for l in universe.locals_for("A")
    ]
    assert len(context.asked) == 2
    assert universe.context_cache_stats.misses == 1
    assert universe.context_cache_stats.hits == 3


def test_abstraction_checks_combine_only_admitted_cells():
    """``check_abstractions`` interns a combined store only for a cell it
    checks: the intern table grows by at most the summed ``checked``."""
    reset_process_cache()
    try:
        app, init_global = UNIVERSES["paxos-r1n2"]()
        universe = StoreUniverse.from_reachable(
            app.program, [initial_config(init_global)]
        ).with_context(GhostContext(GHOST))
        before = len(store_interner())
        results = app.check_abstractions(universe)
        checked = sum(r.checked for r in results.values())
        assert checked
        assert len(store_interner()) - before <= checked
    finally:
        reset_process_cache()
