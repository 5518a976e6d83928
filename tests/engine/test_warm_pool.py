"""What the process pool does before it forks, and what its workers
start from.

The pool forks **cold**: the parent evaluates nothing before forking,
and every worker builds its own evaluation cache from empty — whether
the parent's cache is warm (a serial check ran first in this process)
or reset. It ships exactly the serial layout's obligations, so a pool
run has the serial run's keys and a typed-identical condition map, on
passing and failing applications alike.
"""

from __future__ import annotations

import os

import pytest

from repro.core import Action, ISApplication, initial_config
from repro.core.cache import process_cache, reset_process_cache
from repro.core.context import GhostContext
from repro.core.universe import StoreUniverse
from repro.engine.scheduler import ProcessPoolScheduler, _fork_available
from repro.protocols import pingpong
from repro.protocols.common import GHOST

ROUNDS = 2

pytestmark = [
    pytest.mark.skipif(not _fork_available(), reason="requires fork start method"),
    pytest.mark.usefixtures("unclamped_pool"),
]


@pytest.fixture(scope="module")
def good():
    return pingpong.make_sequentialization(ROUNDS)


@pytest.fixture(scope="module")
def universe(good):
    return StoreUniverse.from_reachable(
        good.program, [initial_config(pingpong.initial_global(ROUNDS))]
    ).with_context(GhostContext(GHOST))


@pytest.fixture(autouse=True)
def _cold_cache():
    reset_process_cache()
    yield
    reset_process_cache()


def _condition_map(result):
    return {
        key: (r.name, r.holds, r.checked, tuple(r.counterexamples))
        for key, r in result.conditions.items()
    }


def _weaken_invariant(good):
    """I3 fails with counterexamples (same mutation as the mutation suite)."""
    names = set(good.eliminated)
    invariant = good.invariant

    def weakened(state):
        for t in invariant.transitions(state):
            if any(p.action in names for p in t.created.support()):
                yield t

    return ISApplication(
        program=good.program,
        m_name=good.m_name,
        eliminated=good.eliminated,
        invariant=Action(
            invariant.name, invariant.gate, weakened, invariant.params
        ),
        measure=good.measure,
        choice=good.choice,
        abstractions=dict(good.abstractions),
    )


# --------------------------------------------------------------------- #
# Cold pool vs the inline oracle and the serial layout
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("warm", [True, False])
def test_pool_matches_inline_warm_and_cold(warm, good, universe):
    """``warm``: a serial check has filled the parent's cache before the
    pool forks. Workers never read it, and the answer is the same."""
    inline = good.check_inline(universe)
    if warm:
        good.check(universe, jobs=1)
        assert process_cache().stats().total > 0
    pooled = good.check(universe, scheduler=ProcessPoolScheduler(2))
    assert _condition_map(pooled) == _condition_map(inline)
    assert pooled.total_checked == inline.total_checked


def test_pool_parent_evaluates_nothing_before_forking(good, universe):
    result = good.check(universe, scheduler=ProcessPoolScheduler(2))
    assert process_cache().stats().total == 0
    assert os.getpid() not in result.worker_cache_stats


def test_warmup_accounting_recorded(good, universe):
    """``warmup_seconds`` stays on ``ISResult`` for the benchmark ledger,
    and reads a true zero on both backends."""
    pooled = good.check(universe, scheduler=ProcessPoolScheduler(2))
    serial = good.check(universe, jobs=1)
    assert pooled.warmup_seconds == serial.warmup_seconds == 0.0
    assert good.warm_evaluation_cache(universe) == 0
    assert good.warm_columns(universe) == 0


def test_worker_cache_stats_cover_all_obligations(good, universe):
    result = good.check(universe, scheduler=ProcessPoolScheduler(2))
    assert result.worker_cache_stats
    total = 0
    for pid, entry in result.worker_cache_stats.items():
        assert pid != os.getpid()
        assert entry["obligations"] > 0
        assert set(entry["stats"]) == {"gate", "transitions"}
        total += entry["obligations"]
    assert total == result.num_obligations


def test_serial_run_has_no_warmup_or_workers(good, universe):
    result = good.check(universe, jobs=1)
    assert result.warmup_seconds == 0.0
    assert set(result.worker_cache_stats) == {os.getpid()}


def test_pool_runs_the_serial_layout_on_a_failing_application(good, universe):
    bad = _weaken_invariant(good)
    inline = bad.check_inline(universe)
    assert not inline.holds
    assert inline.conditions["I3"].counterexamples

    serial = bad.check(universe, jobs=1)
    pooled = bad.check(universe, scheduler=ProcessPoolScheduler(4))
    # The serial layout: same keys in build order, same per-key checks.
    assert list(pooled.obligation_checked.items()) == list(
        serial.obligation_checked.items()
    )
    # Same counterexample lists (content, order, cap) and grand total.
    assert _condition_map(pooled) == _condition_map(serial) == _condition_map(inline)
    assert pooled.total_checked == inline.total_checked
