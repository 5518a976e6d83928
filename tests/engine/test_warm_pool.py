"""Fork-time cache pre-warming and sharded obligation discharge.

The process-pool backend's two performance legs, checked for soundness:

* **Warm fork inheritance** — the parent populates the evaluation cache
  (``ISApplication.warm_evaluation_cache``) and marks it inheritable;
  forked children *adopt* the memo tables (warm lookups are hits) with
  fresh counters (per-worker hit rates count only the worker's own
  lookups). Adoption is opt-in: without the mark a fork still rebuilds
  an empty cache (covered in ``tests/core/test_cache.py``).
* **Sharded merge parity** — splitting I3 and the LM pair cells into
  sub-obligations never changes the merged condition map: verdicts,
  check totals, and counterexample lists (including their cap of five
  and their order) are byte-identical to the inline checker's, on
  passing and failing applications alike.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import Action, ISApplication, initial_config
from repro.core.cache import process_cache, reset_process_cache
from repro.core.context import GhostContext
from repro.core.store import Store
from repro.core.universe import StoreUniverse
from repro.engine.scheduler import ProcessPoolScheduler, _fork_available
from repro.protocols import pingpong
from repro.protocols.common import GHOST

ROUNDS = 2

pytestmark = pytest.mark.skipif(
    not _fork_available(), reason="requires fork start method"
)


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
    # Never leak an inheritable singleton into later test modules.
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
# Fork-time adoption of warm memos
# --------------------------------------------------------------------- #

_PROBE_STORE = Store({"x": 0})


def _probe_gate(_state):
    return True


def _probe_transitions(_state):
    yield from ()


def _adoption_probe(queue):
    # Runs in a forked child whose parent warmed + marked the cache: the
    # singleton must rebind to this PID with the memo tables intact.
    cache = process_cache()
    view = cache.cached(Action("Probe", _probe_gate, _probe_transitions))
    view.gate(_PROBE_STORE)
    stats = cache.stats_by_kind()["gate"]
    queue.put((os.getpid(), cache.pid, stats.hits, stats.misses))


def test_forked_child_adopts_warm_memos_with_fresh_counters():
    parent_cache = process_cache()
    view = parent_cache.cached(Action("Probe", _probe_gate, _probe_transitions))
    view.gate(_PROBE_STORE)  # populate the memo in the parent
    assert parent_cache.stats_by_kind()["gate"].misses == 1
    parent_cache.mark_inheritable()

    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_adoption_probe, args=(queue,))
    child.start()
    child_os_pid, child_cache_pid, child_hits, child_misses = queue.get(
        timeout=60
    )
    child.join(timeout=60)

    assert child_cache_pid == child_os_pid != parent_cache.pid
    # Warm memo: the child's very first lookup is a hit ...
    assert (child_hits, child_misses) == (1, 0)
    # ... against counters that started fresh, and the parent's own
    # counters never see the child's lookups.
    assert process_cache() is parent_cache
    assert parent_cache.stats_by_kind()["gate"].hits == 0


def test_warm_evaluation_cache_populates_and_counts(good, universe):
    evaluated = good.warm_evaluation_cache(universe)
    assert evaluated > 0
    assert process_cache().stats().total > 0


# --------------------------------------------------------------------- #
# Warm + sharded pool vs the inline oracle
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("warm", [True, False])
def test_pool_matches_inline_warm_and_cold(warm, good, universe):
    inline = good.check_inline(universe)
    scheduler = ProcessPoolScheduler(4, warm=warm, clamp=False)
    pooled = good.check(universe, scheduler=scheduler)
    assert _condition_map(pooled) == _condition_map(inline)
    assert pooled.total_checked == inline.total_checked


def test_warmup_accounting_recorded(good, universe):
    scheduler = ProcessPoolScheduler(2, clamp=False)
    result = good.check(universe, scheduler=scheduler)
    assert result.warmup_seconds > 0.0
    assert scheduler.last_warmed_evaluations > 0
    assert result.warmup_seconds == scheduler.last_warmup_seconds

    cold = ProcessPoolScheduler(2, warm=False, clamp=False)
    cold_result = good.check(universe, scheduler=cold)
    assert cold_result.warmup_seconds == 0.0
    assert cold.last_warmed_evaluations == 0


def test_worker_cache_stats_cover_all_obligations(good, universe):
    result = good.check(
        universe, scheduler=ProcessPoolScheduler(2, clamp=False)
    )
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


# --------------------------------------------------------------------- #
# Sharded merge parity on a failing application
# --------------------------------------------------------------------- #


def test_sharded_merge_preserves_counterexamples_and_totals(good, universe):
    bad = _weaken_invariant(good)
    inline = bad.check_inline(universe)
    assert not inline.holds
    assert inline.conditions["I3"].counterexamples

    pooled = bad.check(
        universe, scheduler=ProcessPoolScheduler(4, clamp=False)
    )
    # Sharding actually happened: more obligations than the serial layout,
    # with per-condition LM cells among them (I3 only shards once the
    # universe outgrows the min_chunk floor — not at this instance size).
    serial = bad.check(universe, jobs=1)
    assert pooled.num_obligations > serial.num_obligations
    assert any("|" in key and "#" in key for key in pooled.obligation_checked)
    # ... and changed nothing observable: identical condition maps, same
    # counterexample lists (content, order, cap), same grand total.
    assert _condition_map(pooled) == _condition_map(inline)
    assert pooled.total_checked == inline.total_checked
