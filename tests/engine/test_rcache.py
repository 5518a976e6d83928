"""Unit and engine-level tests for the persistent obligation result cache.

Three layers: the structural hasher (``stable_digest`` — deterministic,
order-insensitive, closure-sensitive), the content-addressed store
(``ObligationCache`` — roundtrip, corruption tolerance, invalidation
attribution), and the ``discharge()`` integration (uncacheable values
degrade to execution, cached FAILs seed fail-fast, the pool backend hits
the same cache, journal resume outranks the cache, and tracing a warm run
perturbs nothing).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.refinement import CheckResult
from repro.core.store import Store
from repro.core.multiset import Multiset
from repro.diagnose.fixtures import FIXTURES
from repro.engine.journal import JournaledOutcome
from repro.engine.obligations import build_obligations
from repro.engine.rcache import (
    DependencyFingerprinter,
    ObligationCache,
    Unfingerprintable,
    stable_digest,
    universe_fingerprint,
)
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import ObligationOutcome, ProcessPoolScheduler
from repro.obs import Tracer

from .rcache_cases import (
    all_keys,
    build,
    condition_map,
    count_executions,
    rebuild,
    wrap_action,
)

# --------------------------------------------------------------------- #
# stable_digest: deterministic, order-insensitive, closure-sensitive
# --------------------------------------------------------------------- #


def test_digest_is_deterministic_and_value_sensitive():
    assert stable_digest(42) == stable_digest(42)
    assert stable_digest(42) != stable_digest(43)
    assert stable_digest("42") != stable_digest(42)
    # True == 1 and False == 0 as container keys, so equal values must
    # digest equal — otherwise which spelling survives a dict/multiset
    # key collapse (insertion order) would leak into the fingerprint.
    assert stable_digest(True) == stable_digest(1)
    assert stable_digest(False) == stable_digest(0)
    assert stable_digest(None) != stable_digest(0)


def test_digest_ignores_dict_and_set_iteration_order():
    assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})
    assert stable_digest({3, 1, 2}) == stable_digest({2, 3, 1})
    assert stable_digest(Store({"x": 1, "y": 2})) == stable_digest(
        Store({"y": 2, "x": 1})
    )
    assert stable_digest(Multiset("aab")) == stable_digest(Multiset("aba"))
    assert stable_digest(Multiset("aab")) != stable_digest(Multiset("ab"))


def test_digest_sees_closure_constants_cells_and_defaults():
    def make(k):
        return lambda x: x + k

    same_a, same_b = make(1), make(1)
    assert stable_digest(same_a) == stable_digest(same_b)
    assert stable_digest(make(1)) != stable_digest(make(2))

    def f(x, bias=0):
        return x + bias

    def g(x, bias=1):
        return x + bias

    assert stable_digest(f) != stable_digest(g)
    assert stable_digest(lambda x: x + 1) != stable_digest(lambda x: x + 2)


def test_digest_sees_referenced_module_globals():
    namespace_a = {"THRESHOLD": 5}
    namespace_b = {"THRESHOLD": 6}
    exec("def pred(x):\n    return x < THRESHOLD", namespace_a)
    exec("def pred(x):\n    return x < THRESHOLD", namespace_b)
    assert stable_digest(namespace_a["pred"]) != stable_digest(
        namespace_b["pred"]
    )
    namespace_b["THRESHOLD"] = 5
    assert stable_digest(namespace_a["pred"]) == stable_digest(
        namespace_b["pred"]
    )


def test_digest_rejects_address_dependent_values():
    with pytest.raises(Unfingerprintable):
        stable_digest(object())
    token = object()
    with pytest.raises(Unfingerprintable):
        stable_digest(lambda x: (x, token))


def test_universe_fingerprint_is_iteration_order_insensitive():
    from repro.core.universe import StoreUniverse

    stores = [Store({"x": i}) for i in range(4)]
    locals_ = {"A": [Store({"i": 0}), Store({"i": 1})]}
    forward = StoreUniverse(list(stores), dict(locals_))
    backward = StoreUniverse(
        list(reversed(stores)), {"A": list(reversed(locals_["A"]))}
    )
    assert universe_fingerprint(forward) == universe_fingerprint(backward)
    shrunk = StoreUniverse(stores[:-1], dict(locals_))
    assert universe_fingerprint(forward) != universe_fingerprint(shrunk)


# --------------------------------------------------------------------- #
# DependencyFingerprinter
# --------------------------------------------------------------------- #


def test_fingerprints_are_distinct_but_identities_survive_edits():
    app, universe = build("pingpong")
    obligations = build_obligations(app, universe)
    fp = DependencyFingerprinter(app, universe)
    fingerprints = {ob.key: fp.fingerprint(ob) for ob in obligations}
    assert all(fingerprints.values())
    assert len(set(fingerprints.values())) == len(fingerprints)

    mutant = rebuild(app, invariant=wrap_action(app.invariant))
    mfp = DependencyFingerprinter(mutant, universe)
    for ob in obligations:
        # The identity never moves — that is what attributes a miss to an
        # invalidation; the fingerprint moves exactly for the readers.
        assert mfp.identity(ob) == fp.identity(ob)
        changed = mfp.fingerprint(ob) != fingerprints[ob.key]
        assert changed == (ob.key in ("I1", "I2") or ob.key.startswith("I3"))


def test_unfingerprintable_dependency_makes_only_its_readers_uncacheable():
    app, universe = build("pingpong")
    token = object()
    gate = app.invariant.gate
    poisoned = rebuild(
        app,
        invariant=type(app.invariant)(
            app.invariant.name,
            lambda state: gate(state) or token is None,
            app.invariant.transitions,
            app.invariant.params,
        ),
    )
    fp = DependencyFingerprinter(poisoned, universe)
    for ob in build_obligations(poisoned, universe):
        cacheable = fp.fingerprint(ob) is not None
        reads_invariant = ob.key in ("I1", "I2") or ob.key.startswith("I3")
        assert cacheable == (not reads_invariant), ob.key


# --------------------------------------------------------------------- #
# ObligationCache: roundtrip, tolerance, attribution
# --------------------------------------------------------------------- #

FP_A = "a" * 64
FP_B = "b" * 64
IDENTITY = "i" * 64


def _outcome(key="I1", holds=True, witnesses=(), **kwargs):
    return ObligationOutcome(
        key,
        CheckResult(key, holds, list(witnesses), checked=9),
        elapsed=0.5,
        pid=os.getpid(),
        attempts=1,
        **kwargs,
    )


def test_ensure_normalizes_none_instance_and_path(tmp_path):
    assert ObligationCache.ensure(None) is None
    cache = ObligationCache(tmp_path)
    assert ObligationCache.ensure(cache) is cache
    opened = ObligationCache.ensure(tmp_path / "fresh")
    assert isinstance(opened, ObligationCache)
    assert opened.objects_dir.is_dir()


def test_store_lookup_roundtrip_with_witnesses(tmp_path):
    cache = ObligationCache(tmp_path)
    stored = _outcome(holds=False, witnesses=[("store", 1), ("store", 2)])
    assert cache.store(FP_A, IDENTITY, "I1", stored)
    assert len(cache) == 1

    entry = cache.lookup(FP_A, IDENTITY, "I1")
    assert isinstance(entry, JournaledOutcome)
    result = entry.to_result()
    assert result.holds is False
    assert result.counterexamples == [("store", 1), ("store", 2)]
    assert result.checked == 9
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_store_refuses_incomplete_resumed_and_cached_outcomes(tmp_path):
    cache = ObligationCache(tmp_path)
    skipped = ObligationOutcome("I1", None, 0.0, os.getpid())
    assert not cache.store(FP_A, IDENTITY, "I1", skipped)
    assert not cache.store(FP_A, IDENTITY, "I1", _outcome(resumed=True))
    assert not cache.store(FP_A, IDENTITY, "I1", _outcome(cached=True))
    assert len(cache) == 0 and cache.stats.stores == 0


def test_corrupt_wrong_schema_and_mismatched_entries_are_misses(tmp_path):
    cache = ObligationCache(tmp_path)
    cache.store(FP_A, IDENTITY, "I1", _outcome())

    # Corrupt payload.
    (cache.objects_dir / f"{FP_A}.json").write_text("{torn")
    assert cache.lookup(FP_A, IDENTITY, "I1") is None

    # Wrong schema tag.
    (cache.objects_dir / f"{FP_A}.json").write_text(
        json.dumps({"schema": "something/else", "key": "I1"})
    )
    assert cache.lookup(FP_A, IDENTITY, "I1") is None

    # Right schema, wrong key (collision/tampering guard).
    cache.store(FP_B, IDENTITY, "I2", _outcome("I2"))
    assert cache.lookup(FP_B, IDENTITY, "I1") is None
    assert cache.stats.hits == 0


def test_miss_with_known_identity_counts_as_invalidation(tmp_path):
    cache = ObligationCache(tmp_path)
    cache.store(FP_A, IDENTITY, "I1", _outcome())
    cache.flush()

    # Same identity, new fingerprint: an edit, not a cold miss — and the
    # attribution survives a reload from disk in a fresh process-alike.
    reloaded = ObligationCache(tmp_path)
    assert reloaded.lookup(FP_B, IDENTITY, "I1") is None
    assert reloaded.stats.invalidations == 1 and reloaded.stats.misses == 0
    assert reloaded.lookup(FP_B, "other-identity", "I1") is None
    assert reloaded.stats.misses == 1


def test_corrupt_index_degrades_attribution_not_verdicts(tmp_path):
    cache = ObligationCache(tmp_path)
    cache.store(FP_A, IDENTITY, "I1", _outcome())
    cache.flush()
    (tmp_path / "index.json").write_text("not json at all")

    reloaded = ObligationCache(tmp_path)
    entry = reloaded.lookup(FP_A, IDENTITY, "I1")
    assert entry is not None and entry.holds
    assert reloaded.lookup(FP_B, IDENTITY, "I1") is None
    assert reloaded.stats.misses == 1  # attribution lost, verdicts intact


# --------------------------------------------------------------------- #
# discharge() integration
# --------------------------------------------------------------------- #


def test_uncacheable_obligations_execute_every_run(tmp_path):
    app, universe = build("pingpong")
    token = object()
    gate = app.invariant.gate
    poisoned = rebuild(
        app,
        invariant=type(app.invariant)(
            app.invariant.name,
            lambda state: gate(state) or token is None,
            app.invariant.transitions,
            app.invariant.params,
        ),
    )
    keys = all_keys(poisoned, universe)
    uncacheable = {k for k in keys if k in ("I1", "I2") or k.startswith("I3")}

    cold = poisoned.check(universe, jobs=1, cache=tmp_path)
    assert cold.rcache_stats["uncacheable"] == len(uncacheable)
    with count_executions() as executed:
        warm = poisoned.check(universe, jobs=1, cache=tmp_path)
    assert set(executed) == uncacheable
    assert set(warm.cached_keys) == keys - uncacheable
    assert condition_map(cold) == condition_map(warm)


def test_cached_failures_seed_fail_fast_skips(tmp_path):
    app, universe = FIXTURES["broken-broadcast"].build()
    cold = app.check(universe, jobs=1, fail_fast=True, cache=tmp_path)
    assert not cold.holds
    with count_executions() as executed:
        warm = app.check(universe, jobs=1, fail_fast=True, cache=tmp_path)
    # Completed verdicts (passes *and* fails) hit; the cached FAIL drives
    # the same downstream skips a live FAIL would, with zero executions.
    assert not executed
    assert condition_map(cold) == condition_map(warm)
    skipped = {
        key for key, r in warm.conditions.items() if not r.holds
    }
    assert set(FIXTURES["broken-broadcast"].expect_failing) <= skipped


@pytest.mark.usefixtures("unclamped_pool")
def test_pool_scheduler_shares_the_cache(tmp_path):
    app, universe = build("pingpong")
    serial = app.check(universe, jobs=1)
    cold = app.check(
        universe,
        scheduler=ProcessPoolScheduler(2),
        cache=tmp_path,
    )
    warm = app.check(
        universe,
        scheduler=ProcessPoolScheduler(2),
        cache=tmp_path,
    )
    # The pool caches the serial layout's obligations; a warm pool run
    # hits them all and merges to the identical condition map.
    assert warm.rcache_stats["hits"] == len(warm.cached_keys) > 0
    assert warm.rcache_stats["misses"] == 0
    assert condition_map(serial) == condition_map(cold) == condition_map(warm)


def test_journal_resume_outranks_the_cache(tmp_path):
    app, universe = build("pingpong")
    resilience = ResilienceConfig(
        checkpoint_dir=str(tmp_path / "ckpt"), resume=True
    )
    first = app.check(
        universe,
        jobs=1,
        resilience=resilience,
        checkpoint_label="pp",
        cache=tmp_path / "cache",
    )
    assert first.holds and not first.resumed_keys
    second = app.check(
        universe,
        jobs=1,
        resilience=resilience,
        checkpoint_label="pp",
        cache=tmp_path / "cache",
    )
    # Every obligation is journaled, so the resume seeds everything and
    # the cache is never consulted for them.
    assert set(second.resumed_keys) == all_keys(app, universe)
    assert not second.cached_keys
    assert condition_map(first) == condition_map(second)


def test_tracing_a_warm_run_perturbs_nothing_and_labels_spans(tmp_path):
    app, universe = build("pingpong")
    app.check(universe, jobs=1, cache=tmp_path)

    untraced = app.check(universe, jobs=1, cache=tmp_path)
    tracer = Tracer()
    traced = app.check(universe, jobs=1, cache=tmp_path, tracer=tracer)
    assert condition_map(untraced) == condition_map(traced)
    assert untraced.cached_keys == traced.cached_keys

    rcache_spans = [s for s in tracer.spans if s.category == "rcache"]
    assert {s.kind for s in rcache_spans} == {"hit"}
    assert len(rcache_spans) == len(traced.cached_keys)
    obligation_spans = [
        s for s in tracer.spans if s.category == "obligation"
    ]
    assert obligation_spans and all(s.cached for s in obligation_spans)
    assert all(
        s.as_dict()["cached"] is True for s in obligation_spans
    )


def test_cli_style_stats_delta_is_per_discharge(tmp_path):
    """One cache object across two discharges: each result's stats are
    the delta for *its* discharge, not the cumulative counters."""
    cache = ObligationCache(tmp_path)
    app, universe = build("pingpong")
    total = len(all_keys(app, universe))
    cold = app.check(universe, jobs=1, cache=cache)
    warm = app.check(universe, jobs=1, cache=cache)
    assert cold.rcache_stats["misses"] == total
    assert cold.rcache_stats["hits"] == 0
    assert warm.rcache_stats["hits"] == total
    assert warm.rcache_stats["misses"] == 0
    assert cache.stats.hits == total and cache.stats.misses == total


def test_cache_cli_reads_the_directory_from_the_environment(
    tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    app, universe = build("pingpong")
    app.check(universe, jobs=1, cache=tmp_path)
    entries = len(all_keys(app, universe))
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert f"dir={tmp_path}" in out and f"entries={entries}" in out


def test_cache_cli_without_a_directory_is_a_usage_error(monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "stats"])
    assert excinfo.value.code == 2
    assert "--dir DIR (or $REPRO_CACHE)" in capsys.readouterr().err
