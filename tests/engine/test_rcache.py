"""Unit and engine-level tests for the persistent obligation result cache.

Three layers: the structural hasher (``stable_digest`` — deterministic,
order-insensitive, closure-sensitive), the content-addressed store
(``ObligationCache`` — roundtrip, corruption tolerance, invalidation
attribution), and the ``discharge()`` integration (uncacheable values
degrade to execution, cached FAILs seed fail-fast, the pool backend hits
the same cache, and tracing a warm run perturbs nothing while each
obligation span carries its cache decision).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.refinement import CheckResult
from repro.core.store import Store
from repro.core.multiset import Multiset
from repro.diagnose.fixtures import FIXTURES
from repro.engine.obligations import build_obligations
from repro.engine.rcache import (
    CacheEntry,
    DependencyFingerprinter,
    ObligationCache,
    Unfingerprintable,
    stable_digest,
    universe_fingerprint,
)
from repro.engine.scheduler import ObligationOutcome, ProcessPoolScheduler
from repro.obs import Tracer
from repro.protocols import ALL_PROTOCOLS

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
    assert isinstance(entry, CacheEntry)
    result = entry.to_result()
    assert result.holds is False
    assert result.counterexamples == [("store", 1), ("store", 2)]
    assert result.checked == 9
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_store_refuses_incomplete_resumed_and_cached_outcomes(tmp_path):
    """Skipped and faulted outcomes must re-attempt, and a cache hit (what
    a resumed obligation now is) is already stored."""
    cache = ObligationCache(tmp_path)
    skipped = ObligationOutcome("I1", None, 0.0, os.getpid())
    assert not cache.store(FP_A, IDENTITY, "I1", skipped)
    timed_out = ObligationOutcome("I1", None, 1.0, os.getpid(), timed_out=True)
    assert not cache.store(FP_A, IDENTITY, "I1", timed_out)
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


def test_tracing_a_warm_run_perturbs_nothing_and_labels_spans(tmp_path):
    app, universe = build("pingpong")
    app.check(universe, jobs=1, cache=tmp_path)

    untraced = app.check(universe, jobs=1, cache=tmp_path)
    tracer = Tracer()
    traced = app.check(universe, jobs=1, cache=tmp_path, tracer=tracer)
    assert condition_map(untraced) == condition_map(traced)
    assert untraced.cached_keys == traced.cached_keys

    # One span per obligation, each carrying its decision; no separate
    # cache-decision spans.
    assert {s.category for s in tracer.spans} == {"obligation"}
    obligation_spans = tracer.spans
    assert len(obligation_spans) == len(traced.cached_keys)
    assert all(s.cached and s.rcache == "hit" for s in obligation_spans)
    assert all(
        s.as_dict()["cached"] is True and s.as_dict()["rcache"] == "hit"
        for s in obligation_spans
    )

    # A cold traced run labels every obligation a miss, and an edit of the
    # invariant labels exactly its readers invalidations.
    cold_tracer = Tracer()
    app.check(universe, jobs=1, cache=tmp_path / "cold", tracer=cold_tracer)
    assert {s.rcache for s in cold_tracer.spans} == {"miss"}
    gate = app.invariant.gate
    edited = rebuild(
        app,
        invariant=type(app.invariant)(
            app.invariant.name,
            lambda state: bool(gate(state)),
            app.invariant.transitions,
            app.invariant.params,
        ),
    )
    edit_tracer = Tracer()
    result = edited.check(universe, jobs=1, cache=tmp_path, tracer=edit_tracer)
    invalidated = {s.name for s in edit_tracer.spans if s.rcache == "invalidation"}
    assert invalidated == set(result.timings) - set(result.cached_keys)
    assert len(invalidated) == result.rcache_stats["invalidations"] > 0


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


def _dead_pid() -> int:
    import subprocess
    import sys

    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_gc_sweeps_temp_files_a_crashed_write_left(tmp_path, capsys):
    """A crash between an entry's temp write and its rename leaves
    ``.<fp>.json.<pid>.tmp`` behind; ``gc`` and ``repro cache gc`` sweep
    it once its writer is dead, and ``size_info`` counts it meanwhile."""
    from repro.__main__ import main

    app, universe = build("pingpong")
    cache = ObligationCache(tmp_path)
    app.check(universe, jobs=1, cache=cache)
    stale = cache.objects_dir / f".{'ab' * 32}.json.{_dead_pid()}.tmp"
    stale.write_text("{partial")
    live = cache.objects_dir / f".{'cd' * 32}.json.{os.getpid()}.tmp"
    live.write_text("{in flight")
    assert cache.size_info()["temps"] == 2
    assert cache.gc(max_mb=1e-6)["temps"] == 1
    assert not stale.exists() and live.exists()  # a live writer's is kept
    assert len(cache) == 0
    old = 2 * 3600
    os.utime(live, (live.stat().st_atime - old, live.stat().st_mtime - old))
    assert main(["cache", "gc", "--dir", str(tmp_path), "--max-mb", "1"]) == 0
    assert "temps=1" in capsys.readouterr().out  # too old, whoever wrote it
    assert not live.exists() and cache.size_info()["temps"] == 0


def test_cache_cli_without_a_directory_is_a_usage_error(monkeypatch, capsys):
    from repro.__main__ import main

    monkeypatch.delenv("REPRO_CACHE", raising=False)
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "stats"])
    assert excinfo.value.code == 2
    assert "--dir DIR (or $REPRO_CACHE)" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# verify() pipelines: a warm re-verify executes nothing, on every protocol
# --------------------------------------------------------------------- #

#: One instance per protocol, keyed like ``ALL_PROTOCOLS`` so a protocol
#: added there without an instance here fails collection: the Table 1
#: instance, except that Paxos runs at R=1/N=2 here, because its R=2/N=2
#: row takes about a second per pipeline and runs in the slow lane.
INSTANCES = {
    "broadcast": {"n": 3, "iterated": True},
    "pingpong": {"rounds": 3},
    "prodcons": {"bound": 4},
    "nbuyer": {"n": 3},
    "changroberts": {"n": 4},
    "twophase": {"n": 3},
    "paxos": {"rounds": 1, "num_nodes": 2},
}


def _verdicts(report):
    return [(label, condition_map(result)) for label, result in report.is_results]


@pytest.mark.parametrize(
    "protocol, params",
    [pytest.param(name, INSTANCES[name], id=name) for name in sorted(ALL_PROTOCOLS)]
    + [
        pytest.param(
            "paxos",
            {"rounds": 2, "num_nodes": 2},
            id="paxos-r2n2",
            marks=pytest.mark.slow,
        )
    ],
)
def test_warm_verify_executes_zero_obligations(tmp_path, protocol, params):
    """A second ``verify(cache=d)`` of an unchanged protocol reproduces
    the report's verdicts and executes no obligation."""
    verify = ALL_PROTOCOLS[protocol].verify
    cold = verify(cache=tmp_path, **params)
    with count_executions() as executed:
        warm = verify(cache=tmp_path, **params)
    assert warm.ok == cold.ok and warm.status == cold.status
    assert _verdicts(warm) == _verdicts(cold)
    assert not executed, f"{protocol}: warm re-verify executed {executed}"
    total = sum(result.num_obligations for _, result in warm.is_results)
    cached = sum(len(result.cached_keys) for _, result in warm.is_results)
    assert total > 0 and cached == total
