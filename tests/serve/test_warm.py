"""WarmState: reuse must change wall-clock only, never verdicts."""

from __future__ import annotations

import pytest

from repro.engine import faults
from repro.engine.rcache import DependencyFingerprinter, ObligationCache
from repro.engine.warm import WarmState
from repro.protocols import ALL_PROTOCOLS, broadcast, pingpong


def _typed_verdict(report):
    """Everything a client can act on, with timings stripped."""
    return {
        "name": report.name,
        "status": report.status,
        "ok": report.ok,
        "spec_ok": report.spec_ok,
        "is": [(label, r.holds, r.total_checked)
               for label, r in report.is_results],
        "ground_truth": (
            None if report.ground_truth is None else report.ground_truth.holds
        ),
    }


#: A small instance of every protocol (each verifies in well under 1 s).
SMALL = {
    "broadcast": {"n": 2},
    "pingpong": {"rounds": 2},
    "prodcons": {"bound": 2},
    "nbuyer": {"n": 2},
    "changroberts": {"n": 3},
    "twophase": {"n": 2},
    "paxos": {"rounds": 1, "num_nodes": 2},
}


@pytest.mark.parametrize("name", list(SMALL))
def test_warm_reports_are_typed_identical_to_cold(name, tmp_path):
    """Warm requests, served from the instance's resident record,
    report exactly what a cold run does."""
    verify = ALL_PROTOCOLS[name].verify
    cold = verify(**SMALL[name])
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    first = verify(**SMALL[name], warm=warm_state)
    second = verify(**SMALL[name], warm=warm_state)
    assert _typed_verdict(first) == _typed_verdict(cold)
    assert _typed_verdict(second) == _typed_verdict(cold)
    assert all(
        result.cached_keys and len(result.cached_keys) == result.num_obligations
        for _label, result in second.is_results
    )


def test_second_warm_run_executes_zero_obligations(tmp_path, monkeypatch):
    """The repeat request is served from memory: no fingerprinter is
    built and no entry is read from disk, yet every hit is counted."""
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    reads = []
    monkeypatch.setattr(
        ObligationCache, "lookup", lambda *args: reads.append(args)
    )
    monkeypatch.setattr(
        DependencyFingerprinter, "__init__", lambda *args: reads.append(args)
    )
    hits = warm_state.rcache.stats.hits
    report = pingpong.verify(rounds=2, warm=warm_state)
    total = cached = 0
    for _label, result in report.is_results:
        total += result.num_obligations
        cached += len(result.cached_keys)
    assert total > 0
    assert total - cached == 0, (total, cached)
    assert reads == []
    assert warm_state.rcache.stats.hits - hits == total


def test_warm_state_reuses_universes_and_pipelines():
    warm_state = WarmState()
    pingpong.verify(rounds=2, warm=warm_state)
    built = warm_state.stats.universe_builds
    assert built > 0
    pingpong.verify(rounds=2, warm=warm_state)
    assert warm_state.stats.universe_builds == built
    assert warm_state.stats.universe_hits >= built
    assert warm_state.stats.pipeline_hits >= 1


def test_different_instances_do_not_collide():
    warm_state = WarmState()
    two = pingpong.verify(rounds=2, warm=warm_state)
    three = pingpong.verify(rounds=3, warm=warm_state)
    assert two.parameters != three.parameters
    assert _typed_verdict(three) == _typed_verdict(pingpong.verify(rounds=3))


def test_second_warm_broadcast_run_reuses_universes():
    warm_state = WarmState()
    cold = broadcast.verify(n=2)
    first = broadcast.verify(n=2, warm=warm_state)
    second = broadcast.verify(n=2, warm=warm_state)
    assert _typed_verdict(first) == _typed_verdict(cold)
    assert _typed_verdict(second) == _typed_verdict(cold)
    assert warm_state.stats.universe_hits > 0


def _executed(report):
    return sum(
        result.num_obligations - len(result.cached_keys)
        for _label, result in report.is_results
    )


def test_eviction_bounds_the_resident_maps(tmp_path):
    """``max_entries`` bounds the resident universes; an evicted
    instance's record leaves whole, and its next request is served from
    disk without executing anything."""
    warm_state = WarmState(max_entries=1, rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    evicted = next(iter(warm_state.records.values()))
    assert evicted.universes and evicted.obligations
    pingpong.verify(rounds=3, warm=warm_state)
    assert warm_state.describe()["universes"] == 1
    assert warm_state.stats.evictions == 1
    (resident,) = warm_state.records.values()
    assert resident is not evicted
    assert set(resident.obligations) == set(resident.universes)
    # The evicted instance comes back from the result cache on disk.
    hits = warm_state.rcache.stats.universe_hits
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok
    assert _executed(report) == 0
    assert warm_state.rcache.stats.universe_hits > hits
    assert warm_state.describe()["universes"] == 1


def test_forget_drops_maps_but_keeps_the_rcache(tmp_path):
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    rcache = warm_state.rcache
    assert rcache is not None
    assert warm_state.records
    warm_state.forget()
    assert not warm_state.records
    assert warm_state.describe()["universes"] == 0
    assert warm_state.rcache is rcache
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok
    assert _executed(report) == 0


@pytest.mark.parametrize("times", [1, 1000], ids=["one-store", "every-store"])
def test_failed_stores_are_not_remembered(tmp_path, times):
    """A store that fails remembers no entry: the next request looks the
    obligation up again, misses, and re-executes exactly the obligations
    whose store failed, with the cold verdicts. Once the disk recovers,
    the request after that executes nothing. (``REPRO_FAULTS`` takes the
    same spec; ``rcache.store=enospc`` alone fails one store.)"""
    cold = pingpong.verify(rounds=2)
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    stats = warm_state.rcache.stats
    faults.install(faults.FaultInjector.from_env(f"rcache.store=enospc:{times}"))
    try:
        first = pingpong.verify(rounds=2, warm=warm_state)
    finally:
        faults.clear()
    total = sum(result.num_obligations for _label, result in first.is_results)
    failed = min(times, total)
    assert stats.write_errors == failed
    assert stats.stores == total - failed
    assert _typed_verdict(first) == _typed_verdict(cold)

    hits = stats.hits
    second = pingpong.verify(rounds=2, warm=warm_state)
    assert _typed_verdict(second) == _typed_verdict(cold)
    assert _executed(second) == failed
    assert stats.hits - hits == total - failed
    assert stats.stores == total

    third = pingpong.verify(rounds=2, warm=warm_state)
    assert _typed_verdict(third) == _typed_verdict(cold)
    assert _executed(third) == 0
