"""WarmState: reuse must change wall-clock only, never verdicts."""

from __future__ import annotations

import pytest

from repro.engine import warm as warm_mod
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
    """Warm requests, served from the fingerprint memo and the entry
    front, report exactly what a cold run does."""
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


def test_eviction_bounds_the_resident_maps(tmp_path):
    warm_state = WarmState(max_entries=1, rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    pingpong.verify(rounds=3, warm=warm_state)
    assert len(warm_state._universes) == 1
    assert warm_state.stats.evictions > 0
    # Fingerprint memos leave with their universe.
    resident = list(warm_state._universes.values())
    assert [memo[1] for memo in warm_state._fingerprints.values()] == resident
    # An evicted instance still verifies correctly (it just rebuilds).
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok


def test_forget_drops_maps_but_keeps_the_rcache(tmp_path):
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    rcache = warm_state.rcache
    assert rcache is not None
    assert warm_state._fingerprints and warm_state._front
    warm_state.forget()
    assert warm_state.describe()["universes"] == 0
    assert not warm_state._fingerprints and not warm_state._front
    assert warm_state.rcache is rcache
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert report.ok


def test_entry_front_is_bounded(tmp_path, monkeypatch):
    """The front keeps the newest entries up to its bound; what it drops
    is read back from disk, as a hit, on the next request."""
    monkeypatch.setattr(warm_mod, "FRONT_ENTRIES", 5)
    warm_state = WarmState(rcache=str(tmp_path / "rcache"))
    pingpong.verify(rounds=2, warm=warm_state)
    assert len(warm_state._front) == 5
    report = pingpong.verify(rounds=2, warm=warm_state)
    assert all(
        len(result.cached_keys) == result.num_obligations
        for _label, result in report.is_results
    )
    assert len(warm_state._front) == 5
