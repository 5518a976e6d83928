"""The subprocess sandbox: protocol round trip, degradation ladder,
watchdog, recycling, and the daemon integration.

Direct :class:`SandboxExecutor` tests spawn a real worker process and
speak the JSONL protocol over its pipes — no mocks; crashes are induced
with the ``sandbox.job`` fault key (fired *inside* the worker, where
``exit`` faults are honored) or by stopping the worker with signals.
The daemon tests boot a sandboxed ``ServeDaemon`` over HTTP and pin the
typed ``CRASHED`` verdict and the flagged in-process fallback.
"""

from __future__ import annotations

import json

import os
import signal
import time

import pytest

from repro.engine.faults import FAULTS_ENV, clear
from repro.protocols import pingpong
from repro.serve.executor import (
    SandboxConfig,
    SandboxCrashed,
    SandboxExecutor,
    crashed_payload,
)
from repro.serve.jobs import JobRequest

from .test_daemon import PINGPONG, DaemonHarness


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    """Faults leak into workers through the environment; keep every test
    hermetic."""
    clear()
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield
    clear()


def _request(rounds=2):
    return JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"rounds": rounds}}
    )


BUDGETS = {"max_configs": None, "clamped": False}


@pytest.fixture
def executor(request):
    """A SandboxExecutor built from the test's ``sandbox_config`` marker
    (default config otherwise), shut down afterwards."""
    marker = request.node.get_closest_marker("sandbox_config")
    config = SandboxConfig(**(marker.kwargs if marker else {}))
    sandbox = SandboxExecutor(config)
    yield sandbox
    sandbox.shutdown()


# ------------------------------------------------------------------ #
# Round trip
# ------------------------------------------------------------------ #


def test_round_trip_matches_in_process_verdict(executor):
    spans = []
    payload = executor.execute(
        "job-1", _request(), BUDGETS, publish_spans=spans.extend
    )
    reference = pingpong.verify(rounds=2)
    assert payload["status"] == reference.status
    assert payload["ok"] is reference.ok
    assert payload["obligations"]["total"] == sum(
        r.num_obligations for _l, r in reference.is_results
    )
    # Spans stream across the process boundary as the JSON text the SSE
    # stream carries: one per obligation (plus phase spans), each
    # seq-stamped by the worker.
    records = [json.loads(text) for text in spans]
    assert len(records) >= payload["obligations"]["total"]
    assert [record["seq"] for record in records] == list(range(len(records)))
    health = executor.describe()
    assert health["alive"] is True
    assert health["worker_pid"] == executor.worker_pid
    assert health["spawns"] == 1 and health["jobs"] == 1


def test_the_deadline_in_the_budgets_reaches_the_worker(executor, monkeypatch):
    """The operator's per-obligation deadline travels in the job's
    budgets: a hung obligation in the worker ends as TIMEOUT."""
    monkeypatch.setenv(FAULTS_ENV, "I2=hang")
    payload = executor.execute(
        "job-1", _request(), {**BUDGETS, "timeout_per_obligation": 0.3}
    )
    assert payload["status"] == "TIMEOUT"


def test_second_job_reuses_warm_worker(tmp_path):
    sandbox = SandboxExecutor(SandboxConfig(), state_dir=tmp_path)
    try:
        first = sandbox.execute("job-1", _request(), BUDGETS)
        second = sandbox.execute("job-2", _request(), BUDGETS)
    finally:
        sandbox.shutdown()
    assert second["status"] == first["status"]
    # Same worker process: its warm memos and result cache served the
    # repeat — zero re-executed obligations.
    assert sandbox.stats["spawns"] == 1
    assert second["obligations"]["executed"] == 0
    assert second["warm"]["universe_hits"] >= 1


def test_a_recycled_worker_loads_universes_from_the_cache(tmp_path):
    """A fresh worker starts with empty warm memos, but the result cache
    the first worker wrote serves its universe and stage results: it
    explores nothing and executes nothing."""
    sandbox = SandboxExecutor(SandboxConfig(recycle_after=1), state_dir=tmp_path)
    try:
        first = sandbox.execute("job-1", _request(), BUDGETS)
        second = sandbox.execute("job-2", _request(), BUDGETS)
    finally:
        sandbox.shutdown()
    assert sandbox.stats["spawns"] == 2
    assert second["status"] == first["status"] == "OK"

    def counts(job, kind):
        return job["rcache"][f"{kind}_hits"], job["rcache"][f"{kind}_misses"]

    assert counts(first, "universe") == (0, 1)
    assert counts(second, "universe") == (1, 0)
    assert counts(second, "stage") == (2, 0)
    assert second["obligations"]["executed"] == 0


@pytest.mark.sandbox_config(recycle_after=2)
def test_worker_recycles_after_configured_jobs(executor):
    for n in range(3):
        executor.execute(f"job-{n}", _request(), BUDGETS)
    assert executor.stats["recycles"] == 1
    assert executor.stats["spawns"] == 2
    # A recycle is hygiene, not a crash.
    assert executor.stats["restarts"] == 0


def test_rlimits_are_applied_in_worker():
    sandbox = SandboxExecutor(
        SandboxConfig(max_rss_mb=2048, cpu_seconds=300)
    )
    try:
        payload = sandbox.execute("job-1", _request(), BUDGETS)
        assert payload["status"] == "OK"
        applied = sandbox.describe()["limits"]["applied"]
        # The worker reports back what setrlimit actually accepted.
        assert applied.get("rlimit_as_bytes") == 2048 * 1024 * 1024
        assert applied.get("rlimit_cpu_seconds") == 300
    finally:
        sandbox.shutdown()


# ------------------------------------------------------------------ #
# Degradation ladder
# ------------------------------------------------------------------ #


@pytest.mark.sandbox_config(max_respawns=2, breaker_threshold=3)
def test_crash_once_respawns_and_retries(executor, monkeypatch):
    """Rung 1: a worker that dies mid-job is respawned and the job is
    retried — the caller sees only the successful payload."""
    monkeypatch.setenv(FAULTS_ENV, "sandbox.job=exit:1")
    payload = executor.execute("job-1", _request(), BUDGETS)
    assert payload["status"] == "OK"
    assert executor.stats["restarts"] == 1
    assert executor.stats["spawns"] == 2


@pytest.mark.sandbox_config(max_respawns=1, breaker_threshold=2)
def test_repeat_crasher_exhausts_respawns_and_opens_breaker(
    executor, monkeypatch
):
    """Rung 2: a request that kills every worker it touches exhausts its
    respawn budget, opens its circuit breaker, and from then on is
    refused without spawning anything."""
    monkeypatch.setenv(FAULTS_ENV, "sandbox.job=exit:99")
    with pytest.raises(SandboxCrashed) as crashed:
        executor.execute("job-1", _request(), BUDGETS)
    assert crashed.value.crashes == 2
    assert crashed.value.breaker_open is True
    spawns = executor.stats["spawns"]
    # Breaker short-circuit: no new worker, no new attempt.
    with pytest.raises(SandboxCrashed) as again:
        executor.execute("job-2", _request(), BUDGETS)
    assert again.value.breaker_open is True
    assert executor.stats["spawns"] == spawns
    assert _request().fingerprint in executor.describe()["breaker"]["open"]


@pytest.mark.sandbox_config(max_respawns=1, breaker_threshold=5)
def test_different_requests_track_separate_crash_counts(
    executor, monkeypatch
):
    monkeypatch.setenv(FAULTS_ENV, "sandbox.job=exit:99")
    with pytest.raises(SandboxCrashed) as crashed:
        executor.execute("job-1", _request(rounds=2), BUDGETS)
    assert crashed.value.breaker_open is False  # 2 crashes < threshold 5
    monkeypatch.delenv(FAULTS_ENV)
    # A different instance is unaffected by job-1's crash history.
    payload = executor.execute("job-2", _request(rounds=3), BUDGETS)
    assert payload["status"] == "OK"
    assert executor.describe()["breaker"]["open"] == []


@pytest.mark.sandbox_config(
    heartbeat_interval=0.1, heartbeat_grace=1.5, max_respawns=1
)
def test_watchdog_detects_stopped_worker(executor):
    """A worker that stops heartbeating (here: SIGSTOP, the moral
    equivalent of a livelock or an OOM-paused cgroup) is declared dead
    by the watchdog, killed, and replaced."""
    warmup = executor.execute("job-0", _request(), BUDGETS)
    assert warmup["status"] == "OK"
    os.kill(executor.worker_pid, signal.SIGSTOP)
    payload = executor.execute("job-1", _request(), BUDGETS)
    assert payload["status"] == "OK"
    assert executor.stats["restarts"] == 1


def test_sigkilled_worker_is_respawned(executor):
    warmup = executor.execute("job-0", _request(), BUDGETS)
    assert warmup["status"] == "OK"
    pid = executor.worker_pid
    os.kill(pid, signal.SIGKILL)
    deadline = time.time() + 10
    while executor._proc.poll() is None and time.time() < deadline:
        time.sleep(0.01)
    payload = executor.execute("job-1", _request(), BUDGETS)
    assert payload["status"] == "OK"
    assert executor.worker_pid != pid


def test_crashed_payload_is_typed():
    crash = SandboxCrashed("worker exited with 99", crashes=3, breaker_open=True)
    payload = crashed_payload(_request(), crash)
    assert payload["kind"] == "verify"
    assert payload["ok"] is False
    assert payload["status"] == "CRASHED"
    assert payload["sandbox"]["mode"] == "sandbox"
    assert payload["sandbox"]["crashes"] == 3
    assert payload["sandbox"]["breaker_open"] is True


# ------------------------------------------------------------------ #
# Daemon integration
# ------------------------------------------------------------------ #


def test_daemon_sandbox_round_trip_and_healthz(tmp_path):
    with DaemonHarness(state_dir=str(tmp_path), sandbox=True) as harness:
        first = harness.run_job(PINGPONG)
        assert first["status"] == "done"
        assert first["result"]["status"] == "OK"
        second = harness.run_job(PINGPONG)
        assert second["result"]["obligations"]["executed"] == 0
        _status, health = harness.get("/healthz")
        assert health["sandbox"]["enabled"] is True
        assert health["sandbox"]["jobs"] == 2
        assert health["counters"]["executed"] == 2


def test_daemon_serves_typed_crashed_verdict(monkeypatch):
    """The ladder's floor, end to end: a repeat-crasher job surfaces as
    a terminal ``crashed`` job with a typed ``CRASHED`` result — and the
    daemon itself stays up and keeps serving."""
    monkeypatch.setenv(FAULTS_ENV, "sandbox.job=exit:99")
    with DaemonHarness(
        sandbox=True, sandbox_max_respawns=1, sandbox_breaker_threshold=2
    ) as harness:
        detail = harness.run_job(PINGPONG)
        assert detail["status"] == "crashed"
        assert detail["result"]["status"] == "CRASHED"
        assert detail["result"]["sandbox"]["crashes"] == 2
        monkeypatch.delenv(FAULTS_ENV)
        # Daemon still live; a different instance still verifies.
        other = harness.run_job(
            {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 3}}
        )
        assert other["status"] == "done"
        _status, health = harness.get("/healthz")
        assert health["counters"]["crashed"] == 1
        assert len(health["sandbox"]["breaker"]["open"]) == 1


def test_daemon_inprocess_fallback_is_flagged(monkeypatch):
    """With ``--sandbox-fallback`` the daemon climbs past the breaker to
    rung 3: run in-process, but stamp the payload so the report can
    never silently masquerade as an isolated run."""
    monkeypatch.setenv(FAULTS_ENV, "sandbox.job=exit:99")
    with DaemonHarness(
        sandbox=True,
        sandbox_max_respawns=0,
        sandbox_breaker_threshold=1,
        sandbox_fallback=True,
    ) as harness:
        detail = harness.run_job(PINGPONG)
        assert detail["status"] == "done"
        assert detail["result"]["status"] == "OK"
        assert detail["result"]["sandbox"]["mode"] == "inprocess-fallback"
        assert detail["result"]["sandbox"]["crashes"] >= 1
