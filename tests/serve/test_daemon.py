"""Daemon lifecycle: admission, backpressure, determinism, drain, SSE.

Each test boots a real ``ServeDaemon`` on a background thread bound to
an ephemeral port and speaks actual HTTP to it — the same path the CI
``serve-smoke`` job and the benchmark harness use. The daemon's worker
runs verifications in-process, so the suite sticks to the smallest
instances (pingpong at ``rounds=2``).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.cache import reset_process_cache
from repro.engine import faults
from repro.protocols import pingpong
from repro.serve import ServeConfig
from repro.serve.daemon import ServeDaemon

PINGPONG = {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 2}}


class DaemonHarness:
    """A daemon on a background thread plus a tiny HTTP client."""

    def __init__(self, **config):
        config.setdefault("host", "127.0.0.1")
        config.setdefault("port", 0)
        self.daemon = ServeDaemon(ServeConfig(**config))
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True
        )

    def __enter__(self):
        self.thread.start()
        assert self.daemon.ready.wait(timeout=30), "daemon never came up"
        self.base = f"http://127.0.0.1:{self.daemon.bound_port}"
        return self

    def __exit__(self, *exc):
        self.daemon.request_shutdown()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "daemon failed to drain"

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return resp.status, json.load(resp)

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.load(resp)

    def run_job(self, payload, timeout=120.0):
        _status, accepted = self.post("/jobs", payload)
        return self.wait(accepted["job"]["id"], timeout)

    def wait(self, job_id, timeout=120.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            _status, detail = self.get(f"/jobs/{job_id}")
            if detail["status"] in ("done", "failed", "crashed", "interrupted"):
                return detail
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} still {detail['status']!r}")


def test_healthz_reports_queue_and_warm_state():
    with DaemonHarness(queue_depth=3) as harness:
        status, health = harness.get("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["queue"] == {"depth": 0, "capacity": 3}
        assert "warm" in health and "stats" in health["warm"]


def test_job_round_trip_and_warm_second_request(tmp_path):
    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        first = harness.run_job(PINGPONG)
        assert first["status"] == "done"
        assert first["result"]["status"] == "OK"
        assert first["result"]["obligations"]["total"] > 0
        second = harness.run_job(PINGPONG)
        assert second["result"]["obligations"]["executed"] == 0
        assert second["result"]["status"] == first["result"]["status"]


def test_a_code_change_reexecutes_after_restart(tmp_path, monkeypatch):
    """The result cache under ``--state`` is the daemon's only store of
    obligation results, and its fingerprints cover the code every
    obligation reads: a daemon restarted on changed code (modelled by a
    changed fingerprint schema, which every fingerprint hashes)
    re-executes every obligation instead of serving old verdicts."""
    from repro.engine import rcache

    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        harness.run_job(PINGPONG)
        again = harness.run_job(PINGPONG)
        assert again["result"]["obligations"]["executed"] == 0
    monkeypatch.setattr(rcache, "RCACHE_SCHEMA", rcache.RCACHE_SCHEMA + "+edit")
    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        edited = harness.run_job(PINGPONG)
    split = edited["result"]["obligations"]
    assert edited["status"] == "done"
    assert edited["result"]["status"] == "OK"
    assert split["cached"] == 0 and split["executed"] == split["total"] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jobs.jsonl", "rcache"]


def test_a_jobs_field_is_refused():
    """The daemon never forks a process pool: it runs jobs beside its
    event-loop and heartbeat threads, where a fork can deadlock."""
    with DaemonHarness() as harness:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            harness.post("/jobs", {**PINGPONG, "jobs": 2})
        assert excinfo.value.code == 400
        assert "unknown fields: jobs" in excinfo.value.read().decode()


def test_daemon_verdicts_match_one_shot_cli_reports():
    """Typed verdict parity: what the daemon returns for a protocol must
    equal a one-shot in-process ``verify()`` of the same instance."""
    reference = pingpong.verify(rounds=2)
    with DaemonHarness() as harness:
        detail = harness.run_job(PINGPONG)
    result = detail["result"]
    assert result["status"] == reference.status
    assert result["ok"] is reference.ok
    assert result["obligations"]["total"] == sum(
        r.num_obligations for _l, r in reference.is_results
    )
    assert [c["label"] for c in result["is_checks"]] == [
        label for label, _r in reference.is_results
    ]
    assert [c["holds"] for c in result["is_checks"]] == [
        r.holds for _l, r in reference.is_results
    ]


def test_concurrent_clients_get_deterministic_results():
    """N clients hammering the same question concurrently must all see
    the same typed verdict — the queue serializes, warm reuse must not
    bleed state between in-flight requests."""
    results = []
    errors = []
    with DaemonHarness() as harness:

        def client():
            try:
                detail = harness.run_job(PINGPONG)
                results.append(
                    (detail["result"]["status"], detail["result"]["ok"],
                     detail["result"]["obligations"]["total"])
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors
    assert len(results) == 4
    assert len(set(results)) == 1, results
    assert results[0][0] == "OK"


def test_queue_full_returns_429_with_retry_after():
    faults.install(
        faults.FaultInjector(
            [faults.FaultSpec(key="I1", mode="hang", seconds=20.0)]
        )
    )
    try:
        with DaemonHarness(queue_depth=1, drain_grace=0.2) as harness:
            harness.post("/jobs", PINGPONG)  # occupies the worker (hangs)
            time.sleep(0.3)
            harness.post("/jobs", PINGPONG)  # fills the queue
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                harness.post("/jobs", PINGPONG)
            assert excinfo.value.code == 429
            retry_after = excinfo.value.headers["Retry-After"]
            assert int(retry_after) >= 1
    finally:
        faults.clear()


#: Engine knobs: top-level request fields or operator settings, never
#: instance ``params``.
KNOBS = ("jobs", "warm", "tracer", "cache", "resilience", "max_configs",
         "fail_fast", "ground_truth")


def test_bad_requests_are_400_and_unknown_jobs_404():
    with DaemonHarness() as harness:
        for payload in (
            {"kind": "frobnicate"},
            {"kind": "verify", "protocol": "not-a-protocol"},
            {"kind": "verify", "protocol": "pingpong", "params": {"zz": 1}},
            {"kind": "explain", "fixture": "not-a-fixture"},
            *(
                {"kind": "verify", "protocol": "pingpong", "params": {knob: 1}}
                for knob in KNOBS
            ),
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                harness.post("/jobs", payload)
            assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            harness.get("/jobs/job-9999-nope")
        assert excinfo.value.code == 404


def test_each_protocol_admits_exactly_its_instance_params():
    from repro.protocols import ALL_PROTOCOLS
    from repro.serve.jobs import JobRequest

    accepted = {
        "broadcast": {"n", "values", "iterated", "symmetry"},
        "pingpong": {"rounds", "symmetry"},
        "prodcons": {"bound", "symmetry"},
        "nbuyer": {"n", "prices", "contributions", "symmetry"},
        "changroberts": {"n", "ids", "symmetry"},
        "twophase": {"n", "symmetry"},
        "paxos": {"rounds", "num_nodes", "values", "symmetry"},
    }
    assert set(accepted) == set(ALL_PROTOCOLS)
    daemon = ServeDaemon(ServeConfig(host="127.0.0.1", port=0))

    def admits(protocol, param):
        request = JobRequest.from_payload(
            {"kind": "verify", "protocol": protocol, "params": {param: 1}}
        )
        try:
            daemon._validate_target(request)
        except ValueError:
            return False
        return True

    for protocol, params in accepted.items():
        for param in params:
            assert admits(protocol, param), (protocol, param)
        for param in KNOBS + ("zz",):
            assert not admits(protocol, param), (protocol, param)


def test_sse_stream_replays_spans_and_terminates():
    with DaemonHarness() as harness:
        detail = harness.run_job(PINGPONG)
        with urllib.request.urlopen(
            harness.base + f"/jobs/{detail['id']}/events", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"] == "text/event-stream"
            body = resp.read().decode("utf-8")
    events = [
        line.split(": ", 1)[1]
        for line in body.splitlines()
        if line.startswith("event: ")
    ]
    assert "span" in events
    assert events[-1] == "result"
    # Every frame is id/event/data/blank; data lines are valid JSON.
    for line in body.splitlines():
        if line.startswith("data: "):
            json.loads(line.split(": ", 1)[1])


def test_draining_daemon_refuses_new_jobs_then_exits():
    harness = DaemonHarness()
    with harness:
        harness.run_job(PINGPONG)
    # __exit__ drained; the socket is gone entirely.
    with pytest.raises(urllib.error.URLError):
        urllib.request.urlopen(harness.base + "/healthz", timeout=5)


def test_sigterm_midjob_journals_then_restart_resumes(tmp_path):
    """In-process version of the CI serve-smoke drill: hang an
    obligation, drain mid-job, assert the journal recorded the
    interruption, restart on the same state, and watch the backlog job
    resume to completion."""
    state = str(tmp_path)
    faults.install(
        faults.FaultInjector(
            [faults.FaultSpec(key="I2", mode="hang", seconds=3.0)]
        )
    )
    try:
        with DaemonHarness(state_dir=state, drain_grace=0.3) as harness:
            _status, accepted = harness.post("/jobs", PINGPONG)
            job_id = accepted["job"]["id"]
            deadline = time.time() + 30
            while time.time() < deadline:
                _s, detail = harness.get(f"/jobs/{job_id}")
                if detail["status"] == "running":
                    break
                time.sleep(0.05)
            time.sleep(1.0)  # store the pre-hang obligations, hit the hang
            job_thread = harness.daemon._active.thread
        # __exit__ drained: the hang polls its stop flag, so the job thread
        # ended inside the 0.3 s grace and the job itself journaled the
        # interruption (the grace-expiry path counts nothing).
        job_thread.join(timeout=1.0)
        assert not job_thread.is_alive()
        assert harness.daemon.counters["interrupted"] == 1
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "jobs.jsonl")
            .read_text()
            .splitlines()[1:]
        ]
        assert events[-1] == "interrupted", events
    finally:
        faults.clear()
    with DaemonHarness(state_dir=state) as harness:
        detail = harness.wait(job_id)
        assert detail["status"] == "done"
        assert detail["result"]["status"] == "OK"
        split = detail["result"]["obligations"]
        assert 0 < split["cached"] and split["executed"] < split["total"]
        assert detail["attempts"] >= 2


def test_inprocess_deadline_fires_and_leaves_warm_tables_intact():
    """Jobs run on a worker thread, where the polled deadline fires: an
    I2 hang ends the job TIMEOUT within 2 s. The same request on the same
    daemon with the fault cleared then matches a fresh daemon's status
    and check counts, so the timeout left no warm table half-updated."""
    reset_process_cache()
    with DaemonHarness() as harness:
        fresh = harness.run_job(PINGPONG)["result"]
    reset_process_cache()
    faults.install(
        faults.FaultInjector([faults.FaultSpec(key="I2", mode="hang")])
    )
    try:
        with DaemonHarness(timeout_per_obligation=0.3) as harness:
            started = time.perf_counter()
            hung = harness.run_job(PINGPONG)
            elapsed = time.perf_counter() - started
            faults.clear()
            warm = harness.run_job(PINGPONG)["result"]
    finally:
        faults.clear()
    assert hung["status"] == "done" and hung["result"]["status"] == "TIMEOUT"
    assert elapsed < 2.0
    assert warm["status"] == fresh["status"] == "OK"
    assert warm["is_checks"] == fresh["is_checks"]


def test_job_journal_header_fault_at_boot_is_not_fatal(tmp_path):
    """A disk fault on the fresh job journal's header write must not
    stop the daemon from listening: it counts in /healthz, and the next
    job event lands behind a fresh header."""
    faults.install(faults.FaultInjector.from_env("jobs.append=enospc:1"))
    try:
        with DaemonHarness(state_dir=str(tmp_path)) as harness:
            _status, health = harness.get("/healthz")
            assert health["store"]["write_errors"] == 1
            detail = harness.run_job(PINGPONG)
            assert detail["status"] == "done"
    finally:
        faults.clear()
    lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["schema"] == "repro.serve/jobs/v1"
    assert json.loads(lines[-1])["event"] == "finished"


def test_stale_job_journal_is_set_aside_not_fatal(tmp_path):
    (tmp_path / "jobs.jsonl").write_text('{"schema": "other/v1"}\n')
    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        detail = harness.run_job(PINGPONG)
        assert detail["status"] == "done"
    assert (tmp_path / "jobs.jsonl.stale").exists()
