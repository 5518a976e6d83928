"""The ``/healthz`` v2 schema: the operator's one-glance surface.

PR-pinned contract: every key an operations dashboard (or the chaos
drill) reads must exist with the right shape, for both isolation modes,
from the first request onward. Additive evolution only — removing or
renaming a key here is a breaking change for deployed scrapers.
"""

from __future__ import annotations

from repro.serve.daemon import HEALTH_SCHEMA

from .test_daemon import PINGPONG, DaemonHarness

#: Top-level keys every healthz response must carry.
REQUIRED_KEYS = {
    "schema",
    "status",
    "uptime_seconds",
    "queue",
    "jobs",
    "counters",
    "sandbox",
    "store",
    "rcache",
    "warm",
}


def test_schema_version_is_v2():
    assert HEALTH_SCHEMA == "repro.serve/healthz/v2"


def test_healthz_shape_in_process_mode(tmp_path):
    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        _status, health = harness.get("/healthz")
        assert REQUIRED_KEYS <= set(health)
        assert health["schema"] == HEALTH_SCHEMA
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["queue"].keys() == {"depth", "capacity"}
        assert health["counters"] == {
            "executed": 0,
            "failed": 0,
            "crashed": 0,
            "interrupted": 0,
        }
        # In-process mode: the sandbox section says so, explicitly.
        assert health["sandbox"] == {"enabled": False}
        assert health["store"] == {"write_errors": 0}
        # state_dir arms the rcache, so its counters are a dict here.
        assert health["rcache"]["write_errors"] == 0
        assert "stats" in health["warm"]


def test_healthz_counts_work_after_jobs(tmp_path):
    with DaemonHarness(state_dir=str(tmp_path)) as harness:
        first = harness.run_job(PINGPONG)
        second = harness.run_job(PINGPONG)
        _status, health = harness.get("/healthz")
        assert health["counters"]["executed"] == 2
        assert health["counters"]["failed"] == 0
        assert health["jobs"] == {"done": 2}
        # First run populated the result cache (the repeat is served by
        # the in-memory warm memo, one level above the rcache).
        assert health["rcache"]["stores"] > 0
        assert health["rcache"]["write_errors"] == 0
        # Its universe was explored once and stored; the repeat's came
        # from the warm memo, so neither job's delta nor the total reads
        # a universe from disk.
        assert first["result"]["rcache"]["universe_misses"] == 1
        assert second["result"]["rcache"]["universe_misses"] == 0
        assert health["rcache"]["universe_misses"] == 1
        assert health["rcache"]["universe_hits"] == 0


def test_healthz_sandbox_section_when_sandboxed():
    with DaemonHarness(sandbox=True) as harness:
        harness.run_job(PINGPONG)
        _status, health = harness.get("/healthz")
        sandbox = health["sandbox"]
        assert sandbox["enabled"] is True
        assert sandbox["alive"] is True
        assert isinstance(sandbox["worker_pid"], int)
        assert sandbox["spawns"] == 1
        assert sandbox["restarts"] == 0
        assert sandbox["jobs"] == 1
        assert set(sandbox["limits"]) == {
            "max_rss_mb",
            "cpu_seconds",
            "recycle_after",
            "applied",
        }
        assert sandbox["breaker"] == {"threshold": 2, "open": []}
        # Cacheless daemon: rcache section is explicit null, not absent.
        assert health["rcache"] is None
