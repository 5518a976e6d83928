"""Disk-fault degradation: every write path tolerates ``OSError``.

The contract under test (see ``repro.engine.faults`` "Filesystem
faults"): an injected ``enospc``/``eio``/``eperm``/``torn`` fault on a
write site never aborts a run — the result cache degrades to a counted
miss and ``discharge`` surfaces an ``rcache-write-error`` resilience
event; the record log closes on a failed write and refuses further
appends; and the serve job store drops the one damaged record and
recovers on the next append. Verdicts are byte-identical to a fault-free
run throughout.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.refinement import CheckResult
from repro.engine.faults import FAULTS_ENV, FaultInjector, clear, install
from repro.engine.obligations import discharge
from repro.engine.rcache import ObligationCache
from repro.engine.recordlog import RecordLog, StaleLogError, read_log
from repro.engine.scheduler import ObligationOutcome
from repro.serve.jobs import Job, JobRequest, JobStore

from .rcache_cases import build


@pytest.fixture(autouse=True)
def _no_injector(monkeypatch):
    clear()
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield
    clear()


def _outcome(key="I1", holds=True):
    return ObligationOutcome(
        key,
        CheckResult(key, holds, [], checked=3),
        elapsed=0.01,
        pid=os.getpid(),
        attempts=1,
    )


FP = "a" * 64


# --------------------------------------------------------------------- #
# ObligationCache.store() — the satellite bugfix regression
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", ["enospc", "eio", "eperm"])
def test_store_oserror_degrades_to_counted_miss(tmp_path, mode):
    """A failed entry write must not propagate: ``store()`` returns
    False and ``write_errors`` counts it (``--cache-stats`` prints it)."""
    install(FaultInjector.from_env(f"rcache.store={mode}"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1
    assert cache.stats.stores == 0
    assert not list(cache.objects_dir.glob("*"))
    # The entry never landed: a later lookup is an ordinary miss.
    assert cache.lookup(FP, "id1", "I1") is None
    assert cache.stats.misses == 1


def test_store_recovers_once_disk_pressure_clears(tmp_path):
    """``times``-bounded fault: the first store fails, the second (same
    cache object, same entry) succeeds — no poisoned state."""
    install(FaultInjector.from_env("rcache.store=enospc:1"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.store(FP, "id1", "I1", _outcome()) is True
    assert cache.stats.write_errors == 1
    assert cache.stats.stores == 1
    assert cache.lookup(FP, "id1", "I1") is not None


def test_torn_store_entry_is_a_lookup_miss(tmp_path):
    """A torn write lands a truncated entry on the final path; the
    reader must treat it as a miss, never a parse error."""
    install(FaultInjector.from_env("rcache.store=torn"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1
    torn = cache.objects_dir / f"{FP}.json"
    assert torn.exists() and torn.read_text()  # partial bytes landed
    assert cache.lookup(FP, "id1", "I1") is None


def test_discharge_completes_under_store_faults(tmp_path):
    """End-to-end regression for the original bug: ``discharge()`` with
    a cache on a full disk used to die in ``store()``. It must now
    finish with the fault-free verdict and surface the failures in the
    stats that ``--cache-stats`` prints."""
    app, universe = build("pingpong")
    reference = discharge(app, universe)
    install(FaultInjector.from_env("rcache.store=enospc:1000"))
    cache = ObligationCache(tmp_path / "rc")
    result = discharge(app, universe, cache=cache)
    assert result.holds is reference.holds
    assert result.num_obligations == reference.num_obligations
    assert cache.stats.stores == 0
    assert cache.stats.write_errors >= result.num_obligations
    # Nothing was persisted, so a fresh faultless run is all misses —
    # and then populates the cache normally.
    clear()
    warm = discharge(app, universe, cache=cache)
    assert warm.holds is reference.holds
    assert cache.stats.stores > 0


def test_index_flush_fault_keeps_index_dirty(tmp_path):
    install(FaultInjector.from_env("rcache.index=eio:1"))
    cache = ObligationCache(tmp_path / "rc")
    assert cache.store(FP, "id1", "I1", _outcome()) is True
    cache.flush()
    assert cache.stats.write_errors == 1
    assert not cache.index_path.exists()
    cache.flush()  # fault exhausted: the retry lands the index
    assert json.loads(cache.index_path.read_text())


def test_unwritable_cache_directory_disables_cache(tmp_path):
    """If even mkdir fails the cache opens disabled: every lookup is a
    miss, every store a counted write_error, nothing raises."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = ObligationCache(blocker / "rc")
    assert cache.disabled
    assert cache.lookup(FP, "id1", "I1") is None
    assert cache.store(FP, "id1", "I1", _outcome()) is False
    assert cache.stats.write_errors == 1  # the failed mkdir
    assert len(cache) == 0


# --------------------------------------------------------------------- #
# The record log — degrade, never abort
# --------------------------------------------------------------------- #

SCHEMA = "repro.test/log/v1"
KIND = "a test log"


def _log(path) -> RecordLog:
    return RecordLog(path, {"schema": SCHEMA}, KIND, "jobs.append")


def test_journal_append_fault_latches_degraded(tmp_path):
    """A failed append closes the log: it counts once, and every later
    append is refused without another write or a raise (the job store
    reopens on its next record; the log itself never does)."""
    log = _log(tmp_path / "case.jsonl")
    assert log.open(fresh=True)
    install(FaultInjector.from_env("jobs.append=eio"))
    assert log.append({"key": "A"}) is False
    assert not log.is_open
    assert log.write_errors == 1
    assert log.append({"key": "B"}) is False
    assert log.write_errors == 1
    log.close()
    clear()
    assert read_log(log.path, SCHEMA, KIND)[1] == []


def test_torn_journal_append_leaves_loadable_prefix(tmp_path):
    """A torn append writes half a record; the torn-tail recovery must
    drop exactly that line on reload — and a reopened log's own appends
    must survive it (the reopen truncates the torn half-line instead of
    fusing the next record onto it)."""
    path = tmp_path / "case.jsonl"
    log = _log(path)
    log.open(fresh=True)
    assert log.append({"key": "A"})
    install(FaultInjector.from_env("jobs.append=torn"))
    assert log.append({"key": "B"}) is False
    log.close()
    clear()
    assert read_log(path, SCHEMA, KIND)[1] == [{"key": "A"}]
    reopened = _log(path)
    assert reopened.open()
    assert reopened.append({"key": "C"})
    reopened.close()
    assert read_log(path, SCHEMA, KIND)[1] == [{"key": "A"}, {"key": "C"}]


def test_headerless_journal_resumes_from_zero_not_stale(tmp_path):
    """Found by the chaos soak: a header write killed by EIO leaves an
    empty log file; a later append-open must restart it fresh, not
    refuse it as stale. Reading a *parseable* foreign header still
    refuses."""
    path = tmp_path / "case.jsonl"
    install(FaultInjector.from_env("jobs.append=eio:1"))
    broken = _log(path)
    assert broken.open() is False
    clear()
    assert path.read_bytes() == b""
    log = _log(path)
    assert log.open()
    assert log.append({"key": "A"})  # appending works again
    log.close()
    assert read_log(path, SCHEMA, KIND)[1] == [{"key": "A"}]
    path.write_text('{"schema": "other/v1"}\n{"key": "A"}\n')
    with pytest.raises(StaleLogError, match="not a test log"):
        read_log(path, SCHEMA, KIND)


def test_discharge_surfaces_journal_degradation_as_event(tmp_path):
    """A run whose result-cache writes die mid-flight still completes
    with the fault-free verdict, and ``discharge()`` appends one
    ``rcache-write-error`` resilience event so operators see that a
    rerun would re-execute what was not stored."""
    app, universe = build("pingpong")
    reference = discharge(app, universe)
    install(FaultInjector.from_env("rcache.store=enospc:3"))
    result = discharge(app, universe, cache=tmp_path / "rc")
    assert result == reference
    assert result.rcache_stats["write_errors"] == 3
    events = [
        e for e in result.resilience_events if e.kind == "rcache-write-error"
    ]
    assert len(events) == 1
    assert "degraded" in events[0].detail


# --------------------------------------------------------------------- #
# Serve job store — per-record retry, damaged lines skipped
# --------------------------------------------------------------------- #


def _job(job_id="job-1", rounds=2):
    request = JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"rounds": rounds}}
    )
    return Job(id=job_id, request=request, submitted_at=0.0)


def test_job_store_recovers_after_append_fault(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.open()
    first, second = _job("job-1", rounds=2), _job("job-2", rounds=3)
    assert store.record("submitted", first)
    install(FaultInjector.from_env("jobs.append=enospc:1"))
    assert store.record("submitted", second) is False
    assert store.write_errors == 1
    # The very next append reopens the file and lands.
    first.status = "done"
    assert store.record("finished", first, status="done")
    store.close()
    clear()
    jobs, _events = JobStore.load(tmp_path / "jobs.jsonl")
    by_id = {j.id: j for j in jobs}
    assert by_id["job-1"].status == "done"
    assert "job-2" not in by_id  # the one lost record, nothing else


def test_job_store_torn_append_damages_only_one_record(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.open()
    assert store.record("submitted", _job("job-1", rounds=2))
    install(FaultInjector.from_env("jobs.append=torn:1"))
    assert store.record("submitted", _job("job-2", rounds=3)) is False
    clear()
    # Recovery path: reopen repairs the torn tail (newline) so this
    # record starts on a fresh line instead of gluing onto the stub.
    assert store.record("submitted", _job("job-3", rounds=4))
    store.close()
    jobs, _events = JobStore.load(tmp_path / "jobs.jsonl")
    ids = {j.id for j in jobs}
    assert "job-1" in ids
    assert "job-2" not in ids
    assert "job-3" in ids


def test_job_store_header_fault_at_boot_degrades(tmp_path):
    """A disk fault on the very first write — the header of a fresh job
    journal — must not raise out of ``open()`` (the daemon would fail to
    boot). It counts, and the next record lands behind a fresh header."""
    path = tmp_path / "jobs.jsonl"
    install(FaultInjector.from_env("jobs.append=enospc:1"))
    store = JobStore(path)
    store.open()
    assert store.write_errors == 1
    assert store.record("submitted", _job("job-1"))
    store.close()
    clear()
    assert store.write_errors == 1
    jobs, _events = JobStore.load(path)
    assert [j.id for j in jobs] == ["job-1"]
