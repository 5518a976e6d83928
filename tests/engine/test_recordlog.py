"""Crash-point enumeration of the record log under both journals.

In the style of Pillai et al., "All File Systems Are Not Created Equal"
(OSDI 2014): rather than sampling crashes, construct every state a crash
or a disk fault can leave behind and check that recovery reaches a
record prefix from each one.

* **Every byte offset.** Appends are sequential, so a crash leaves some
  byte prefix of the file. A real pingpong checkpoint journal and a job
  journal covering all four lifecycle events are cut at every offset;
  each cut must load as a record prefix (or refuse with
  ``StaleLogError`` when the header itself is cut), and an append-open
  plus one more record must read that record back.
* **Every fault at every append.** Each fs fault mode fires at each
  append index — the header included — on both write sites.
* **End to end.** Pingpong resumed from every record boundary and
  mid-record cut (every byte in the slow lane), and from every faulted
  run, must reproduce the uncheckpointed verdicts.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.refinement import CheckResult
from repro.engine.faults import FAULTS_ENV, FaultInjector, clear, install
from repro.engine.journal import CheckpointJournal
from repro.engine.obligations import discharge
from repro.engine.recordlog import StaleLogError
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import ObligationOutcome
from repro.serve.daemon import FINISHED_STATES
from repro.serve.jobs import Job, JobRequest, JobStore

from .rcache_cases import build

FS_MODES = ("enospc", "eio", "eperm", "torn")
LABEL = "pingpong"

#: A job journal script covering every lifecycle event: job a finishes,
#: b is interrupted and re-taken, c never leaves the queue.
JOB_SCRIPT = (
    ("submitted", "a"),
    ("submitted", "b"),
    ("started", "a"),
    ("finished", "a"),
    ("started", "b"),
    ("interrupted", "b"),
    ("submitted", "c"),
    ("started", "b"),
)


class FaultAtAppend(FaultInjector):
    """Fires ``mode`` on the ``index``-th write to ``site`` (0 is the
    header) and on no other write."""

    def __init__(self, site: str, mode: str, index: int) -> None:
        super().__init__()
        self.site, self.mode, self.index = site, mode, index
        self.writes = 0

    def fs_fault(self, key):
        if key != self.site:
            return None
        self.writes += 1
        return self.mode if self.writes - 1 == self.index else None


@pytest.fixture(autouse=True)
def _no_injector(monkeypatch):
    clear()
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    yield
    clear()


def _complete_lines(data: bytes, cut: int) -> int:
    """Lines (header included) whose newline lies inside ``data[:cut]``."""
    return data.count(b"\n", 0, cut)


def _extra_outcome():
    return ObligationOutcome(
        "extra", CheckResult("extra", True, [], checked=1), 0.0, os.getpid()
    )


def _checkpointed(app, universe, directory, resume=False):
    return discharge(
        app,
        universe,
        resilience=ResilienceConfig(checkpoint_dir=str(directory), resume=resume),
        checkpoint_label=LABEL,
    )


# --------------------------------------------------------------------- #
# The recorded logs
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def pingpong():
    """``(app, universe, uncheckpointed reference result)``."""
    app, universe = build("pingpong")
    return app, universe, discharge(app, universe)


@pytest.fixture(scope="module")
def engine_log(pingpong, tmp_path_factory):
    """``(bytes, fingerprint, record keys)`` of a real pingpong journal."""
    app, universe, _reference = pingpong
    directory = tmp_path_factory.mktemp("journal")
    _checkpointed(app, universe, directory)
    data = (directory / f"{LABEL}.jsonl").read_bytes()
    header, *records = data.splitlines()
    keys = [json.loads(line)["key"] for line in records]
    assert len(keys) == len(set(keys)) > 1
    return data, json.loads(header)["fingerprint"], keys


def _job(job_id: str) -> Job:
    request = JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"id": job_id}}
    )
    return Job(id=job_id, request=request, submitted_at=0.0)


def _play(store: JobStore, script) -> None:
    """Record ``script`` with the daemon's state transitions applied."""
    jobs = {}
    for event, job_id in script:
        job = jobs.setdefault(job_id, _job(job_id))
        if event == "started":
            job.status, job.attempts = "running", job.attempts + 1
        elif event == "finished":
            job.status, job.result = "done", {"status": "OK"}
        elif event == "interrupted":
            job.status = "interrupted"
        store.record(event, job)


def _fold(path):
    """The load, minus wall-clock fields: job states, events, backlog."""
    jobs, events = JobStore.load(path)
    return (
        [(j.id, j.status, j.attempts, j.result) for j in jobs],
        [(e["event"], e["id"]) for e in events],
        [j.id for j in jobs if j.status not in FINISHED_STATES],
    )


def _write_jobs(path, script) -> None:
    store = JobStore(path)
    store.open(fresh=True)
    _play(store, script)
    store.close()


@pytest.fixture(scope="module")
def jobs_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("jobs") / "jobs.jsonl"
    _write_jobs(path, JOB_SCRIPT)
    data = path.read_bytes()
    assert _complete_lines(data, len(data)) == 1 + len(JOB_SCRIPT)
    return data


# --------------------------------------------------------------------- #
# Every byte offset
# --------------------------------------------------------------------- #


def test_engine_journal_cut_at_every_byte_recovers_a_prefix(tmp_path, engine_log):
    data, fingerprint, keys = engine_log
    path = tmp_path / f"{LABEL}.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        records = _complete_lines(data, cut) - 1
        if records < 0:
            with pytest.raises(StaleLogError):
                CheckpointJournal.load(path, fingerprint)
        else:
            loaded = CheckpointJournal.load(path, fingerprint)
            assert list(loaded) == keys[:records], cut
        prefix = keys[: max(records, 0)]
        journal, completed = CheckpointJournal.open(
            tmp_path, LABEL, fingerprint, len(keys), resume=True
        )
        assert list(completed) == prefix, cut
        assert journal.record(_extra_outcome())
        journal.close()
        assert journal.write_errors == 0
        reloaded = CheckpointJournal.load(path, fingerprint)
        assert list(reloaded) == prefix + ["extra"], cut


def test_job_journal_cut_at_every_byte_recovers_a_prefix(tmp_path, jobs_log):
    data = jobs_log
    folds = []
    for records in range(len(JOB_SCRIPT) + 1):
        reference = tmp_path / f"prefix-{records}.jsonl"
        _write_jobs(reference, JOB_SCRIPT[:records])
        folds.append(_fold(reference))
    path = tmp_path / "jobs.jsonl"
    for cut in range(len(data) + 1):
        path.write_bytes(data[:cut])
        records = _complete_lines(data, cut) - 1
        if records < 0:
            with pytest.raises(StaleLogError):
                JobStore.load(path)
        else:
            # The backlog a restarted daemon re-enqueues is the fold of
            # an event prefix — never a state no prefix produces.
            assert _fold(path) == folds[records], cut
        store = JobStore(path)
        store.open()
        _play(store, [("submitted", "extra")])
        store.close()
        assert store.write_errors == 0
        jobs, events, backlog = _fold(path)
        _, prefix_events, prefix_backlog = folds[max(records, 0)]
        assert events == prefix_events + [("submitted", "extra")], cut
        assert backlog == prefix_backlog + ["extra"], cut


# --------------------------------------------------------------------- #
# Every fault mode at every append index
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("mode", FS_MODES)
def test_engine_journal_fault_at_every_append(tmp_path, pingpong, engine_log, mode):
    """The faulted run keeps its verdicts and leaves a record prefix (the
    journal latches off at the failed append); resuming from it reaches
    the uncheckpointed verdicts and journals every obligation."""
    app, universe, reference = pingpong
    _data, fingerprint, keys = engine_log
    path = tmp_path / f"{LABEL}.jsonl"
    for index in range(1 + len(keys)):
        install(FaultAtAppend("journal.append", mode, index))
        faulted = _checkpointed(app, universe, tmp_path)
        clear()
        assert faulted == reference, index
        kinds = [e.kind for e in faulted.resilience_events]
        assert kinds.count("journal-write-error") == 1, index
        prefix = keys[: max(index - 1, 0)]
        if index == 0:
            with pytest.raises(StaleLogError):
                CheckpointJournal.load(path, fingerprint)
        else:
            assert list(CheckpointJournal.load(path, fingerprint)) == prefix
        resumed = _checkpointed(app, universe, tmp_path, resume=True)
        assert resumed == reference, index
        assert resumed.resumed_keys == sorted(prefix), index
        assert set(CheckpointJournal.load(path, fingerprint)) == set(keys)


@pytest.mark.parametrize("mode", FS_MODES)
def test_job_journal_fault_at_every_append(tmp_path, jobs_log, mode):
    """Exactly the faulted event is lost — the header fault loses
    nothing, since the next append reopens behind a fresh header — and
    every later event lands intact."""
    lines = jobs_log.splitlines(keepends=True)
    for index in range(len(lines)):
        path = tmp_path / f"jobs-{index}.jsonl"
        install(FaultAtAppend("jobs.append", mode, index))
        store = JobStore(path)
        store.open()
        _play(store, JOB_SCRIPT)
        store.close()
        clear()
        assert store.write_errors == 1, index
        survivors = lines if index == 0 else lines[:index] + lines[index + 1 :]
        expected = tmp_path / f"expected-{index}.jsonl"
        expected.write_bytes(b"".join(survivors))
        assert _fold(path) == _fold(expected), index


# --------------------------------------------------------------------- #
# End to end: resume from every crash point
# --------------------------------------------------------------------- #


def _record_cuts(data: bytes):
    """Empty file, every record boundary, and the middle of every line."""
    ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    starts = [0] + ends[:-1]
    return sorted({0, *ends, *((s + e) // 2 for s, e in zip(starts, ends))})


@pytest.mark.parametrize(
    "every_byte", [False, pytest.param(True, marks=pytest.mark.slow)]
)
def test_resume_from_every_crash_point_matches_uncheckpointed(
    tmp_path, pingpong, engine_log, every_byte
):
    app, universe, reference = pingpong
    data, fingerprint, keys = engine_log
    path = tmp_path / f"{LABEL}.jsonl"
    cuts = range(len(data) + 1) if every_byte else _record_cuts(data)
    for cut in cuts:
        path.write_bytes(data[:cut])
        prefix = keys[: max(_complete_lines(data, cut) - 1, 0)]
        resumed = _checkpointed(app, universe, tmp_path, resume=True)
        assert resumed == reference, cut
        assert resumed.resumed_keys == sorted(prefix), cut
        assert set(CheckpointJournal.load(path, fingerprint)) == set(keys), cut
