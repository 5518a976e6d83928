"""Crash-point enumeration of both durable stores: the engine's
result-cache entries and the serve job journal's record log.

In the style of Pillai et al., "All File Systems Are Not Created Equal"
(OSDI 2014): rather than sampling crashes, construct every state a crash
or a disk fault can leave behind and check that recovery reaches a
correct state from each one.

* **Every byte offset.** Job-journal appends are sequential, so a crash
  leaves some byte prefix of the file: a job journal covering all four
  lifecycle events is cut at every offset, must load as a record prefix
  (or refuse with ``StaleLogError`` when the header itself is cut), and
  an append-open plus one more record must read that record back. Every
  stored pingpong result-cache entry is cut at every offset too: a cut
  entry is a miss, never a verdict, and re-storing the obligation
  replaces it.
* **Every fault at every write.** Each fs fault mode fires at each
  result-cache store and at each job-journal append (the header
  included).
* **End to end.** A pingpong run killed after every obligation, at every
  stage of the next entry's write — mid temp-file, before the rename,
  after the rename but before the index flush, and a torn final file
  (every byte in the slow lane) — reruns with the same cache to the
  uncached verdicts, re-executing only what never completed.
* **Universe and stage entries.** A pingpong verify killed at every
  stage of one universe or stage entry's write — mid temp-file, before
  the rename, a torn or a zero-length final file — reruns to the
  uncached report, loading each whole entry and re-exploring the crashed
  one; ``gc`` then leaves no temp file behind.
"""

from __future__ import annotations

import base64
import json
import pickle
import shutil
import subprocess
import sys

import pytest

from repro.engine.faults import FAULTS_ENV, FaultInjector, clear, install
from repro.engine.obligations import build_obligations, discharge
from repro.engine.rcache import DependencyFingerprinter, ObligationCache
from repro.engine.recordlog import StaleLogError
from repro.protocols import pingpong as pingpong_protocol
from repro.serve.daemon import FINISHED_STATES
from repro.serve.jobs import Job, JobRequest, JobStore

from .rcache_cases import build, count_executions, report_verdicts

FS_MODES = ("enospc", "eio", "eperm", "torn")

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
    """Fires ``mode`` on the ``index``-th write to ``site`` (for a log, 0
    is the header) and on no other write."""

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


@pytest.fixture(scope="module")
def pingpong():
    """``(app, universe, uncached reference result)``."""
    app, universe = build("pingpong")
    return app, universe, discharge(app, universe)


@pytest.fixture(scope="module")
def entries(pingpong, tmp_path_factory):
    """``[(key, fingerprint, identity, entry bytes)]`` of a real pingpong
    run's stores, in completion (build) order."""
    app, universe, _reference = pingpong
    cache = ObligationCache(tmp_path_factory.mktemp("rcache"))
    discharge(app, universe, cache=cache)
    fingerprinter = DependencyFingerprinter(app, universe)
    stored = []
    for ob in build_obligations(app, universe):
        fingerprint = fingerprinter.fingerprint(ob)
        data = (cache.objects_dir / f"{fingerprint}.json").read_bytes()
        stored.append((ob.key, fingerprint, fingerprinter.identity(ob), data))
    assert len(stored) == len({fp for _, fp, _, _ in stored}) > 1
    return stored


def _verdict(data: bytes) -> dict:
    """An entry's record minus its wall-clock ``elapsed``."""
    record = json.loads(data)
    del record["elapsed"]
    return record


def _killed_cache(directory, entries, done: int):
    """A cache directory as a kill after ``done`` completed stores leaves
    it: those entries whole, no index (it is flushed once, at the end)."""
    cache = ObligationCache(directory)
    for _key, fingerprint, _identity, data in entries[:done]:
        (cache.objects_dir / f"{fingerprint}.json").write_bytes(data)
    return cache


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


def test_engine_journal_cut_at_every_byte_recovers_a_prefix(
    tmp_path, pingpong, entries
):
    """Every stored entry cut at every byte offset: only the whole entry
    is served, a cut one is a miss, and storing the re-executed outcome
    over the cut file restores the entry."""
    app, universe, reference = pingpong
    cache = ObligationCache(tmp_path)
    for key, fingerprint, identity, data in entries:
        path = cache.objects_dir / f"{fingerprint}.json"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            entry = cache.lookup(fingerprint, identity, key)
            if cut < len(data):
                assert entry is None, (key, cut)
            else:
                assert entry.key == key and entry.holds
        path.write_bytes(data[: len(data) // 2])
    assert cache.stats.hits == len(entries)
    # A rerun over every torn entry re-executes all of them and stores
    # them back whole.
    with count_executions() as executed:
        rerun = discharge(app, universe, cache=cache)
    assert rerun == reference and not rerun.cached_keys
    assert len(executed) == len(entries)
    for _key, fingerprint, _identity, data in entries:
        path = cache.objects_dir / f"{fingerprint}.json"
        assert _verdict(path.read_bytes()) == _verdict(data)


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
def test_engine_journal_fault_at_every_append(tmp_path, pingpong, entries, mode):
    """A fault at each store keeps the run's verdicts, loses exactly that
    entry (a torn one lands but never decodes), and surfaces one
    ``rcache-write-error`` event; the rerun with the same cache executes
    only the lost obligation and stores it."""
    app, universe, reference = pingpong
    keys = [key for key, *_ in entries]
    for index, (key, fingerprint, _identity, data) in enumerate(entries):
        directory = tmp_path / f"{mode}-{index}"
        install(FaultAtAppend("rcache.store", mode, index))
        faulted = discharge(app, universe, cache=directory)
        clear()
        assert faulted == reference, index
        assert faulted.rcache_stats["write_errors"] == 1, index
        kinds = [e.kind for e in faulted.resilience_events]
        assert kinds == ["rcache-write-error"], index
        path = ObligationCache(directory).objects_dir / f"{fingerprint}.json"
        assert path.exists() == (mode == "torn"), index
        with count_executions() as executed:
            rerun = discharge(app, universe, cache=directory)
        assert rerun == reference, index
        assert executed == [key], index
        assert rerun.cached_keys == sorted(set(keys) - {key}), index
        assert _verdict(path.read_bytes()) == _verdict(data), index


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
# End to end: rerun from every crash point of an entry write
# --------------------------------------------------------------------- #


def _crash_states(data: bytes, every_byte: bool):
    """``(stage, cut, landed)`` for each crash point of one entry write:
    the temp file cut (mid temp-file) or whole (before the rename), the
    entry renamed into place but the index never flushed, and the final
    file torn (at every byte with ``every_byte``; nothing reads a temp
    file, so its cuts stay few). ``landed`` says whether the entry
    counts as stored."""
    yield from (("temp", cut, False) for cut in (0, len(data) // 2, len(data)))
    yield ("renamed", len(data), True)
    cuts = range(len(data)) if every_byte else (0, len(data) // 2)
    yield from (("torn", cut, False) for cut in cuts)


@pytest.mark.parametrize(
    "every_byte", [False, pytest.param(True, marks=pytest.mark.slow)]
)
def test_resume_from_every_crash_point_matches_uncheckpointed(
    tmp_path, pingpong, entries, every_byte
):
    app, universe, reference = pingpong
    keys = [key for key, *_ in entries]
    run = 0
    for done, (_key, fingerprint, _identity, data) in enumerate(entries):
        for stage, cut, landed in _crash_states(data, every_byte):
            run += 1
            cache = _killed_cache(tmp_path / f"run-{run}", entries, done)
            final = cache.objects_dir / f"{fingerprint}.json"
            if stage == "temp":
                final.with_name(f".{final.name}.1.tmp").write_bytes(data[:cut])
            else:
                final.write_bytes(data[:cut])
            assert not cache.index_path.exists()
            served = set(keys[: done + landed])
            with count_executions() as executed:
                rerun = discharge(app, universe, cache=cache.directory)
            assert rerun == reference, (stage, done, cut)
            assert set(rerun.cached_keys) == served, (stage, done, cut)
            assert set(executed) == set(keys) - served, (stage, done, cut)
            assert _verdict(final.read_bytes()) == _verdict(data), (stage, done)
            assert len(ObligationCache(cache.directory)) == len(keys)


# --------------------------------------------------------------------- #
# Universe and stage entries: rerun from every crash point of a write
# --------------------------------------------------------------------- #


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.fixture(scope="module")
def input_entries(tmp_path_factory):
    """``(uncached report, warm cache directory, [(kind, fingerprint,
    entry bytes)])`` of a cold cached pingpong verify: one universe entry
    and the spec and ground-truth stage entries."""
    directory = tmp_path_factory.mktemp("inputs")
    pingpong_protocol.verify(rounds=2, cache=directory)
    stored = [
        (json.loads(path.read_bytes())["kind"], path.stem, path.read_bytes())
        for path in sorted((directory / "inputs").glob("*.json"))
    ]
    assert sorted(kind for kind, _, _ in stored) == ["stage", "stage", "universe"]
    return pingpong_protocol.verify(rounds=2), directory, stored


def _input_crash_states(data: bytes):
    """``(stage, cut, landed)`` for each crash point of one input entry
    write: the temp file cut or whole (the rename never happened), the
    final file torn or zero-length, and the whole entry renamed."""
    yield from (("temp", cut, False) for cut in (len(data) // 2, len(data)))
    yield from (("torn", cut, False) for cut in (len(data) // 2, 0))
    yield ("renamed", len(data), True)


def _decoded(data: bytes):
    """An input entry's record with its pickled value decoded."""
    record = json.loads(data)
    return record, pickle.loads(base64.b64decode(record.pop("value")))


def test_rerun_from_every_crash_point_of_an_input_entry(tmp_path, input_entries):
    reference, warm, stored = input_entries
    dead = _dead_pid()
    for index, (kind, fingerprint, data) in enumerate(stored):
        for stage, cut, landed in _input_crash_states(data):
            directory = tmp_path / f"{index}-{stage}-{cut}"
            shutil.copytree(warm, directory)
            final = directory / "inputs" / f"{fingerprint}.json"
            if stage == "temp":
                final.unlink()
                final.with_name(f".{final.name}.{dead}.tmp").write_bytes(data[:cut])
            else:
                final.write_bytes(data[:cut])
            cache = ObligationCache(directory)
            with count_executions() as executed:
                rerun = pingpong_protocol.verify(rounds=2, cache=cache)
            point = (kind, stage, cut)
            assert report_verdicts(rerun) == report_verdicts(reference), point
            assert executed == [], point
            stats = cache.stats
            assert (stats.universe_hits, stats.universe_misses) == (
                (1, 0) if landed or kind != "universe" else (0, 1)
            ), point
            assert (stats.stage_hits, stats.stage_misses) == (
                (2, 0) if landed or kind != "stage" else (1, 1)
            ), point
            # The crashed entry is whole again; gc sweeps the dead temp.
            assert _decoded(final.read_bytes()) == _decoded(data), point
            assert cache.gc()["temps"] == (stage == "temp"), point
            info = cache.size_info()
            assert (info["inputs"], info["temps"]) == (3, 0), point
