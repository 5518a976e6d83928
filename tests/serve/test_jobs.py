"""Job model and job journal: validation, fingerprints, restart replay."""

from __future__ import annotations

import json

import pytest

from repro.engine.recordlog import StaleLogError
from repro.serve.jobs import (
    JOBS_SCHEMA,
    Job,
    JobRequest,
    JobStore,
)

# ------------------------------------------------------------------ #
# JobRequest validation and canonicalization
# ------------------------------------------------------------------ #


def test_verify_request_round_trips_through_payload():
    request = JobRequest.from_payload(
        {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 4}}
    )
    assert request.describe() == "verify pingpong"
    again = JobRequest.from_payload(request.as_payload())
    assert again == request
    assert again.fingerprint == request.fingerprint


@pytest.mark.parametrize(
    "payload,match",
    [
        ([], "JSON object"),
        ({"kind": "frobnicate"}, "kind must be one of"),
        ({"kind": "verify"}, "'protocol'"),
        ({"kind": "explain"}, "'fixture'"),
        ({"kind": "verify", "protocol": "pingpong", "zzz": 1}, "unknown fields"),
        (
            {"kind": "verify", "protocol": "pingpong", "params": [1]},
            "'params' must be",
        ),
        (
            {
                "kind": "verify",
                "protocol": "pingpong",
                "params": {"rounds": {"nested": 1}},
            },
            "scalar or array",
        ),
        (
            {"kind": "verify", "protocol": "pingpong", "max_configs": 0},
            "max_configs",
        ),
        (
            {"kind": "verify", "protocol": "pingpong", "ground_truth": "yes"},
            "ground_truth",
        ),
    ],
)
def test_malformed_requests_are_rejected_with_presentable_errors(
    payload, match
):
    with pytest.raises(ValueError, match=match):
        JobRequest.from_payload(payload)


def test_fingerprint_ignores_param_order_but_not_values():
    a = JobRequest.from_payload(
        {"kind": "verify", "protocol": "paxos",
         "params": {"rounds": 2, "num_nodes": 2}}
    )
    b = JobRequest.from_payload(
        {"kind": "verify", "protocol": "paxos",
         "params": {"num_nodes": 2, "rounds": 2}}
    )
    c = JobRequest.from_payload(
        {"kind": "verify", "protocol": "paxos",
         "params": {"rounds": 3, "num_nodes": 2}}
    )
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


# ------------------------------------------------------------------ #
# JobStore journal
# ------------------------------------------------------------------ #


def _job(job_id="job-0001-abc", **payload) -> Job:
    payload.setdefault("kind", "verify")
    payload.setdefault("protocol", "pingpong")
    return Job(id=job_id, request=JobRequest.from_payload(payload))


def test_journal_round_trip_folds_events_newest_wins(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    job = _job()
    store.record("submitted", job)
    job.status = "running"
    job.attempts = 1
    store.record("started", job)
    job.status = "done"
    job.result = {"status": "OK", "ok": True}
    store.record("finished", job)
    store.close()

    loaded, events = JobStore.load(path)
    assert [j.id for j in loaded] == [job.id]
    replayed = loaded[0]
    assert replayed.status == "done"
    assert replayed.result == {"status": "OK", "ok": True}
    assert replayed.attempts == 1
    assert [e["event"] for e in events] == ["submitted", "started", "finished"]


def test_unfinished_jobs_are_the_restart_backlog(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    finished, interrupted, queued = _job("a"), _job("b"), _job("c")
    for job in (finished, interrupted, queued):
        store.record("submitted", job)
    finished.status = "done"
    store.record("started", finished)
    store.record("finished", finished)
    store.record("started", interrupted)
    store.record("interrupted", interrupted)
    store.close()

    loaded, _ = JobStore.load(path)
    by_id = {j.id: j.status for j in loaded}
    assert by_id == {"a": "done", "b": "interrupted", "c": "queued"}


def test_torn_tail_is_dropped_not_fatal(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    job = _job()
    store.record("submitted", job)
    store.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"event": "finished", "id": "job-0001-abc", "stat')

    loaded, _ = JobStore.load(path)
    assert loaded[0].status == "queued"  # the torn 'finished' never lands


def test_fingerprint_mismatch_drops_the_record(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    job = _job()
    store.record("submitted", job)
    store.close()
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["request"]["protocol"] = "paxos"  # tampered: hash no longer matches
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")

    loaded, _ = JobStore.load(path)
    assert loaded == []


def test_wrong_schema_raises_stale(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"schema": "someone/elses/v9"}\n')
    with pytest.raises(StaleLogError):
        JobStore.load(path)


def test_reopen_appends_instead_of_truncating(tmp_path):
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    store.record("submitted", _job())
    store.close()
    store = JobStore(path)
    store.open()  # append mode: the header is not rewritten
    store.record("submitted", _job("job-0002-def"))
    store.close()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == JOBS_SCHEMA
    assert len(lines) == 3
    loaded, _ = JobStore.load(path)
    assert [j.id for j in loaded] == ["job-0001-abc", "job-0002-def"]


def test_fsync_policy_header_finished_interrupted_only(tmp_path, monkeypatch):
    """The serve path's durability cost is pinned: one fsync for the
    header and one per ``finished``/``interrupted`` event; ``submitted``
    and ``started`` are flushed, never fsync'd."""
    fsyncs = []
    monkeypatch.setattr("repro.engine.recordlog.os.fsync", fsyncs.append)
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.open()
    assert len(fsyncs) == 1  # the header
    done, stopped = _job("a"), _job("b")
    for job in (done, stopped):
        store.record("submitted", job)
        store.record("started", job)
    assert len(fsyncs) == 1
    assert len(path.read_text().splitlines()) == 5  # flushed all the same
    done.status = "done"
    store.record("finished", done)
    assert len(fsyncs) == 2
    store.record("interrupted", stopped)
    assert len(fsyncs) == 3
    store.close()
