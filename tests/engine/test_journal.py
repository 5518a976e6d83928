"""Checkpoint journal format, staleness guard, and torn-tail recovery.

The journal's contract: the file on disk is always a valid prefix of the
run (header + one JSON line per *completed* obligation), a resume only
accepts a journal whose fingerprint matches the current run, and a
truncated trailing record — the writer died mid-append — is dropped
rather than poisoning the load.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.engine.obligations as obligations_mod
from repro.core.refinement import CheckResult
from repro.engine.journal import (
    JOURNAL_SCHEMA,
    CheckpointJournal,
    run_fingerprint,
)
from repro.engine.obligations import Obligation
from repro.engine.recordlog import StaleLogError
from repro.engine.scheduler import ObligationOutcome, SerialScheduler

CHAIN = [
    Obligation(key="A", kind="abs", condition="A"),
    Obligation(key="B", kind="I1", condition="B", deps=("A",)),
    Obligation(key="C", kind="I2", condition="C", deps=("B",)),
    Obligation(key="D", kind="CO", condition="D"),
]

FP = "f" * 64


def _completed(key, holds=True, checked=7, witnesses=()):
    return ObligationOutcome(
        key,
        CheckResult(key, holds, list(witnesses), checked=checked),
        elapsed=0.25,
        pid=os.getpid(),
        attempts=1,
    )


# --------------------------------------------------------------------- #
# Fingerprint
# --------------------------------------------------------------------- #


def test_fingerprint_is_deterministic_and_key_sensitive():
    fp = run_fingerprint(None, None, CHAIN)
    assert fp == run_fingerprint(None, None, CHAIN)
    assert fp != run_fingerprint(None, None, CHAIN[:-1])


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


def test_fresh_journal_writes_header_then_records(tmp_path):
    journal, completed = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    assert completed == {}
    assert journal.record(_completed("A"))
    journal.close()

    lines = (tmp_path / "demo.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "schema": JOURNAL_SCHEMA,
        "fingerprint": FP,
        "label": "demo",
        "obligations": 4,
    }
    record = json.loads(lines[1])
    assert record["key"] == "A" and record["holds"] is True
    assert record["checked"] == 7 and record["witnesses"] is None


def test_only_completed_outcomes_are_journaled(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    pid = os.getpid()
    skipped = ObligationOutcome("B", None, 0.0, pid)
    timed_out = ObligationOutcome("C", None, 1.0, pid, timed_out=True)
    crashed = ObligationOutcome("D", None, 1.0, pid, error="FaultError: boom")
    resumed = _completed("A")
    resumed.resumed = True
    assert not journal.record(skipped)
    assert not journal.record(timed_out)
    assert not journal.record(crashed)
    assert not journal.record(resumed)
    journal.close()
    assert len((tmp_path / "demo.jsonl").read_text().splitlines()) == 1


def test_witnesses_roundtrip_through_base64_pickle(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A", holds=False, witnesses=[("store", 1), ("store", 2)]))
    journal.close()

    loaded = CheckpointJournal.load(tmp_path / "demo.jsonl", FP)
    result = loaded["A"].to_result()
    assert result.holds is False
    assert result.counterexamples == [("store", 1), ("store", 2)]


def test_open_without_resume_truncates_existing_journal(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.close()
    journal, completed = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.close()
    assert completed == {}
    assert len((tmp_path / "demo.jsonl").read_text().splitlines()) == 1


def test_resume_loads_completed_outcomes_and_appends(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.record(_completed("B", holds=False))
    journal.close()

    journal, completed = CheckpointJournal.open(
        tmp_path, "demo", FP, 4, resume=True
    )
    assert set(completed) == {"A", "B"}
    assert completed["B"].holds is False
    # Appending after a resume extends the same file (no new header).
    journal.record(_completed("C"))
    journal.close()
    lines = (tmp_path / "demo.jsonl").read_text().splitlines()
    assert len(lines) == 4 and json.loads(lines[-1])["key"] == "C"


def test_newest_record_wins_on_duplicate_keys(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A", holds=False))
    journal.record(_completed("A", holds=True, checked=11))
    journal.close()
    loaded = CheckpointJournal.load(tmp_path / "demo.jsonl", FP)
    assert loaded["A"].holds is True and loaded["A"].checked == 11


def test_maybe_sync_flushes_but_throttles_fsync(tmp_path, monkeypatch):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    fsyncs = []
    monkeypatch.setattr(
        "repro.engine.journal.os.fsync", lambda fd: fsyncs.append(fd)
    )
    for key in ("A", "B", "C", "D"):
        journal.record(_completed(key))
        journal.maybe_sync(min_interval=3600.0)
    # Flushed (visible on disk) without one fsync per record.
    assert not fsyncs
    assert len((tmp_path / "demo.jsonl").read_text().splitlines()) == 5
    journal.sync()
    assert len(fsyncs) == 1
    journal.close()


# --------------------------------------------------------------------- #
# Staleness guard and corruption
# --------------------------------------------------------------------- #


def test_resume_refuses_mismatched_fingerprint(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.close()
    with pytest.raises(StaleLogError, match="different run"):
        CheckpointJournal.open(tmp_path, "demo", "0" * 64, 4, resume=True)


def test_load_refuses_corrupted_header(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        CheckpointJournal.load(path, FP)


def test_torn_multibyte_header_raises_stale_not_unicode_error(tmp_path):
    """Regression: a header torn mid-UTF-8-sequence used to escape as a
    raw ``UnicodeDecodeError`` from ``read_text`` before any guard ran —
    it must degrade to the same StaleLogError as other corruption."""
    path = tmp_path / "demo.jsonl"
    torn = '{"label": "café"'.encode("utf-8")[:-2]  # cut inside 'é'
    path.write_bytes(torn + b"\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        CheckpointJournal.load(path, FP)


def test_binary_garbage_header_raises_stale_not_unicode_error(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        CheckpointJournal.load(path, FP)


def test_torn_multibyte_trailing_record_is_dropped(tmp_path):
    """Byte-level torn tail: a record cut mid-multibyte-sequence drops
    exactly like one cut mid-JSON, keeping the valid prefix."""
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.close()
    path = tmp_path / "demo.jsonl"
    with open(path, "ab") as handle:
        handle.write('{"key": "café'.encode("utf-8")[:-1])
    loaded = CheckpointJournal.load(path, FP)
    assert set(loaded) == {"A"}


def test_load_refuses_wrong_schema_and_empty_file(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_text(json.dumps({"schema": "something/else"}) + "\n")
    with pytest.raises(StaleLogError, match="not an obligation journal"):
        CheckpointJournal.load(path, FP)
    path.write_text("")
    with pytest.raises(StaleLogError, match="empty journal"):
        CheckpointJournal.load(path, FP)


def test_torn_trailing_record_is_dropped(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.record(_completed("B"))
    journal.close()
    path = tmp_path / "demo.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "C", "hol')  # the writer died mid-append
    loaded = CheckpointJournal.load(path, FP)
    assert set(loaded) == {"A", "B"}


def test_nothing_after_mid_file_corruption_is_trusted(tmp_path):
    journal, _ = CheckpointJournal.open(tmp_path, "demo", FP, 4)
    journal.record(_completed("A"))
    journal.close()
    path = tmp_path / "demo.jsonl"
    lines = path.read_text().splitlines()
    good_tail = json.dumps(
        {"key": "B", "name": "B", "holds": True, "checked": 1}
    )
    path.write_text("\n".join([lines[0], lines[1], "garbage", good_tail]) + "\n")
    loaded = CheckpointJournal.load(path, FP)
    assert set(loaded) == {"A"}


def test_label_slug_sanitizes_path_hostile_characters(tmp_path):
    journal, _ = CheckpointJournal.open(
        tmp_path, "paxos-IS-Paxos (r=2/n=2)", FP, 4
    )
    journal.close()
    assert journal.path.parent == tmp_path
    assert journal.path.name == "paxos-IS-Paxos-r-2-n-2.jsonl"


# --------------------------------------------------------------------- #
# Scheduler integration: journal + seeded verdicts
# --------------------------------------------------------------------- #


def test_serial_scheduler_journals_completed_outcomes(tmp_path, monkeypatch):
    monkeypatch.setattr(
        obligations_mod,
        "execute_obligation",
        lambda app, universe, ob, lm_universes=None: CheckResult(
            ob.key, ob.key != "A"
        ),
    )
    journal, _ = CheckpointJournal.open(tmp_path, "run", FP, len(CHAIN))
    SerialScheduler().run(None, None, CHAIN, journal=journal)
    journal.close()
    loaded = CheckpointJournal.load(tmp_path / "run.jsonl", FP)
    assert set(loaded) == {"A", "B", "C", "D"}
    assert loaded["A"].holds is False and loaded["B"].holds is True


def test_seeded_verdicts_drive_fail_fast_skips(monkeypatch):
    """Resume semantics at the scheduler level: a journaled FAIL for A
    must skip A's dependents exactly as a live FAIL would."""
    monkeypatch.setattr(
        obligations_mod,
        "execute_obligation",
        lambda app, universe, ob, lm_universes=None: CheckResult(ob.key, True),
    )
    todo = [ob for ob in CHAIN if ob.key != "A"]
    outcomes = SerialScheduler().run(
        None, None, todo, fail_fast=True, seed_verdicts={"A": False}
    )
    assert outcomes["B"].skipped and outcomes["C"].skipped
    assert outcomes["D"].result is not None and outcomes["D"].result.holds
