"""Durable outcome records: the record log and the result-cache entry.

Two formats keep what a run has finished. The record log
(``repro.engine.recordlog``) is the serve job journal's file: the file on
disk is always a valid prefix (header + one JSON line per record), and a
truncated trailing record — the writer died mid-append — is dropped
rather than poisoning the load. The result cache's entry
(``repro.engine.rcache.CacheEntry``) is the engine's record of one
completed obligation: only completed outcomes are stored, each the moment
the scheduler records it, and an entry that does not answer exactly the
question asked is never served.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.engine.obligations as obligations_mod
from repro.core.refinement import CheckResult
from repro.engine.obligations import Obligation, build_obligations, discharge
from repro.engine.rcache import CacheEntry, DependencyFingerprinter, ObligationCache
from repro.engine.recordlog import RecordLog, StaleLogError, read_log
from repro.engine.scheduler import ObligationOutcome, SerialScheduler

from .rcache_cases import build, count_executions, rebuild

CHAIN = [
    Obligation(key="A", kind="abs", condition="A"),
    Obligation(key="B", kind="I1", condition="B", deps=("A",)),
    Obligation(key="C", kind="I2", condition="C", deps=("B",)),
    Obligation(key="D", kind="CO", condition="D"),
]

FP = "f" * 64
SCHEMA = "repro.test/log/v1"
KIND = "a test log"


def _completed(key, holds=True, checked=7, witnesses=()):
    return ObligationOutcome(
        key,
        CheckResult(key, holds, list(witnesses), checked=checked),
        elapsed=0.25,
        pid=os.getpid(),
        attempts=1,
    )


def _log(path) -> RecordLog:
    return RecordLog(path, {"schema": SCHEMA}, KIND, "jobs.append")


def _records(path):
    _header, records = read_log(path, SCHEMA, KIND)
    return records


# --------------------------------------------------------------------- #
# Fingerprint
# --------------------------------------------------------------------- #


def test_fingerprint_is_deterministic_and_key_sensitive():
    app, universe = build("pingpong")
    obligations = build_obligations(app, universe)
    first = DependencyFingerprinter(app, universe)
    again = DependencyFingerprinter(app, universe)
    fingerprints = [first.fingerprint(ob) for ob in obligations]
    assert fingerprints == [again.fingerprint(ob) for ob in obligations]
    assert len(set(fingerprints)) == len(obligations)


def test_resume_under_a_different_code_digest_is_stale(tmp_path):
    """An edit to the code an obligation reads moves its fingerprint: a
    rerun against entries stored before the edit re-executes exactly the
    readers, never replaying their old verdicts."""
    app, universe = build("pingpong")
    first = app.check(universe, cache=tmp_path)
    with count_executions() as executed:
        again = app.check(universe, cache=tmp_path)
    assert not executed and again.conditions == first.conditions

    gate = app.invariant.gate
    edited = rebuild(
        app,
        invariant=type(app.invariant)(
            app.invariant.name,
            lambda state: bool(gate(state)),
            app.invariant.transitions,
            app.invariant.params,
        ),
    )
    with count_executions() as executed:
        rerun = edited.check(universe, cache=tmp_path)
    assert {"I1", "I2"} <= set(executed)
    assert not set(executed) & set(rerun.cached_keys)
    assert rerun.rcache_stats["invalidations"] == len(executed)


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


def test_fresh_journal_writes_header_then_records(tmp_path):
    path = tmp_path / "demo.jsonl"
    log = _log(path)
    assert log.open(fresh=True)
    assert log.append({"key": "A", "holds": True})
    log.close()

    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"schema": SCHEMA}
    assert json.loads(lines[1]) == {"key": "A", "holds": True}
    assert _records(path) == [{"key": "A", "holds": True}]


def test_only_completed_outcomes_are_journaled(tmp_path):
    cache = ObligationCache(tmp_path)
    pid = os.getpid()
    skipped = ObligationOutcome("B", None, 0.0, pid)
    timed_out = ObligationOutcome("C", None, 1.0, pid, timed_out=True)
    crashed = ObligationOutcome("D", None, 1.0, pid, error="FaultError: boom")
    cached = _completed("A")
    cached.cached = True
    for outcome in (skipped, timed_out, crashed, cached):
        assert not cache.store(FP, "id", outcome.key, outcome)
    assert cache.store(FP, "id", "A", _completed("A"))
    assert len(cache) == 1 and cache.stats.stores == 1


def test_witnesses_roundtrip_through_base64_pickle(tmp_path):
    outcome = _completed("A", holds=False, witnesses=[("store", 1), ("store", 2)])
    record = CacheEntry.record_of(outcome)
    assert isinstance(record["witnesses"], str)
    assert json.loads(json.dumps(record)) == record
    result = CacheEntry.from_record(record).to_result()
    assert result.holds is False
    assert result.counterexamples == [("store", 1), ("store", 2)]

    cache = ObligationCache(tmp_path)
    assert cache.store(FP, "id", "A", outcome)
    stored = ObligationCache(tmp_path).lookup(FP, "id", "A").to_result()
    assert stored.counterexamples == [("store", 1), ("store", 2)]


def test_open_without_resume_truncates_existing_journal(tmp_path):
    path = tmp_path / "demo.jsonl"
    log = _log(path)
    log.open(fresh=True)
    log.append({"key": "A"})
    log.close()
    fresh = _log(path)
    assert fresh.open(fresh=True)
    fresh.close()
    assert _records(path) == []
    assert len(path.read_text().splitlines()) == 1


def test_resume_loads_completed_outcomes_and_appends(tmp_path):
    """A killed run's rerun with the same cache serves what completed
    and stores the rest, leaving every obligation stored."""
    app, universe = build("pingpong")
    keys = [ob.key for ob in build_obligations(app, universe)]
    cache = ObligationCache(tmp_path)
    outcomes = SerialScheduler().run(app, universe, build_obligations(app, universe))
    fingerprinter = DependencyFingerprinter(app, universe)
    by_key = {ob.key: ob for ob in build_obligations(app, universe)}
    for key in keys[:3]:  # the run died after three obligations
        ob = by_key[key]
        cache.store(
            fingerprinter.fingerprint(ob),
            fingerprinter.identity(ob),
            key,
            outcomes[key],
        )

    with count_executions() as executed:
        resumed = app.check(universe, cache=tmp_path)
    assert resumed.cached_keys == sorted(keys[:3])
    assert sorted(executed) == sorted(keys[3:])
    assert len(ObligationCache(tmp_path)) == len(keys)
    assert resumed == app.check(universe)


def test_newest_record_wins_on_duplicate_keys(tmp_path):
    cache = ObligationCache(tmp_path)
    cache.store(FP, "id", "A", _completed("A", holds=False))
    cache.store(FP, "id", "A", _completed("A", holds=True, checked=11))
    entry = ObligationCache(tmp_path).lookup(FP, "id", "A")
    assert entry.holds is True and entry.checked == 11


# --------------------------------------------------------------------- #
# Staleness guard and corruption
# --------------------------------------------------------------------- #


def test_resume_refuses_mismatched_fingerprint(tmp_path):
    """An entry is served only under the fingerprint it records: a file
    moved or copied to another fingerprint's name is a miss."""
    cache = ObligationCache(tmp_path)
    cache.store(FP, "id", "A", _completed("A"))
    other = "0" * 64
    (cache.objects_dir / f"{FP}.json").replace(cache.objects_dir / f"{other}.json")
    assert cache.lookup(other, "id", "A") is None
    assert cache.lookup(FP, "id", "A") is None
    assert cache.stats.hits == 0


def test_load_refuses_corrupted_header(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        read_log(path, SCHEMA, KIND)


def test_torn_multibyte_header_raises_stale_not_unicode_error(tmp_path):
    """Regression: a header torn mid-UTF-8-sequence used to escape as a
    raw ``UnicodeDecodeError`` from ``read_text`` before any guard ran —
    it must degrade to the same StaleLogError as other corruption."""
    path = tmp_path / "demo.jsonl"
    torn = '{"label": "café"'.encode("utf-8")[:-2]  # cut inside 'é'
    path.write_bytes(torn + b"\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        read_log(path, SCHEMA, KIND)


def test_binary_garbage_header_raises_stale_not_unicode_error(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(StaleLogError, match="unreadable header"):
        read_log(path, SCHEMA, KIND)


def test_torn_multibyte_trailing_record_is_dropped(tmp_path):
    """Byte-level torn tail: a record cut mid-multibyte-sequence drops
    exactly like one cut mid-JSON, keeping the valid prefix."""
    path = tmp_path / "demo.jsonl"
    log = _log(path)
    log.open(fresh=True)
    log.append({"key": "A"})
    log.close()
    with open(path, "ab") as handle:
        handle.write('{"key": "café'.encode("utf-8")[:-1])
    assert _records(path) == [{"key": "A"}]


def test_load_refuses_wrong_schema_and_empty_file(tmp_path):
    path = tmp_path / "demo.jsonl"
    path.write_text(json.dumps({"schema": "something/else"}) + "\n")
    with pytest.raises(StaleLogError, match="not a test log"):
        read_log(path, SCHEMA, KIND)
    path.write_text("")
    with pytest.raises(StaleLogError, match="empty journal"):
        read_log(path, SCHEMA, KIND)


def test_torn_trailing_record_is_dropped(tmp_path):
    path = tmp_path / "demo.jsonl"
    log = _log(path)
    log.open(fresh=True)
    log.append({"key": "A"})
    log.append({"key": "B"})
    log.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "C", "hol')  # the writer died mid-append
    assert _records(path) == [{"key": "A"}, {"key": "B"}]


def test_nothing_after_mid_file_corruption_is_trusted(tmp_path):
    """A damaged line reads back as ``None`` in place, so its owner sees
    where the damage is; and a result-cache entry whose JSON envelope
    decodes but whose witness payload does not is a miss, never a
    verdict."""
    path = tmp_path / "demo.jsonl"
    path.write_text(
        "\n".join([json.dumps({"schema": SCHEMA}), '{"key": "A"}', "garbage",
                   '{"key": "B"}']) + "\n"
    )
    assert _records(path) == [{"key": "A"}, None, {"key": "B"}]

    cache = ObligationCache(tmp_path / "rc")
    cache.store(FP, "id", "A", _completed("A", holds=False, witnesses=[1]))
    entry = cache.objects_dir / f"{FP}.json"
    record = json.loads(entry.read_text())
    record["witnesses"] = "bm90IGEgcGlja2xl"  # base64 of b"not a pickle"
    entry.write_text(json.dumps(record))
    assert cache.lookup(FP, "id", "A") is None
    assert cache.stats.hits == 0


# --------------------------------------------------------------------- #
# Scheduler integration: stored on completion, seeded verdicts
# --------------------------------------------------------------------- #


def test_serial_scheduler_journals_completed_outcomes(tmp_path, monkeypatch):
    """Every outcome reaches ``on_complete`` as the scheduler records it,
    and ``discharge`` stores each one, failures included."""
    monkeypatch.setattr(
        obligations_mod,
        "execute_obligation",
        lambda app, universe, ob, lm_universes=None: CheckResult(
            ob.key, ob.key != "A"
        ),
    )
    completed = []
    SerialScheduler().run(None, None, CHAIN, on_complete=completed.append)
    assert [o.key for o in completed] == ["A", "B", "C", "D"]
    assert completed[0].result.holds is False

    app, universe = build("pingpong")
    cache = ObligationCache(tmp_path)
    result = discharge(app, universe, cache=cache)
    assert cache.stats.stores == result.num_obligations == len(cache)


def test_seeded_verdicts_drive_fail_fast_skips(monkeypatch):
    """Resume semantics at the scheduler level: a stored FAIL for A must
    skip A's dependents exactly as a live FAIL would."""
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
