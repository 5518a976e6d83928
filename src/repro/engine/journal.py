"""Checkpoint journal: crash-safe, append-only persistence of completed
obligation outcomes.

A long verification run that dies at obligation 47/50 should not restart
from zero. Under ``--checkpoint DIR`` the schedulers append one JSON
record per *completed* obligation to a journal file and fsync at wave
boundaries (the pool), at most once a second (the serial backend — see
:meth:`repro.engine.recordlog.RecordLog.maybe_sync`), and on interrupt,
so the file on disk is always a valid prefix of the run; ``--resume``
loads the journal on restart and skips every journaled obligation,
seeding its recorded verdict into the fail-fast logic so downstream
skipping decisions are unchanged.

The file is a :class:`~repro.engine.recordlog.RecordLog` (schema-tagged
header, one JSON object per line, torn-tail recovery, fsync policy,
disk-fault degradation), one per discharge run (one IS application),
named after the checkpoint label:

* the header carries the schema tag, the run *fingerprint*, the label,
  and the obligation count;
* every further line is one completed obligation:
  ``{"key", "name", "holds", "checked", "elapsed", "attempts",
  "witnesses"}`` — witnesses, when present, are a base64-wrapped pickle
  of the typed counterexample list (stores and transitions are arbitrary
  Python values; the JSON envelope stays greppable, the payload stays
  exact).

The **staleness guard**: the fingerprint hashes the obligation keys, the
application frame (``M``, ``E``, abstraction names, program actions) and
the universe size. A journal whose fingerprint does not match the
current run — the program changed, the instance parameters changed, the
sharding layout changed — is refused with
:class:`~repro.engine.recordlog.StaleLogError` rather than silently
merging verdicts from a different proof. The load is a *prefix* fold:
nothing after the first record that fails to decode is trusted.

Only genuinely completed outcomes are journaled. Timeouts, crashes, and
fail-fast skips are not: a resumed run should re-attempt them.

**Disk faults degrade, never abort.** A failed append or fsync closes
the log (see :mod:`repro.engine.recordlog`), and the journal stays
*degraded* for the rest of its run: the run continues without
checkpoints, exactly as if ``--checkpoint`` had not been passed. The
cost is bounded and sound: a later resume re-executes what was never
journaled; it can never load a wrong verdict, because nothing was
written. ``discharge()`` surfaces the degradation as a
``journal-write-error`` resilience event.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.refinement import CheckResult
from .recordlog import RecordLog, StaleLogError, read_log

__all__ = [
    "JOURNAL_SCHEMA",
    "JournaledOutcome",
    "CheckpointJournal",
    "run_fingerprint",
]

JOURNAL_SCHEMA = "repro.engine/journal/v1"

_KIND = "an obligation journal"


def run_fingerprint(app, universe, obligations: Sequence) -> str:
    """Identity hash of one discharge run, for the staleness guard.

    Covers the obligation keys (and hence the sharding layout), the
    application frame, and the universe size — everything that decides
    whether a journaled ``CheckResult`` is still the answer to the same
    question. Deliberately cheap: it does not hash the stores themselves
    (that would cost a universe walk per run); the reachable-universe
    size plus the program's action names pin instances apart in
    practice.
    """
    digest = hashlib.sha256()
    digest.update("\n".join(ob.key for ob in obligations).encode())
    digest.update(b"\x00")
    digest.update(
        "|".join(
            (
                getattr(app, "m_name", "") or "",
                ",".join(getattr(app, "eliminated", ()) or ()),
                ",".join(sorted(getattr(app, "abstractions", {}) or {})),
                ",".join(app.program.action_names()) if app is not None else "",
            )
        ).encode()
    )
    digest.update(b"\x00")
    digest.update(str(len(universe.globals_) if universe is not None else 0).encode())
    return digest.hexdigest()


def _slug(label: Optional[str]) -> str:
    if not label:
        return ""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-")


@dataclass
class JournaledOutcome:
    """One record loaded from a journal (or the result cache): enough to
    rebuild the ``CheckResult`` and seed the fail-fast verdict map."""

    key: str
    holds: bool
    checked: int
    name: str
    elapsed: float
    attempts: int
    witnesses_b64: Optional[str] = None

    @staticmethod
    def record_of(outcome) -> dict:
        """The JSON record of one completed scheduler outcome."""
        result = outcome.result
        return {
            "key": outcome.key,
            "name": result.name,
            "holds": result.holds,
            "checked": result.checked,
            "elapsed": round(outcome.elapsed, 6),
            "attempts": getattr(outcome, "attempts", 1),
            "witnesses": (
                base64.b64encode(pickle.dumps(result.counterexamples)).decode()
                if result.counterexamples
                else None
            ),
        }

    @classmethod
    def from_record(cls, record: dict) -> "JournaledOutcome":
        """Decode one record; raises on anything malformed — the witness
        payload included, which must decode now, not at merge time."""
        outcome = cls(
            key=record["key"],
            holds=bool(record["holds"]),
            checked=int(record["checked"]),
            name=record["name"],
            elapsed=float(record.get("elapsed", 0.0)),
            attempts=int(record.get("attempts", 1)),
            witnesses_b64=record.get("witnesses"),
        )
        outcome.to_result()
        return outcome

    def to_result(self) -> CheckResult:
        counterexamples: List = []
        if self.witnesses_b64:
            counterexamples = pickle.loads(base64.b64decode(self.witnesses_b64))
        return CheckResult(
            self.name, self.holds, counterexamples, checked=self.checked
        )


class CheckpointJournal:
    """Append-only writer (and loader) of one run's outcome journal."""

    def __init__(self, log: RecordLog):
        self._log = log
        self.path = log.path
        self.appended = 0

    @property
    def write_errors(self) -> int:
        """Failed journal writes, each degraded to a skipped checkpoint."""
        return self._log.write_errors

    @property
    def degraded(self) -> bool:
        """Latched by the first failed write: the log closed and this
        run never reopens it."""
        return self._log.write_errors > 0

    @classmethod
    def open(
        cls,
        directory: Union[str, os.PathLike],
        label: Optional[str],
        fingerprint: str,
        num_obligations: int,
        resume: bool = False,
    ) -> Tuple["CheckpointJournal", Dict[str, JournaledOutcome]]:
        """Open (creating or resuming) the journal for one run.

        Returns the writer plus the already-journaled outcomes by key —
        empty unless ``resume`` found a matching journal. Without
        ``resume`` an existing journal is truncated and restarted (the
        caller asked for a fresh run). With ``resume``, a journal whose
        fingerprint mismatches raises :class:`StaleLogError`; one with
        no valid header (this run's own disk-fault artifact) restarts
        fresh on open, so resuming it is resuming from zero.
        """
        name = _slug(label) or f"run-{fingerprint[:12]}"
        header = {
            "schema": JOURNAL_SCHEMA,
            "fingerprint": fingerprint,
            "label": label or "",
            "obligations": num_obligations,
        }
        log = RecordLog(
            Path(directory) / f"{name}.jsonl", header, _KIND, "journal.append"
        )
        journal = cls(log)
        opened = log.open(fresh=not resume)
        if not (opened and resume):
            return journal, {}
        try:
            return journal, cls.load(log.path, fingerprint)
        except OSError:
            # An unreadable journal (EIO, revoked permissions) is a
            # missing journal, not a fatal one: resume from zero.
            return journal, {}
        except StaleLogError:
            journal.close()
            raise

    @classmethod
    def load(cls, path, fingerprint: Optional[str]) -> Dict[str, JournaledOutcome]:
        """Load a journal's completed outcomes, newest record winning.

        Raises :class:`StaleLogError` when the header is missing,
        unreadable, has the wrong schema, or carries a different
        fingerprint. The load stops at the first record that does not
        decode — everything after an unreadable line is untrusted.
        """
        header, records = read_log(path, JOURNAL_SCHEMA, _KIND)
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise StaleLogError(
                f"{path}: stale journal — it records a different run "
                f"(journal fingerprint {str(header.get('fingerprint'))[:12]}…, "
                f"this run {fingerprint[:12]}…); refusing to resume. "
                f"Delete the journal or drop --resume to start fresh."
            )
        completed: Dict[str, JournaledOutcome] = {}
        for record in records:
            try:
                outcome = JournaledOutcome.from_record(record)
            except Exception:  # None (undecodable line) or a bad record
                break
            completed[outcome.key] = outcome
        return completed

    def record(self, outcome) -> bool:
        """Append one scheduler outcome; returns True when written.

        Only completed results are journaled — skipped, timed-out,
        crashed, and resumed-from-journal outcomes are not (a resumed run
        must re-attempt them; resumed ones are already on disk).
        """
        result = getattr(outcome, "result", None)
        if result is None or getattr(outcome, "resumed", False):
            return False
        if not self._log.append(JournaledOutcome.record_of(outcome)):
            return False
        self.appended += 1
        return True

    def sync(self) -> None:
        """fsync — at wave boundaries and on interrupt, so a kill between
        waves never loses a completed wave."""
        self._log.sync()

    def maybe_sync(self, min_interval: float = 1.0) -> None:
        self._log.maybe_sync(min_interval)

    def close(self) -> None:
        self._log.close()

    def __repr__(self) -> str:
        return f"CheckpointJournal({self.path}, appended={self.appended})"
