"""Job model and the daemon's restart journal.

A *job* is one verification request: ``verify`` (one protocol),
``table1`` (the full sweep), or ``explain`` (a seeded diagnostic
fixture). Its lifecycle is ``queued -> running -> done`` with two
off-ramps: ``interrupted`` (the daemon was stopped mid-run — the job is
re-enqueued on restart and its obligation-level progress survives in the
result cache, which stores each obligation as it completes) and
``failed`` (the request itself was unservable: unknown protocol, bad
parameters).

Persistence is one :class:`~repro.engine.recordlog.RecordLog`
(schema-tagged header, torn-tail recovery, disk-fault degradation) with
fingerprint-guarded records. The *fingerprint* here is the canonical
hash of the request payload: every record carries both the id and the
fingerprint, and a loaded record whose embedded request no longer hashes
to its recorded fingerprint is dropped as corrupt.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..engine.recordlog import RecordLog, read_log

__all__ = [
    "JOBS_SCHEMA",
    "JOB_KINDS",
    "Job",
    "JobRequest",
    "JobStore",
]

JOBS_SCHEMA = "repro.serve/jobs/v1"
_KIND = "a job journal"
JOB_KINDS = ("verify", "table1", "explain")

#: Job parameters forwarded verbatim to ``<protocol>.verify(...)``; an
#: allowlist, so a typo'd parameter is a 400 instead of a TypeError deep
#: inside a worker thread. Protocol-specific instance parameters (rounds,
#: n, num_nodes, ...) ride in the nested ``params`` object.
REQUEST_FIELDS = ("kind", "protocol", "fixture", "params", "max_configs",
                  "fail_fast", "ground_truth")


@dataclass(frozen=True)
class JobRequest:
    """One validated, canonicalized job request.

    ``params`` are protocol instance parameters passed through to the
    ``verify()`` pipeline (e.g. ``{"rounds": 4}``); only JSON scalars
    and arrays are accepted, so the canonical encoding — and hence the
    fingerprint — is total.
    """

    kind: str
    protocol: Optional[str] = None
    fixture: Optional[str] = None
    params: Tuple[Tuple[str, object], ...] = ()
    max_configs: Optional[int] = None
    fail_fast: bool = False
    ground_truth: Optional[bool] = None

    @classmethod
    def from_payload(cls, payload: object) -> "JobRequest":
        """Validate a decoded POST body; raises ``ValueError`` with a
        client-presentable message on anything malformed."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ValueError(f"unknown fields: {', '.join(unknown)}")
        kind = payload.get("kind")
        if kind not in JOB_KINDS:
            raise ValueError(
                f"kind must be one of {', '.join(JOB_KINDS)}, got {kind!r}"
            )
        protocol = payload.get("protocol")
        fixture = payload.get("fixture")
        if kind == "verify" and not isinstance(protocol, str):
            raise ValueError("verify jobs need a 'protocol' string")
        if kind == "explain" and not isinstance(fixture, str):
            raise ValueError("explain jobs need a 'fixture' string")
        raw_params = payload.get("params") or {}
        if not isinstance(raw_params, dict):
            raise ValueError("'params' must be a JSON object")
        for key, value in raw_params.items():
            if not isinstance(value, (int, float, str, bool, list, type(None))):
                raise ValueError(f"param {key!r} must be a JSON scalar or array")
        params = tuple(
            (str(k), tuple(v) if isinstance(v, list) else v)
            for k, v in sorted(raw_params.items())
        )
        max_configs = payload.get("max_configs")
        if max_configs is not None and (
            not isinstance(max_configs, int) or max_configs < 1
        ):
            raise ValueError("'max_configs' must be a positive integer")
        ground_truth = payload.get("ground_truth")
        if ground_truth is not None and not isinstance(ground_truth, bool):
            raise ValueError("'ground_truth' must be a boolean")
        return cls(
            kind=kind,
            protocol=protocol,
            fixture=fixture,
            params=params,
            max_configs=max_configs,
            fail_fast=bool(payload.get("fail_fast", False)),
            ground_truth=ground_truth,
        )

    def as_payload(self) -> dict:
        """The canonical JSON object (journal records, status endpoint)."""
        payload: Dict[str, object] = {"kind": self.kind}
        if self.protocol is not None:
            payload["protocol"] = self.protocol
        if self.fixture is not None:
            payload["fixture"] = self.fixture
        if self.params:
            payload["params"] = {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in self.params
            }
        if self.max_configs is not None:
            payload["max_configs"] = self.max_configs
        if self.fail_fast:
            payload["fail_fast"] = True
        if self.ground_truth is not None:
            payload["ground_truth"] = self.ground_truth
        return payload

    @property
    def fingerprint(self) -> str:
        """Content hash of the canonical request — the identity that
        guards journal records and keys the sandbox circuit breaker."""
        canon = json.dumps(self.as_payload(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        if self.kind == "verify":
            return f"verify {self.protocol}"
        if self.kind == "explain":
            return f"explain {self.fixture}"
        return "table1"


@dataclass
class Job:
    """One admitted job and everything the status endpoint reports."""

    id: str
    request: JobRequest
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint

    @property
    def elapsed(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def summary(self) -> dict:
        payload: Dict[str, object] = {
            "id": self.id,
            "kind": self.request.kind,
            "describe": self.request.describe(),
            "status": self.status,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
        }
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
            payload["elapsed_seconds"] = round(self.elapsed or 0.0, 6)
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def detail(self) -> dict:
        payload = self.summary()
        payload["request"] = self.request.as_payload()
        if self.result is not None:
            payload["result"] = self.result
        return payload


class JobStore:
    """Append-only journal of job lifecycle events.

    Layout: a :class:`~repro.engine.recordlog.RecordLog` whose records
    are events — ``submitted`` (carries the full request), ``started``,
    ``finished`` (carries the result payload), ``interrupted``.
    :meth:`load` folds the events newest-wins into per-job state; jobs
    whose latest event is not ``finished`` are the restart backlog.
    ``finished`` and ``interrupted`` are fsync'd; ``submitted`` and
    ``started`` are only flushed, which survives the daemon dying but
    not the machine.

    Disk faults degrade, never abort — the header write at boot
    included: a failed write counts in ``write_errors`` and closes the
    log, and the *next* record reopens it (a long-lived daemon should
    resume journaling once disk pressure clears).
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._log = RecordLog(
            self.path, {"schema": JOBS_SCHEMA}, _KIND, "jobs.append"
        )
        self._opened = False

    @property
    def write_errors(self) -> int:
        """Failed appends, each degraded to a lost journal record (the
        in-memory job state is unaffected; /healthz surfaces these)."""
        return self._log.write_errors

    @classmethod
    def load(cls, path) -> Tuple[List[Job], List[dict]]:
        """Replay a journal into ``(jobs, raw_events)``, in submit order.

        Raises :class:`~repro.engine.recordlog.StaleLogError` when the
        header is missing or belongs to another schema. Undecodable
        lines and records whose embedded request no longer matches their
        recorded fingerprint are dropped *individually* — every record
        carries its own fingerprint guard, so a line torn by a mid-file
        disk fault (or a hand-edit) only loses itself, never the jobs
        journaled after it.
        """
        _header, records = read_log(path, JOBS_SCHEMA, _KIND)
        jobs: Dict[str, Job] = {}
        order: List[str] = []
        events: List[dict] = []
        for record in records:
            try:
                event = record["event"]
                job_id = record["id"]
            except (TypeError, KeyError):
                continue  # damaged line: drop it, records are
                # individually fingerprint-guarded below
            if event == "submitted":
                try:
                    request = JobRequest.from_payload(record["request"])
                except (KeyError, ValueError):
                    continue
                if request.fingerprint != record.get("fingerprint"):
                    continue  # corrupt or tampered record: drop it
                job = Job(
                    id=job_id,
                    request=request,
                    submitted_at=float(record.get("at", 0.0)),
                )
                jobs[job_id] = job
                order.append(job_id)
            else:
                job = jobs.get(job_id)
                if job is None:
                    continue
                if record.get("fingerprint") != job.fingerprint:
                    continue
                if event == "started":
                    job.status = "running"
                    job.started_at = float(record.get("at", 0.0))
                    job.attempts = int(record.get("attempts", job.attempts + 1))
                elif event == "finished":
                    job.status = str(record.get("status", "done"))
                    job.finished_at = float(record.get("at", 0.0))
                    job.result = record.get("result")
                    job.error = record.get("error")
                elif event == "interrupted":
                    job.status = "interrupted"
            events.append(record)
        return [jobs[job_id] for job_id in order], events

    def open(self, fresh: bool = False) -> None:
        """Open for appending (see :meth:`RecordLog.open`); a failure
        only counts, and the next :meth:`record` retries."""
        self._opened = True
        self._log.open(fresh)

    def record(self, event: str, job: Job, **extra) -> bool:
        """Append one lifecycle event; False when the disk refused it.

        A failed write closes the log; the next call reopens it, so
        journaling resumes once transient disk pressure (ENOSPC, EIO)
        clears.
        """
        payload: Dict[str, object] = {
            "event": event,
            "id": job.id,
            "fingerprint": job.fingerprint,
            "at": time.time(),
        }
        if event == "submitted":
            payload["request"] = job.request.as_payload()
        if event == "started":
            payload["attempts"] = job.attempts
        if event == "finished":
            payload["status"] = job.status
            payload["result"] = job.result
            if job.error is not None:
                payload["error"] = job.error
        payload.update(extra)
        if not self._log.is_open:
            if not self._opened:
                raise RuntimeError("job store is closed")
            if not self._log.open():
                return False
        return self._log.append(
            payload, sync=event in ("finished", "interrupted")
        )

    def close(self) -> None:
        self._log.close()
