"""Crash-isolated job execution: the ``repro serve`` sandbox.

An in-process job thread keeps warm state but isolates nothing: one
segfault, OOM kill or stray ``os._exit`` takes the whole service down.
This module splits execution from supervision:

* :func:`run_request` is the request-to-payload execution path itself,
  shared verbatim by the in-process daemon thread and the sandbox
  worker — one code path, two isolation levels.
* :class:`SandboxExecutor` (parent side) owns a supervised worker
  subprocess: spawn, ready handshake, JSONL command/result protocol over
  the worker's stdin/stdout, a heartbeat watchdog (``SIGKILL`` after
  ``heartbeat_grace`` without a pulse), recycle-after-N-jobs, and the
  degradation ladder below.
* :func:`worker_main` (child side) applies its own ``resource`` rlimits
  (RSS/CPU ceilings — self-applied after ``exec``, so no thread-unsafe
  ``preexec_fn``), builds its own :class:`~repro.engine.warm.WarmState`
  (the result cache is shared with the parent through the state
  directory; the resident records are per-process, so a recycled worker
  starts with none and loads its universes and stages from that cache),
  heartbeats from a daemon thread, and executes jobs one at a time.

Degradation ladder — each rung bounds the blast radius of the rung
above failing:

1. **Crash → respawn + retry.** A worker that exits, segfaults, is
   OOM-killed, or stops heartbeating is killed and respawned, and the
   job retried, up to ``max_respawns`` times per job. The retry attempt
   number is forwarded to the worker, so ``REPRO_FAULTS``
   ``sandbox.job=exit:1`` deterministically models "crash once, succeed
   on retry" across the process boundary.
2. **Repeat crasher → circuit breaker.** When one request fingerprint
   accumulates ``breaker_threshold`` consecutive sandbox crashes, the
   breaker opens *for that instance only*: further identical requests
   get an immediate typed ``CRASHED`` verdict (:func:`crashed_payload`)
   instead of a respawn loop. Other instances are unaffected — the unit
   of suspicion is the question, not the service.
3. **Optional in-process fallback.** With ``sandbox_fallback`` enabled
   the daemon runs the crashing job on its own thread as a last resort,
   and the payload is flagged (``sandbox.mode = "inprocess-fallback"``)
   so a report produced without isolation is never mistaken for one
   produced with it.

The daemon stays up through all of it: ``SIGKILL`` of the sandbox is
rung 1, and a daemon restart re-enqueues from the job journal as before
(the worker stores each completed obligation in the result cache under
the same state directory, so the re-run executes only what never
completed).

Protocol (one JSON object per line):

* parent → worker: ``{"op": "job", "job_id", "request", "budgets",
  "attempt"}`` and ``{"op": "exit"}``;
* worker → parent: ``{"type": "ready", "pid", "limits"}``,
  ``{"type": "heartbeat"}``, ``{"type": "spans", "job_id", "records"}``
  (live tracer forwarding: one frame per pipeline stage, each span as
  its JSON text, written with the next heartbeat or result),
  ``{"type": "result", "job_id", "payload"}``, ``{"type": "error",
  "job_id", "error"}`` (the job raised; the worker itself is fine).

The worker's real stdout is reserved for the protocol: ``worker_main``
dups it away and repoints ``sys.stdout`` (and fd 1) at stderr, so a
``print`` inside a protocol module can never corrupt a frame.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Set

from ..engine.resilience import poll
from .jobs import JobRequest

__all__ = [
    "SandboxConfig",
    "SandboxCrashed",
    "SandboxExecutor",
    "SandboxJobError",
    "crashed_payload",
    "run_request",
    "worker_main",
]


class SandboxJobError(Exception):
    """The *job* raised inside a healthy worker (bad request deep in the
    engine, an unpicklable witness, ...). Maps to a ``failed`` job, never
    to a respawn — the worker is fine."""


class SandboxCrashed(Exception):
    """The sandbox ladder ran out: the worker crashed (or hung) more
    than ``max_respawns`` times for one job."""

    def __init__(self, detail: str, crashes: int, breaker_open: bool):
        super().__init__(detail)
        self.detail = detail
        self.crashes = crashes
        self.breaker_open = breaker_open


@dataclass(frozen=True)
class SandboxConfig:
    """Supervision knobs for one :class:`SandboxExecutor`."""

    #: RLIMIT_AS ceiling for the worker, in MiB (None: unlimited).
    max_rss_mb: Optional[int] = None
    #: RLIMIT_CPU ceiling for the worker, in seconds (None: unlimited).
    cpu_seconds: Optional[int] = None
    #: Jobs per worker before a graceful replacement (leak hygiene).
    recycle_after: int = 64
    #: Seconds between worker heartbeats.
    heartbeat_interval: float = 1.0
    #: Seconds without *any* worker output before the watchdog kills it.
    heartbeat_grace: float = 20.0
    #: Seconds allowed for spawn + imports + ready handshake.
    boot_timeout: float = 60.0
    #: Respawn+retry attempts per job before giving up (ladder rung 1).
    max_respawns: int = 2
    #: Consecutive crashes for one request fingerprint that open its
    #: circuit breaker (ladder rung 2).
    breaker_threshold: int = 2


#: Sentinel returned by the reader when the worker's stdout hit EOF.
_EOF = object()


# ---------------------------------------------------------------------- #
# Shared execution path (daemon thread and sandbox worker)
# ---------------------------------------------------------------------- #


def run_request(
    request: JobRequest,
    warm,
    budgets: dict,
    tracer=None,
) -> dict:
    """Execute one validated request against a warm state; returns the
    JSON-ready result payload the daemon journals and serves.

    This is the single execution path for both isolation levels: the
    daemon's in-process worker thread calls it directly, the sandbox
    worker calls it inside the subprocess. ``budgets`` comes from
    ``ServeDaemon._budgets`` (already operator-clamped); its
    ``timeout_per_obligation``, when set, arms per-obligation deadlines.
    """
    from ..engine.resilience import ResilienceConfig
    from ..protocols.common import RunOptions

    rcache_before = None
    if warm.rcache is not None:
        rcache_before = warm.rcache.stats.snapshot()
    started = time.perf_counter()
    timeout = budgets.get("timeout_per_obligation")
    resilience = None
    if timeout is not None:
        resilience = ResilienceConfig(timeout_per_obligation=timeout)
    options = RunOptions(
        max_configs=budgets.get("max_configs"),
        fail_fast=request.fail_fast,
        tracer=tracer,
        resilience=resilience,
        warm=warm,
    )
    if request.kind == "verify":
        payload = _execute_verify(request, options)
    elif request.kind == "table1":
        payload = _execute_table1(options)
    else:
        payload = _execute_explain(request)
    payload["seconds"] = round(time.perf_counter() - started, 6)
    if budgets.get("clamped"):
        payload["budget_clamped"] = {
            "requested_max_configs": request.max_configs,
            "applied_max_configs": budgets.get("max_configs"),
        }
    if warm.rcache is not None:
        payload["rcache"] = warm.rcache.stats.delta(rcache_before)
    payload["warm"] = warm.stats.snapshot()
    return payload


def _execute_verify(request, options) -> dict:
    from ..protocols import ALL_PROTOCOLS

    params = {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in request.params
    }
    options = replace(
        options,
        symmetry=params.pop("symmetry", False),
        ground_truth=request.ground_truth,
    )
    report = ALL_PROTOCOLS[request.protocol].verify(**params, **vars(options))
    return report_payload(report)


def _execute_table1(options) -> dict:
    from ..analysis.table1 import build_table1

    rows = build_table1(**vars(options))
    reports = [row.report for row in rows if row.report is not None]
    payload = {
        "kind": "table1",
        "ok": all(row.ok for row in rows),
        "status": (
            "INTERRUPTED"
            if any(r.interrupted for r in reports)
            else ("OK" if all(row.ok for row in rows) else "FAILED")
        ),
        "rows": [
            {
                "example": row.example,
                "status": row.status,
                "ok": row.ok,
                "bounded": row.bounded,
                "num_is": row.num_is,
                "seconds": round(row.time_seconds, 6),
            }
            for row in rows
        ],
    }
    payload["obligations"] = obligation_split(reports)
    return payload


def _execute_explain(request) -> dict:
    from ..diagnose import explain_fixture
    from ..obs.export import failure_payload

    explanation = explain_fixture(request.fixture)
    return {
        "kind": "explain",
        "ok": explanation.all_confirmed,
        "status": "OK" if explanation.all_confirmed else "FAILED",
        "report": failure_payload(explanation),
    }


def report_payload(report) -> dict:
    """JSON-ready payload for one ``VerificationReport``."""
    payload = {
        "kind": "verify",
        "protocol": report.name,
        "parameters": dict(report.parameters),
        "ok": report.ok,
        "status": report.status,
        "bounded": report.bounded,
        "summary": report.summary(),
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
        "is_checks": [
            {
                "label": label,
                "holds": result.holds,
                "checked": result.total_checked,
            }
            for label, result in report.is_results
        ],
        "obligations": obligation_split([report]),
    }
    if report.budget is not None:
        payload["budget"] = str(report.budget)
    if report.interrupted:
        payload["interrupted"] = True
    return payload


def obligation_split(reports) -> dict:
    """total/executed/cached obligation counts over reports."""
    total = cached = 0
    for report in reports:
        for _label, result in report.is_results:
            total += result.num_obligations
            cached += len(result.cached_keys)
    return {"total": total, "executed": total - cached, "cached": cached}


def crashed_payload(request: JobRequest, crash: SandboxCrashed) -> dict:
    """The typed verdict a repeat-crashing instance gets instead of an
    unbounded respawn loop: honest (``ok: false``), distinguishable from
    both FAILED (a real counterexample) and a transport error."""
    payload: Dict[str, object] = {
        "kind": request.kind,
        "ok": False,
        "status": "CRASHED",
        "error": crash.detail,
        "sandbox": {
            "mode": "sandbox",
            "crashes": crash.crashes,
            "breaker_open": crash.breaker_open,
        },
    }
    if request.protocol is not None:
        payload["protocol"] = request.protocol
    if request.fixture is not None:
        payload["fixture"] = request.fixture
    return payload


# ---------------------------------------------------------------------- #
# Parent side: the supervisor
# ---------------------------------------------------------------------- #


class SandboxExecutor:
    """Supervises one verify-worker subprocess (see module docstring).

    Not thread-safe by design: the daemon executes jobs one at a time on
    a single worker thread, and that thread is the only caller of
    :meth:`execute`. ``describe()`` reads plain ints/strings and is safe
    to call from the event loop for ``/healthz``.
    """

    def __init__(
        self, config: SandboxConfig, state_dir: Optional[Path] = None
    ):
        self.config = config
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.stats = {"spawns": 0, "restarts": 0, "recycles": 0, "jobs": 0}
        self.worker_pid: Optional[int] = None
        self._proc: Optional[subprocess.Popen] = None
        self._buf = b""
        self._jobs_on_worker = 0
        self._worker_limits: dict = {}
        self._stderr_handle = None
        # Ladder rung 2: consecutive sandbox crashes per request
        # fingerprint; a completed execution (success OR job error)
        # resets its instance, an open breaker short-circuits it.
        self._crash_counts: Dict[str, int] = {}
        self._breaker_open: Set[str] = set()

    # ---------------------------- public ---------------------------- #

    def execute(
        self,
        job_id: str,
        request: JobRequest,
        budgets: dict,
        publish_spans=None,
    ) -> dict:
        """Run one job in the sandbox, climbing the degradation ladder.

        Returns the result payload; raises :class:`SandboxJobError` when
        the job itself raised (worker healthy), :class:`SandboxCrashed`
        when respawns are exhausted or the breaker is open, and
        ``KeyboardInterrupt`` once the calling thread's stop is requested
        (checked after each frame; heartbeats arrive every second).
        """
        fingerprint = request.fingerprint
        if fingerprint in self._breaker_open:
            raise SandboxCrashed(
                "circuit breaker open for this request: "
                f"{self._crash_counts.get(fingerprint, 0)} consecutive "
                "sandbox crashes",
                crashes=0,
                breaker_open=True,
            )
        crashes = 0
        while True:
            try:
                self._ensure_worker()
                payload = self._run_once(
                    job_id, request, budgets, publish_spans, attempt=crashes,
                )
            except SandboxJobError:
                self._note_completed(fingerprint)
                raise
            except _WorkerCrash as crash:
                self._kill_worker()
                self.stats["restarts"] += 1
                crashes += 1
                count = self._crash_counts.get(fingerprint, 0) + 1
                self._crash_counts[fingerprint] = count
                if crashes <= self.config.max_respawns:
                    continue
                breaker = count >= self.config.breaker_threshold
                if breaker:
                    self._breaker_open.add(fingerprint)
                raise SandboxCrashed(
                    str(crash), crashes=crashes, breaker_open=breaker
                ) from None
            else:
                self._note_completed(fingerprint)
                return payload

    def describe(self) -> dict:
        """Healthz-ready snapshot of the sandbox state."""
        alive = self._proc is not None and self._proc.poll() is None
        return {
            "enabled": True,
            "alive": alive,
            "worker_pid": self.worker_pid if alive else None,
            "spawns": self.stats["spawns"],
            "restarts": self.stats["restarts"],
            "recycles": self.stats["recycles"],
            "jobs": self.stats["jobs"],
            "limits": {
                "max_rss_mb": self.config.max_rss_mb,
                "cpu_seconds": self.config.cpu_seconds,
                "recycle_after": self.config.recycle_after,
                "applied": dict(self._worker_limits),
            },
            "breaker": {
                "threshold": self.config.breaker_threshold,
                "open": sorted(self._breaker_open),
            },
        }

    def shutdown(self) -> None:
        """Stop the worker (graceful exit, then kill) and close handles."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                self._send({"op": "exit"})
                proc.wait(timeout=1.0)
            except (OSError, subprocess.TimeoutExpired, ValueError):
                pass
        self._kill_worker()
        if self._stderr_handle is not None:
            try:
                self._stderr_handle.close()
            except OSError:
                pass
            self._stderr_handle = None

    # --------------------------- internals --------------------------- #

    def _note_completed(self, fingerprint: str) -> None:
        self._crash_counts.pop(fingerprint, None)
        self.stats["jobs"] += 1
        self._jobs_on_worker += 1
        if self._jobs_on_worker >= self.config.recycle_after:
            self._recycle()

    def _worker_command(self) -> list:
        wire = {
            "state_dir": str(self.state_dir) if self.state_dir else None,
            "max_rss_mb": self.config.max_rss_mb,
            "cpu_seconds": self.config.cpu_seconds,
            "heartbeat_interval": self.config.heartbeat_interval,
        }
        return [sys.executable, "-m", "repro.serve.executor", json.dumps(wire)]

    def _ensure_worker(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self._kill_worker()
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        stderr = subprocess.DEVNULL
        if self.state_dir is not None:
            if self._stderr_handle is None:
                try:
                    self.state_dir.mkdir(parents=True, exist_ok=True)
                    self._stderr_handle = open(
                        self.state_dir / "executor.stderr.log", "ab"
                    )
                except OSError:
                    self._stderr_handle = None
            if self._stderr_handle is not None:
                stderr = self._stderr_handle
        try:
            self._proc = subprocess.Popen(
                self._worker_command(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
        except OSError as exc:
            raise _WorkerCrash(f"worker spawn failed: {exc}") from exc
        self._buf = b""
        self._jobs_on_worker = 0
        self.stats["spawns"] += 1
        deadline = time.monotonic() + self.config.boot_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill_worker()
                raise _WorkerCrash(
                    f"worker ready handshake timed out "
                    f"({self.config.boot_timeout}s)"
                )
            msg = self._read_message(remaining)
            if msg is None:
                continue
            if msg is _EOF:
                code = self._proc.poll() if self._proc else None
                self._kill_worker()
                raise _WorkerCrash(f"worker died during boot (rc={code})")
            if msg.get("type") == "ready":
                self.worker_pid = msg.get("pid")
                self._worker_limits = msg.get("limits") or {}
                return

    def _run_once(
        self, job_id, request, budgets, publish_spans, attempt
    ) -> dict:
        self._send(
            {
                "op": "job",
                "job_id": job_id,
                "request": request.as_payload(),
                "budgets": budgets,
                "attempt": attempt,
            }
        )
        grace = self.config.heartbeat_grace
        spans: list = []
        while True:
            msg = self._read_message(grace)
            if msg is None:
                code = self._proc.poll() if self._proc else None
                raise _WorkerCrash(
                    f"worker heartbeat lost (no output for {grace}s, "
                    f"rc={code})"
                )
            if msg is _EOF:
                code = self._proc.poll() if self._proc else None
                raise _WorkerCrash(f"worker exited mid-job (rc={code})")
            kind, ours = msg.get("type"), msg.get("job_id") == job_id
            if kind == "spans" and ours:
                # Span frames wait in the worker for its next flushed frame;
                # all of them go out with it, in one hop to the daemon.
                spans.extend(msg.get("records") or [])
                continue
            if spans and publish_spans:
                try:
                    publish_spans(spans)
                except Exception:
                    publish_spans = None
            spans = []
            if kind == "result" and ours:
                payload = msg.get("payload")
                if not isinstance(payload, dict):
                    raise _WorkerCrash("worker returned a non-dict payload")
                return payload
            if kind == "error" and ours:
                raise SandboxJobError(str(msg.get("error")))
            # Anything else (heartbeat, stale result from a pre-crash job,
            # unknown frame) is skipped; the watchdog bounds the wait.
            poll()

    def _send(self, message: dict) -> None:
        proc = self._proc
        if proc is None or proc.stdin is None:
            raise _WorkerCrash("no worker to send to")
        try:
            proc.stdin.write((json.dumps(message) + "\n").encode("utf-8"))
            proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise _WorkerCrash(f"worker pipe closed: {exc}") from exc

    def _read_message(self, timeout: float):
        """One protocol frame, ``None`` on timeout, ``_EOF`` on EOF."""
        proc = self._proc
        if proc is None or proc.stdout is None:
            return _EOF
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line, self._buf = self._buf[:newline], self._buf[newline + 1:]
                if not line.strip():
                    continue
                try:
                    return json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue  # stray bytes on the protocol fd; skip
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                ready, _, _ = select.select([fd], [], [], remaining)
            except OSError:
                return _EOF
            if not ready:
                return None
            try:
                chunk = os.read(fd, 65536)
            except OSError:
                return _EOF
            if not chunk:
                return _EOF
            self._buf += chunk

    def _kill_worker(self) -> None:
        proc, self._proc = self._proc, None
        self.worker_pid = None
        self._buf = b""
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=5.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass

    def _recycle(self) -> None:
        """Graceful worker replacement after ``recycle_after`` jobs."""
        proc = self._proc
        if proc is not None and proc.poll() is None:
            try:
                self._send({"op": "exit"})
                proc.wait(timeout=2.0)
            except (_WorkerCrash, subprocess.TimeoutExpired):
                pass
        self._kill_worker()
        self.stats["recycles"] += 1


class _WorkerCrash(Exception):
    """Internal: one sandbox crash (ladder rung 1 input)."""


# ---------------------------------------------------------------------- #
# Child side: the worker
# ---------------------------------------------------------------------- #


def _apply_limits(
    max_rss_mb: Optional[int], cpu_seconds: Optional[int]
) -> dict:
    """Self-applied rlimits; returns what actually took effect."""
    applied: dict = {}
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return applied
    if max_rss_mb:
        limit = int(max_rss_mb) * 1024 * 1024
        try:
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
            applied["rlimit_as_bytes"] = limit
        except (ValueError, OSError):
            pass
    if cpu_seconds:
        try:
            _, hard = resource.getrlimit(resource.RLIMIT_CPU)
            resource.setrlimit(resource.RLIMIT_CPU, (int(cpu_seconds), hard))
            applied["rlimit_cpu_seconds"] = int(cpu_seconds)
        except (ValueError, OSError):
            pass
    return applied


def worker_main(argv: Optional[list] = None) -> int:
    """Entry point of the sandbox worker (``python -m repro.serve.executor``)."""
    args = sys.argv[1:] if argv is None else argv
    config = json.loads(args[0]) if args else {}

    # Reserve the real stdout for the protocol; reroute everything else
    # (prints inside protocol modules, C-level fd-1 writes) to stderr.
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    emit_lock = threading.Lock()

    def emit(message: dict, flush: bool = True) -> None:
        # Span bursts wait in the buffer for the next flushed frame (the
        # result, or the heartbeat tick): one write, one parent wakeup.
        with emit_lock:
            proto.write(json.dumps(message) + "\n")
            if flush:
                proto.flush()

    applied = _apply_limits(
        config.get("max_rss_mb"), config.get("cpu_seconds")
    )

    from ..engine.warm import WarmState

    rcache = None
    state_dir = config.get("state_dir")
    if state_dir:
        from ..engine.rcache import ObligationCache

        rcache = ObligationCache(Path(state_dir) / "rcache")
    warm = WarmState(rcache=rcache)

    stop = threading.Event()
    interval = float(config.get("heartbeat_interval", 1.0))
    tracers: list = [None]  # the running job's tracer, flushed on each tick

    def beat() -> None:
        while not stop.wait(interval):
            if tracers[0] is not None:
                tracers[0].flush()
            emit({"type": "heartbeat", "at": time.time()})

    threading.Thread(target=beat, name="heartbeat", daemon=True).start()
    emit({"type": "ready", "pid": os.getpid(), "limits": applied})

    from ..engine import faults
    from ..obs.stream import StreamingTracer

    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except ValueError:
            continue
        op = message.get("op")
        if op == "exit":
            break
        if op != "job":
            continue
        job_id = message.get("job_id")
        try:
            # Deterministic crash-testing hook: `sandbox.job=exit:1` in
            # REPRO_FAULTS kills attempt 0 of every job with the fault
            # exit code; the supervisor's retry (attempt 1) runs clean.
            injector = faults.active_injector()
            if injector is not None:
                injector.fire(
                    "sandbox.job",
                    attempt=int(message.get("attempt", 0)),
                    in_worker=True,
                )
            request = JobRequest.from_payload(message.get("request"))

            def publish(records: list, _job_id=job_id) -> None:
                # Encoded once, here: the daemon streams each as SSE data.
                records = [json.dumps(record) for record in records]
                emit({"type": "spans", "job_id": _job_id, "records": records}, False)

            tracer = tracers[0] = StreamingTracer(publish)
            tracer.meta["job"] = job_id
            payload = run_request(
                request, warm, message.get("budgets") or {}, tracer=tracer
            )
            tracer.flush()
            emit({"type": "result", "job_id": job_id, "payload": payload})
        except KeyboardInterrupt:
            emit(
                {
                    "type": "error",
                    "job_id": job_id,
                    "error": "KeyboardInterrupt: worker interrupted",
                }
            )
        except BaseException as exc:  # noqa: BLE001 - protocol boundary
            if isinstance(exc, SystemExit):
                raise
            emit(
                {
                    "type": "error",
                    "job_id": job_id,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(worker_main())
