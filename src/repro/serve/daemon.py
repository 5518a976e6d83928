"""The warm verification daemon behind ``repro serve``.

One process, one event loop, one worker. The asyncio side owns
admission — parse, validate, clamp budgets, enqueue or refuse with
``429`` — and stays responsive while a verification runs, because every
job executes on a single dedicated worker *thread* (``daemon=True``, so
a wedged job can never hold the process hostage past the drain grace).
Serializing jobs is not a limitation but the design: the engine's
process-level caches (interner, evaluation memos, columnar tables) and
the :class:`~repro.engine.warm.WarmState` memo maps are
single-threaded structures, and one-at-a-time execution is exactly what
keeps them coherent *and* hot.

With ``--sandbox`` the worker thread stops *executing* and starts
*supervising*: each job runs inside the subprocess sandbox of
:mod:`repro.serve.executor` (rlimits, heartbeat watchdog, respawn →
circuit breaker → optional in-process fallback), so a hard crash — a
segfault, an OOM kill, ``SIGKILL`` of the sandbox itself — costs one
worker respawn, never the daemon. Both modes share the same execution
path (:func:`~repro.serve.executor.run_request`); the trade is the
sandbox's serialization overhead against in-process memo reuse. That
trade is a tracked miss: on a mixed request stream the benchmark
ledger's ``serve-sandbox`` workload runs at 2.4–2.6× lower throughput
than ``serve``, mostly because each recycled worker (one per 64 jobs)
starts with empty warm maps and rebuilds every instance's universes.
The CI gate (``benchmarks/bench_serve.py --sandbox-overhead``, ≤15%)
covers warm single-instance pingpong only and never reaches a
recycle.

Progress streams out live: the worker attaches a
:class:`~repro.obs.stream.StreamingTracer` whose publish callback hops
each stage's burst of spans back onto the loop in one
``call_soon_threadsafe`` into a per-job :class:`EventChannel` — buffered
for late subscribers, fanned out as SSE to current ones.

Shutdown is a protocol, not an ``exit()``: SIGTERM (or SIGINT) stops
admission (``503``) and requests a stop on the job thread's
:class:`~repro.engine.resilience.StopState`, polled between cell
evaluations (by the sandbox supervisor, after each frame) like the
per-obligation deadline it also carries: the salvage path keeps what it
finished and no warm table is left half-updated. The drain waits at
most ``drain_grace`` seconds and records ``interrupted`` for whatever
remains. On the next start the job journal's unfinished backlog is
re-enqueued, and the result cache under ``--state`` (which stores each
obligation as it completes) turns the re-run into a resume.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..engine.recordlog import StaleLogError
from ..engine.resilience import StopState, stop_state
from ..engine.warm import WarmState
from ..obs.stream import StreamingTracer, sse_event
from .config import ServeConfig
from .executor import (
    SandboxConfig,
    SandboxCrashed,
    SandboxExecutor,
    crashed_payload,
    run_request,
)
from .http import (
    EventStreamResponse,
    HttpError,
    Request,
    Router,
    json_response,
)
from .jobs import Job, JobRequest, JobStore

__all__ = ["EventChannel", "ServeDaemon"]

HEALTH_SCHEMA = "repro.serve/healthz/v2"

#: Fallback per-job duration estimate (seconds) before the EWMA has any
#: samples — only used to size the 429 Retry-After hint.
INITIAL_JOB_ESTIMATE = 2.0
EWMA_ALPHA = 0.3

#: Terminal job states; everything else is restart backlog. ``crashed``
#: is terminal by design: the circuit breaker already decided retrying
#: is a loop, so a restart must not resurrect the loop.
FINISHED_STATES = ("done", "failed", "crashed")


class EventChannel:
    """Per-job event fan-out: a replay buffer plus live subscribers.

    ``publish`` is loop-affine (the worker thread hops here via
    ``call_soon_threadsafe``); subscribers each get an unbounded queue —
    progress events are small and bounded by the obligation count, and a
    slow SSE consumer must never stall the worker.
    """

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self.closed = False
        self._subscribers: List[asyncio.Queue] = []

    def publish(self, event: str, *payloads) -> None:
        """Append one event per payload; subscribers get them as one
        chunk, so a stage's burst of spans is one socket write."""
        start = len(self.frames)
        for payload in payloads:
            self.frames.append(sse_event(event, payload, event_id=len(self.frames)))
        chunk = b"".join(self.frames[start:])
        for queue in self._subscribers:
            queue.put_nowait(chunk)

    def close(self) -> None:
        self.closed = True
        for queue in self._subscribers:
            queue.put_nowait(None)
        self._subscribers = []

    async def stream(self):
        """Replay everything buffered, then follow live until closed."""
        queue: Optional[asyncio.Queue] = None
        if not self.closed:
            queue = asyncio.Queue()
            self._subscribers.append(queue)
        if self.frames:
            yield b"".join(self.frames)
        if queue is None:
            return
        try:
            while True:
                frame = await queue.get()
                if frame is None:
                    return
                yield frame
        finally:
            if queue in self._subscribers:
                self._subscribers.remove(queue)


@dataclass
class _ActiveJob:
    """The in-flight job: what the drain path needs to stop it."""

    job: Job
    thread: threading.Thread
    done: asyncio.Future
    outcome: dict = field(default_factory=dict)
    stop: StopState = field(default_factory=StopState)


class ServeDaemon:
    """The resident verification service (see the module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir) if config.state_dir else None
        rcache = None
        if self.state_dir is not None:
            from ..engine.rcache import ObligationCache

            rcache = ObligationCache(self.state_dir / "rcache")
        self.warm = WarmState(rcache=rcache)
        self.executor: Optional[SandboxExecutor] = None
        if config.sandbox:
            self.executor = SandboxExecutor(
                SandboxConfig(
                    max_rss_mb=config.sandbox_max_rss_mb,
                    cpu_seconds=config.sandbox_cpu_seconds,
                    recycle_after=config.sandbox_recycle_after,
                    heartbeat_grace=config.sandbox_heartbeat_grace,
                    max_respawns=config.sandbox_max_respawns,
                    breaker_threshold=config.sandbox_breaker_threshold,
                ),
                state_dir=self.state_dir,
            )
        #: Lifetime outcome counters (jobs this process finished, by
        #: outcome — distinct from the by-status snapshot in /healthz's
        #: ``jobs``, which includes restored history and the backlog).
        self.counters: Dict[str, int] = {
            "executed": 0,
            "failed": 0,
            "crashed": 0,
            "interrupted": 0,
        }
        self.jobs: Dict[str, Job] = {}
        self.order: List[str] = []
        self.channels: Dict[str, EventChannel] = {}
        self.store: Optional[JobStore] = None
        self.bound_port: Optional[int] = None
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._draining = False
        self._stop = None
        self._active: Optional[_ActiveJob] = None
        self._seq = 0
        self._ewma = INITIAL_JOB_ESTIMATE
        self._started_at = time.time()
        self.router = self._build_router()

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #

    async def run(self) -> None:
        """Serve until a drain request, then shut down cleanly."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._stop = asyncio.Event()
        self._open_store()
        for backlog in self._restart_backlog():
            self._queue.put_nowait(backlog)
        server = await asyncio.start_server(
            self.router.handle_connection, self.config.host, self.config.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers()
        worker = asyncio.ensure_future(self._worker())
        state = str(self.state_dir) if self.state_dir else "in-memory"
        print(
            f"repro-serve: listening on http://{self.config.host}:"
            f"{self.bound_port} (queue depth {self.config.queue_depth}, "
            f"state {state})",
            flush=True,
        )
        self.ready.set()
        try:
            await self._stop.wait()
        finally:
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._drain(worker)
            if self.executor is not None:
                self.executor.shutdown()
            if self.store is not None:
                self.store.close()
            print("repro-serve: drained, exiting", flush=True)

    def request_shutdown(self) -> None:
        """Begin the drain; safe to call from any thread or a signal."""
        loop = self._loop
        if loop is None or self._stop is None:
            return

        def begin() -> None:
            if not self._draining:
                self._draining = True
                self._stop.set()
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            begin()
        else:
            loop.call_soon_threadsafe(begin)

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Not the main thread (tests run the daemon embedded) or
                # no loop-level signal support: the embedding caller owns
                # shutdown via request_shutdown().
                return

    async def _drain(self, worker: asyncio.Future) -> None:
        active = self._active
        if active is not None:
            active.stop.request()
            try:
                await asyncio.wait_for(
                    asyncio.shield(active.done), self.config.drain_grace
                )
            except asyncio.TimeoutError:
                # No poll came within the grace (one predicate call that
                # never returns); the job dies with the daemon thread.
                # Journal the fact so restart re-enqueues it.
                self._mark_interrupted(active.job)
            else:
                self._finish_job(active.job, active.outcome)
        worker.cancel()
        try:
            await worker
        except asyncio.CancelledError:
            pass
        # Jobs still queued stay 'submitted'-only in the journal — that
        # is already the restart backlog; close their channels so SSE
        # followers terminate.
        for channel in self.channels.values():
            if not channel.closed:
                channel.close()

    def _mark_interrupted(self, job: Job) -> None:
        job.status = "interrupted"
        job.finished_at = time.time()
        if self.store is not None:
            self.store.record("interrupted", job)
        channel = self.channels.get(job.id)
        if channel is not None:
            channel.publish("status", {"id": job.id, "status": job.status})
            channel.close()

    # -------------------------------------------------------------- #
    # Persistence
    # -------------------------------------------------------------- #

    def _store_path(self) -> Optional[Path]:
        if self.state_dir is None:
            return None
        return self.state_dir / "jobs.jsonl"

    def _open_store(self) -> None:
        path = self._store_path()
        if path is None:
            return
        restored: List[Job] = []
        if path.exists():
            try:
                restored, _events = JobStore.load(path)
            except StaleLogError as exc:
                stale = path.with_suffix(".jsonl.stale")
                path.replace(stale)
                print(
                    f"repro-serve: set aside unreadable job journal "
                    f"({exc}) as {stale}",
                    file=sys.stderr,
                    flush=True,
                )
                restored = []
        self.store = JobStore(path)
        self.store.open()
        for job in restored:
            self.jobs[job.id] = job
            self.order.append(job.id)
            self.channels[job.id] = channel = EventChannel()
            if job.status in FINISHED_STATES:
                channel.publish(
                    "status", {"id": job.id, "status": job.status}
                )
                channel.close()
        self._seq = len(restored)

    def _restart_backlog(self) -> List[Job]:
        """Unfinished journaled jobs, re-queued in submit order."""
        backlog = []
        for job_id in self.order:
            job = self.jobs[job_id]
            if job.status not in FINISHED_STATES:
                job.status = "queued"
                backlog.append(job)
        return backlog

    # -------------------------------------------------------------- #
    # Routes
    # -------------------------------------------------------------- #

    def _build_router(self) -> Router:
        router = Router()
        router.route("GET", "/healthz")(self._handle_healthz)
        router.route("GET", "/jobs")(self._handle_jobs_list)
        router.route("POST", "/jobs")(self._handle_jobs_post)
        router.route("GET", "/jobs/<job_id>")(self._handle_job_get)
        router.route("GET", "/jobs/<job_id>/events")(self._handle_job_events)
        return router

    async def _handle_healthz(self, _request: Request):
        counts: Dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        sandbox = (
            self.executor.describe()
            if self.executor is not None
            else {"enabled": False}
        )
        rcache_stats = None
        if self.warm.rcache is not None:
            rcache_stats = self.warm.rcache.stats.snapshot()
        return json_response(
            {
                "schema": HEALTH_SCHEMA,
                "status": "draining" if self._draining else "ok",
                "uptime_seconds": round(time.time() - self._started_at, 3),
                "queue": {
                    "depth": self._queue.qsize() if self._queue else 0,
                    "capacity": self.config.queue_depth,
                },
                "jobs": counts,
                "counters": dict(self.counters),
                "sandbox": sandbox,
                "store": {
                    "write_errors": (
                        self.store.write_errors if self.store is not None else 0
                    ),
                },
                "rcache": rcache_stats,
                "warm": self.warm.describe(),
            }
        )

    async def _handle_jobs_list(self, _request: Request):
        return json_response(
            {"jobs": [self.jobs[job_id].summary() for job_id in self.order]}
        )

    async def _handle_jobs_post(self, request: Request):
        if self._draining:
            raise HttpError(503, "daemon is draining; not accepting jobs")
        try:
            job_request = JobRequest.from_payload(request.json())
            self._validate_target(job_request)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        if self._queue.full():
            backlog = self._queue.qsize() + (1 if self._active else 0)
            retry_after = max(1, math.ceil(self._ewma * backlog))
            raise HttpError(
                429,
                f"queue full ({self.config.queue_depth} jobs); retry later",
                headers={"Retry-After": str(retry_after)},
            )
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:04d}-{job_request.fingerprint[:8]}",
            request=job_request,
        )
        self.jobs[job.id] = job
        self.order.append(job.id)
        self.channels[job.id] = EventChannel()
        if self.store is not None:
            self.store.record("submitted", job)
        self._queue.put_nowait(job)
        return json_response(
            {
                "job": job.summary(),
                "status_url": f"/jobs/{job.id}",
                "events_url": f"/jobs/{job.id}/events",
            },
            status=202,
        )

    def _validate_target(self, request: JobRequest) -> None:
        """Reject unknown protocols/fixtures/parameters at admission, so
        the worker thread never sees an unservable job."""
        if request.kind == "verify":
            from ..protocols import ALL_PROTOCOLS

            module = ALL_PROTOCOLS.get(request.protocol)
            if module is None:
                raise ValueError(
                    f"unknown protocol {request.protocol!r}; try: "
                    f"{', '.join(sorted(ALL_PROTOCOLS))}"
                )
            accepted = {*module.PARAMETERS, "symmetry"}
            bad = sorted(
                name for name, _ in request.params if name not in accepted
            )
            if bad:
                raise ValueError(
                    f"unknown params for {request.protocol}: "
                    f"{', '.join(bad)} (budgets and ground_truth are "
                    f"top-level fields, not params)"
                )
        elif request.kind == "explain":
            from ..diagnose import FIXTURES

            if request.fixture not in FIXTURES:
                raise ValueError(
                    f"unknown fixture {request.fixture!r}; try: "
                    f"{', '.join(sorted(FIXTURES))}"
                )
            if request.params:
                raise ValueError("explain jobs take no 'params'")
        elif request.params:
            raise ValueError("table1 jobs take no 'params'")

    async def _handle_job_get(self, _request: Request, job_id: str):
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return json_response(job.detail())

    async def _handle_job_events(self, _request: Request, job_id: str):
        channel = self.channels.get(job_id)
        if channel is None:
            raise HttpError(404, f"no such job: {job_id}")
        return EventStreamResponse(events=channel.stream())

    # -------------------------------------------------------------- #
    # Worker
    # -------------------------------------------------------------- #

    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        channel = self.channels[job.id]
        job.status = "running"
        job.started_at = time.time()
        job.attempts += 1
        if self.store is not None:
            self.store.record("started", job)
        channel.publish(
            "status",
            {"id": job.id, "status": "running", "attempts": job.attempts},
        )
        loop = self._loop
        done = loop.create_future()
        active = _ActiveJob(job=job, thread=None, done=done)

        def publish_spans(records: list) -> None:
            loop.call_soon_threadsafe(channel.publish, "span", *records)

        def work() -> None:
            stop_state(active.stop)
            outcome = active.outcome
            try:
                outcome["result"] = self._execute(job, publish_spans)
            except KeyboardInterrupt:
                outcome["interrupted"] = True
            except Exception as exc:
                outcome["error"] = f"{type(exc).__name__}: {exc}"
            finally:

                def finish() -> None:
                    if not done.done():
                        done.set_result(None)

                try:
                    loop.call_soon_threadsafe(finish)
                except RuntimeError:
                    # The loop is gone: a hung job outlived the drain
                    # grace and only woke after shutdown. Its completed
                    # obligations are already stored; nothing to deliver.
                    pass

        thread = threading.Thread(
            target=work, name=f"repro-serve-{job.id}", daemon=True
        )
        active.thread = thread
        self._active = active
        thread.start()
        try:
            await asyncio.shield(done)
        except asyncio.CancelledError:
            # The drain path owns this job's bookkeeping from here.
            raise
        finally:
            if self._active is active:
                self._active = None
        self._finish_job(job, active.outcome)

    def _finish_job(self, job: Job, outcome: dict) -> None:
        if job.status != "running":
            return  # the drain already finished it
        channel = self.channels[job.id]
        job.finished_at = time.time()
        result = outcome.get("result")
        if outcome.get("interrupted") or (
            result is not None and result.get("status") == "INTERRUPTED"
        ):
            job.status = "interrupted"
            job.result = result
            self.counters["interrupted"] += 1
            if self.store is not None:
                self.store.record("interrupted", job)
        elif "error" in outcome:
            job.status = "failed"
            job.error = outcome["error"]
            self.counters["failed"] += 1
            if self.store is not None:
                self.store.record("finished", job)
        elif result is not None and result.get("status") == "CRASHED":
            # The sandbox breaker spoke: terminal, typed, journaled like
            # any other finished job (a restart must not retry the loop).
            job.status = "crashed"
            job.result = result
            job.error = result.get("error")
            self.counters["crashed"] += 1
            if self.store is not None:
                self.store.record("finished", job)
        else:
            job.status = "done"
            job.result = result
            self.counters["executed"] += 1
            if self.store is not None:
                self.store.record("finished", job)
            if job.elapsed is not None:
                self._ewma = (
                    EWMA_ALPHA * job.elapsed + (1 - EWMA_ALPHA) * self._ewma
                )
        channel.publish("status", {"id": job.id, "status": job.status})
        if job.result is not None:
            channel.publish("result", job.result)
        elif job.error is not None:
            channel.publish("result", {"error": job.error})
        channel.close()

    # -------------------------------------------------------------- #
    # Execution (worker thread)
    # -------------------------------------------------------------- #

    def _budgets(self, request: JobRequest) -> dict:
        """Per-job budgets clamped to the operator ceiling, plus the
        operator's per-obligation deadline."""
        max_configs = request.max_configs
        clamped = False
        if self.config.max_configs is not None:
            if max_configs is None or max_configs > self.config.max_configs:
                clamped = max_configs is not None
                max_configs = self.config.max_configs
        return {
            "max_configs": max_configs,
            "clamped": clamped,
            "timeout_per_obligation": self.config.timeout_per_obligation,
        }

    def _execute(self, job: Job, publish_spans) -> dict:
        """One job, either isolation level (runs on the worker thread).

        Sandbox mode delegates to the supervisor and converts an
        exhausted degradation ladder into either the flagged in-process
        fallback or a typed ``CRASHED`` payload. A
        :class:`~repro.serve.executor.SandboxJobError` propagates — the
        job failed, the service is fine — and lands in the generic
        error path of ``work()``.
        """
        request = job.request
        budgets = self._budgets(request)
        if self.executor is not None:
            try:
                return self.executor.execute(job.id, request, budgets, publish_spans)
            except SandboxCrashed as crash:
                if not self.config.sandbox_fallback:
                    return crashed_payload(request, crash)
                payload = self._run_inprocess(job, request, budgets, publish_spans)
                payload["sandbox"] = {
                    "mode": "inprocess-fallback",
                    "crashes": crash.crashes,
                    "detail": crash.detail,
                }
                return payload
        return self._run_inprocess(job, request, budgets, publish_spans)

    def _run_inprocess(
        self, job: Job, request: JobRequest, budgets, publish_spans
    ) -> dict:
        tracer = StreamingTracer(publish_spans)
        tracer.meta["job"] = job.id
        try:
            return run_request(request, self.warm, budgets, tracer=tracer)
        finally:
            tracer.flush()


def run_daemon(config: ServeConfig) -> int:
    """Blocking entry point used by ``repro serve``."""
    daemon = ServeDaemon(config)
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:
        # Signal handlers normally drain first; a second Ctrl-C lands
        # here. Nothing left to salvage — job events and obligation
        # results are written as they happen.
        return 130
    return 0
