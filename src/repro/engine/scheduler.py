"""Pluggable schedulers discharging an obligation DAG.

Two backends share one contract: given an application, a universe, and the
obligation list from :func:`~repro.engine.obligations.build_obligations`,
produce an :class:`ObligationOutcome` per obligation. Merging back into an
``ISResult`` is the caller's job and iterates the obligation list in build
order, so the backends only have to run the right work — completion order
never leaks into the result.

:class:`SerialScheduler` walks the list front to back (the build order is
topological). :class:`ProcessPoolScheduler` fans obligations out over a
``fork``-based :class:`~concurrent.futures.ProcessPoolExecutor`. Actions
are closures and therefore not picklable, so the work *payload* (the
application and universe) travels to workers by fork inheritance through a
module global set just before the pool spins up; only obligation **keys**
go down the pipe and only ``CheckResult`` values (plain data over stores,
transitions, and multisets — all picklable) come back.

The pool forks **cold**: the parent evaluates nothing before forking,
and each worker builds its own evaluation cache from empty (see
``repro.core.cache``). Both backends run the same obligation list, so a
pool run differs from a serial one only in where each obligation
executes.
Worker counts are clamped to the CPUs available to this process (with a
warning): extra workers on a saturated host only add fork and pickling
overhead.

Fail-fast mode discharges the DAG in dependency waves and skips — marks
with ``result=None`` — obligations whose dependencies failed *or were
themselves skipped*, so skipping propagates transitively down the DAG.
Which obligations are skipped depends only on the DAG and the recorded
verdicts, not on timing, so fail-fast runs are deterministic across
backends too.

Resilience (see ``repro.engine.resilience``): both backends survive the
three failure modes an SMT back end exhibits in CIVL —

* **hangs**: with ``timeout_per_obligation`` set, each attempt runs under
  an in-process ``SIGALRM`` deadline; an expired obligation becomes a
  typed ``TIMEOUT`` outcome (``timed_out=True``) instead of a wedged run.
  The pool's parent additionally bounds each future wait by a backstop,
  catching workers wedged beyond the alarm's reach.
* **crashes**: a raising obligation is retried with exponential backoff
  up to ``max_retries`` times; past the budget it degrades to in-parent
  execution, and a still-failing attempt records a ``CRASH`` outcome
  (``error`` set) rather than unwinding the run.
* **killed workers**: a dead worker breaks the pool
  (``BrokenProcessPool``); the scheduler salvages every completed
  outcome, re-forks the pool (bounded by ``max_pool_rebuilds``), and
  retries the lost obligations. Past the rebuild budget the whole run
  degrades to the serial backend with a warning.

``KeyboardInterrupt`` is salvaged, not dropped: completed outcomes are
kept, the checkpoint journal (if any) is flushed, and the structured
:class:`~repro.engine.resilience.DischargeInterrupted` carries the
partial run out to the merge layer. Every recovery action is recorded as
a :class:`~repro.engine.resilience.ResilienceEvent` on
``scheduler.last_events`` — unconditionally, so tracing never perturbs
recovery decisions.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.explore import ExplorationBudgetExceeded
from ..core.refinement import CheckResult
from ..core.sequentialize import ISApplication
from ..core.universe import StoreUniverse
from .faults import active_injector
from .resilience import (
    DischargeInterrupted,
    ObligationTimeout,
    ResilienceConfig,
    ResilienceEvent,
    deadline_guard,
)

__all__ = [
    "ObligationOutcome",
    "SerialScheduler",
    "ProcessPoolScheduler",
    "make_scheduler",
]


@dataclass
class ObligationOutcome:
    """What the scheduler recorded for one obligation.

    ``result`` is ``None`` when the obligation did not produce a
    verdict: a fail-fast run skipped it (neither ``timed_out`` nor
    ``error`` set), its deadline expired (``timed_out=True``), or it
    crashed past the retry budget (``error`` carries the last failure).
    ``attempts`` counts executions tried (1 on the happy path);
    ``resumed`` marks outcomes satisfied from a checkpoint journal
    instead of executed; ``cached`` marks outcomes satisfied from the
    content-addressed result cache (``repro.engine.rcache``).

    ``started`` (a ``perf_counter`` stamp from the discharging process —
    comparable across ``fork`` boundaries, where the monotonic clock is
    shared) and ``cache_delta`` (the hit/miss increment attributable to
    this obligation alone) are the tracing layer's span ingredients. Both
    backends record them unconditionally — they cost a timestamp and a
    few integer reads — so attaching a tracer never changes what the
    scheduler executes (the no-perturbation guarantee; see
    ``repro.obs``). ``cache_delta`` is set exactly when process ``pid``
    executed the obligation, whatever its outcome; skipped, resumed,
    cached and parent-backstop outcomes carry ``None``.
    """

    key: str
    result: Optional[CheckResult]
    elapsed: float
    pid: int
    started: float = 0.0
    cache_delta: Optional[dict] = None
    attempts: int = 1
    timed_out: bool = False
    error: Optional[str] = None
    resumed: bool = False
    cached: bool = False

    @property
    def skipped(self) -> bool:
        """A fail-fast skip: never ran, and not because of a fault."""
        return (
            self.result is None and not self.timed_out and self.error is None
        )


def _blocked_deps(
    obligation, verdicts: Dict[str, bool], skipped: Set[str]
) -> List[str]:
    """Dependencies that make a fail-fast run skip ``obligation``: deps
    that failed, plus deps that were themselves skipped (transitivity)."""
    return [
        d
        for d in obligation.deps
        if verdicts.get(d) is False or d in skipped
    ]


def _waves(obligations) -> List[List]:
    """Partition into dependency waves (all deps of wave *i* are in waves
    ``< i``); within a wave, build order is preserved."""
    placed: Dict[str, int] = {}
    waves: List[List] = []
    for ob in obligations:
        depth = 0
        for d in ob.deps:
            if d in placed:
                depth = max(depth, placed[d] + 1)
        placed[ob.key] = depth
        while len(waves) <= depth:
            waves.append([])
        waves[depth].append(ob)
    return waves


def _record(outcomes, verdicts, outcome: ObligationOutcome) -> None:
    """File one outcome; faulted obligations count as failed deps so
    fail-fast skipping stays deterministic downstream."""
    outcomes[outcome.key] = outcome
    verdicts[outcome.key] = (
        outcome.result.holds if outcome.result is not None else False
    )


class SerialScheduler:
    """Discharge every obligation in this process, in build order.

    With a :class:`~repro.engine.resilience.ResilienceConfig` attached,
    each obligation runs under the per-obligation deadline (``SIGALRM``,
    where the platform has it) and crashes are retried with backoff up to
    the retry budget before recording a ``CRASH`` outcome.
    """

    parallelism = 1
    backend_name = "serial"

    def __init__(self, resilience: Optional[ResilienceConfig] = None):
        self.resilience = resilience or ResilienceConfig()
        self.last_events: List[ResilienceEvent] = []
        self._sleep = time.sleep

    def run(
        self,
        app: ISApplication,
        universe: StoreUniverse,
        obligations: Sequence,
        fail_fast: bool = False,
        journal=None,
        seed_verdicts: Optional[Dict[str, bool]] = None,
    ) -> Dict[str, ObligationOutcome]:
        pid = os.getpid()
        self.last_events = []
        outcomes: Dict[str, ObligationOutcome] = {}
        verdicts: Dict[str, bool] = dict(seed_verdicts or {})
        skipped: Set[str] = set()
        lm_universes: Dict[str, StoreUniverse] = {}
        try:
            for ob in obligations:
                if fail_fast and _blocked_deps(ob, verdicts, skipped):
                    skipped.add(ob.key)
                    outcomes[ob.key] = ObligationOutcome(
                        ob.key, None, 0.0, pid, started=time.perf_counter()
                    )
                    continue
                outcome = self._execute_with_recovery(
                    app, universe, ob, lm_universes
                )
                _record(outcomes, verdicts, outcome)
                if journal is not None and journal.record(outcome):
                    journal.maybe_sync()
        except KeyboardInterrupt:
            self.last_events.append(
                ResilienceEvent("interrupted", at=time.perf_counter())
            )
            if journal is not None:
                journal.sync()
            raise DischargeInterrupted(outcomes) from None
        return outcomes

    def _execute_with_recovery(
        self, app, universe, ob, lm_universes, first_attempt: int = 0
    ) -> ObligationOutcome:
        """One obligation under deadline + bounded crash retries."""
        from ..core.cache import counts_snapshot, snapshot_delta
        from .obligations import execute_obligation

        cfg = self.resilience
        pid = os.getpid()
        attempt = first_attempt
        while True:
            started = time.perf_counter()
            before = counts_snapshot()
            try:
                with deadline_guard(cfg.timeout_per_obligation):
                    injector = active_injector()
                    if injector is not None:
                        injector.fire(ob.key, attempt, in_worker=False)
                    result = execute_obligation(app, universe, ob, lm_universes)
            except ObligationTimeout:
                elapsed = time.perf_counter() - started
                self.last_events.append(
                    ResilienceEvent(
                        "timeout", key=ob.key, attempt=attempt, at=started
                    )
                )
                return ObligationOutcome(
                    ob.key,
                    None,
                    elapsed,
                    pid,
                    started=started,
                    cache_delta=snapshot_delta(before, counts_snapshot()),
                    attempts=attempt + 1,
                    timed_out=True,
                )
            except (KeyboardInterrupt, ExplorationBudgetExceeded):
                raise
            except Exception as exc:
                attempt += 1
                self.last_events.append(
                    ResilienceEvent(
                        "crash",
                        key=ob.key,
                        attempt=attempt,
                        at=started,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
                if attempt > cfg.max_retries:
                    return ObligationOutcome(
                        ob.key,
                        None,
                        time.perf_counter() - started,
                        pid,
                        started=started,
                        cache_delta=snapshot_delta(before, counts_snapshot()),
                        attempts=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                self.last_events.append(
                    ResilienceEvent(
                        "retry",
                        key=ob.key,
                        attempt=attempt,
                        at=time.perf_counter(),
                    )
                )
                self._sleep(cfg.backoff_for(attempt))
                continue
            elapsed = time.perf_counter() - started
            return ObligationOutcome(
                ob.key,
                result,
                elapsed,
                pid,
                started=started,
                cache_delta=snapshot_delta(before, counts_snapshot()),
                attempts=attempt + 1,
            )

    def __repr__(self) -> str:
        return "SerialScheduler()"


# ----------------------------------------------------------------------- #
# Process-pool backend
# ----------------------------------------------------------------------- #

#: Fork-inherited work payload: ``(app, universe, {key: obligation})``.
#: Set in the parent immediately before the pool is created; workers read
#: it from their copy-on-write image. Keys are the only thing pickled.
_WORKER_PAYLOAD: Optional[Tuple[ISApplication, StoreUniverse, dict]] = None

#: Per-worker memo of LM-extended universes (see ``execute_obligation``).
_WORKER_LM_UNIVERSES: Dict[str, StoreUniverse] = {}


def _worker_run(key: str, attempt: int = 0, deadline: Optional[float] = None):
    """One obligation inside a forked worker.

    Runs under the per-obligation deadline (the worker's main thread, so
    ``SIGALRM`` is always available here) and consults the fork-inherited
    fault injector. Returns a 7-tuple; the final element flags a
    deadline expiry — the worker converts its own timeout into data
    instead of hanging the parent.
    """
    from ..core.cache import counts_snapshot, snapshot_delta

    from .obligations import execute_obligation

    app, universe, by_key = _WORKER_PAYLOAD
    started = time.perf_counter()
    before = counts_snapshot()
    result = None
    timed_out = False
    try:
        with deadline_guard(deadline):
            injector = active_injector()
            if injector is not None:
                injector.fire(key, attempt, in_worker=True)
            result = execute_obligation(
                app, universe, by_key[key], _WORKER_LM_UNIVERSES
            )
    except ObligationTimeout:
        timed_out = True
    elapsed = time.perf_counter() - started
    delta = snapshot_delta(before, counts_snapshot())
    return key, result, elapsed, os.getpid(), started, delta, timed_out


def _available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the host's cores, which overcounts under a
    CPU-affinity mask or a container cgroup quota — a pool clamped to it
    would still oversubscribe the schedulable CPUs. Prefer the affinity
    mask where the platform exposes one.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class ProcessPoolScheduler:
    """Discharge obligations across ``jobs`` forked worker processes.

    ``jobs`` beyond the schedulable CPU count buys nothing (the workers
    are CPU-bound), so the effective worker count is clamped to the CPUs
    available to this process (the scheduling-affinity set where the
    platform exposes it, ``os.cpu_count()`` otherwise) with a warning.
    ``resilience`` configures deadlines, crash retries, and pool-rebuild
    bounds (see the module docstring for the recovery ladder).

    Falls back to serial execution when the platform lacks the ``fork``
    start method (the payload cannot be pickled for ``spawn``) and when
    the effective worker count is one (a single-worker pool is pure
    overhead — on a one-core host a clamped ``--jobs`` therefore costs
    the same as a serial run). In
    fail-fast mode the DAG is processed in dependency waves: a wave's
    futures all resolve before dependents are (not) submitted, so skipping
    decisions are wave-synchronous, deterministic, and — like the serial
    backend's — transitive through skipped dependencies.
    """

    def __init__(
        self,
        jobs: int,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.requested_jobs = int(jobs)
        effective = max(1, self.requested_jobs)
        cpus = _available_cpus()
        if effective > cpus:
            warnings.warn(
                f"jobs={self.requested_jobs} exceeds the {cpus} CPU(s) "
                f"available to this process (CPU affinity / cgroup quota, "
                f"not the host's core count); clamping the worker pool to "
                f"{cpus} (extra CPU-bound workers only add fork overhead)",
                RuntimeWarning,
                stacklevel=2,
            )
            effective = cpus
        self.jobs = effective
        self.resilience = resilience or ResilienceConfig()
        self.last_events: List[ResilienceEvent] = []
        self._sleep = time.sleep

    @property
    def parallelism(self) -> int:
        return self.jobs if _fork_available() else 1

    @property
    def backend_name(self) -> str:
        return f"pool[{self.jobs}]"

    def _new_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)

    def run(
        self,
        app: ISApplication,
        universe: StoreUniverse,
        obligations: Sequence,
        fail_fast: bool = False,
        journal=None,
        seed_verdicts: Optional[Dict[str, bool]] = None,
    ) -> Dict[str, ObligationOutcome]:
        cfg = self.resilience
        self.last_events = []
        if not _fork_available() or self.jobs <= 1:
            # One effective worker (e.g. --jobs clamped on a one-core
            # host): a pool would only add fork and pickling overhead, so
            # degrade to the serial backend — same outcomes, serial cost.
            serial = SerialScheduler(resilience=cfg)
            try:
                return serial.run(
                    app,
                    universe,
                    obligations,
                    fail_fast=fail_fast,
                    journal=journal,
                    seed_verdicts=seed_verdicts,
                )
            finally:
                self.last_events = serial.last_events

        global _WORKER_PAYLOAD
        by_key = {ob.key: ob for ob in obligations}
        outcomes: Dict[str, ObligationOutcome] = {}
        verdicts: Dict[str, bool] = dict(seed_verdicts or {})
        skipped: Set[str] = set()
        parent_lm_universes: Dict[str, StoreUniverse] = {}
        _WORKER_PAYLOAD = (app, universe, by_key)
        pool = self._new_pool()
        rebuilds = 0
        try:
            for wave in _waves(obligations):
                pending: Dict[str, object] = {}
                attempts: Dict[str, int] = {}
                for ob in wave:
                    if fail_fast and _blocked_deps(ob, verdicts, skipped):
                        skipped.add(ob.key)
                        outcomes[ob.key] = ObligationOutcome(
                            ob.key,
                            None,
                            0.0,
                            os.getpid(),
                            started=time.perf_counter(),
                        )
                        continue
                    pending[ob.key] = ob
                    attempts[ob.key] = 0
                while pending:
                    pool, rebuilds = self._drain_round(
                        app,
                        universe,
                        pool,
                        pending,
                        attempts,
                        outcomes,
                        verdicts,
                        parent_lm_universes,
                        rebuilds,
                    )
                if journal is not None:
                    for ob in wave:
                        outcome = outcomes.get(ob.key)
                        if outcome is not None:
                            journal.record(outcome)
                    journal.sync()
        except KeyboardInterrupt:
            self.last_events.append(
                ResilienceEvent("interrupted", at=time.perf_counter())
            )
            if journal is not None:
                for outcome in outcomes.values():
                    journal.record(outcome)
                journal.sync()
            raise DischargeInterrupted(outcomes) from None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            _WORKER_PAYLOAD = None
        return outcomes

    # ------------------------------------------------------------------ #
    # Recovery machinery
    # ------------------------------------------------------------------ #

    def _drain_round(
        self,
        app,
        universe,
        pool,
        pending: Dict[str, object],
        attempts: Dict[str, int],
        outcomes,
        verdicts,
        parent_lm_universes,
        rebuilds: int,
    ):
        """One submit-and-collect round over the wave's pending
        obligations; mutates ``pending``/``outcomes`` and returns the
        (possibly rebuilt or ``None``-degraded) pool + rebuild count."""
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout

        cfg = self.resilience

        # Obligations past the retry budget run in the parent, serially —
        # a repeatedly-crashing obligation must not keep killing workers.
        for key in [k for k in pending if attempts[k] > cfg.max_retries]:
            ob = pending.pop(key)
            self.last_events.append(
                ResilienceEvent(
                    "degrade-obligation",
                    key=key,
                    attempt=attempts[key],
                    at=time.perf_counter(),
                )
            )
            _record(
                outcomes,
                verdicts,
                self._parent_execute(
                    app, universe, ob, attempts[key], parent_lm_universes
                ),
            )
        if not pending:
            return pool, rebuilds
        if pool is None:
            # Whole-run degradation: finish the wave in the parent.
            for key in list(pending):
                ob = pending.pop(key)
                _record(
                    outcomes,
                    verdicts,
                    self._parent_execute(
                        app, universe, ob, attempts[key], parent_lm_universes
                    ),
                )
            return pool, rebuilds

        futures = {
            pool.submit(
                _worker_run, key, attempts[key], cfg.timeout_per_obligation
            ): key
            for key in pending
        }
        broken = False
        lost: List[str] = []
        for future, key in futures.items():
            try:
                payload = future.result(timeout=cfg.parent_backstop())
            except KeyboardInterrupt:
                raise
            except ExplorationBudgetExceeded:
                raise
            except FuturesTimeout:
                # The in-worker alarm never fired (wedged beyond SIGALRM's
                # reach): declare the obligation timed out and rebuild the
                # pool — the stuck worker is unusable.
                self.last_events.append(
                    ResilienceEvent(
                        "parent-timeout",
                        key=key,
                        attempt=attempts[key],
                        at=time.perf_counter(),
                    )
                )
                _record(
                    outcomes,
                    verdicts,
                    ObligationOutcome(
                        key,
                        None,
                        cfg.parent_backstop() or 0.0,
                        os.getpid(),
                        started=time.perf_counter(),
                        attempts=attempts[key] + 1,
                        timed_out=True,
                    ),
                )
                del pending[key]
                broken = True
            except BrokenExecutor as exc:
                # A worker died (OOM kill, os._exit): the pool is broken,
                # every unfinished future fails. Salvage what completed,
                # retry the rest against a fresh pool.
                lost.append(key)
                broken = True
                self.last_events.append(
                    ResilienceEvent(
                        "crash",
                        key=key,
                        attempt=attempts[key],
                        at=time.perf_counter(),
                        detail=f"worker died: {type(exc).__name__}",
                    )
                )
            except Exception as exc:
                # The obligation raised inside a live worker: retry with
                # backoff (stays in ``pending``).
                attempts[key] += 1
                self.last_events.append(
                    ResilienceEvent(
                        "crash",
                        key=key,
                        attempt=attempts[key],
                        at=time.perf_counter(),
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
            else:
                okey, result, elapsed, pid, started, delta, timed_out = payload
                if timed_out:
                    self.last_events.append(
                        ResilienceEvent(
                            "timeout",
                            key=okey,
                            attempt=attempts[key],
                            at=started,
                        )
                    )
                _record(
                    outcomes,
                    verdicts,
                    ObligationOutcome(
                        okey,
                        result,
                        elapsed,
                        pid,
                        started=started,
                        cache_delta=delta,
                        attempts=attempts[key] + 1,
                        timed_out=timed_out,
                    ),
                )
                del pending[key]
        for key in lost:
            attempts[key] += 1
        if broken:
            pool.shutdown(wait=False, cancel_futures=True)
            rebuilds += 1
            if rebuilds > cfg.max_pool_rebuilds:
                warnings.warn(
                    f"worker pool broke {rebuilds} times (limit "
                    f"{cfg.max_pool_rebuilds}); degrading the rest of the "
                    f"run to the serial backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self.last_events.append(
                    ResilienceEvent("degrade-run", at=time.perf_counter())
                )
                return None, rebuilds
            self.last_events.append(
                ResilienceEvent(
                    "pool-rebuild",
                    attempt=rebuilds,
                    at=time.perf_counter(),
                )
            )
            self._sleep(cfg.backoff_for(rebuilds))
            return self._new_pool(), rebuilds
        if pending:
            retry_round = max(attempts[k] for k in pending)
            for key in pending:
                self.last_events.append(
                    ResilienceEvent(
                        "retry",
                        key=key,
                        attempt=attempts[key],
                        at=time.perf_counter(),
                    )
                )
            self._sleep(cfg.backoff_for(retry_round))
        return pool, rebuilds

    def _parent_execute(
        self, app, universe, ob, attempt: int, lm_universes
    ) -> ObligationOutcome:
        """Run one obligation in the parent (degradation path): a single
        attempt under the deadline; a crash here is final."""
        serial = SerialScheduler(
            resilience=ResilienceConfig(
                timeout_per_obligation=self.resilience.timeout_per_obligation,
                max_retries=0,
                backoff=0.0,
            )
        )
        outcome = serial._execute_with_recovery(
            app, universe, ob, lm_universes, first_attempt=attempt
        )
        self.last_events.extend(serial.last_events)
        return outcome

    def __repr__(self) -> str:
        return f"ProcessPoolScheduler(jobs={self.jobs})"


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def make_scheduler(
    jobs: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
):
    """The backend for a ``--jobs`` value: serial for ``None``/``<2``, a
    process pool otherwise. Forwards the resilience config, so CLI flags
    reach the pool through this one constructor path instead of being
    silently dropped.
    """
    if jobs is None or jobs < 2:
        return SerialScheduler(resilience=resilience)
    return ProcessPoolScheduler(jobs, resilience=resilience)
