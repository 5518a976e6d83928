"""Fault-tolerant discharge: deadlines, crash recovery, and salvage.

Every failure mode the resilience layer claims to survive is manufactured
here with the deterministic injector (``repro.engine.faults``) and checked
end to end: a seeded hang is killed by the per-obligation deadline, a
worker ``os._exit`` is recovered by a pool rebuild + retry, a persistent
crasher degrades to in-parent execution, a broken-pool budget degrades the
whole run to serial, and Ctrl-C salvages completed outcomes (each
already handed to the result cache) instead of dropping them.

The headline property — ISSUE acceptance — is *verdict identity*: under
injection, a pool run terminates and agrees with a clean serial run on
every non-faulted obligation, and on the faulted one too once the retry
budget covers the fault.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time

import pytest

import repro.engine.obligations as obligations_mod
from repro.core import initial_config
from repro.core.cache import reset_process_cache
from repro.core.context import GhostContext
from repro.core.refinement import CheckResult
from repro.core.universe import StoreUniverse
from repro.engine.faults import FaultInjector, FaultSpec, clear, install
from repro.engine.obligations import Obligation
from repro.engine.resilience import (
    BACKOFF,
    BACKOFF_FACTOR,
    BACKSTOP_FACTOR,
    BACKSTOP_SLACK,
    DischargeInterrupted,
    ObligationTimeout,
    ResilienceConfig,
    StopState,
    backoff_for,
    events_summary,
    obligation_deadline,
    poll,
    stop_state,
)
from repro.engine.scheduler import (
    ProcessPoolScheduler,
    SerialScheduler,
    _fork_available,
    make_scheduler,
)
from repro.protocols import pingpong, prodcons
from repro.protocols.common import GHOST

CHAIN = [
    Obligation(key="A", kind="abs", condition="A"),
    Obligation(key="B", kind="I1", condition="B", deps=("A",)),
    Obligation(key="C", kind="I2", condition="C", deps=("B",)),
    Obligation(key="D", kind="CO", condition="D"),
]

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="requires fork start method"
)

#: Pool tests fork as many real workers as they ask for, however few CPUs
#: the host has.
pytestmark = pytest.mark.usefixtures("unclamped_pool")


def _stub_ok(app, universe, obligation, lm_universes=None):
    # Everything passes; failures come from the injector alone.
    return CheckResult(obligation.key, True, checked=3)


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    clear()
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    reset_process_cache()
    yield
    clear()
    reset_process_cache()


@pytest.fixture(autouse=True)
def _stub(monkeypatch, request):
    if "real_protocol" in request.keywords:
        yield
        return
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_ok)
    yield


def _fast(scheduler):
    """The scheduler with its backoff sleeps recorded, not slept."""
    scheduler.slept = []
    scheduler._sleep = scheduler.slept.append
    return scheduler


def _verdicts(outcomes):
    return {
        k: o.result.holds for k, o in outcomes.items() if o.result is not None
    }


# --------------------------------------------------------------------- #
# Policy math and the polled stop
# --------------------------------------------------------------------- #


def test_config_holds_only_the_cli_knobs():
    names = [f.name for f in dataclasses.fields(ResilienceConfig)]
    assert names == ["timeout_per_obligation", "max_retries", "max_pool_rebuilds"]


def test_backoff_is_exponential():
    assert backoff_for(1) == pytest.approx(BACKOFF)
    assert backoff_for(2) == pytest.approx(BACKOFF * BACKOFF_FACTOR)
    assert backoff_for(3) == pytest.approx(BACKOFF * BACKOFF_FACTOR**2)


def test_parent_backstop_tracks_the_deadline():
    assert ResilienceConfig().parent_backstop() is None
    cfg = ResilienceConfig(timeout_per_obligation=2.0)
    assert cfg.parent_backstop() == pytest.approx(
        2.0 * BACKSTOP_FACTOR + BACKSTOP_SLACK
    )


def _on(where, target):
    """Run ``target`` on the main thread or on a fresh worker thread."""
    if where == "main":
        target()
        return
    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.mark.parametrize("where", ["main", "worker"])
def test_polled_deadline_interrupts_a_hung_frame(where):
    """The hang fault polls between sleep slices, so an armed deadline
    ends it on any thread, and leaving the block disarms it."""
    seen = {}

    def hang():
        started = time.perf_counter()
        try:
            with obligation_deadline(0.1):
                FaultInjector([FaultSpec("X", "hang", seconds=10)]).fire("X", 0)
        except ObligationTimeout:
            seen["after"] = time.perf_counter() - started
        seen["disarmed"] = stop_state().deadline is None

    _on(where, hang)
    assert seen["after"] < 1.0 and seen["disarmed"]


@pytest.mark.parametrize("where", ["main", "worker"])
def test_polled_deadline_without_deadline_is_a_noop(where):
    def unarmed():
        with obligation_deadline(None):
            assert stop_state().deadline is None
            poll()

    _on(where, unarmed)


def test_a_stop_requested_from_another_thread_ends_the_next_poll():
    state = StopState()
    seen = {}

    def hang():
        stop_state(state)
        try:
            FaultInjector([FaultSpec("X", "hang", seconds=10)]).fire("X", 0)
        except KeyboardInterrupt:
            seen["after"] = time.perf_counter() - started

    started = time.perf_counter()
    thread = threading.Thread(target=hang)
    thread.start()
    state.request()
    thread.join(timeout=5)
    assert not thread.is_alive() and seen["after"] < 1.0
    assert not stop_state().requested  # the caller's own state is untouched


def test_events_summary_counts_by_kind():
    from repro.engine.resilience import ResilienceEvent

    events = [
        ResilienceEvent("crash", key="B"),
        ResilienceEvent("crash", key="B"),
        ResilienceEvent("retry", key="B"),
    ]
    assert events_summary(events) == {"crash": 2, "retry": 1}


# --------------------------------------------------------------------- #
# Serial backend under injection
# --------------------------------------------------------------------- #


def test_serial_deadline_kills_seeded_hang():
    install(FaultInjector([FaultSpec("B", "hang", times=5, seconds=5.0)]))
    scheduler = SerialScheduler(
        resilience=ResilienceConfig(timeout_per_obligation=0.2)
    )
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].timed_out and outcomes["B"].result is None
    assert not outcomes["B"].skipped  # a timeout is typed, not a skip
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}
    assert events_summary(scheduler.last_events)["timeout"] == 1


def test_serial_deadline_fires_off_the_main_thread():
    """The daemon discharges on a worker thread; the deadline must fire
    there too (a ``SIGALRM`` deadline never did)."""
    install(FaultInjector([FaultSpec("B", "hang", times=5, seconds=30.0)]))
    scheduler = SerialScheduler(
        resilience=ResilienceConfig(timeout_per_obligation=0.2)
    )
    box = {}
    _on("worker", lambda: box.update(outcomes=scheduler.run(None, None, CHAIN)))
    outcomes = box["outcomes"]
    assert outcomes["B"].timed_out and outcomes["B"].elapsed < 1.0
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}


def test_serial_transient_crash_is_retried_to_success():
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    scheduler = _fast(SerialScheduler(resilience=ResilienceConfig(max_retries=2)))
    outcomes = scheduler.run(None, None, CHAIN)
    assert _verdicts(outcomes) == {"A": True, "B": True, "C": True, "D": True}
    assert outcomes["B"].attempts == 2
    counts = events_summary(scheduler.last_events)
    assert counts == {"crash": 1, "retry": 1}
    assert scheduler.slept == [backoff_for(1)]


def test_serial_persistent_crash_exhausts_budget_and_records_error():
    install(FaultInjector([FaultSpec("B", "raise", times=10)]))
    scheduler = _fast(SerialScheduler(resilience=ResilienceConfig(max_retries=1)))
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].result is None and outcomes["B"].error is not None
    assert "FaultError" in outcomes["B"].error
    assert outcomes["B"].attempts == 2  # initial + one retry
    # The rest of the DAG still ran.
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}


def test_serial_crashed_dependency_skips_dependents_under_fail_fast():
    install(FaultInjector([FaultSpec("B", "raise", times=10)]))
    scheduler = SerialScheduler(resilience=ResilienceConfig(max_retries=0))
    outcomes = scheduler.run(None, None, CHAIN, fail_fast=True)
    assert outcomes["B"].error is not None
    assert outcomes["C"].skipped  # downstream of the crash
    assert outcomes["D"].result.holds  # independent work unaffected


def test_serial_interrupt_salvages_completed_outcomes():
    install(FaultInjector([FaultSpec("C", "interrupt")]))
    with pytest.raises(DischargeInterrupted) as exc_info:
        SerialScheduler().run(None, None, CHAIN)
    salvaged = exc_info.value.outcomes
    assert set(salvaged) == {"A", "B"}
    assert all(o.result.holds for o in salvaged.values())


def test_serial_interrupt_flushes_journal_before_raising():
    """Every outcome completed before the interrupt has already reached
    ``on_complete`` (the result-cache store) when the salvage raises."""
    install(FaultInjector([FaultSpec("C", "interrupt")]))
    completed = []
    with pytest.raises(DischargeInterrupted):
        SerialScheduler().run(None, None, CHAIN, on_complete=completed.append)
    assert [o.key for o in completed] == ["A", "B"]


# --------------------------------------------------------------------- #
# Pool backend: crash recovery ladder
# --------------------------------------------------------------------- #


@needs_fork
def test_pool_recovers_worker_exit_by_rebuilding():
    """The OOM-kill stand-in: ``os._exit`` in a worker breaks the pool;
    the scheduler re-forks it and the retry succeeds."""
    install(FaultInjector([FaultSpec("B", "exit", times=1)]))
    scheduler = _fast(ProcessPoolScheduler(2))
    outcomes = scheduler.run(None, None, CHAIN)
    assert _verdicts(outcomes) == {"A": True, "B": True, "C": True, "D": True}
    assert outcomes["B"].attempts >= 2
    counts = events_summary(scheduler.last_events)
    assert counts.get("pool-rebuild") == 1 and counts.get("crash", 0) >= 1
    assert scheduler.slept == [backoff_for(1)]


@needs_fork
def test_pool_retries_transient_raise_in_worker():
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    scheduler = _fast(ProcessPoolScheduler(2))
    outcomes = scheduler.run(None, None, CHAIN)
    assert _verdicts(outcomes) == {"A": True, "B": True, "C": True, "D": True}
    assert outcomes["B"].attempts == 2
    counts = events_summary(scheduler.last_events)
    assert counts == {"crash": 1, "retry": 1}


@needs_fork
def test_pool_deadline_kills_hang_inside_worker():
    install(FaultInjector([FaultSpec("B", "hang", times=5, seconds=5.0)]))
    scheduler = ProcessPoolScheduler(
        2,
        resilience=ResilienceConfig(timeout_per_obligation=0.3),
    )
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].timed_out and outcomes["B"].result is None
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}
    assert events_summary(scheduler.last_events)["timeout"] == 1


@needs_fork
def test_pool_degrades_persistent_crasher_to_parent():
    """Past the retry budget an obligation must stop killing workers and
    run (once) in the parent, where its final crash is recorded."""
    install(FaultInjector([FaultSpec("B", "raise", times=10)]))
    scheduler = _fast(
        ProcessPoolScheduler(2, resilience=ResilienceConfig(max_retries=1))
    )
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].result is None and outcomes["B"].error is not None
    assert outcomes["B"].pid == os.getpid()  # final attempt ran in-parent
    counts = events_summary(scheduler.last_events)
    assert counts.get("degrade-obligation") == 1
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}


@needs_fork
def test_pool_degrades_whole_run_past_rebuild_budget():
    install(FaultInjector([FaultSpec("B", "exit", times=10)]))
    scheduler = _fast(
        ProcessPoolScheduler(
            2, resilience=ResilienceConfig(max_pool_rebuilds=0, max_retries=5)
        )
    )
    with pytest.warns(RuntimeWarning, match="degrading"):
        outcomes = scheduler.run(None, None, CHAIN)
    counts = events_summary(scheduler.last_events)
    assert counts.get("degrade-run") == 1
    # In the parent the exit fault demotes to a raise and is recorded as
    # a crash outcome; the rest of the DAG completes serially.
    assert outcomes["B"].error is not None
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}


@needs_fork
def test_pool_interrupt_in_worker_salvages_and_raises():
    install(FaultInjector([FaultSpec("B", "interrupt")]))
    scheduler = _fast(ProcessPoolScheduler(2))
    with pytest.raises(DischargeInterrupted) as exc_info:
        scheduler.run(None, None, CHAIN)
    assert "B" not in exc_info.value.outcomes
    # The first wave (A, D) completed before B's wave was interrupted.
    assert {"A", "D"} <= set(exc_info.value.outcomes)


@needs_fork
def test_pool_parent_hands_each_resolved_outcome_to_on_complete():
    """The pool's parent reports each outcome as its future resolves, so
    an interrupt in a later wave finds the earlier ones already stored."""
    install(FaultInjector([FaultSpec("B", "interrupt")]))
    completed = []
    with pytest.raises(DischargeInterrupted) as exc_info:
        ProcessPoolScheduler(2).run(
            None, None, CHAIN, on_complete=completed.append
        )
    assert {o.key for o in completed} == set(exc_info.value.outcomes)
    assert {"A", "D"} <= {o.key for o in completed}


@needs_fork
def test_pool_and_serial_agree_under_injection():
    """Satellite (c)'s core identity: the recovered pool run's verdict
    map equals a clean serial run's."""
    clean = SerialScheduler().run(None, None, CHAIN)
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    faulted = _fast(ProcessPoolScheduler(2)).run(None, None, CHAIN)
    assert _verdicts(faulted) == _verdicts(clean)


# --------------------------------------------------------------------- #
# make_scheduler forwards the resilience knobs (satellite a)
# --------------------------------------------------------------------- #


def test_every_protocol_verify_accepts_resilience(monkeypatch):
    """``build_table1`` passes ``resilience=`` to every registry entry; a
    protocol whose ``verify`` drops it only shows in the slow sweep, so
    pin the forwarding into ``RunOptions`` here in the fast lane."""
    from repro.protocols import ALL_PROTOCOLS

    cfg = ResilienceConfig(timeout_per_obligation=1.5)
    for module in ALL_PROTOCOLS.values():
        seen = []
        monkeypatch.setattr(
            module, "verify_protocol", lambda _instance, options: seen.append(options)
        )
        module.verify(resilience=cfg)
        assert [options.resilience for options in seen] == [cfg], module.__name__


def test_make_scheduler_forwards_resilience_to_serial():
    cfg = ResilienceConfig(timeout_per_obligation=1.5)
    scheduler = make_scheduler(None, resilience=cfg)
    assert isinstance(scheduler, SerialScheduler)
    assert scheduler.resilience is cfg


def test_make_scheduler_forwards_all_pool_knobs():
    cfg = ResilienceConfig(max_retries=7)
    scheduler = make_scheduler(4, resilience=cfg)
    assert isinstance(scheduler, ProcessPoolScheduler)
    assert scheduler.jobs == 4
    assert scheduler.resilience is cfg


# --------------------------------------------------------------------- #
# Real protocols: verdict identity serial vs pool under injection
# --------------------------------------------------------------------- #


def _protocol_instance(name):
    from repro.protocols import (
        broadcast,
        changroberts,
        nbuyer,
        paxos,
        twophase,
    )

    if name == "pingpong":
        return pingpong.make_sequentialization(2), pingpong.initial_global(2)
    if name == "prodcons":
        return prodcons.make_sequentialization(3), prodcons.initial_global(3)
    if name == "broadcast":
        return broadcast.make_sequentialization(3), broadcast.initial_global(3)
    if name == "paxos":
        return paxos.make_sequentialization(2, 2), paxos.initial_global(2, 2)
    if name == "nbuyer":
        return (
            nbuyer.make_sequentializations(3)[0][1],
            nbuyer.initial_global(3),
        )
    if name == "twophase":
        return (
            twophase.make_sequentializations(3)[0][1],
            twophase.initial_global(3),
        )
    if name == "changroberts":
        return (
            changroberts.make_sequentializations(3)[0][1],
            changroberts.initial_global(3),
        )
    raise ValueError(name)


def _universe_for(app, init_global):
    return StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(GhostContext(GHOST))


def _condition_map(result):
    return {key: (r.holds, r.checked) for key, r in result.conditions.items()}


@needs_fork
@pytest.mark.real_protocol
@pytest.mark.parametrize(
    "protocol",
    [
        "pingpong",
        "prodcons",
        pytest.param("broadcast", marks=pytest.mark.slow),
        pytest.param("paxos", marks=pytest.mark.slow),
        pytest.param("nbuyer", marks=pytest.mark.slow),
        pytest.param("twophase", marks=pytest.mark.slow),
        pytest.param("changroberts", marks=pytest.mark.slow),
    ],
)
def test_protocol_verdicts_identical_serial_vs_faulted_pool(protocol):
    """ISSUE acceptance: under fault injection, the pool run terminates
    with the same PASS/FAIL verdicts (and check counts) as a clean serial
    run — the transient fault on I1 is absorbed by one retry."""
    app, init_global = _protocol_instance(protocol)
    universe = _universe_for(app, init_global)

    clean = app.check(universe)
    install(FaultInjector([FaultSpec("I1", "raise", times=1)]))
    scheduler = _fast(ProcessPoolScheduler(2))
    faulted = app.check(universe, scheduler=scheduler)

    assert faulted.holds == clean.holds
    assert _condition_map(faulted) == _condition_map(clean)
    assert faulted.retries >= 1  # the fault really fired


@pytest.mark.real_protocol
def test_resume_reexecutes_only_unjournaled_obligations(tmp_path, monkeypatch):
    """A killed run's rerun with the same result cache completes without
    re-executing the obligations stored before the kill — asserted by
    counting executor invocations across both runs."""
    app, init_global = _protocol_instance("pingpong")
    universe = _universe_for(app, init_global)
    calls = []
    real_execute = obligations_mod.execute_obligation

    def counting(app_, universe_, ob, lm_universes=None):
        calls.append(ob.key)
        return real_execute(app_, universe_, ob, lm_universes=lm_universes)

    monkeypatch.setattr(obligations_mod, "execute_obligation", counting)

    # The injector fires before the executor is entered, so the first
    # run's call list is exactly the set of completed (stored) keys.
    install(FaultInjector([FaultSpec("I2", "interrupt")]))
    partial = obligations_mod.discharge(
        app, universe, cache=tmp_path
    )
    assert partial.interrupted
    stored = set(calls)
    assert stored and "I2" not in stored

    clear()
    calls.clear()
    resumed = obligations_mod.discharge(
        app, universe, cache=tmp_path
    )
    assert resumed.holds and not resumed.interrupted
    assert set(resumed.cached_keys) == stored
    assert stored.isdisjoint(calls), "stored obligations re-executed"
    assert "I2" in calls  # the interrupted obligation itself did rerun


def teardown_module(_module=None):
    reset_process_cache()
