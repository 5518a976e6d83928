"""Fault-tolerant discharge: deadlines, crash recovery, and salvage.

Every failure mode the resilience layer claims to survive is manufactured
here with the deterministic injector (``repro.engine.faults``) and checked
end to end: a seeded hang is killed by the per-obligation deadline, a
worker ``os._exit`` is recovered by a pool rebuild + retry, a persistent
crasher degrades to in-parent execution, a broken-pool budget degrades the
whole run to serial, and Ctrl-C salvages completed outcomes (and flushes
the journal) instead of dropping them.

The headline property — ISSUE acceptance — is *verdict identity*: under
injection, a pool run terminates and agrees with a clean serial run on
every non-faulted obligation, and on the faulted one too once the retry
budget covers the fault.
"""

from __future__ import annotations

import os
import time

import pytest

import repro.engine.obligations as obligations_mod
from repro.core import initial_config
from repro.core.cache import reset_process_cache
from repro.core.context import GhostContext
from repro.core.refinement import CheckResult
from repro.core.universe import StoreUniverse
from repro.engine.faults import FaultInjector, FaultSpec, clear, install
from repro.engine.journal import CheckpointJournal
from repro.engine.obligations import Obligation
from repro.engine.resilience import (
    DischargeInterrupted,
    ObligationTimeout,
    ResilienceConfig,
    deadline_guard,
    events_summary,
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


def _fast_cfg(**overrides):
    base = dict(backoff=0.01, backoff_factor=1.0)
    base.update(overrides)
    return ResilienceConfig(**base)


def _verdicts(outcomes):
    return {
        k: o.result.holds for k, o in outcomes.items() if o.result is not None
    }


# --------------------------------------------------------------------- #
# Policy math and the deadline guard
# --------------------------------------------------------------------- #


def test_backoff_is_exponential_and_zero_disables_it():
    cfg = ResilienceConfig(backoff=0.05, backoff_factor=2.0)
    assert cfg.backoff_for(1) == pytest.approx(0.05)
    assert cfg.backoff_for(2) == pytest.approx(0.10)
    assert cfg.backoff_for(3) == pytest.approx(0.20)
    assert ResilienceConfig(backoff=0.0).backoff_for(5) == 0.0


def test_parent_backstop_tracks_the_deadline():
    assert ResilienceConfig().parent_backstop() is None
    cfg = ResilienceConfig(
        timeout_per_obligation=2.0,
        parent_backstop_factor=2.0,
        parent_backstop_slack=5.0,
    )
    assert cfg.parent_backstop() == pytest.approx(9.0)


def test_deadline_guard_interrupts_a_hung_frame():
    started = time.perf_counter()
    with pytest.raises(ObligationTimeout):
        with deadline_guard(0.1) as armed:
            assert armed
            time.sleep(10)
    assert time.perf_counter() - started < 5


def test_deadline_guard_without_deadline_is_a_noop():
    with deadline_guard(None) as armed:
        assert not armed


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
        resilience=_fast_cfg(timeout_per_obligation=0.2)
    )
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].timed_out and outcomes["B"].result is None
    assert not outcomes["B"].skipped  # a timeout is typed, not a skip
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}
    assert events_summary(scheduler.last_events)["timeout"] == 1


def test_serial_transient_crash_is_retried_to_success():
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    scheduler = SerialScheduler(resilience=_fast_cfg(max_retries=2))
    outcomes = scheduler.run(None, None, CHAIN)
    assert _verdicts(outcomes) == {"A": True, "B": True, "C": True, "D": True}
    assert outcomes["B"].attempts == 2
    counts = events_summary(scheduler.last_events)
    assert counts == {"crash": 1, "retry": 1}


def test_serial_persistent_crash_exhausts_budget_and_records_error():
    install(FaultInjector([FaultSpec("B", "raise", times=10)]))
    scheduler = SerialScheduler(resilience=_fast_cfg(max_retries=1))
    outcomes = scheduler.run(None, None, CHAIN)
    assert outcomes["B"].result is None and outcomes["B"].error is not None
    assert "FaultError" in outcomes["B"].error
    assert outcomes["B"].attempts == 2  # initial + one retry
    # The rest of the DAG still ran.
    assert _verdicts(outcomes) == {"A": True, "C": True, "D": True}


def test_serial_crashed_dependency_skips_dependents_under_fail_fast():
    install(FaultInjector([FaultSpec("B", "raise", times=10)]))
    scheduler = SerialScheduler(resilience=_fast_cfg(max_retries=0))
    outcomes = scheduler.run(None, None, CHAIN, fail_fast=True)
    assert outcomes["B"].error is not None
    assert outcomes["C"].skipped  # downstream of the crash
    assert outcomes["D"].result.holds  # independent work unaffected


def test_serial_interrupt_salvages_completed_outcomes():
    install(FaultInjector([FaultSpec("C", "interrupt")]))
    with pytest.raises(DischargeInterrupted) as exc_info:
        SerialScheduler(resilience=_fast_cfg()).run(None, None, CHAIN)
    salvaged = exc_info.value.outcomes
    assert set(salvaged) == {"A", "B"}
    assert all(o.result.holds for o in salvaged.values())


def test_serial_interrupt_flushes_journal_before_raising(tmp_path):
    install(FaultInjector([FaultSpec("C", "interrupt")]))
    journal, _ = CheckpointJournal.open(tmp_path, "run", "f" * 64, len(CHAIN))
    with pytest.raises(DischargeInterrupted):
        SerialScheduler(resilience=_fast_cfg()).run(
            None, None, CHAIN, journal=journal
        )
    journal.close()
    loaded = CheckpointJournal.load(tmp_path / "run.jsonl", "f" * 64)
    assert set(loaded) == {"A", "B"}


# --------------------------------------------------------------------- #
# Pool backend: crash recovery ladder
# --------------------------------------------------------------------- #


@needs_fork
def test_pool_recovers_worker_exit_by_rebuilding():
    """The OOM-kill stand-in: ``os._exit`` in a worker breaks the pool;
    the scheduler re-forks it and the retry succeeds."""
    install(FaultInjector([FaultSpec("B", "exit", times=1)]))
    scheduler = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg()
    )
    outcomes = scheduler.run(None, None, CHAIN)
    assert _verdicts(outcomes) == {"A": True, "B": True, "C": True, "D": True}
    assert outcomes["B"].attempts >= 2
    counts = events_summary(scheduler.last_events)
    assert counts.get("pool-rebuild") == 1 and counts.get("crash", 0) >= 1


@needs_fork
def test_pool_retries_transient_raise_in_worker():
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    scheduler = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg()
    )
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
        warm=False,
        clamp=False,
        resilience=_fast_cfg(timeout_per_obligation=0.3),
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
    scheduler = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg(max_retries=1)
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
    scheduler = ProcessPoolScheduler(
        2,
        warm=False,
        clamp=False,
        resilience=_fast_cfg(max_pool_rebuilds=0, max_retries=5),
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
    scheduler = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg()
    )
    with pytest.raises(DischargeInterrupted) as exc_info:
        scheduler.run(None, None, CHAIN)
    assert "B" not in exc_info.value.outcomes
    # The first wave (A, D) completed before B's wave was interrupted.
    assert {"A", "D"} <= set(exc_info.value.outcomes)


@needs_fork
def test_pool_and_serial_agree_under_injection():
    """Satellite (c)'s core identity: the recovered pool run's verdict
    map equals a clean serial run's."""
    clean = SerialScheduler().run(None, None, CHAIN)
    install(FaultInjector([FaultSpec("B", "raise", times=1)]))
    faulted = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg()
    ).run(None, None, CHAIN)
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
    scheduler = make_scheduler(4, warm=False, clamp=False, resilience=cfg)
    assert isinstance(scheduler, ProcessPoolScheduler)
    assert scheduler.jobs == 4
    assert scheduler.warm is False
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
    scheduler = ProcessPoolScheduler(
        2, warm=False, clamp=False, resilience=_fast_cfg()
    )
    faulted = app.check(universe, scheduler=scheduler)

    assert faulted.holds == clean.holds
    assert _condition_map(faulted) == _condition_map(clean)
    assert faulted.retries >= 1  # the fault really fired


@pytest.mark.real_protocol
def test_resume_reexecutes_only_unjournaled_obligations(tmp_path, monkeypatch):
    """ISSUE acceptance: a killed-then-resumed run completes without
    re-executing journaled obligations — asserted by counting executor
    invocations across the interrupted run and the resumed run."""
    app, init_global = _protocol_instance("pingpong")
    universe = _universe_for(app, init_global)
    calls = []
    real_execute = obligations_mod.execute_obligation

    def counting(app_, universe_, ob, lm_universes=None):
        calls.append(ob.key)
        return real_execute(app_, universe_, ob, lm_universes=lm_universes)

    monkeypatch.setattr(obligations_mod, "execute_obligation", counting)

    # The injector fires before the executor is entered, so the first
    # run's call list is exactly the set of completed (journaled) keys.
    install(FaultInjector([FaultSpec("I2", "interrupt")]))
    partial = obligations_mod.discharge(
        app, universe, resilience=_fast_cfg(checkpoint_dir=str(tmp_path))
    )
    assert partial.interrupted
    journaled = set(calls)
    assert journaled and "I2" not in journaled

    clear()
    calls.clear()
    resumed = obligations_mod.discharge(
        app,
        universe,
        resilience=_fast_cfg(checkpoint_dir=str(tmp_path), resume=True),
    )
    assert resumed.holds and not resumed.interrupted
    assert set(resumed.resumed_keys) == journaled
    assert journaled.isdisjoint(calls), "journaled obligations re-executed"
    assert "I2" in calls  # the interrupted obligation itself did rerun


def teardown_module(_module=None):
    reset_process_cache()
