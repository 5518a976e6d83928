"""Scheduler-level behaviour: fail-fast skip propagation and job
clamping.

The fail-fast tests drive both backends over a stub obligation chain (the
executor is monkeypatched; the fork-based pool inherits the patch through
copy-on-write), pinning down the *transitive* skip semantics: an
obligation is skipped when a dependency failed **or was itself skipped**,
so a three-level chain A ← B ← C with A failing skips both B and C — in
both backends, identically.
"""

from __future__ import annotations

import os

import pytest

import repro.engine.obligations as obligations_mod
from repro.core.cache import reset_process_cache
from repro.core.refinement import CheckResult
from repro.engine.obligations import Obligation
from repro.engine.scheduler import (
    ProcessPoolScheduler,
    SerialScheduler,
    _available_cpus,
    _fork_available,
    make_scheduler,
)

#: A ← B ← C three-level dependency chain plus an independent D.
CHAIN = [
    Obligation(key="A", kind="abs", condition="A"),
    Obligation(key="B", kind="I1", condition="B", deps=("A",)),
    Obligation(key="C", kind="I2", condition="C", deps=("B",)),
    Obligation(key="D", kind="CO", condition="D"),
]


def _stub_execute(app, universe, obligation, lm_universes=None):
    # Only A fails; everything else (that runs) passes.
    return CheckResult(obligation.key, obligation.key != "A")


def _backends():
    yield "serial", lambda: SerialScheduler()
    if _fork_available():
        yield "pool", lambda: ProcessPoolScheduler(2)


@pytest.mark.parametrize("name,make", list(_backends()))
@pytest.mark.usefixtures("unclamped_pool")
def test_fail_fast_skips_transitively_through_chain(name, make, monkeypatch):
    """The regression: C's only dependency B never *failed* (it was
    skipped), but C must be skipped all the same."""
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_execute)
    outcomes = make().run(None, None, CHAIN, fail_fast=True)

    assert set(outcomes) == {"A", "B", "C", "D"}
    assert outcomes["A"].result is not None and not outcomes["A"].result.holds
    # B skipped because A failed; C skipped because B was skipped.
    assert outcomes["B"].result is None
    assert outcomes["C"].result is None
    assert outcomes["C"].elapsed == 0.0
    # Independent work still runs.
    assert outcomes["D"].result is not None and outcomes["D"].result.holds


@pytest.mark.parametrize("name,make", list(_backends()))
@pytest.mark.usefixtures("unclamped_pool")
def test_without_fail_fast_everything_runs(name, make, monkeypatch):
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_execute)
    outcomes = make().run(None, None, CHAIN, fail_fast=False)
    assert all(o.result is not None for o in outcomes.values())


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("unclamped_pool")
def test_backends_skip_identical_sets(monkeypatch):
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_execute)
    serial = SerialScheduler().run(None, None, CHAIN, fail_fast=True)
    pool = ProcessPoolScheduler(2).run(
        None, None, CHAIN, fail_fast=True
    )
    skipped_serial = {k for k, o in serial.items() if o.result is None}
    skipped_pool = {k for k, o in pool.items() if o.result is None}
    assert skipped_serial == skipped_pool == {"B", "C"}


def test_jobs_beyond_cpu_count_warn_and_clamp():
    cpus = _available_cpus()
    with pytest.warns(RuntimeWarning, match="clamping"):
        scheduler = ProcessPoolScheduler(cpus + 7)
    assert scheduler.requested_jobs == cpus + 7
    assert scheduler.jobs == cpus


def test_clamp_uses_affinity_mask_not_host_cores(monkeypatch):
    """The clamp must follow the CPUs this process may run on, not the
    host's core count: under a 2-CPU affinity mask on a 64-core host,
    jobs=8 schedules 2 workers, deterministically."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _available_cpus() == 2
    with pytest.warns(RuntimeWarning, match="affinity"):
        scheduler = ProcessPoolScheduler(8)
    assert scheduler.jobs == 2


def test_available_cpus_falls_back_to_cpu_count(monkeypatch):
    def _raises(pid):
        raise OSError("no affinity on this platform")

    monkeypatch.setattr(os, "sched_getaffinity", _raises, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _available_cpus() == 6


def test_jobs_within_cpu_count_do_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scheduler = ProcessPoolScheduler(1)
    assert scheduler.jobs == 1


def test_make_scheduler_is_serial_for_one_core():
    assert isinstance(make_scheduler(None), SerialScheduler)
    assert isinstance(make_scheduler(1), SerialScheduler)


def test_make_scheduler_clamp_warning_is_deterministic():
    """``make_scheduler(2)`` warns exactly when the host has fewer than two
    CPUs. Capturing it explicitly (instead of ``simplefilter("ignore")``)
    keeps the suite warning-clean under ``-W error`` on 1–2 core CI
    runners *and* proves the warning fires where it should."""
    import warnings

    cpus = os.cpu_count() or 1
    if cpus < 2:
        with pytest.warns(RuntimeWarning, match="clamping"):
            scheduler = make_scheduler(2)
        assert scheduler.jobs == cpus
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scheduler = make_scheduler(2)
        assert scheduler.jobs == 2
    assert isinstance(scheduler, ProcessPoolScheduler)


def test_single_worker_pool_degrades_to_serial(monkeypatch):
    """A pool clamped to one worker never forks: it runs the serial
    backend (identical outcomes, none of the fork/pickle overhead)."""
    monkeypatch.setattr(obligations_mod, "execute_obligation", _stub_execute)
    scheduler = ProcessPoolScheduler(1)
    outcomes = scheduler.run(None, None, CHAIN, fail_fast=True)
    assert all(o.pid == os.getpid() for o in outcomes.values())
    skipped = {k for k, o in outcomes.items() if o.result is None}
    assert skipped == {"B", "C"}


def teardown_module(_module=None):
    # Later test modules start from a cold, private cache.
    reset_process_cache()
