"""Tracer core behaviour: spans, scopes, phases, and the engine hooks.

The engine-facing tests run a real (small) IS application — Ping-Pong at
two rounds — through ``check`` with a tracer attached, on both the serial
and the pool backend, and pin down:

* one span per scheduler unit (including shards/slices on the pool
  layout), each carrying PID, backend, verdict, enumeration count, and a
  cache hit/miss delta;
* the no-perturbation guarantee — the condition map with a tracer
  attached equals the one without, per backend;
* logical parity — serial and pool layouts shard differently, but
  grouping spans by condition yields the same condition set with the same
  summed enumeration counts;
* skipped obligations appear as zero-check, flagged spans under
  ``fail_fast``.
"""

from __future__ import annotations

import os

import pytest

from repro.core import initial_config
from repro.core.context import GhostContext
from repro.core.universe import StoreUniverse
from repro.engine.scheduler import ProcessPoolScheduler, _fork_available
from repro.obs import Span, Tracer
from repro.protocols import pingpong
from repro.protocols.common import GHOST


@pytest.fixture(scope="module")
def pingpong_case():
    app = pingpong.make_sequentialization(2)
    init = initial_config(pingpong.initial_global(2))
    universe = StoreUniverse.from_reachable(app.program, [init]).with_context(
        GhostContext(GHOST)
    )
    return app, universe


def _checked_by_condition(tracer):
    totals = {}
    for span in tracer.obligation_spans():
        totals[span.condition] = totals.get(span.condition, 0) + span.checked
    return totals


# --------------------------------------------------------------------- #
# Tracer primitives
# --------------------------------------------------------------------- #


def test_scopes_nest_and_label_spans():
    tracer = Tracer()
    with tracer.scope("outer"):
        with tracer.scope("inner"):
            tracer.add(Span("x", "obligation", 1.0, 0.5, pid=1))
        tracer.add(Span("y", "obligation", 2.0, 0.5, pid=1))
    tracer.add(Span("z", "obligation", 3.0, 0.5, pid=1))
    scopes = [s.scope for s in tracer.spans]
    assert scopes == ["outer/inner", "outer", ""]
    assert tracer.current_scope == ""


def test_phase_context_manager_records_a_phase_span():
    tracer = Tracer()
    with tracer.phase("setup"):
        pass
    (span,) = tracer.phase_spans()
    assert span.name == "setup"
    assert span.duration >= 0.0
    assert span.pid == os.getpid()


def test_origin_is_earliest_start():
    tracer = Tracer()
    tracer.add(Span("later", "obligation", 10.0, 1.0, pid=1))
    tracer.add(Span("earlier", "obligation", 5.0, 1.0, pid=1))
    assert tracer.origin == 5.0
    assert tracer.total_checked() == 0


# --------------------------------------------------------------------- #
# Engine hooks — serial backend
# --------------------------------------------------------------------- #


def test_serial_check_emits_one_span_per_obligation(pingpong_case):
    app, universe = pingpong_case
    tracer = Tracer()
    result = app.check(universe, jobs=1, tracer=tracer)
    spans = tracer.obligation_spans()
    assert len(spans) == result.num_obligations
    assert {s.name for s in spans} == set(result.timings)
    for span in spans:
        assert span.pid == os.getpid()
        assert span.backend == "serial"
        assert span.holds is True
        assert not span.skipped
        assert span.cache_delta is not None
        assert span.duration >= 0.0


def test_tracer_does_not_perturb_serial_results(pingpong_case):
    """The no-perturbation guarantee, serial backend: condition maps (and
    their rendered reports) are identical with and without a tracer."""
    app, universe = pingpong_case
    plain = app.check(universe, jobs=1)
    traced = app.check(universe, jobs=1, tracer=Tracer())
    assert traced.conditions == plain.conditions
    assert traced.report() == plain.report()


def test_metrics_totals_match_engine_accounting(pingpong_case):
    """Acceptance: span-summed evaluation counts equal the merged
    condition map's, exactly."""
    app, universe = pingpong_case
    tracer = Tracer()
    result = app.check(universe, jobs=1, tracer=tracer)
    assert tracer.total_checked() == result.total_checked
    by_condition = _checked_by_condition(tracer)
    for name, condition in result.conditions.items():
        assert by_condition[name] == condition.checked


def test_cache_deltas_sum_to_span_activity(pingpong_case):
    """Per-span cache deltas are non-negative and their total matches the
    whole run's counter movement (monotone counters, exact bracketing)."""
    from repro.core.cache import counts_snapshot

    app, universe = pingpong_case
    before = counts_snapshot()
    tracer = Tracer()
    app.check(universe, jobs=1, tracer=tracer)
    after = counts_snapshot()
    total = {"gate": 0, "transitions": 0}
    for span in tracer.obligation_spans():
        for kind, counters in span.cache_delta.items():
            assert counters["hits"] >= 0 and counters["misses"] >= 0
            total[kind] += counters["hits"] + counters["misses"]
    for kind in total:
        hits_before, misses_before = before.get(kind, (0, 0))
        hits_after, misses_after = after.get(kind, (0, 0))
        moved = (hits_after + misses_after) - (hits_before + misses_before)
        assert total[kind] == moved


# --------------------------------------------------------------------- #
# Engine hooks — pool backend
# --------------------------------------------------------------------- #


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("unclamped_pool")
def test_pool_spans_ship_back_from_workers(pingpong_case):
    app, universe = pingpong_case
    tracer = Tracer()
    scheduler = ProcessPoolScheduler(2)
    result = app.check(universe, scheduler=scheduler, tracer=tracer)
    spans = tracer.obligation_spans()
    assert len(spans) == result.num_obligations
    worker_pids = {s.pid for s in spans}
    assert os.getpid() not in worker_pids
    assert all(s.backend == "pool[2]" for s in spans)
    # The pool forks cold: no span is recorded before the workers run.
    assert {s.category for s in tracer.spans} <= {"obligation", "phase"}


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("unclamped_pool")
def test_serial_and_pool_spans_agree_logically(pingpong_case):
    """Span parity: both backends run the same obligations, so they emit
    one span per obligation under the same names, and the per-condition
    sums are identical."""
    app, universe = pingpong_case
    serial_tracer, pool_tracer = Tracer(), Tracer()
    serial = app.check(universe, jobs=1, tracer=serial_tracer)
    pool = app.check(
        universe,
        scheduler=ProcessPoolScheduler(2),
        tracer=pool_tracer,
    )
    assert pool.conditions == serial.conditions
    assert [s.name for s in pool_tracer.obligation_spans()] == [
        s.name for s in serial_tracer.obligation_spans()
    ]
    assert _checked_by_condition(serial_tracer) == _checked_by_condition(
        pool_tracer
    )
    # Inline parity closes the triangle: engine span accounting matches
    # the pre-engine monolithic checker too.
    inline = app.check_inline(universe)
    assert _checked_by_condition(serial_tracer) == {
        name: condition.checked for name, condition in inline.conditions.items()
    }


@pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
@pytest.mark.usefixtures("unclamped_pool")
def test_tracer_does_not_perturb_pool_results(pingpong_case):
    app, universe = pingpong_case
    plain = app.check(universe, scheduler=ProcessPoolScheduler(2))
    traced = app.check(
        universe,
        scheduler=ProcessPoolScheduler(2),
        tracer=Tracer(),
    )
    assert traced.conditions == plain.conditions


# --------------------------------------------------------------------- #
# Fail-fast skips
# --------------------------------------------------------------------- #


def test_skipped_obligations_become_flagged_spans():
    """Break an abstraction so its dependents are skipped under
    fail_fast; the skips must surface as zero-check flagged spans."""
    from repro.core.action import Action

    app = pingpong.make_sequentialization(2)
    # Gate still true, but no transitions: the concrete action's behaviour
    # cannot be simulated, so the abs[...] refinement obligations fail and
    # everything downstream (LM, CO, I3) is skipped.
    broken = {
        name: Action(
            abstraction.name,
            abstraction.gate,
            lambda _s: iter(()),
            abstraction.params,
        )
        for name, abstraction in app.abstractions.items()
    }
    bad = type(app)(
        program=app.program,
        m_name=app.m_name,
        m_prime=app.m_prime,
        eliminated=app.eliminated,
        invariant=app.invariant,
        measure=app.measure,
        choice=app.choice,
        abstractions=broken,
    )
    init = initial_config(pingpong.initial_global(2))
    universe = StoreUniverse.from_reachable(bad.program, [init]).with_context(
        GhostContext(GHOST)
    )
    tracer = Tracer()
    result = bad.check(universe, jobs=1, fail_fast=True, tracer=tracer)
    assert not result.holds
    skipped = [s for s in tracer.obligation_spans() if s.skipped]
    assert skipped, "fail_fast should have skipped dependents"
    for span in skipped:
        assert span.checked == 0
        assert span.holds is None
        assert span.duration == 0.0
    assert tracer.total_checked() == result.total_checked
