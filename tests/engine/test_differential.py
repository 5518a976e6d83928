"""Differential tests: engine vs inline checker vs execution rewriting.

Three oracles for the same judgement are cross-checked on every Table 1
protocol:

1. the **inline checker** (``ISApplication.check_inline``), the original
   monolithic loop over Figure 3's conditions;
2. the **obligation engine** (``ISApplication.check``), serial and
   process-pool backends — their merged condition maps must be *identical*
   to the inline one (same keys, names, verdicts, check counts, and
   counterexamples);
3. the **rewriting engine** (Lemmas 4.2/4.3): for applications whose
   conditions hold, every sampled terminating execution must rewrite into
   a sequentialized execution with the same final configuration — and for
   an application whose conditions fail, some execution must *fail* to
   rewrite (the constructive reading of "check passes iff rewriting
   succeeds").

Per protocol we sample at least 50 executions: the systematic enumeration
of ``terminating_executions`` topped up with ``random_execution`` walks.
"""

from __future__ import annotations

import random

import pytest

from repro.core import initial_config, random_execution, terminating_executions
from repro.core.context import GhostContext
from repro.core.universe import StoreUniverse
from repro.engine import RewriteError, rewrite_execution
from repro.protocols import (
    broadcast,
    changroberts,
    nbuyer,
    paxos,
    pingpong,
    prodcons,
    twophase,
)
from repro.protocols.common import GHOST

MIN_SAMPLES = 50


def _first_app(pairs):
    return pairs[0][1]


#: One (application, initial global) per Table 1 protocol, at instance
#: sizes small enough to sample aggressively. Chained protocols contribute
#: their first IS application (its program is the original protocol).
PROTOCOL_CASES = {
    "broadcast": lambda: (
        broadcast.make_sequentialization(3),
        broadcast.initial_global(3),
    ),
    "pingpong": lambda: (
        pingpong.make_sequentialization(3),
        pingpong.initial_global(3),
    ),
    "prodcons": lambda: (
        prodcons.make_sequentialization(4),
        prodcons.initial_global(4),
    ),
    "nbuyer": lambda: (
        _first_app(nbuyer.make_sequentializations(3)),
        nbuyer.initial_global(3),
    ),
    "changroberts": lambda: (
        _first_app(changroberts.make_sequentializations(4)),
        changroberts.initial_global(4),
    ),
    "twophase": lambda: (
        _first_app(twophase.make_sequentializations(3)),
        twophase.initial_global(3),
    ),
    "paxos": lambda: (
        paxos.make_sequentialization(1, 2, (1, 2)),
        paxos.initial_global(1, 2),
    ),
}


def _universe(app, init_global):
    return StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(GhostContext(GHOST))


def _sample_executions(program, init_global, minimum=MIN_SAMPLES, seed=0):
    """At least ``minimum`` terminating executions: the systematic
    enumeration first, then random-scheduler walks."""
    init = initial_config(init_global)
    samples = list(terminating_executions(program, init, limit=minimum))
    rng = random.Random(seed)
    attempts = 0
    while len(samples) < minimum and attempts < 40 * minimum:
        attempts += 1
        execution = random_execution(program, init, rng)
        if execution.terminating:
            samples.append(execution)
    assert len(samples) >= minimum, "could not sample enough executions"
    return samples


def _condition_map(result):
    """Everything the condition map determines, result type included, in
    comparable form."""
    return {
        key: (type(r), r.name, r.holds, r.checked, tuple(r.counterexamples))
        for key, r in result.conditions.items()
    }


def _layout(result):
    """The discharged obligation keys in build order, with their checks."""
    return list(result.obligation_checked.items())


@pytest.mark.parametrize(
    "name",
    [
        # The broadcast instance dominates this suite's wall time (its
        # reachable universe is an order of magnitude larger); it runs in
        # the slow lane, the other six cover the merge semantics fast.
        pytest.param(n, marks=pytest.mark.slow) if n == "broadcast" else n
        for n in sorted(PROTOCOL_CASES)
    ],
)
@pytest.mark.usefixtures("unclamped_pool")
def test_backends_agree_and_executions_rewrite(name):
    app, init_global = PROTOCOL_CASES[name]()
    universe = _universe(app, init_global)

    inline = app.check_inline(universe)
    serial = app.check(universe, jobs=1)
    parallel = app.check(universe, jobs=2)

    assert _condition_map(inline) == _condition_map(serial)
    assert _condition_map(inline) == _condition_map(parallel)
    assert _layout(parallel) == _layout(serial)
    assert inline.holds, inline.report()

    # Engine bookkeeping: every obligation accounted for, totals match.
    assert serial.num_obligations > 0
    assert serial.total_checked == inline.total_checked
    assert set(serial.obligation_checked) == set(serial.timings)
    assert parallel.total_checked == inline.total_checked

    # The conditions hold, so every sampled execution must rewrite to the
    # same final configuration (Lemma 4.3, constructively).
    for execution in _sample_executions(app.program, init_global):
        result = rewrite_execution(app, execution)
        assert result.execution.final == execution.final


@pytest.mark.usefixtures("unclamped_pool")
def test_failing_conditions_mean_some_execution_fails_to_rewrite():
    """The negative direction of the differential oracle: weaken Ping-Pong's
    invariant by dropping its E-free (completed) transitions. The induction
    step can then never close (I3 fails), and accordingly every sampled
    execution fails to rewrite — the absorption loop produces a composed
    transition the weakened invariant no longer contains. Both engine
    backends must report the identical failing condition map."""
    from repro.core import Action, ISApplication

    rounds = 3
    good = pingpong.make_sequentialization(rounds)
    orig_inv = good.invariant
    names = set(good.eliminated)

    def weakened_transitions(state):
        for t in orig_inv.transitions(state):
            # BUG: the invariant loses its completed summaries.
            if any(p.action in names for p in t.created.support()):
                yield t

    bad = ISApplication(
        program=good.program,
        m_name=good.m_name,
        eliminated=good.eliminated,
        invariant=Action(
            orig_inv.name, orig_inv.gate, weakened_transitions, orig_inv.params
        ),
        measure=good.measure,
        choice=good.choice,
        abstractions=dict(good.abstractions),
    )
    init_global = pingpong.initial_global(rounds)
    universe = _universe(bad, init_global)

    inline = bad.check_inline(universe)
    serial = bad.check(universe, jobs=1)
    parallel = bad.check(universe, jobs=2)
    assert _condition_map(inline) == _condition_map(serial)
    assert _condition_map(inline) == _condition_map(parallel)
    assert _layout(parallel) == _layout(serial)
    assert not inline.holds

    failures = 0
    samples = _sample_executions(bad.program, init_global)
    for execution in samples:
        try:
            rewrite_execution(bad, execution)
        except RewriteError:
            failures += 1
    assert failures == len(samples)
