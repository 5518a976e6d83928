"""Cross-protocol properties: every protocol's IS pipeline obeys the same
meta-level contracts (the soundness theorem, exercised uniformly)."""

import random

import pytest

from repro.core import initial_config, instance_summary, random_execution
from repro.engine import rewrite_execution
from repro.protocols import (
    broadcast,
    changroberts,
    nbuyer,
    pingpong,
    prodcons,
    twophase,
)

# (name, applications builder, initial global) at tiny instances.
CASES = [
    (
        "broadcast",
        lambda: [("one-shot", broadcast.make_sequentialization(2))],
        broadcast.initial_global(2),
    ),
    (
        "pingpong",
        lambda: [("all", pingpong.make_sequentialization(2))],
        pingpong.initial_global(2),
    ),
    (
        "prodcons",
        lambda: [("all", prodcons.make_sequentialization(2))],
        prodcons.initial_global(2),
    ),
    (
        "nbuyer",
        lambda: nbuyer.make_sequentializations(2),
        nbuyer.initial_global(2),
    ),
    (
        "changroberts",
        lambda: changroberts.make_sequentializations(3),
        changroberts.initial_global(3),
    ),
    (
        "twophase",
        lambda: twophase.make_sequentializations(2),
        twophase.initial_global(2),
    ),
]


@pytest.mark.parametrize("name,builder,initial", CASES, ids=[c[0] for c in CASES])
def test_final_states_preserved_by_sequentialization(name, builder, initial):
    """Trans(P) = Trans(P') on the instance: the sequentialization neither
    loses nor invents terminating behaviours here (the IS guarantee is
    one-sided; equality additionally shows our invariants are tight)."""
    applications = builder()
    original = applications[0][1].program
    final_program = applications[-1][1].apply_and_drop()
    s_orig = instance_summary(original, initial)
    s_seq = instance_summary(final_program, initial)
    assert not s_orig.can_fail
    assert not s_seq.can_fail
    assert s_orig.final_globals == s_seq.final_globals


@pytest.mark.parametrize(
    "name,builder,initial",
    [c for c in CASES if len(c[1]()) == 1],
    ids=[c[0] for c in CASES if len(c[1]()) == 1],
)
def test_random_executions_rewrite(name, builder, initial):
    """Lemma 4.3, concretely: random terminating executions rewrite into a
    single step of M' with identical final configuration."""
    [(_, application)] = builder()
    rng = random.Random(17)
    init = initial_config(initial)
    rewritten = 0
    for _ in range(60):
        execution = random_execution(application.program, init, rng)
        if not execution.terminating:
            continue
        result = rewrite_execution(application, execution)
        assert result.execution.final == execution.final
        rewritten += 1
        if rewritten >= 5:
            break
    assert rewritten >= 5


@pytest.mark.parametrize("name,builder,initial", CASES, ids=[c[0] for c in CASES])
def test_ghost_mirrors_pending_multiset(name, builder, initial):
    """The ghost variable equals Ω in every reachable configuration — the
    well-formedness underpinning the GhostContext discipline."""
    from repro.core import explore

    applications = builder()
    program = applications[0][1].program
    result = explore(program, [initial_config(initial)])
    for config in result.configs():
        assert config.glob["pendingAsyncs"] == config.pending
