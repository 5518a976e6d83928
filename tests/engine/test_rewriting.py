"""Tests for the constructive execution-rewriting engine (Lemmas 4.2/4.3).

The rewriting engine is both a product (certified sequentializations) and a
differential test of the IS condition checker: every random terminating
execution of a protocol with validated artifacts must rewrite into a single
M' step with the identical final configuration.
"""

import random

import pytest

from repro.core import (
    Execution,
    ISApplication,
    initial_config,
    random_execution,
    terminating_executions,
)
from repro.engine import RewriteError, rewrite_execution
from repro.protocols import broadcast, pingpong, prodcons


def _random_runs(program, init, count, seed=0, max_attempts=200):
    rng = random.Random(seed)
    runs = []
    for _ in range(max_attempts):
        execution = random_execution(program, init, rng)
        if execution.terminating:
            runs.append(execution)
            if len(runs) == count:
                break
    assert len(runs) == count
    return runs


class TestBroadcast:
    def test_random_executions_rewrite_to_main_prime(self):
        n = 3
        app = broadcast.make_sequentialization(n)
        init = initial_config(broadcast.initial_global(n))
        for execution in _random_runs(app.program, init, count=10):
            result = rewrite_execution(app, execution)
            assert result.execution.final == execution.final
            assert len(result.execution.steps) == 1
            assert result.stats.absorbed == 2 * n

    def test_absorption_follows_choice_order(self):
        n = 2
        app = broadcast.make_sequentialization(n)
        init = initial_config(broadcast.initial_global(n))
        [execution] = _random_runs(app.program, init, count=1, seed=3)
        result = rewrite_execution(app, execution)
        actions = [p.action for p in result.stats.absorbed_actions]
        assert actions == ["Broadcast"] * n + ["Collect"] * n

    def test_all_interleavings_rewrite(self):
        n = 2
        app = broadcast.make_sequentialization(n)
        init = initial_config(broadcast.initial_global(n))
        count = 0
        for execution in terminating_executions(app.program, init, limit=50):
            result = rewrite_execution(app, execution)
            assert result.execution.final == execution.final
            count += 1
        assert count > 1

    def test_rewritten_execution_validates_against_p_prime(self):
        n = 2
        app = broadcast.make_sequentialization(n)
        init = initial_config(broadcast.initial_global(n))
        [execution] = _random_runs(app.program, init, count=1, seed=9)
        result = rewrite_execution(app, execution)
        result.execution.validate(app.apply())  # already done internally


class TestOtherProtocols:
    def test_pingpong_rewrites(self):
        app = pingpong.make_sequentialization(rounds=3)
        init = initial_config(pingpong.initial_global(3))
        for execution in _random_runs(app.program, init, count=5, seed=1):
            result = rewrite_execution(app, execution)
            assert result.execution.final == execution.final

    def test_prodcons_rewrites(self):
        app = prodcons.make_sequentialization(bound=3)
        init = initial_config(prodcons.initial_global(3))
        for execution in _random_runs(app.program, init, count=5, seed=2):
            result = rewrite_execution(app, execution)
            assert result.execution.final == execution.final


class TestErrors:
    def _setup(self, n=2):
        app = broadcast.make_sequentialization(n)
        init = initial_config(broadcast.initial_global(n))
        [execution] = _random_runs(app.program, init, count=1, seed=5)
        return app, init, execution

    def test_rejects_empty_execution(self):
        app, init, _ = self._setup()
        with pytest.raises(RewriteError, match="no steps"):
            rewrite_execution(app, Execution(init, []))

    def test_rejects_partial_execution(self):
        app, init, execution = self._setup()
        with pytest.raises(RewriteError, match="terminating"):
            rewrite_execution(app, Execution(init, execution.steps[:2]))

    def test_rejects_wrong_head(self):
        app, _init, execution = self._setup()
        shifted = Execution(execution.steps[0].target, execution.steps[1:])
        with pytest.raises(RewriteError, match="must start with"):
            rewrite_execution(app, shifted)

    def test_identity_abstraction_still_rewrites_terminating_runs(self):
        """Instructive subtlety: dropping CollectAbs breaks the *universal*
        LM/CO conditions (see test_sequentialize), yet every *terminating*
        execution still rewrites — blocking forces all Broadcasts before
        any Collect dynamically, so the commutation steps the rewrite
        actually performs all succeed. The abstraction is needed for the
        proof, not for any individual terminating run of this protocol."""
        n = 2
        good = broadcast.make_sequentialization(n)
        bad = ISApplication(
            good.program,
            good.m_name,
            good.eliminated,
            invariant=good.invariant,
            measure=good.measure,
            abstractions={},
        )
        init = initial_config(broadcast.initial_global(n))
        for execution in _random_runs(bad.program, init, count=5, seed=11):
            result = rewrite_execution(bad, execution)
            assert result.execution.final == execution.final

    def test_broken_invariant_reported_as_i3(self):
        """An invariant that only covers the Broadcast prefixes cannot
        absorb the Collects; the engine pinpoints condition I3."""
        n = 2
        good = broadcast.make_sequentialization(n)
        bad = ISApplication(
            good.program,
            good.m_name,
            good.eliminated,
            invariant=broadcast.make_broadcast_invariant(n),
            measure=good.measure,
            abstractions=dict(good.abstractions),
        )
        init = initial_config(broadcast.initial_global(n))
        [execution] = _random_runs(bad.program, init, count=1, seed=13)
        with pytest.raises(RewriteError, match="I3"):
            rewrite_execution(bad, execution)
