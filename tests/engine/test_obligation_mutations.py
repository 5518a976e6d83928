"""Obligation-level mutation tests: break one IS ingredient at a time.

Each mutation of the (passing) Ping-Pong sequentialization invalidates one
proof artifact; the checker must report *exactly* the expected failing
conditions, each with a concrete counterexample, and the serial and
process-pool engine backends must agree with the inline checker on the
full failing condition map. A final test exercises fail-fast scheduling:
an obligation whose dependency (its abstraction's refinement check)
failed is skipped deterministically.
"""

from __future__ import annotations

import pytest

from repro.core import Action, ISApplication
from repro.core.context import GhostContext
from repro.core.semantics import initial_config
from repro.core.universe import StoreUniverse
from repro.engine.scheduler import ProcessPoolScheduler
from repro.core.wellfounded import LexicographicMeasure, pa_potential
from repro.protocols import pingpong
from repro.protocols.common import GHOST

ROUNDS = 2


@pytest.fixture(scope="module")
def good():
    return pingpong.make_sequentialization(ROUNDS)


@pytest.fixture(scope="module")
def universe(good):
    return StoreUniverse.from_reachable(
        good.program, [initial_config(pingpong.initial_global(ROUNDS))]
    ).with_context(GhostContext(GHOST))


def _mutant(good, **overrides):
    base = dict(
        program=good.program,
        m_name=good.m_name,
        eliminated=good.eliminated,
        invariant=good.invariant,
        measure=good.measure,
        choice=good.choice,
        abstractions=dict(good.abstractions),
    )
    base.update(overrides)
    return ISApplication(**base)


def _drop_left_mover(good):
    """Forget Pong's non-blocking abstraction: the concrete (blocking)
    receive is checked instead."""
    abstractions = dict(good.abstractions)
    del abstractions["Pong"]
    return _mutant(good, abstractions=abstractions)


def _weaken_invariant(good):
    """The invariant loses its E-free (completed) transitions, so the
    induction step can never close."""
    names = set(good.eliminated)
    invariant = good.invariant

    def weakened(state):
        for t in invariant.transitions(state):
            if any(p.action in names for p in t.created.support()):
                yield t

    return _mutant(
        good,
        invariant=Action(invariant.name, invariant.gate, weakened, invariant.params),
    )


def _wrong_abstraction(good):
    """PongAbs swallows the acknowledgment (ping_ch left unchanged): it no
    longer simulates the concrete Pong."""
    pong_abs = good.abstractions["Pong"]

    def broken(state):
        for t in pong_abs.transitions(state):
            yield type(t)(t.new_global.set("ping_ch", state["ping_ch"]), t.created)

    abstractions = dict(good.abstractions)
    abstractions["Pong"] = Action("PongAbs", pong_abs.gate, broken, ("x",))
    return _mutant(good, abstractions=abstractions)


def _constant_measure(good):
    """A measure that never decreases: cooperation is unprovable."""
    return _mutant(
        good,
        measure=LexicographicMeasure((pa_potential(lambda _p: 0),), name="constant"),
    )


def _invariant_missing_base_case(good):
    """The invariant has no transition wherever Main is still pending, so
    it cannot simulate the M step: exactly the base case I1 breaks (I3 is
    vacuous on those stores, everything else is untouched)."""
    from repro.protocols.common import ghost_of

    invariant = good.invariant

    def no_first_step(state):
        if any(p.action == "Main" for p in ghost_of(state).support()):
            return
        yield from invariant.transitions(state)

    return _mutant(
        good,
        invariant=Action(
            invariant.name, invariant.gate, no_first_step, invariant.params
        ),
    )


MUTATIONS = {
    # mutation -> exactly the condition keys expected to fail
    "drop_left_mover": (_drop_left_mover, {"LM[Pong]", "CO"}),
    "weaken_invariant": (_weaken_invariant, {"I3"}),
    "wrong_abstraction": (_wrong_abstraction, {"abs[Pong]", "I3"}),
    "constant_measure": (_constant_measure, {"CO"}),
    "invariant_missing_base_case": (_invariant_missing_base_case, {"I1"}),
}


def _failed(result):
    return {key for key, r in result.conditions.items() if not r.holds}


def _condition_map(result):
    return {
        key: (r.name, r.holds, r.checked, tuple(r.counterexamples))
        for key, r in result.conditions.items()
    }


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.usefixtures("unclamped_pool")
def test_mutation_fails_exactly_the_expected_obligations(name, good, universe):
    build, expected = MUTATIONS[name]
    mutant = build(good)

    inline = mutant.check_inline(universe)
    serial = mutant.check(universe, jobs=1)
    parallel = mutant.check(
        universe, scheduler=ProcessPoolScheduler(3)
    )

    assert _failed(inline) == expected
    # Every failing condition carries a concrete counterexample.
    for key in expected:
        assert inline.conditions[key].counterexamples, key
    # Both backends reproduce the inline condition map verbatim.
    assert _condition_map(serial) == _condition_map(inline)
    assert _condition_map(parallel) == _condition_map(inline)


@pytest.mark.usefixtures("unclamped_pool")
def test_good_application_passes_everywhere(good, universe):
    inline = good.check_inline(universe)
    assert inline.holds
    assert _condition_map(good.check(universe, jobs=1)) == _condition_map(inline)
    assert _condition_map(
        good.check(universe, scheduler=ProcessPoolScheduler(3))
    ) == _condition_map(inline)


@pytest.mark.parametrize("backend", ["serial", "pool"])
@pytest.mark.usefixtures("unclamped_pool")
def test_fail_fast_skips_dependents_of_broken_abstraction(
    backend, good, universe
):
    """With fail_fast, conditions depending on a failed abstraction (the
    LM/CO/I3 obligations of the broken action) are skipped — reported as
    failing with an explicit 'skipped' counterexample, deterministically
    under both backends."""
    mutant = _wrong_abstraction(good)
    scheduler = (
        None if backend == "serial" else ProcessPoolScheduler(3)
    )
    result = mutant.check(
        universe, jobs=1 if backend == "serial" else None,
        scheduler=scheduler, fail_fast=True,
    )

    assert not result.holds
    assert not result.conditions["abs[Pong]"].holds
    assert result.conditions["abs[Pong]"].counterexamples
    # I3 and the Pong-derived LM/CO obligations depend on abs[Pong]: their
    # conditions are skipped, not checked.
    for key in ("I3", "LM[Pong]", "CO"):
        skipped = result.conditions[key]
        assert not skipped.holds
        assert any("skipped" in d for d, _w in skipped.counterexamples), key
    # Independent obligations still ran normally.
    assert result.conditions["I1"].holds
    assert result.conditions["abs[PingAwait]"].holds
