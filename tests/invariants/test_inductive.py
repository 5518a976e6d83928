"""Tests for the baseline inductive-invariant checker and the invariant
library (the Section 5.2 invariant-complexity comparison)."""


from repro.core import Store, explore, initial_config
from repro.invariants import (
    ConfigView,
    broadcast_invariant,
    broadcast_invariant_weakened,
    check_inductive_invariant,
    paxos_easy_invariant,
    paxos_full_invariant,
    paxos_invariants,
)
from repro.invariants.library import paxos_candidate_space
from repro.logic import Atom, count_atoms, count_conjuncts
from repro.protocols import broadcast, paxos

from ..conftest import make_counter_program


def test_config_view_exposes_globals_and_omega():
    program = make_counter_program(1)
    init = initial_config(Store({"x": 0}))
    view = ConfigView(init)
    assert view["x"] == 0
    assert len(view["Omega"]) == 1
    assert view.get("missing", "d") == "d"


def test_trivial_invariant_on_counter():
    program = make_counter_program(2)
    init = initial_config(Store({"x": 0}))
    reach = explore(program, [init]).configs()
    inv = Atom("x≥0", lambda e: e["x"] >= 0)
    result = check_inductive_invariant(program, inv, [init], reach)
    assert result.holds


def test_non_inductive_invariant_detected():
    program = make_counter_program(2)
    init = initial_config(Store({"x": 0}))
    reach = explore(program, [init]).configs()
    inv = Atom("x≤1", lambda e: e["x"] <= 1)  # broken by the second Inc
    result = check_inductive_invariant(program, inv, [init], reach)
    assert not result.inductive_ok
    assert any(kind == "consecution" for kind, _w in result.counterexamples)


def test_initiation_failure_detected():
    program = make_counter_program(1)
    init = initial_config(Store({"x": 0}))
    inv = Atom("x>5", lambda e: e["x"] > 5)
    result = check_inductive_invariant(program, inv, [init], [])
    assert not result.init_ok


def test_safety_failure_detected():
    program = make_counter_program(1)
    init = initial_config(Store({"x": 0}))
    reach = explore(program, [init]).configs()
    inv = Atom("true", lambda _e: True)
    result = check_inductive_invariant(
        program, inv, [init], reach, spec=lambda c: c.glob["x"] == 99
    )
    assert not result.safe_ok


class TestBroadcastInvariant2:
    """The paper's invariant (2) is inductive and implies the spec; the
    version missing the intermediate disjunct is not inductive."""

    def _setup(self, n=3):
        program = broadcast.make_atomic(n)
        init = initial_config(broadcast.initial_global(n))
        reach = explore(program, [init]).configs()
        return program, init, reach, n

    def test_full_invariant_inductive_and_safe(self):
        program, init, reach, n = self._setup()
        values = broadcast.default_values(n)
        result = check_inductive_invariant(
            program,
            broadcast_invariant(),
            [init],
            reach,
            spec=lambda c: broadcast.spec_holds(c.glob, n, values),
        )
        assert result.holds

    def test_weakened_invariant_not_inductive(self):
        program, init, reach, _n = self._setup()
        result = check_inductive_invariant(
            program, broadcast_invariant_weakened(), [init], reach
        )
        assert not result.inductive_ok

    def test_invariant_complexity_exceeds_is_artifacts(self):
        """Invariant (2) carries three disjuncts with multiple atoms each,
        versus the single-gate abstraction IS needs."""
        assert count_atoms(broadcast_invariant()) >= 8


class TestPaxosBaseline:
    def test_easy_conjuncts_not_inductive_over_candidates(self):
        """Without the choosable-style conjunct (formulas (8)-(12) of
        'Paxos made EPR'), consecution fails — the classical CTI."""
        R, N = 2, 2
        program = paxos.make_atomic(R, N)
        init = initial_config(paxos.initial_global(R, N))
        candidates = paxos_candidate_space(R, N)
        result = check_inductive_invariant(
            program, paxos_easy_invariant(N), [init], candidates
        )
        assert not result.inductive_ok

    def test_full_invariant_inductive_over_candidates(self):
        R, N = 2, 2
        program = paxos.make_atomic(R, N)
        init = initial_config(paxos.initial_global(R, N))
        candidates = paxos_candidate_space(R, N)
        result = check_inductive_invariant(
            program,
            paxos_full_invariant(N),
            [init],
            candidates,
            spec=lambda c: paxos.spec_holds(c.glob, R),
        )
        assert result.holds

    def test_hard_conjuncts_are_extra_work(self):
        easy, hard = paxos_invariants(3)
        assert len(easy) >= 4
        assert len(hard) >= 1
        assert count_conjuncts(paxos_full_invariant(3)) == len(easy) + len(hard)
