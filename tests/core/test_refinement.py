"""Tests for action and program refinement (Definitions 3.1/3.2)."""

from repro.core import (
    Action,
    EMPTY_STORE,
    Store,
    StoreUniverse,
    Transition,
    check_action_refinement,
    check_program_refinement,
)

from ..conftest import make_assert_program, make_counter_program


def _inc_action(name="Inc", by=1, gate=lambda _s: True):
    def transitions(state):
        yield Transition(Store({"x": state["x"] + by}))

    return Action(name, gate, transitions)


def _universe(values=range(-2, 3)):
    return StoreUniverse([Store({"x": v}) for v in values])


class TestActionRefinement:
    def test_reflexive(self):
        inc = _inc_action()
        assert check_action_refinement(inc, inc, _universe()).holds

    def test_abstraction_may_fail_more(self):
        concrete = _inc_action()
        abstract = _inc_action(name="IncAbs", gate=lambda s: s["x"] >= 0)
        # Abstraction's gate is smaller: fails more often -> still refines.
        assert check_action_refinement(concrete, abstract, _universe()).holds

    def test_abstraction_may_allow_more_transitions(self):
        concrete = _inc_action()

        def nondet(state):
            yield Transition(Store({"x": state["x"] + 1}))
            yield Transition(Store({"x": state["x"] + 2}))

        abstract = Action("IncAbs", lambda _s: True, nondet)
        assert check_action_refinement(concrete, abstract, _universe()).holds

    def test_missing_transition_fails(self):
        concrete = _inc_action(by=2)
        abstract = _inc_action(name="Wrong", by=1)
        result = check_action_refinement(concrete, abstract, _universe())
        assert not result.holds
        assert result.counterexamples

    def test_gate_weaker_in_abstraction_fails(self):
        concrete = _inc_action(gate=lambda s: s["x"] >= 0)
        abstract = _inc_action(name="TooStrongGate")  # gate true everywhere
        result = check_action_refinement(concrete, abstract, _universe())
        assert not result.holds  # abstract gate holds where concrete fails

    def test_checkresult_repr(self):
        inc = _inc_action()
        result = check_action_refinement(inc, inc, _universe())
        assert "PASS" in repr(result)
        assert bool(result)


class TestProgramRefinement:
    def test_counter_refines_itself(self):
        program = make_counter_program(increments=2)
        result = check_program_refinement(
            program, program, [(Store({"x": 0}), EMPTY_STORE)]
        )
        assert result.holds

    def test_abstract_with_fewer_behaviours_fails(self):
        concrete = make_counter_program(increments=2)
        abstract = make_counter_program(increments=3)  # final x differs
        result = check_program_refinement(
            concrete, abstract, [(Store({"x": 0}), EMPTY_STORE)]
        )
        assert not result.holds

    def test_failing_abstract_trivially_refined(self):
        concrete = make_counter_program(increments=1)
        abstract = make_assert_program(threshold=0)  # always fails at x>=0
        result = check_program_refinement(
            concrete, abstract, [(Store({"x": 0}), EMPTY_STORE)]
        )
        # Good(abstract) is empty at this initial store: nothing to check.
        assert result.holds

    def test_failure_preservation_direction(self):
        concrete = make_assert_program(threshold=0)  # concrete fails
        abstract = make_counter_program(increments=0)  # abstract never fails
        result = check_program_refinement(
            concrete, abstract, [(Store({"x": 0}), EMPTY_STORE)]
        )
        assert not result.holds


#: A concrete Main that may finish with ``x`` set to any of these; the
#: abstract Main always finishes with ``x = None``. Frozensets of strings
#: are the witness values whose ``repr`` iterates in hash-seed order.
_CHOICES_SNIPPET = """
from repro.core import Action, EMPTY_STORE, Program, Store, Transition
from repro.core import check_program_refinement

CHOICES = [frozenset(s) for s in ("ab", "ac", "bc", "abc", "cd", "bd", "ad")]


def main_program(choices):
    def transitions(state):
        for value in choices:
            yield Transition(Store({"x": value}))

    return Program({"Main": Action("Main", lambda _s: True, transitions)}, ("x",))


result = check_program_refinement(
    main_program(CHOICES), main_program([None]), [(Store({"x": None}), EMPTY_STORE)]
)
"""


def test_trans_witnesses_come_out_in_structural_order():
    from repro.core.hashing import structural_key
    from repro.core.refinement import COUNTEREXAMPLE_KEEP

    scope = {}
    exec(_CHOICES_SNIPPET, scope)
    result = scope["result"]
    assert not result.holds
    finals = [cx.final_global for cx in result.counterexamples]
    every = sorted((Store({"x": v}) for v in scope["CHOICES"]), key=structural_key)
    assert finals == every[:COUNTEREXAMPLE_KEEP]


def test_trans_witness_order_is_the_same_under_any_hash_seed():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = (
        f"import sys\nsys.path.insert(0, {os.path.abspath(src)!r})\n"
        + _CHOICES_SNIPPET
        + "for cx in result.counterexamples:\n"
        + "    print(sorted(cx.final_global['x']))\n"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1", "2", "3")
    }
    assert len(outputs) == 1, outputs
    first = outputs.pop().splitlines()[0]
    assert first == "['a', 'b', 'c']"
