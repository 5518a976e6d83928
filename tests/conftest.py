"""Shared fixtures and toy programs for the test suite."""

from __future__ import annotations

import pytest

from repro.core import (
    Action,
    Multiset,
    PendingAsync,
    Program,
    Store,
    Transition,
    initial_config,
)

COUNTER_GLOBALS = ("x",)


def counter_globals(state: Store) -> Store:
    return state.restrict(COUNTER_GLOBALS)


def make_counter_program(increments: int = 2) -> Program:
    """A tiny program: Main spawns ``increments`` Inc tasks, each adding 1
    to the global ``x``. All actions commute; terminating states have
    ``x = x0 + increments``."""

    def main_transitions(state: Store):
        created = [PendingAsync("Inc", Store({"i": i})) for i in range(increments)]
        yield Transition(counter_globals(state), Multiset(created))

    def inc_transitions(state: Store):
        yield Transition(counter_globals(state).set("x", state["x"] + 1))

    return Program(
        {
            "Main": Action("Main", lambda _s: True, main_transitions),
            "Inc": Action("Inc", lambda _s: True, inc_transitions, ("i",)),
        },
        global_vars=COUNTER_GLOBALS,
    )


def make_assert_program(threshold: int) -> Program:
    """Main spawns one Check task asserting ``x < threshold``."""

    def main_transitions(state: Store):
        yield Transition(counter_globals(state), Multiset([PendingAsync("Check")]))

    def check_transitions(state: Store):
        yield Transition(counter_globals(state))

    return Program(
        {
            "Main": Action("Main", lambda _s: True, main_transitions),
            "Check": Action(
                "Check", lambda s: s["x"] < threshold, check_transitions
            ),
        },
        global_vars=COUNTER_GLOBALS,
    )


@pytest.fixture
def counter_program() -> Program:
    return make_counter_program()


@pytest.fixture
def counter_init():
    return initial_config(Store({"x": 0}))


@pytest.fixture
def unclamped_pool(monkeypatch):
    """Process pools built in the test keep their requested worker count.

    ``ProcessPoolScheduler`` clamps ``jobs`` to the CPUs this process may
    use (``repro.engine.scheduler._available_cpus``), so on a one- or
    two-CPU host a pool test would otherwise run fewer workers, or none.
    """
    import repro.engine.scheduler as scheduler

    monkeypatch.setattr(scheduler, "_available_cpus", lambda: 64)
