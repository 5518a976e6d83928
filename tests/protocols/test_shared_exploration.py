"""One verification explores each (program, initial config) at most once.

The first IS universe's exhaustive, unquotiented exploration of the
original program and the spec stage's exploration of the final program
are exactly the two searches the ground-truth refinement check needs, so
``verify_protocol`` hands their summaries to ``check_program_refinement``
instead of exploring again. These tests count the explorations and hold
the reused ground truth to a standalone check.
"""

from __future__ import annotations

import sys

import pytest

import repro.protocols.common as common
from repro.core.refinement import check_program_refinement
from repro.core.store import EMPTY_STORE
from repro.protocols import ALL_PROTOCOLS, twophase

#: The smallest instance of every protocol whose default runs ground truth.
SMALLEST = {
    "broadcast": {"n": 2},
    "pingpong": {"rounds": 1},
    "prodcons": {"bound": 1},
    "nbuyer": {"n": 2},
    "changroberts": {"n": 2},
    "twophase": {"n": 2},
}


def _patch_everywhere(monkeypatch, original, wrapper) -> None:
    """Replace ``original`` wherever a ``repro`` module holds it, the way
    the benchmark ledger's outside-in tracer does."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)


@pytest.fixture
def explorations(monkeypatch):
    """Every ``explore`` call: ``(program, quotiented, max_configs)``."""
    original = sys.modules["repro.core.explore"].explore
    calls = []

    def wrapper(program, initials, max_configs=None, canonicalize=None):
        calls.append((program, canonicalize is not None, max_configs))
        return original(
            program, initials, max_configs=max_configs, canonicalize=canonicalize
        )

    _patch_everywhere(monkeypatch, original, wrapper)
    return calls


@pytest.fixture
def instances(monkeypatch):
    """Every :class:`~repro.protocols.common.Instance` that entered the
    pipeline, so a test can name the original and final programs."""
    original = common.verify_protocol
    seen = []

    def wrapper(instance, *args, **kwargs):
        seen.append(instance)
        return original(instance, *args, **kwargs)

    _patch_everywhere(monkeypatch, original, wrapper)
    return seen


def _standalone(instance):
    """``check_program_refinement`` on fresh programs, no summaries."""
    applications = [app for _label, app in instance.applications]
    return check_program_refinement(
        applications[0].program,
        applications[-1].apply_and_drop(),
        [(instance.initial_global, EMPTY_STORE)],
        name="P ≼ P' (exhaustive)",
    )


def test_twophase_explores_k_universes_plus_the_spec(explorations, instances):
    report = twophase.verify(3)
    assert report.status == "OK"
    k = len(report.is_results)
    assert k == 4
    # k IS universes plus the spec stage; ground truth explores nothing.
    assert len(explorations) == k + 1
    original = instances[0].applications[0][1].program
    assert [program for program, _, _ in explorations].count(original) == 1
    assert not any(quotiented for _, quotiented, _ in explorations)


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_reused_ground_truth_equals_a_standalone_check(name, instances):
    report = ALL_PROTOCOLS[name].verify(**SMALLEST[name])
    reused = report.ground_truth
    standalone = _standalone(instances[0])
    assert reused is not None
    assert reused.holds == standalone.holds
    assert reused.checked == standalone.checked
    assert reused.counterexamples == standalone.counterexamples


def test_symmetry_ground_truth_explores_the_original_unquotiented(
    explorations, instances
):
    plain = twophase.verify(3)
    explorations.clear()
    report = twophase.verify(3, symmetry=True)
    assert report.status == "OK"
    original = instances[-1].applications[0][1].program
    universe_search, *ground_truth = [
        quotiented for program, quotiented, _ in explorations if program is original
    ]
    # The first universe explores the quotient; its summary is per orbit
    # and is never reused, so ground truth explores the original again.
    assert universe_search is True
    assert ground_truth == [False]
    assert len(explorations) == len(report.is_results) + 2
    assert report.ground_truth.holds
    assert report.ground_truth.checked == plain.ground_truth.checked


def test_budget_blown_by_the_universe_build_still_reports_budget(explorations):
    report = twophase.verify(3, max_configs=10)
    assert report.status == "BUDGET"
    assert report.budget.stage == "IS[BroadcastRequest]"
    assert report.budget.limit == 10
    assert report.ground_truth is None
    assert len(explorations) == 1


def test_summaries_answer_only_their_own_search(explorations, instances):
    """A summary stands in only for the same program object, initial
    configuration and budget; any other search still runs."""
    from repro.core.explore import instance_summary

    twophase.verify(2)
    instance = instances[0]
    original = instance.applications[0][1].program
    final = [app for _, app in instance.applications][-1].apply_and_drop()
    pairs = [(instance.initial_global, EMPTY_STORE)]
    summaries = [
        instance_summary(original, instance.initial_global),
        instance_summary(final, instance.initial_global),
    ]
    init = summaries[0].initial
    assert summaries[0].answers(original, init, None)
    assert not summaries[0].answers(original, init, 10**6)
    assert not summaries[0].answers(final, init, None)

    explorations.clear()
    reused = check_program_refinement(original, final, pairs, summaries=summaries)
    assert explorations == []
    other_budget = check_program_refinement(
        original, final, pairs, max_configs=10**6, summaries=summaries
    )
    assert [program for program, _, _ in explorations] == [original, final]
    assert reused.checked == other_budget.checked == _standalone(instance).checked
