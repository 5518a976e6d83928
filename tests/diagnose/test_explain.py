"""End-to-end diagnostics on the seeded failing fixtures: backend
determinism of witness lists, replay confirmation, shrinking, rendering,
and the JSON failure report."""

from __future__ import annotations

import json

import pytest

from repro.diagnose import (
    COUNTEREXAMPLE_KEEP,
    FIXTURES,
    SkippedMarker,
    explain_fixture,
    explain_result,
    replay_witness,
    witness_size,
)
from repro.diagnose.render import render_explanation, render_witness, witness_to_json
import repro.engine.scheduler as scheduler_mod
from repro.engine.scheduler import ProcessPoolScheduler
from repro.obs import failure_payload


@pytest.fixture(scope="module")
def broken():
    """The min-decide mutant, checked once per backend (module-scoped:
    universes are small but three full checks are not free)."""
    fixture = FIXTURES["broken-broadcast"]
    app, universe = fixture.build()
    inline = app.check_inline(universe)
    serial = app.check(universe, jobs=1)
    with pytest.MonkeyPatch.context() as patch:
        # Two real workers however few CPUs the host has.
        patch.setattr(scheduler_mod, "_available_cpus", lambda: 64)
        pool = app.check(universe, scheduler=ProcessPoolScheduler(2))
    return fixture, app, universe, inline, serial, pool


def _witness_lists(result):
    return {
        name: tuple(check.counterexamples)
        for name, check in result.conditions.items()
    }


def test_fixture_fails_expected_conditions(broken):
    fixture, _app, _universe, inline, _serial, _pool = broken
    assert not inline.holds
    failed = {name for name, check in inline.conditions.items() if not check.holds}
    assert set(fixture.expect_failing) <= failed


def test_witness_lists_identical_across_backends(broken):
    """The acceptance bar: same failing mutant through inline checker,
    serial scheduler, and warm pool gives *identical ordered* capped
    witness lists — typed equality, not just equal descriptions."""
    _fixture, _app, _universe, inline, serial, pool = broken
    assert _witness_lists(inline) == _witness_lists(serial)
    assert _witness_lists(inline) == _witness_lists(pool)


def test_witness_lists_respect_the_cap(broken):
    _fixture, _app, _universe, inline, _serial, _pool = broken
    for check in inline.conditions.values():
        assert len(check.counterexamples) <= COUNTEREXAMPLE_KEEP


def test_every_witness_replays_as_still_failing(broken):
    _fixture, app, _universe, inline, _serial, _pool = broken
    replayed = 0
    for name, check in inline.conditions.items():
        for cx in check.counterexamples:
            if isinstance(cx, SkippedMarker):
                continue
            assert replay_witness(app, name, cx), (name, cx)
            replayed += 1
    assert replayed > 0


def test_explanation_minimizes_and_confirms(broken):
    _fixture, app, _universe, inline, _serial, _pool = broken
    explanation = explain_result(app, inline, target="broken-broadcast")
    assert not explanation.holds
    assert explanation.witnesses
    assert explanation.all_confirmed
    for report in explanation.witnesses:
        assert report.replay_confirmed
        assert report.minimized_size <= report.original_size
        assert report.minimized_size == witness_size(report.minimized)
        # Shrink order: each accepted edit strictly decreased the size,
        # so N steps imply at least N units removed.
        assert report.original_size - report.minimized_size >= len(report.steps)
        # The minimized witness still fails its own predicate.
        assert replay_witness(app, report.condition, report.minimized)
    assert any(report.steps for report in explanation.witnesses)


def test_explanations_deterministic_across_backends(broken):
    _fixture, app, _universe, _inline, serial, pool = broken
    a = explain_result(app, serial, target="t")
    b = explain_result(app, pool, target="t")
    assert a.conditions == b.conditions
    assert a.witnesses == b.witnesses


def test_render_and_json_roundtrip(broken):
    _fixture, app, _universe, inline, _serial, _pool = broken
    explanation = explain_result(app, inline, target="broken-broadcast")
    text = render_explanation(explanation)
    assert "verdict: FAIL" in text
    assert "replay confirmed still-failing" in text
    assert "shrunk by:" in text
    for report in explanation.witnesses:
        assert render_witness(report.minimized)

    payload = failure_payload(explanation)
    encoded = json.loads(json.dumps(payload))
    assert encoded["schema"] == "repro.obs/failure/v1"
    assert encoded["holds"] is False
    assert encoded["all_confirmed"] is True
    assert len(encoded["witnesses"]) == len(explanation.witnesses)
    for item in encoded["witnesses"]:
        assert item["minimized_size"] <= item["original_size"]
        assert item["original"]["kind"]
        assert item["minimized"]["payload"]


def test_witness_to_json_tags_semantic_values(broken):
    _fixture, _app, _universe, inline, _serial, _pool = broken
    cx = next(
        cx
        for check in inline.conditions.values()
        for cx in check.counterexamples
    )
    doc = witness_to_json(cx)
    assert doc["check"]
    assert doc["description"] == cx.description
    assert "store" in json.dumps(doc)


def test_stuck_fixture_gate_witnesses():
    """The second seeded bug: non-blocking and cooperation failures."""
    fixture = FIXTURES["stuck-broadcast"]
    app, universe = fixture.build()
    result = app.check_inline(universe)
    failed = {name for name, check in result.conditions.items() if not check.holds}
    assert set(fixture.expect_failing) <= failed
    explanation = explain_result(app, result, target="stuck-broadcast")
    assert explanation.all_confirmed
    kinds = {report.minimized.kind for report in explanation.witnesses}
    assert "gate" in kinds


def test_explain_fixture_end_to_end():
    explanation = explain_fixture("broken-broadcast")
    assert not explanation.holds
    assert explanation.all_confirmed
    assert explanation.target.startswith("fixture broken-broadcast")


def test_explain_fixture_unknown_name():
    with pytest.raises(KeyError, match="unknown fixture"):
        explain_fixture("no-such-fixture")
