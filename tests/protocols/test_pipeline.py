"""One protocol pipeline: every ``verify`` runs through ``verify_protocol``.

The sampled Paxos variant used to hand-roll its own copy of the pipeline
and silently dropped resilience, spec tracing, Ctrl-C handling, the
result cache and warm state; these tests pin that it no longer does.
"""

from __future__ import annotations

import importlib
import sys

import pytest

import repro.protocols.common as common
from repro.engine.resilience import ResilienceConfig
from repro.engine.warm import WarmState
from repro.obs import Tracer
from repro.protocols import ALL_PROTOCOLS, paxos

#: The smallest instance of every protocol (each verifies in < 0.1 s).
SMALLEST = {
    "broadcast": {"n": 2},
    "pingpong": {"rounds": 1},
    "prodcons": {"bound": 1},
    "nbuyer": {"n": 2},
    "changroberts": {"n": 2},
    "twophase": {"n": 2},
    "paxos": {"rounds": 1, "num_nodes": 1},
}

SAMPLED = {"rounds": 1, "num_nodes": 2, "walks": 5}


def _executed(report) -> int:
    return sum(
        result.num_obligations - len(result.cached_keys)
        for _, result in report.is_results
    )


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Wrap ``verify_protocol`` wherever a ``repro`` module holds it, the
    way the benchmark ledger's outside-in tracer does; returns the list
    of instance names that entered it."""
    original = common.verify_protocol
    calls = []

    def wrapper(instance, *args, **kwargs):
        calls.append(getattr(instance, "name", instance))
        return original(instance, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, wrapper)
    return calls


@pytest.mark.parametrize("name", [*sorted(ALL_PROTOCOLS), "paxos-sampled"])
def test_every_entry_point_enters_the_pipeline_once(name, pipeline_calls):
    if name == "paxos-sampled":
        report = paxos.verify_sampled(**SAMPLED)
    else:
        report = ALL_PROTOCOLS[name].verify(**SMALLEST[name])
    assert report.status == "OK", report.summary()
    assert pipeline_calls == [report.name]


def test_sampled_paxos_journals_and_traces_its_spec_stage(tmp_path):
    tracer = Tracer()
    report = paxos.verify_sampled(
        **SAMPLED,
        resilience=ResilienceConfig(timeout_per_obligation=600.0),
        cache=tmp_path,
        tracer=tracer,
    )
    assert report.status == "OK", report.summary()
    stored = len(list((tmp_path / "objects").glob("*.json")))
    assert stored == report.is_results[0][1].num_obligations
    phases = {span.name for span in tracer.spans if span.category == "phase"}
    assert {"IS[Paxos]", "sequential spec"} <= phases


def test_sampled_paxos_reports_ctrl_c_as_interrupted(monkeypatch):
    # The package re-exports the ``explore`` function under the module's
    # name, so fetch the module itself.
    explore = importlib.import_module("repro.core.explore")

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(explore, "instance_summary", interrupt)
    report = paxos.verify_sampled(**SAMPLED)
    assert report.status == "INTERRUPTED"
    assert [label for label, _ in report.is_results] == ["Paxos"]
    assert report.spec_ok is None


def test_sampled_paxos_accepts_cache_and_warm(tmp_path):
    cold = paxos.verify_sampled(**SAMPLED, cache=tmp_path / "cold")
    assert cold.status == "OK" and _executed(cold) > 0
    again = paxos.verify_sampled(**SAMPLED, cache=tmp_path / "cold")
    assert again.status == "OK" and _executed(again) == 0

    warm = WarmState(rcache=str(tmp_path / "warm"))
    first = paxos.verify_sampled(**SAMPLED, warm=warm)
    second = paxos.verify_sampled(**SAMPLED, warm=warm)
    assert first.status == second.status == "OK"
    assert second.bounded
    assert _executed(second) == 0
    assert warm.stats.universe_hits > 0
