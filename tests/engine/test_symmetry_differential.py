"""Soundness suite: quotiented universes vs the unquotiented oracle.

Declaring a :class:`~repro.core.symmetry.SymmetrySpec` is a soundness
obligation — the protocol's gates, transitions, abstractions, and measure
must commute with the renaming. This suite holds every declared spec to
the checkable consequence: discharging the IS obligations over the
**orbit-quotiented** universe must produce *typed-identical verdicts* to
the full universe — same condition keys, same :class:`CheckResult` type,
same ``holds``, same (empty) counterexample sets — serially and through a
real process pool. Only ``checked`` may differ: the quotient enumerates
one representative per orbit, which is the entire point.

Protocols without a nontrivial group (ping-pong, producer-consumer,
chang-roberts) are exercised end-to-end instead: their ``verify`` accepts
``symmetry=True`` for pipeline uniformity and must behave identically.
"""

from __future__ import annotations

import pytest

from repro.core import initial_config
from repro.core.cache import reset_process_cache
from repro.core.context import GhostContext
from repro.core.refinement import CheckResult
from repro.core.universe import StoreUniverse
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


def _first_app(pairs):
    return pairs[0][1]


#: (application, initial global, symmetry spec) per symmetric protocol.
#: Broadcast rides along with its honest ~1x quotient (distinct inputs
#: leave few nontrivial orbits) — the verdict contract must hold anyway.
SYMMETRIC_CASES = {
    "broadcast": lambda: (
        broadcast.make_sequentialization(3),
        broadcast.initial_global(3),
        broadcast.make_symmetry(3),
    ),
    "nbuyer": lambda: (
        _first_app(nbuyer.make_sequentializations(3)),
        nbuyer.initial_global(3),
        nbuyer.make_symmetry(3),
    ),
    "twophase": lambda: (
        _first_app(twophase.make_sequentializations(3)),
        twophase.initial_global(3),
        twophase.make_symmetry(3),
    ),
    "paxos": lambda: (
        paxos.make_sequentialization(2, 2),
        paxos.initial_global(2, 2),
        paxos.make_symmetry(2, 2),
    ),
}

SLOW = {"broadcast", "paxos"}


def _universe(app, init_global, symmetry=None):
    return StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)], symmetry=symmetry
    ).with_context(GhostContext(GHOST))


def _verdict_map(result):
    """Everything the quotient must preserve: keys, result type, holds,
    counterexamples. ``checked`` is deliberately excluded — the quotient
    enumerates fewer (global, locals) combinations by design."""
    out = {}
    for key, r in result.conditions.items():
        assert type(r) is CheckResult, (key, type(r))
        out[key] = (r.name, r.holds, tuple(r.counterexamples))
    return out


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_process_cache()
    yield
    reset_process_cache()


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n
        for n in sorted(SYMMETRIC_CASES)
    ],
)
@pytest.mark.usefixtures("unclamped_pool")
def test_quotient_matches_unquotiented_oracle(name):
    app, init_global, spec = SYMMETRIC_CASES[name]()

    oracle = app.check(_universe(app, init_global), jobs=1)
    assert oracle.holds

    reset_process_cache()
    quotient = app.check(_universe(app, init_global, symmetry=spec), jobs=1)

    assert _verdict_map(quotient) == _verdict_map(oracle)
    assert quotient.holds == oracle.holds
    # The quotient must never enumerate more than the full universe.
    assert quotient.total_checked <= oracle.total_checked

    # Same contract through a real pool, which runs the serial layout:
    # same keys, same per-key checks, same typed condition map.
    reset_process_cache()
    pooled = app.check(_universe(app, init_global, symmetry=spec), jobs=2)
    assert _verdict_map(pooled) == _verdict_map(oracle)
    assert pooled.conditions == quotient.conditions
    assert list(pooled.obligation_checked.items()) == list(
        quotient.obligation_checked.items()
    )
    assert pooled.total_checked == quotient.total_checked


@pytest.mark.parametrize(
    "name", [n for n in sorted(SYMMETRIC_CASES) if n not in SLOW]
)
def test_quotient_shrinks_the_enumeration(name):
    """For genuinely replicated protocols the quotient must actually
    collapse orbits — at least 2x fewer (global, locals) combinations
    (broadcast's distinct per-node inputs exempt it, honestly)."""
    app, init_global, spec = SYMMETRIC_CASES[name]()
    full = _universe(app, init_global)
    reset_process_cache()
    quotient = _universe(app, init_global, symmetry=spec)
    assert len(quotient.globals_) * 2 <= len(full.globals_)


ASYMMETRIC_VERIFY = {
    "pingpong": lambda **kw: pingpong.verify(rounds=2, **kw),
    "prodcons": lambda **kw: prodcons.verify(bound=3, **kw),
    "changroberts": lambda **kw: changroberts.verify(n=3, **kw),
}


@pytest.mark.parametrize("name", sorted(ASYMMETRIC_VERIFY))
def test_symmetry_flag_is_inert_without_a_group(name):
    run = ASYMMETRIC_VERIFY[name]
    plain = run(ground_truth=False)
    reset_process_cache()
    flagged = run(ground_truth=False, symmetry=True)
    assert plain.status == flagged.status == "OK"
    for (l1, a), (l2, b) in zip(plain.is_results, flagged.is_results):
        assert l1 == l2
        assert _verdict_map(a) == _verdict_map(b)
        assert a.total_checked == b.total_checked


def test_symmetric_verify_pipelines_report_the_quotient(tmp_path):
    """End-to-end ``verify(symmetry=True)`` on a symmetric protocol:
    verdicts stay OK, the parameters record the group, and the rcache
    keys quotiented and unquotiented runs apart (different universes
    must never alias)."""
    plain = twophase.verify(2, ground_truth=False, cache=tmp_path)
    reset_process_cache()
    quotient = twophase.verify(
        2, ground_truth=False, cache=tmp_path, symmetry=True
    )
    assert plain.status == quotient.status == "OK"
    assert "symmetry" not in plain.parameters
    assert quotient.parameters["symmetry"] == "twophase-n2"
    for (_, a), (_, b) in zip(plain.is_results, quotient.is_results):
        assert _verdict_map(a) == _verdict_map(b)
        # Distinct fingerprints: the quotiented run may not be served
        # from the unquotiented run's cache entries.
        assert not b.cached_keys & a.conditions.keys() or (
            b.total_checked < a.total_checked
        )
