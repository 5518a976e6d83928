"""Shared fixtures for the result-cache suites: one small instance per
Table 1 protocol, plus the mutation helpers the invalidation matrix uses.

The cases mirror ``test_differential.PROTOCOL_CASES`` but shrink broadcast
to ``n=2`` (its one-shot universe at n=3 is an order of magnitude larger
and belongs to the slow lane; the cache semantics do not care about the
instance size). Mutants are rebuilt with an explicit
:class:`ISApplication` call — **never** ``dataclasses.replace`` — because
``replace`` would pass the already-derived ``m_prime`` back in, flipping
``_m_prime_canonical`` and spuriously changing the I2 fingerprint.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import replace as dc_replace

from repro.core import initial_config
from repro.core.action import Action
from repro.core.context import GhostContext
from repro.core.sequentialize import ISApplication
from repro.core.universe import StoreUniverse
from repro.engine import obligations as obligations_mod
from repro.engine.obligations import build_obligations
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


#: One (application, initial global) per protocol, small enough that a
#: full cold discharge takes well under a second.
CASES = {
    "broadcast": lambda: (
        broadcast.make_sequentialization(2),
        broadcast.initial_global(2),
    ),
    "pingpong": lambda: (
        pingpong.make_sequentialization(3),
        pingpong.initial_global(3),
    ),
    "prodcons": lambda: (
        prodcons.make_sequentialization(4),
        prodcons.initial_global(4),
    ),
    "nbuyer": lambda: (
        _first_app(nbuyer.make_sequentializations(3)),
        nbuyer.initial_global(3),
    ),
    "changroberts": lambda: (
        _first_app(changroberts.make_sequentializations(4)),
        changroberts.initial_global(4),
    ),
    "twophase": lambda: (
        _first_app(twophase.make_sequentializations(3)),
        twophase.initial_global(3),
    ),
    "paxos": lambda: (
        paxos.make_sequentialization(1, 2, (1, 2)),
        paxos.initial_global(1, 2),
    ),
}

PROTOCOL_NAMES = sorted(CASES)


def build(name):
    """Build one protocol case: ``(application, universe)``."""
    app, init_global = CASES[name]()
    universe = StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    ).with_context(GhostContext(GHOST))
    return app, universe


def all_keys(app, universe):
    """Every obligation key of the serial (unsharded) layout."""
    return {ob.key for ob in build_obligations(app, universe)}


def rebuild(app, **overrides):
    """A fresh application with some fields replaced.

    Keeps ``m_prime`` canonical (derived in ``__post_init__``) — the
    protocols never pass it explicitly, and neither may a mutant, or the
    I2 fingerprint changes for the wrong reason.
    """
    assert app._m_prime_canonical, "case app must have a derived m_prime"
    fields = dict(
        program=app.program,
        m_name=app.m_name,
        eliminated=app.eliminated,
        invariant=app.invariant,
        measure=app.measure,
        choice=app.choice,
        abstractions=dict(app.abstractions),
    )
    fields.update(overrides)
    return ISApplication(**fields)


def wrap_action(action):
    """A behaviorally identical action whose gate is a *different*
    function object (and bytecode): the classic no-op edit that must
    invalidate exactly the obligations reading this action."""
    gate = action.gate
    return Action(
        action.name, lambda state: gate(state), action.transitions, action.params
    )


def wrap_predicate(fn):
    """Same trick for bare predicates (choice functions etc.)."""
    return lambda *args: fn(*args)


def wrap_measure(measure):
    """A measure with every component re-wrapped (same values, new
    function identities)."""
    components = tuple(
        (lambda *args, _f=f: _f(*args)) for f in measure.components
    )
    return dc_replace(measure, components=components)


@contextmanager
def count_executions():
    """Count (by key) which obligations actually execute.

    The schedulers import ``execute_obligation`` from the module at call
    time, so swapping the module attribute intercepts the serial backend
    (the pool's forked workers re-import and are *not* intercepted — use
    ``result.cached_keys`` there instead).
    """
    executed = []
    original = obligations_mod.execute_obligation

    def wrapper(app, universe, ob, lm_universes=None):
        executed.append(ob.key)
        return original(app, universe, ob, lm_universes=lm_universes)

    obligations_mod.execute_obligation = wrapper
    try:
        yield executed
    finally:
        obligations_mod.execute_obligation = original


def condition_map(result):
    """Everything the condition map determines, in comparable form."""
    return {
        key: (r.name, r.holds, r.checked, tuple(r.counterexamples))
        for key, r in result.conditions.items()
    }


def condition_digest(result):
    """A process-portable digest of the condition map (counterexamples
    compared via ``repr``), for cross-process verdict-identity checks."""
    payload = repr(
        sorted(
            (key, r.name, r.holds, r.checked, repr(r.counterexamples))
            for key, r in result.conditions.items()
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def report_verdicts(report):
    """Everything a protocol report decides, timings stripped: its status,
    each IS application's condition map, the spec verdict and the
    ground-truth result (witnesses included)."""
    truth = report.ground_truth
    return (
        report.status,
        [(label, condition_map(result)) for label, result in report.is_results],
        report.spec_ok,
        None
        if truth is None
        else (truth.name, truth.holds, truth.checked, tuple(truth.counterexamples)),
    )
