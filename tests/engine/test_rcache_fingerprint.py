"""Property tests for the dependency fingerprints.

Three properties carry the cache's soundness argument (DESIGN.md):

* **stability** — the digest of a value is a pure function of its
  *content*: insertion order, set iteration order, ``PYTHONHASHSEED``,
  and process identity must not leak in (otherwise a warm cache goes
  cold at random, or worse, two different values collide per-process);
* **sensitivity** — changing any single field changes the digest (a
  stale hit after an edit would be unsound);
* **injectivity in practice** — across every obligation of all seven
  seed protocols, distinct obligations get distinct fingerprints.

The warm-session memos (a universe's pools digest, a session's function
digests) are held to byte identity against a fresh recomputation, and
the data-only recipe is pinned by golden values.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import NoContext
from repro.core.mapping import FrozenDict
from repro.core.multiset import Multiset
from repro.core.store import Store
from repro.core.universe import StoreUniverse
from repro.engine.obligations import build_obligations
from repro.engine.rcache import (
    DependencyFingerprinter,
    _Hasher,
    stable_digest,
    universe_fingerprint,
)
from repro.engine.warm import WarmState
from repro.protocols import ALL_PROTOCOLS

from .rcache_cases import PROTOCOL_NAMES, build

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=8),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.frozensets(SCALARS, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(max_size=6), VALUES, max_size=6), st.randoms())
def test_digest_ignores_dict_insertion_order(data, rng):
    items = list(data.items())
    rng.shuffle(items)
    assert stable_digest(dict(items)) == stable_digest(data)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(max_size=6), SCALARS, max_size=6))
def test_digest_ignores_store_insertion_order(data):
    # Stores hold hashable values only (their contract); reversed
    # insertion must not show in the digest.
    forward = Store({str(k): v for k, v in data.items()})
    backward = Store({str(k): v for k, v in reversed(list(data.items()))})
    assert stable_digest(forward) == stable_digest(backward)


@settings(max_examples=50, deadline=None)
@given(st.lists(SCALARS, min_size=1, max_size=8), st.randoms())
def test_digest_ignores_multiset_and_set_order(elements, rng):
    shuffled = list(elements)
    rng.shuffle(shuffled)
    assert stable_digest(Multiset(elements)) == stable_digest(
        Multiset(shuffled)
    )
    assert stable_digest(set(elements)) == stable_digest(set(shuffled))


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.text(max_size=6), SCALARS, min_size=1, max_size=6),
    st.data(),
)
def test_any_single_field_change_changes_the_digest(data, draw):
    key = draw.draw(st.sampled_from(sorted(data, key=repr)))
    replacement = draw.draw(SCALARS)
    # Equal values are no change, across types too: True == 1 makes
    # Store({k: True}) == Store({k: 1}), and the digest agrees by design.
    if replacement == data[key]:
        replacement = (replacement, "changed")
    mutated = dict(data)
    mutated[key] = replacement
    assert stable_digest(Store(data)) != stable_digest(Store(mutated))
    assert stable_digest(data) != stable_digest(mutated)


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(st.text(max_size=6), SCALARS, min_size=1, max_size=6),
    st.text(min_size=1, max_size=6),
)
def test_adding_or_dropping_a_field_changes_the_digest(data, extra_key):
    grown = dict(data)
    grown[extra_key] = ("extra", 1)
    if grown == data:
        grown.pop(extra_key)
        data = dict(data)
        data[extra_key] = ("extra", 1)
    assert stable_digest(data) != stable_digest(grown)
    popped = dict(data)
    popped.pop(sorted(popped, key=repr)[0])
    assert stable_digest(data) != stable_digest(popped)


_RESTART_SCRIPT = """
import json, sys
sys.path.insert(0, {root!r})
sys.path.insert(0, {src!r})
from tests.engine import rcache_cases as rc
from repro.engine.obligations import build_obligations
from repro.engine.rcache import DependencyFingerprinter, stable_digest

digests = {{
    "structure": stable_digest(
        {{"a": [1, 2, {{"nested": (True, "x")}}], "b": frozenset([3, 4])}}
    )
}}
app, universe = rc.build("pingpong")
fp = DependencyFingerprinter(app, universe)
for ob in build_obligations(app, universe):
    digests[ob.key] = fp.fingerprint(ob)
print(json.dumps(digests))
"""


def _digests_under_seed(seed):
    script = _RESTART_SCRIPT.format(
        root=str(REPO_ROOT), src=str(REPO_ROOT / "src")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        check=True,
    )
    return json.loads(proc.stdout)


def test_fingerprints_are_stable_across_process_restarts():
    """Two fresh interpreters with adversarially different hash seeds
    agree on every digest — the property that makes the on-disk cache
    meaningful at all."""
    assert _digests_under_seed("0") == _digests_under_seed("424242")


def test_no_fingerprint_collisions_across_all_seed_protocols():
    seen = {}
    for name in PROTOCOL_NAMES:
        app, universe = build(name)
        fp = DependencyFingerprinter(app, universe)
        for ob in build_obligations(app, universe):
            digest = fp.fingerprint(ob)
            assert digest is not None, (name, ob.key)
            owner = (name, ob.key)
            assert seen.setdefault(digest, owner) == owner, (
                f"collision: {seen[digest]} vs {owner}"
            )
    assert len(seen) > 100


# --------------------------------------------------------------------- #
# Warm sessions: the pools digest on the universe, the function memo
# per session. Both must leave every fingerprint byte-identical.
# --------------------------------------------------------------------- #

#: The serving benchmark's deck (``benchmarks/ledger/workloads.py``).
SERVE_CATALOGUE = (
    *(("pingpong", {"rounds": r}) for r in (1, 2, 3, 4)),
    *(("prodcons", {"bound": b}) for b in (2, 3, 4)),
    *(("broadcast", {"n": n}) for n in (2, 3)),
    *(("nbuyer", {"n": n}) for n in (2, 3)),
    *(("changroberts", {"n": n}) for n in (3, 4)),
    *(("twophase", {"n": n}) for n in (2, 3)),
    ("paxos", {"rounds": 1, "num_nodes": 2}),
    ("paxos", {"rounds": 2, "num_nodes": 2}),
)


class _FreshFingerprinter(DependencyFingerprinter):
    """The reference recipe: every dependency digested by a fresh
    ``_Hasher`` (no session memo shared across them)."""

    def _dep(self, label, obj):
        return stable_digest(obj)


class _StoreCountingHasher(_Hasher):
    def __init__(self):
        super().__init__()
        self.stores = 0

    def _compound(self, obj, path, depth):
        if isinstance(obj, Store):
            self.stores += 1
        return super()._compound(obj, path, depth)


def _catalogue_sessions(monkeypatch, warm, symmetry):
    """Verify the whole catalogue once against ``warm``; every
    fingerprinting session as ``(app, universe, [(ob, fingerprint)])``."""
    sessions = []
    init = DependencyFingerprinter.__init__
    fingerprint = DependencyFingerprinter.fingerprint

    def recording_init(self, app, universe):
        init(self, app, universe)
        sessions.append((app, universe, []))
        self._recorded = sessions[-1][2]

    def recording_fingerprint(self, ob):
        out = fingerprint(self, ob)
        self._recorded.append((ob, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(DependencyFingerprinter, "__init__", recording_init)
        patch.setattr(
            DependencyFingerprinter, "fingerprint", recording_fingerprint
        )
        for name, params in SERVE_CATALOGUE:
            report = ALL_PROTOCOLS[name].verify(
                **params, warm=warm, symmetry=symmetry
            )
            assert report.ok, (name, params)
    return sessions


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
def test_warm_runs_keep_every_fingerprint_byte_identical(
    monkeypatch, tmp_path, symmetry
):
    """Warm requests serve every resident pair's fingerprints from the
    warm state's memo, and every memoized ``(fingerprint, identity)``
    equals a fresh fingerprinter's."""
    warm = WarmState(rcache=tmp_path / "rcache")
    first = _catalogue_sessions(monkeypatch, warm, symmetry)
    second = _catalogue_sessions(monkeypatch, warm, symmetry)
    assert len(first) > len(SERVE_CATALOGUE)
    # Every pair stays resident, so the warm requests fingerprint nothing.
    assert second == []
    for app, universe, run in first:
        memo = warm.fingerprints(app, universe)
        assert len(memo) == len(run)
        reference = _FreshFingerprinter(
            app, dataclasses.replace(universe, _pools_digest=None)
        )
        for ob, fp in run:
            assert fp is not None and fp == reference.fingerprint(ob), ob.key
            assert memo[ob.key] == (fp, reference.identity(ob)), ob.key
        # A resident universe's pools are never digested again.
        assert universe._pools_digest is not None
        hasher = _StoreCountingHasher()
        assert (
            universe_fingerprint(universe, hasher) == reference._universe_fp
        )
        assert hasher.stores == 0
    total = sum(len(run) for _, _, run in first)
    assert warm.rcache.stats.hits == total
    assert warm.rcache.stats.stores == total


def test_a_universe_digests_its_pools_once():
    store = Store({"x": 1, "ch": Multiset([1, 1])})
    universe = StoreUniverse([store], {"A": [Store({"i": 0})]})
    cold = _StoreCountingHasher()
    digest = universe_fingerprint(universe, cold)
    assert cold.stores > 0
    warm = _StoreCountingHasher()
    assert universe_fingerprint(universe, warm) == digest
    assert warm.stores == 0
    # A derived universe is a new object with its own pools.
    extended = universe.extended([Store({"x": 2, "ch": Multiset()})])
    assert extended._pools_digest is None
    assert universe_fingerprint(extended) != digest


# --------------------------------------------------------------------- #
# The function memo and recursion
# --------------------------------------------------------------------- #


def _countdown(n):
    return n if n <= 0 else _countdown(n - 1)


def _is_even(n):
    return True if n == 0 else _is_odd(n - 1)


def _is_odd(n):
    return False if n == 0 else _is_even(n - 1)


def _parity(n):
    return "even" if _is_even(n) else "odd"


def _make_closure_loop():
    def loop(n):
        return n if n <= 0 else loop(n - 1)

    return loop


_closure_loop = _make_closure_loop()

RECURSIVE = {
    "self": _countdown,
    "even": _is_even,
    "odd": _is_odd,
    "caller": _parity,
    "closure": _closure_loop,
}


@pytest.mark.parametrize(
    "order",
    list(itertools.permutations(sorted(RECURSIVE))),
    ids=lambda order: "-".join(order),
)
def test_recursive_functions_digest_alike_in_every_request_order(order):
    """A digest taken through one session's memo equals a fresh
    hasher's, whichever recursive function the session met first."""
    session = _Hasher()
    for name in order:
        fn = RECURSIVE[name]
        assert session.digest(fn) == _Hasher().digest(fn), name
        # A second request in the same session agrees as well.
        assert session.digest(fn) == _Hasher().digest(fn), name


def test_a_session_digests_each_function_once():
    calls = []

    class Counting(_Hasher):
        def _remember(self, obj, cycles, out):
            # Reached once per digest actually computed, never on a hit.
            calls.append(obj)
            return super()._remember(obj, cycles, out)

    def helper(x):
        return x + 1

    def user(x):
        return helper(helper(x))

    hasher = Counting()
    first = hasher.digest((user, helper, user, [helper]))
    assert calls.count(helper) == 1 and calls.count(user) == 1
    assert first == _Hasher().digest((user, helper, user, [helper]))


# --------------------------------------------------------------------- #
# Golden values: the data-only recipe, free of bytecode
# --------------------------------------------------------------------- #
#
# Neither value below reaches a code object, so no Python upgrade can
# move them. A failure here means the fingerprint recipe changed: every
# cache entry on disk is then stale, and ``RCACHE_SCHEMA`` must be
# bumped in the same change (and these constants re-pinned).

GOLDEN_VALUE_DIGEST = (
    "a8a2497e00084cc9398ce895e665dda6509648a46103fb425e190451ca8cf2f2"
)
GOLDEN_UNIVERSE_DIGEST = (
    "d3baf826e1b76359c0dfd15a66ff56d280df37062eb91141129df71b7e710a8f"
)


def test_stable_digest_of_a_fixed_value_is_pinned():
    value = (
        7,
        -3,
        "x",
        frozenset({1, 2, "y"}),
        FrozenDict({"k": (1, 2), 3: "v"}),
        Multiset(["a", "a", 5]),
        Store({"n": 2, "s": frozenset({0, 1}), "m": Multiset([("p", 1)])}),
    )
    assert stable_digest(value) == GOLDEN_VALUE_DIGEST


def test_universe_fingerprint_of_a_fixed_universe_is_pinned():
    universe = StoreUniverse(
        [Store({"x": 0, "ch": Multiset([1])}), Store({"x": 1, "ch": Multiset()})],
        {"Send": [Store({"v": 0}), Store({"v": 1})], "Recv": [Store({})]},
    )
    assert isinstance(universe.context, NoContext)
    assert universe_fingerprint(universe) == GOLDEN_UNIVERSE_DIGEST
    # The memoized pools give the same bytes.
    assert universe_fingerprint(universe) == GOLDEN_UNIVERSE_DIGEST
