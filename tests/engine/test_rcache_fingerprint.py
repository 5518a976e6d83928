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
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.multiset import Multiset
from repro.core.store import Store
from repro.engine.obligations import build_obligations
from repro.engine.rcache import DependencyFingerprinter, stable_digest

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
