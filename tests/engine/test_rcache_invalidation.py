"""Mutation-driven invalidation: the cache must re-execute *exactly* the
obligations whose read-set covers an edit, and hit everything else.

The matrix wraps one proof artifact at a time in a behaviorally identical
but bytecode-distinct closure (``lambda state: gate(state)``) — the
sharpest possible edit: verdicts cannot change, so any difference in what
re-executes is purely the dependency fingerprints talking. Per protocol
the invariant edit must invalidate exactly the invariant readers
{I1, I2, I3}; on Ping-Pong a fine-grained matrix pins every artifact kind
(invariant, choice, measure, abstraction, eliminated action, main action)
to its exact read-set. The seeded proof bugs of ``repro.diagnose.fixtures``
must keep failing against a cache warmed with the *correct* proof — a
warm cache may never mask a bug. Verdicts must be identical cold vs warm
vs cross-process-warm (different ``PYTHONHASHSEED``) on all seven
protocols. An edit made in place between two runs on one resident
universe (a closure cell, a symmetry rename rule) is seen as well.

A store universe is keyed by its input fingerprint: a rewrap of any
program action's gate or transitions (an in-place closure-cell edit
included), another initial store, another budget, or switching symmetry
on or off re-explores it, while an invariant-only edit loads it and
re-executes exactly I1, I2 and I3. On every Table 1 row, plain and
quotiented, a loaded universe equals the explored one, in this process
and under another hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dataclasses

from repro.analysis.table1 import build_table1
from repro.core.action import Action
from repro.diagnose.fixtures import FIXTURES
from repro.engine.rcache import ObligationCache, universe_fingerprint
from repro.protocols import broadcast, pingpong, twophase
from repro.protocols.common import Instance, RunOptions, verify_protocol

from .rcache_cases import (
    PROTOCOL_NAMES,
    all_keys,
    build,
    condition_digest,
    condition_map,
    count_executions,
    rebuild,
    report_verdicts,
    wrap_action,
    wrap_measure,
    wrap_predicate,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _lm_parts(key):
    """``LM[name|other]`` / ``LM[name|other|cond#i]`` → (name, other)."""
    inner = key[len("LM[") : -1]
    parts = inner.split("|")
    return parts[0], parts[1]


def _action_readers(keys, target):
    """Obligation keys whose read-set includes the *program* action or
    fallback abstraction of ``target``: I3 (composes every α(e)), CO of
    the action itself, and every left-mover pair mentioning it."""
    affected = set()
    for key in keys:
        if key.startswith("LM["):
            name, other = _lm_parts(key)
            if target in (name, other):
                affected.add(key)
        elif key.startswith("I3"):
            affected.add(key)
    affected.add(f"CO[{target}]")
    return affected


def _run_warm_then_mutant(app, universe, mutant, cache_dir):
    """Cold-run ``app`` into ``cache_dir``, then run ``mutant`` against
    the warm cache, returning (mutant result, executed keys)."""
    cold = app.check(universe, jobs=1, cache=cache_dir)
    assert cold.holds
    with count_executions() as executed:
        warm = mutant.check(universe, jobs=1, cache=cache_dir)
    return warm, set(executed)


# --------------------------------------------------------------------- #
# Per-protocol: the invariant edit invalidates exactly {I1, I2, I3}
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_invariant_edit_reexecutes_exactly_the_invariant_readers(
    name, tmp_path
):
    app, universe = build(name)
    keys = all_keys(app, universe)
    expected = {k for k in keys if k in ("I1", "I2") or k.startswith("I3")}

    mutant = rebuild(app, invariant=wrap_action(app.invariant))
    result, executed = _run_warm_then_mutant(app, universe, mutant, tmp_path)

    assert executed == expected
    # Everything else is a hit — and the verdicts are byte-identical to a
    # cold run of the very same mutant.
    assert set(result.cached_keys) == keys - expected
    assert result.rcache_stats["invalidations"] == len(expected)
    assert result.rcache_stats["hits"] == len(keys) - len(expected)
    assert condition_map(result) == condition_map(
        mutant.check(universe, jobs=1)
    )


# --------------------------------------------------------------------- #
# Ping-Pong fine-grained matrix: one artifact kind per row
# --------------------------------------------------------------------- #


def _pp_expected(app, keys, artifact):
    if artifact == "invariant":
        return {"I1", "I2", "I3"}
    if artifact == "choice":
        return {"I3"}
    if artifact == "measure":
        return {k for k in keys if k.startswith("CO[")}
    if artifact == "abstraction":
        name = sorted(app.abstractions)[0]
        affected = {f"abs[{name}]", "I3", f"CO[{name}]"}
        affected |= {
            k for k in keys if k.startswith("LM[") and _lm_parts(k)[0] == name
        }
        return affected
    if artifact == "eliminated-action":
        return _action_readers(keys, "Ping") & (keys | {"CO[Ping]"})
    if artifact == "main-action":
        return {"I1"} | {
            k
            for k in keys
            if k.startswith("LM[") and _lm_parts(k)[1] == app.m_name
        }
    raise AssertionError(artifact)


def _pp_mutant(app, artifact):
    if artifact == "invariant":
        return rebuild(app, invariant=wrap_action(app.invariant))
    if artifact == "choice":
        return rebuild(app, choice=wrap_predicate(app.choice))
    if artifact == "measure":
        return rebuild(app, measure=wrap_measure(app.measure))
    if artifact == "abstraction":
        name = sorted(app.abstractions)[0]
        abstractions = dict(app.abstractions)
        abstractions[name] = wrap_action(abstractions[name])
        return rebuild(app, abstractions=abstractions)
    if artifact == "eliminated-action":
        wrapped = wrap_action(app.program["Ping"])
        return rebuild(app, program=app.program.with_action("Ping", wrapped))
    if artifact == "main-action":
        wrapped = wrap_action(app.program[app.m_name])
        return rebuild(
            app, program=app.program.with_action(app.m_name, wrapped)
        )
    raise AssertionError(artifact)


@pytest.mark.parametrize(
    "artifact",
    [
        "invariant",
        "choice",
        "measure",
        "abstraction",
        "eliminated-action",
        "main-action",
    ],
)
def test_pingpong_artifact_edits_invalidate_exactly_their_readers(
    artifact, tmp_path
):
    app, universe = build("pingpong")
    keys = all_keys(app, universe)
    assert "Ping" in app.eliminated and "Ping" not in app.abstractions

    mutant = _pp_mutant(app, artifact)
    expected = _pp_expected(app, keys, artifact)
    assert expected and expected <= keys

    result, executed = _run_warm_then_mutant(app, universe, mutant, tmp_path)
    assert executed == expected
    assert set(result.cached_keys) == keys - expected
    assert result.holds


# --------------------------------------------------------------------- #
# A warm cache must never mask a seeded proof bug
# --------------------------------------------------------------------- #


def _correct_broadcast_fixture_twin(n=2):
    """The correct one-shot broadcast proof on the *fixtures'* frame:
    same program, same universe builder, correct abstraction — so its
    cache entries genuinely collide with a mutant's unaffected ones."""
    from repro.core.program import MAIN
    from repro.core.sequentialize import ISApplication

    program = broadcast.make_atomic(n)
    app = ISApplication(
        program=program,
        m_name=MAIN,
        eliminated=("Broadcast", "Collect"),
        invariant=broadcast.make_invariant(n),
        measure=broadcast.make_measure(),
        abstractions={"Collect": broadcast.make_collect_abs(n)},
    )
    return app, broadcast.make_universe(program, n)


def _obligations_of_condition(condition, keys):
    """The obligation keys that merge into one condition-map key."""
    if condition == "CO":
        return {k for k in keys if k.startswith("CO[")}
    if condition.startswith("LM[") and "|" not in condition:
        name = condition[len("LM[") : -1]
        return {
            k for k in keys if k.startswith("LM[") and _lm_parts(k)[0] == name
        }
    if condition == "I3":
        return {k for k in keys if k.startswith("I3")}
    return {condition}


@pytest.mark.parametrize("fixture_name", sorted(FIXTURES))
def test_seeded_bug_is_never_masked_by_a_warm_correct_cache(
    fixture_name, tmp_path
):
    fixture = FIXTURES[fixture_name]

    # Warm the cache with the correct proof: everything passes and is
    # stored.
    good_app, good_universe = _correct_broadcast_fixture_twin()
    good = good_app.check(good_universe, jobs=1, cache=tmp_path)
    assert good.holds

    # The mutant against the warm cache: its seeded failures must
    # re-execute (the mutated abstraction changed their fingerprints) and
    # fail exactly as they do on a cold run.
    bad_app, bad_universe = fixture.build()
    cold = bad_app.check(bad_universe, jobs=1)
    with count_executions() as executed:
        seeded = bad_app.check(bad_universe, jobs=1, cache=tmp_path)
    assert not seeded.holds
    assert condition_map(seeded) == condition_map(cold)
    failing = {k for k, r in seeded.conditions.items() if not r.holds}
    assert set(fixture.expect_failing) <= failing
    # Every seeded failure was re-proven live, not read from the cache.
    keys = all_keys(bad_app, bad_universe)
    for condition in fixture.expect_failing:
        assert _obligations_of_condition(condition, keys) & set(executed), (
            condition
        )

    # And a warm re-run of the mutant itself still reports the bug with
    # zero executions — caching a failure does not erase it.
    with count_executions() as executed:
        warm = bad_app.check(bad_universe, jobs=1, cache=tmp_path)
    assert not executed
    assert condition_map(warm) == condition_map(cold)


# --------------------------------------------------------------------- #
# Verdict identity: cold vs warm vs cross-process warm, all protocols
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_warm_rerun_executes_nothing_and_preserves_verdicts(name, tmp_path):
    app, universe = build(name)
    keys = all_keys(app, universe)

    plain = app.check(universe, jobs=1)
    cold = app.check(universe, jobs=1, cache=tmp_path)
    with count_executions() as executed:
        warm = app.check(universe, jobs=1, cache=tmp_path)

    assert not executed
    assert set(warm.cached_keys) == keys
    assert warm.rcache_stats["hits"] == len(keys)
    assert (
        condition_map(plain) == condition_map(cold) == condition_map(warm)
    )


_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {root!r})
sys.path.insert(0, {src!r})
from tests.engine import rcache_cases as rc

cache_root = sys.argv[1]
out = {{}}
for name in rc.PROTOCOL_NAMES:
    app, universe = rc.build(name)
    with rc.count_executions() as executed:
        result = app.check(universe, jobs=1, cache=f"{{cache_root}}/{{name}}")
    out[name] = {{
        "executed": len(executed),
        "digest": rc.condition_digest(result),
    }}
print(json.dumps(out))
"""


def test_cross_process_warm_cache_preserves_verdicts(tmp_path):
    """A cache written by one process serves another — under a different
    hash seed, so any hidden ordering dependence in the fingerprints
    would surface as a miss or a verdict drift."""
    digests = {}
    for name in PROTOCOL_NAMES:
        app, universe = build(name)
        result = app.check(universe, jobs=1, cache=tmp_path / name)
        digests[name] = condition_digest(result)

    script = _SUBPROCESS_SCRIPT.format(
        root=str(REPO_ROOT), src=str(REPO_ROOT / "src")
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "12345"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    remote = json.loads(proc.stdout)
    for name in PROTOCOL_NAMES:
        assert remote[name]["executed"] == 0, name
        assert remote[name]["digest"] == digests[name], name


# --------------------------------------------------------------------- #
# In-place edits between warm runs on one resident universe
# --------------------------------------------------------------------- #


def _cell(fn, name):
    """The closure cell of ``fn`` that holds free variable ``name``."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)]


def test_closure_cell_edit_between_warm_runs_reexecutes_its_readers(
    tmp_path,
):
    """The universe's pools digest outlives a run, function digests do
    not: editing a cell the invariant's gate reads, in place, between two
    checks on the same universe object re-executes exactly I1, I2, I3."""
    app, universe = build("pingpong")
    floor = 0
    gate = app.invariant.gate

    def guarded_gate(state):
        return len(state) >= floor and gate(state)

    invariant = app.invariant
    app = rebuild(
        app,
        invariant=Action(
            invariant.name, guarded_gate, invariant.transitions, invariant.params
        ),
    )
    keys = all_keys(app, universe)
    cold = app.check(universe, jobs=1, cache=tmp_path)
    assert cold.holds and universe._pools_digest is not None
    with count_executions() as executed:
        app.check(universe, jobs=1, cache=tmp_path)
    assert executed == []

    _cell(guarded_gate, "floor").cell_contents = -1  # same verdicts
    with count_executions() as executed:
        edited = app.check(universe, jobs=1, cache=tmp_path)
    assert set(executed) == {
        k for k in keys if k in ("I1", "I2") or k.startswith("I3")
    }
    assert condition_map(edited) == condition_map(cold)


def test_rename_rule_edit_moves_a_memoized_quotient_fingerprint():
    """A quotiented universe whose pools digest is memoized still
    digests its symmetry spec's rename rules on every call."""
    from repro.engine.rcache import universe_fingerprint
    from repro.protocols import twophase

    _, universe = build("twophase")
    quotient = universe.quotiented(twophase.make_symmetry(3))
    before = universe_fingerprint(quotient)
    assert quotient._pools_digest is not None
    assert universe_fingerprint(quotient) == before

    rule = quotient.symmetry.local_rules["HandleRequest"]["i"]
    _cell(rule, "sort").cell_contents = "other"
    assert universe_fingerprint(quotient) != before


# --------------------------------------------------------------------- #
# Universe keys: what moves them, and what keeps them
# --------------------------------------------------------------------- #


def _pingpong_run(cache, app=None, initial=None, **options):
    """``verify_protocol`` of Ping-Pong at two rounds, with the application
    or the initial store swapped: ``(report, executed obligation keys)``."""
    instance = Instance(
        "ping-pong",
        {"rounds": 2},
        [("Ping+Pong+Await", app or pingpong.make_sequentialization(2))],
        initial if initial is not None else pingpong.initial_global(2),
        lambda final: pingpong.spec_holds(final, 2),
    )
    with count_executions() as executed:
        report = verify_protocol(instance, RunOptions(cache=cache, **options))
    return report, set(executed)


def _counted(cache, run):
    """``run()``'s result and the ``(universe hits, universe misses)`` it
    added to ``cache``."""
    before = cache.stats.snapshot()
    result = run()
    delta = cache.stats.delta(before)
    return result, (delta["universe_hits"], delta["universe_misses"])


def _rewrap(action, part):
    gate, transitions = action.gate, action.transitions
    if part == "gate":
        gate = lambda state: action.gate(state)  # noqa: E731
    else:
        transitions = lambda state: action.transitions(state)  # noqa: E731
    return Action(action.name, gate, transitions, action.params)


@pytest.mark.parametrize("part", ["gate", "transitions"])
@pytest.mark.parametrize("name", ["Main", "Ping", "Pong", "PingAwait"])
def test_program_action_rewrap_reexplores_the_universe(name, part, tmp_path):
    cache = ObligationCache(tmp_path)
    app = pingpong.make_sequentialization(2)
    assert _counted(cache, lambda: _pingpong_run(cache, app))[1] == (0, 1)
    assert _counted(cache, lambda: _pingpong_run(cache, app))[1] == (1, 0)
    action = _rewrap(app.program[name], part)
    edited = rebuild(app, program=app.program.with_action(name, action))
    (report, _), counts = _counted(cache, lambda: _pingpong_run(cache, edited))
    assert counts == (0, 1)
    uncached, _ = _pingpong_run(None, edited)
    assert report_verdicts(report) == report_verdicts(uncached)


def test_closure_cell_edit_in_a_program_action_reexplores_the_universe(tmp_path):
    """The same objects verified twice hit; editing a cell a program
    action's gate reads, in place, moves the universe key."""
    cache = ObligationCache(tmp_path)
    app = pingpong.make_sequentialization(2)
    floor = 0
    pong = app.program["Pong"]

    def guarded_gate(state):
        return len(state) >= floor and pong.gate(state)

    guarded = Action(pong.name, guarded_gate, pong.transitions, pong.params)
    app = rebuild(app, program=app.program.with_action("Pong", guarded))
    assert _counted(cache, lambda: _pingpong_run(cache, app))[1] == (0, 1)
    assert _counted(cache, lambda: _pingpong_run(cache, app))[1] == (1, 0)
    cells = guarded_gate.__code__.co_freevars
    guarded_gate.__closure__[cells.index("floor")].cell_contents = -1  # same verdicts
    assert _counted(cache, lambda: _pingpong_run(cache, app))[1] == (0, 1)


def test_initial_store_and_budget_move_the_universe_key(tmp_path):
    cache = ObligationCache(tmp_path)
    other = pingpong.initial_global(2).set("unused", 0)
    runs = [
        lambda: _pingpong_run(cache),
        lambda: _pingpong_run(cache, initial=other),
        lambda: _pingpong_run(cache, max_configs=10_000),
    ]
    for index, run in enumerate(runs):
        assert _counted(cache, run)[1] == (0, 1), index
    assert _counted(cache, runs[0])[1] == (1, 0)


def test_switching_symmetry_moves_the_universe_keys(tmp_path):
    cache = ObligationCache(tmp_path)
    count = twophase.verify(n=2, cache=cache).num_is_applications
    assert cache.stats.universe_misses == count
    switches = ((True, (0, count)), (False, (count, 0)), (True, (count, 0)))
    for symmetry, counts in switches:
        report, added = _counted(
            cache, lambda: twophase.verify(n=2, cache=cache, symmetry=symmetry)
        )
        assert report.ok and added == counts, symmetry


def test_invariant_edit_keeps_the_universe_and_reexecutes_its_readers(tmp_path):
    """The ledger's re-verify edit, through the whole pipeline: the
    universe is loaded, and only I1, I2 and I3 execute."""
    cache = ObligationCache(tmp_path)
    app = pingpong.make_sequentialization(2)
    _pingpong_run(cache, app)
    edited = rebuild(app, invariant=wrap_action(app.invariant))
    (report, executed), counts = _counted(
        cache, lambda: _pingpong_run(cache, edited)
    )
    assert counts == (1, 0)
    assert executed == {
        key
        for key in report.is_results[0][1].conditions
        if key in ("I1", "I2") or key.startswith("I3")
    }
    uncached, _ = _pingpong_run(None, edited)
    assert report_verdicts(report) == report_verdicts(uncached)


@pytest.mark.parametrize("symmetry", [False, True], ids=["plain", "symmetry"])
def test_loaded_universes_equal_explored_ones_on_table1(
    symmetry, tmp_path, monkeypatch
):
    """Every Table 1 row verified cold, then warm from the same cache: the
    warm run explores nothing, and each loaded universe has the explored
    one's globals order, locals pools, fingerprint and exploration
    summary."""
    explored, loaded = [], []
    store, load = ObligationCache.store_universe, ObligationCache.load_universe

    def storing(self, key, universe):
        explored.append(universe)
        return store(self, key, universe)

    def loading(self, *args):
        universe = load(self, *args)
        loaded.append(universe)
        return universe

    monkeypatch.setattr(ObligationCache, "store_universe", storing)
    monkeypatch.setattr(ObligationCache, "load_universe", loading)
    cold = build_table1(cache=tmp_path, symmetry=symmetry)
    del loaded[:]  # the cold run's misses
    cache = ObligationCache(tmp_path)
    warm = build_table1(cache=cache, symmetry=symmetry)
    assert all(row.ok for row in cold + warm)
    assert cache.stats.universe_misses == cache.stats.stage_misses == 0
    assert len(loaded) == len(explored) == sum(row.num_is for row in cold)
    for index, (old, new) in enumerate(zip(explored, loaded)):
        assert new.globals_ == old.globals_, index
        assert new.locals_by_action == old.locals_by_action, index
        assert list(new.locals_by_action) == list(old.locals_by_action), index
        assert universe_fingerprint(new) == universe_fingerprint(
            dataclasses.replace(old, _pools_digest=None)
        ), index
        assert new.exploration == old.exploration, index
        assert (new.symmetry is None) == (old.symmetry is None), index
        # Only a quotient has no summary to carry.
        assert (new.exploration is None) == (new.symmetry is not None), index
    assert any(u.symmetry is not None for u in loaded) == symmetry


_LOAD_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.core import initial_config
from repro.core.universe import StoreUniverse
from repro.engine.rcache import ObligationCache
from repro.protocols import twophase

cache = ObligationCache(sys.argv[1])
report = twophase.verify(n=2, cache=cache)
same = []
for _label, app, loaded in report.explain_targets:
    explored = StoreUniverse.from_reachable(
        app.program, [initial_config(twophase.initial_global(2))]
    )
    # Set equality hashes the loaded values: a hash that travelled in the
    # pickle from another hash seed would break it.
    same.append(
        loaded.globals_ == explored.globals_
        and set(loaded.globals_) == set(explored.globals_)
        and {{k: set(v) for k, v in loaded.locals_by_action.items()}}
        == {{k: set(v) for k, v in explored.locals_by_action.items()}}
    )
print(json.dumps({{
    "ok": report.ok,
    "hits": cache.stats.universe_hits,
    "misses": cache.stats.universe_misses,
    "same": same,
}}))
"""


def test_universes_load_under_another_hash_seed(tmp_path):
    cold = twophase.verify(n=2, cache=tmp_path)
    env = dict(os.environ)
    # Any seed but this process's own.
    own = os.environ.get("PYTHONHASHSEED")
    env["PYTHONHASHSEED"] = "7" if own == "4242" else "4242"
    script = _LOAD_SCRIPT.format(src=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    remote = json.loads(proc.stdout)
    assert remote == {
        "ok": True,
        "hits": cold.num_is_applications,
        "misses": 0,
        "same": [True] * cold.num_is_applications,
    }


_WITNESS_SCRIPT = """
import dataclasses, json, sys
sys.path.insert(0, {src!r})
from repro.core.action import PendingAsync, Transition
from repro.core.multiset import Multiset
from repro.diagnose.fixtures import FIXTURES
from repro.engine.rcache import ObligationCache

def values(obj, found):
    # Every PendingAsync and Transition inside a witness, at any depth.
    if isinstance(obj, (PendingAsync, Transition)):
        found.append(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            values(getattr(obj, f.name), found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            values(item, found)
    elif isinstance(obj, Multiset):
        for element in obj.support():
            values(element, found)
    return found

app, universe = FIXTURES["broken-broadcast"].build()
cache = ObligationCache(sys.argv[1])
warm = app.check(universe, jobs=1, cache=cache)
cold = app.check(universe, jobs=1)
loaded = values([r.counterexamples for _, r in sorted(warm.conditions.items())], [])
fresh = values([r.counterexamples for _, r in sorted(cold.conditions.items())], [])
print(json.dumps({{
    "hits": cache.stats.hits,
    "misses": cache.stats.misses,
    "values": len(loaded),
    "equal": loaded == fresh,
    "hashes": [hash(a) for a in loaded] == [hash(b) for b in fresh],
    "members": all(a in {{b}} for a, b in zip(loaded, fresh)),
}}))
"""


def test_cached_witnesses_load_under_another_hash_seed(tmp_path):
    """A failing run's witnesses hold pending asyncs and transitions whose
    hashes were computed (and stored in their hash slot) while they were
    built. Cached under this process's hash seed and loaded under
    another, they equal and hash like the witnesses a cold run computes
    there: the slot never travels in the cached pickle."""
    app, universe = FIXTURES["broken-broadcast"].build()
    cold = app.check(universe, jobs=1, cache=tmp_path)
    assert not cold.holds
    env = dict(os.environ)
    own = os.environ.get("PYTHONHASHSEED")
    env["PYTHONHASHSEED"] = "7" if own == "4242" else "4242"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _WITNESS_SCRIPT.format(src=str(REPO_ROOT / "src")),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    remote = json.loads(proc.stdout)
    assert remote["misses"] == 0 and remote["hits"] > 0
    assert remote["values"] > 0
    assert remote == {**remote, "equal": True, "hashes": True, "members": True}
