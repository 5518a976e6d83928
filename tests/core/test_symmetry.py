"""Tests for symmetry specs and orbit canonicalization.

The property suite pins the three facts the quotient's soundness rests
on: canonicalization is *idempotent* (a representative is its own
representative), *orbit-invariant* (every element of an orbit maps to the
same representative), and *equality-preserving* (two stores canonicalize
equal iff they lie in the same orbit). The combinator tests pin the
rename algebra itself on every container shape the protocols use.
"""

from dataclasses import replace

import pytest

from repro.core import Multiset, PendingAsync, Store, initial_config
from repro.core import symmetry as sym
from repro.core.hashing import structural_key
from repro.core.mapping import FrozenDict
from repro.core.semantics import Config


def _spec(n=3):
    """A small node-symmetric spec over the shapes protocols use."""
    node = sym.atom("node")
    return sym.SymmetrySpec(
        name=f"test-n{n}",
        sorts={"node": tuple(range(1, n + 1))},
        global_rules={
            "owner": node,
            "flags": sym.fmap(node, sym.ID),
            "members": sym.fset(node),
            "slot": sym.opt(node),
            "pair": sym.tup(sym.ID, node),
            "trail": sym.seq(node),
            "inbox": sym.bag(node),
        },
        local_rules={"Act": {"i": node}},
        ghost_var="ghost",
    )


def _perm_of(spec, mapping):
    """The group element realizing ``mapping`` on the node sort."""
    for perm in spec.group():
        if perm["node"] == mapping:
            return perm
    raise AssertionError(f"no group element for {mapping}")


# --------------------------------------------------------------------- #
# Combinators
# --------------------------------------------------------------------- #


def test_combinators_rename_every_shape():
    spec = _spec(3)
    perm = _perm_of(spec, {1: 2, 2: 3, 3: 1})
    assert sym.ID(perm, 41) == 41
    assert sym.atom("node")(perm, 1) == 2
    assert sym.atom("node")(perm, 99) == 99  # lenient out-of-domain
    assert sym.atom("ghost-sort")(perm, 1) == 1  # lenient unknown sort
    assert sym.opt(sym.atom("node"))(perm, None) is None
    assert sym.opt(sym.atom("node"))(perm, 3) == 1
    assert sym.tup(sym.ID, sym.atom("node"))(perm, ("k", 1)) == ("k", 2)
    assert sym.seq(sym.atom("node"))(perm, (1, 2, 1)) == (2, 3, 2)
    assert sym.fset(sym.atom("node"))(perm, frozenset({1, 3})) == frozenset(
        {2, 1}
    )
    renamed = sym.fmap(sym.atom("node"), sym.ID)(
        perm, FrozenDict({1: "a", 2: "b"})
    )
    assert renamed == FrozenDict({2: "a", 3: "b"})


def test_bag_accumulates_colliding_multiplicities():
    # A rename that merges two elements must add their counts, not
    # overwrite one with the other.
    collapse = sym.bag(lambda perm, v: "x")
    out = collapse({}, Multiset(["a", "b", "b"]))
    assert out == Multiset(["x", "x", "x"])


# --------------------------------------------------------------------- #
# SymmetrySpec
# --------------------------------------------------------------------- #


def test_group_order_and_identity_first():
    spec = _spec(3)
    group = spec.group()
    assert len(group) == spec.order() == 6
    identity = group[0]
    assert all(k == v for k, v in identity["node"].items())
    # Every element is a bijection on the domain.
    for perm in group:
        assert sorted(perm["node"].values()) == [1, 2, 3]


def test_product_group_over_two_sorts():
    spec = sym.SymmetrySpec(
        name="two-sorts",
        sorts={"node": (1, 2, 3), "value": ("a", "b")},
    )
    assert spec.order() == 12
    assert len(spec.group()) == 12


def _frozen(perm):
    return tuple(sorted((sort, tuple(sorted(m.items()))) for sort, m in perm.items()))


@pytest.mark.parametrize(
    "sorts",
    [
        {"node": (1, 2, 3)},
        {"node": (1, 2, 3, 4)},
        {"node": (1, 2, 3), "value": ("a", "b")},
        {"node": (1,)},
        {"node": (1, 2)},
        {"lone": ("x",), "pair": (1, 2), "node": (1, 2, 3)},
    ],
)
def test_generators_close_to_the_whole_group(sorts):
    spec = sym.SymmetrySpec(name="gens", sorts=sorts)
    group = {_frozen(p) for p in spec.group()}
    generators = spec.generators()
    assert len(generators) == sum(
        (len(d) > 2) + (len(d) > 1) for d in sorts.values()
    )
    closure = {_frozen(spec.group()[0])}
    frontier = [spec.group()[0]]
    while frontier:
        element = frontier.pop()
        for g in generators:
            product = {s: {v: g[s][element[s][v]] for v in d} for s, d in sorts.items()}
            if _frozen(product) not in closure:
                closure.add(_frozen(product))
                frontier.append(product)
    assert closure == group
    canon = sym.Canonicalizer(spec)
    assert [canon.perms[i] for i in canon.generators] == generators


def test_token_is_deterministic_and_discriminating():
    assert _spec(3).token() == _spec(3).token()
    assert _spec(3).token() != _spec(2).token()


# --------------------------------------------------------------------- #
# Canonicalization properties
# --------------------------------------------------------------------- #


def _stores(n=3):
    """A spread of stores exercising every declared shape, including
    symmetric (fixed-point) and asymmetric ones."""
    mk = lambda owner, flags, members, slot: Store(
        {
            "owner": owner,
            "flags": FrozenDict(flags),
            "members": frozenset(members),
            "slot": slot,
            "pair": ("k", owner),
            "trail": (owner,),
            "inbox": Multiset(sorted(members)),
            "count": 7,
            "ghost": Multiset(
                [PendingAsync("Act", Store({"i": owner}))]
            ),
        }
    )
    out = []
    for owner in range(1, n + 1):
        out.append(mk(owner, {i: i == owner for i in range(1, n + 1)}, {owner}, None))
    out.append(mk(1, {i: True for i in range(1, n + 1)}, set(range(1, n + 1)), 2))
    out.append(mk(2, {i: False for i in range(1, n + 1)}, set(), None))
    return out


def test_canonical_is_idempotent():
    canon = sym.Canonicalizer(_spec(3))
    for store in _stores():
        rep = canon.store(store)
        assert canon.store(rep) == rep


def test_canonical_is_orbit_invariant():
    canon = sym.Canonicalizer(_spec(3))
    for store in _stores():
        rep = canon.store(store)
        for member in canon.orbit(store):
            assert canon.store(member) == rep


def test_canonical_preserves_store_equality():
    # Same orbit -> same representative; different orbit -> different.
    canon = sym.Canonicalizer(_spec(3))
    stores = _stores()
    for a in stores:
        orbit_a = set(canon.orbit(a))
        for b in stores:
            same_orbit = b in orbit_a
            assert (canon.store(a) == canon.store(b)) == same_orbit


def test_canonical_is_lexicographic_least():
    canon = sym.Canonicalizer(_spec(3))
    for store in _stores():
        rep = canon.store(store)
        keys = sorted(structural_key(m) for m in canon.orbit(store))
        assert structural_key(rep) == keys[0]


def test_symmetric_store_is_its_own_representative():
    canon = sym.Canonicalizer(_spec(3))
    fixed = Store(
        {
            "owner": 99,  # out of domain: untouched
            "flags": FrozenDict({1: True, 2: True, 3: True}),
            "members": frozenset({1, 2, 3}),
            "slot": None,
            "pair": ("k", 99),
            "trail": (),
            "inbox": Multiset([1, 2, 3]),
            "count": 0,
            "ghost": Multiset([]),
        }
    )
    assert canon.store(fixed) is fixed


def test_config_renamed_jointly_with_ghost_mirror():
    """The pending multiset and the ghost bag inside the global must be
    renamed by the *same* permutation, so admissibility filtering stays
    exact on the quotient."""
    canon = sym.Canonicalizer(_spec(3))
    for store in _stores():
        pending = store["ghost"]
        rep = canon.config(Config(store, pending))
        assert rep.glob["ghost"] == rep.pending


def test_config_canonical_idempotent_and_orbit_invariant():
    spec = _spec(3)
    canon = sym.Canonicalizer(spec)
    for store in _stores():
        config = Config(store, store["ghost"])
        rep = canon.config(config)
        assert canon.config(rep) == rep
        for pi in range(len(canon.perms)):
            member = Config(
                canon.rename_global(store, pi),
                canon.rename_pending(config.pending, pi),
            )
            assert canon.config(member) == rep


def test_local_orbit_closes_parameter_stores():
    canon = sym.Canonicalizer(_spec(3))
    orbit = canon.local_orbit("Act", Store({"i": 1}))
    assert sorted(s["i"] for s in orbit) == [1, 2, 3]
    # Actions without rules have singleton orbits.
    assert canon.local_orbit("Other", Store({"i": 1})) == [Store({"i": 1})]


def test_rename_is_group_action_on_stores():
    """Renaming by pi then sigma equals renaming by the composite — spot
    check on all pairs for one store, against the rename rules directly —
    and the canonicalizer's composition table names that composite."""
    spec = _spec(3)
    canon = sym.Canonicalizer(spec)
    store = _stores()[0]
    perms = canon.perms
    for i, pi in enumerate(perms):
        for j, sigma in enumerate(perms):
            composite = {
                "node": {k: sigma["node"][v] for k, v in pi["node"].items()}
            }
            k = next(
                idx
                for idx, p in enumerate(perms)
                if p["node"] == composite["node"]
            )
            assert canon.rename_global(
                canon.rename_global(store, i), j
            ) == canon.rename_global(store, k)
            assert canon._mul[j][i] == k


# --------------------------------------------------------------------- #
# Brute-force reference on real protocol states
# --------------------------------------------------------------------- #


def _reference_rename(spec, perm, var, value):
    """Rename one global value straight from the spec's rules."""
    rule = spec.global_rules.get(var)
    if rule is not None:
        return rule(perm, value)
    if var == spec.ghost_var and isinstance(value, Multiset):
        return _reference_rename_bag(spec, perm, value)
    return value


def _reference_rename_bag(spec, perm, bag):
    counts = {}
    for pending, count in bag.counts():
        rules = spec.local_rules.get(pending.action, {})
        locals_ = Store(
            {
                k: rules[k](perm, v) if k in rules else v
                for k, v in pending.locals.items()
            }
        )
        renamed = PendingAsync(pending.action, locals_)
        counts[renamed] = counts.get(renamed, 0) + count
    return Multiset.from_counts(counts)


def _reference_least(spec, glob, pending=None):
    """The first group element, in group order, minimizing the renamed
    global's structural key, then the renamed pending bag's."""
    candidates = []
    for pi, perm in enumerate(spec.group()):
        renamed = Store(
            {var: _reference_rename(spec, perm, var, v) for var, v in glob.items()}
        )
        bag = None if pending is None else _reference_rename_bag(spec, perm, pending)
        key = (structural_key(renamed), "" if bag is None else structural_key(bag))
        candidates.append((key, pi, renamed, bag))
    return min(candidates, key=lambda c: (c[0], c[1]))[1:]


def _protocol_cases():
    from repro.protocols import broadcast, nbuyer, paxos, twophase

    return {
        "twophase-n3": (
            [app.program for _, app in twophase.make_sequentializations(3)],
            twophase.initial_global(3),
            twophase.make_symmetry(3),
        ),
        "nbuyer-n3": (
            [app.program for _, app in nbuyer.make_sequentializations(3)],
            nbuyer.initial_global(3),
            nbuyer.make_symmetry(3),
        ),
        "broadcast-n3": (
            [broadcast.make_atomic(3)]
            + [app.program for app in broadcast.make_iterated_sequentializations(3)],
            broadcast.initial_global(3),
            broadcast.make_symmetry(3),
        ),
        # |G| = 24: the two quotient instances of the benchmark ledger.
        "twophase-n4": (
            [app.program for _, app in twophase.make_sequentializations(4)],
            twophase.initial_global(4),
            twophase.make_symmetry(4),
        ),
        "nbuyer-n4": (
            [app.program for _, app in nbuyer.make_sequentializations(4)],
            nbuyer.initial_global(4),
            nbuyer.make_symmetry(4),
        ),
        "paxos-r1n2": (
            [paxos.make_sequentialization(1, 2).program],
            paxos.initial_global(1, 2),
            paxos.make_symmetry(1, 2),
        ),
        # Without the ghost mirror, global-store ties are common and the
        # renamed pending bag decides them.
        "twophase-n3-unmirrored": (
            [twophase.make_sequentializations(3)[0][1].program],
            twophase.initial_global(3),
            replace(twophase.make_symmetry(3), ghost_var=None),
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "twophase-n3",
        "nbuyer-n3",
        "broadcast-n3",
        "twophase-n4",
        "nbuyer-n4",
        "paxos-r1n2",
        "twophase-n3-unmirrored",
    ],
)
def test_canonicalizer_matches_brute_force_reference(case):
    """On every reachable configuration of the case's programs,
    ``config`` and ``store`` return exactly the brute-force reference's
    representative — the input object itself exactly when the input is
    already least — and every value id's fragment is the whole-value
    ``structural_key`` rendering."""
    from repro.core.explore import explore

    programs, initial_global, spec = _protocol_cases()[case]
    configs = set()
    for program in programs:
        configs |= explore(program, [initial_config(initial_global)]).configs()
    canon = sym.Canonicalizer(spec)
    least_inputs = moved_inputs = 0
    for config in configs:
        pi, glob, pending = _reference_least(spec, config.glob, config.pending)
        got = canon.config(config)
        assert got == Config(glob, pending)
        assert (got is config) == (pi == 0)
        least_inputs += pi == 0
        moved_inputs += pi != 0
    for store in {config.glob for config in configs}:
        pi, glob, _ = _reference_least(spec, store)
        got = canon.store(store)
        assert got == glob
        assert (got is store) == (pi == 0)
    assert least_inputs and moved_inputs
    assert canon._fragments
    for vid, fragment in canon._fragments.items():
        var, value = canon._values[vid]
        assert fragment == structural_key(var) + "=" + structural_key(value)


def _reference_ties(spec, store):
    """Every group element, in group order, mapping ``store`` to its
    least orbit member."""
    keys = [
        structural_key(
            Store({var: _reference_rename(spec, p, var, v) for var, v in store.items()})
        )
        for p in spec.group()
    ]
    return tuple(pi for pi, key in enumerate(keys) if key == min(keys))


def test_tie_lists_are_the_brute_force_coset():
    """``least`` returns, in group order, exactly the elements mapping a
    store to its representative: a coset of the store's stabilizer, which
    the canonicalizer derives from its orbit search, never by sweeping
    the group."""
    from repro.core.explore import explore

    programs, initial_global, spec = _protocol_cases()["twophase-n3-unmirrored"]
    stores = {
        config.glob
        for program in programs
        for config in explore(program, [initial_config(initial_global)]).configs()
    }
    cases = [(spec, stores), (_spec(3), _stores())]
    stabilized = 0
    for case_spec, case_stores in cases:
        canon = sym.Canonicalizer(case_spec)
        for store in case_stores:
            rep, ties = canon.least(store)
            expected = _reference_ties(case_spec, store)
            assert ties == expected
            assert rep == canon.rename_global(store, ties[0])
            stabilized += len(ties) > 1
    assert stabilized


def test_repr_counts_orbits_and_members():
    canon = sym.Canonicalizer(_spec(3))
    store = _stores()[0]
    canon.store(store)
    orbit = canon.orbit(store)
    assert repr(canon) == (
        f"Canonicalizer(test-n3, |G|=6, 1 orbits, {len(orbit)} members memoized)"
    )


def test_global_ties_break_on_the_renamed_pending_bag():
    # Every element fixes the global store, so the pending bag decides.
    spec = _spec(3)
    glob = Store({"count": 7, "members": frozenset({1, 2, 3})})
    pending = Multiset(
        [PendingAsync("Act", Store({"i": 3})), PendingAsync("Act", Store({"i": 3}))]
    )
    pi, rep_glob, rep_pending = _reference_least(spec, glob, pending)
    assert pi != 0 and rep_glob == glob
    assert sym.Canonicalizer(spec).config(Config(glob, pending)) == Config(
        rep_glob, rep_pending
    )


# --------------------------------------------------------------------- #
# Quotiented universes
# --------------------------------------------------------------------- #


def test_quotiented_universe_folds_orbits_and_closes_locals():
    from repro.core.universe import StoreUniverse

    spec = _spec(3)
    canon = sym.Canonicalizer(spec)
    stores = _stores()
    universe = StoreUniverse(stores, {"Act": [Store({"i": 1})]})
    quotient = universe.quotiented(spec)
    assert quotient.symmetry is spec
    # Every original store's representative is present, nothing else.
    assert set(quotient.globals_) == {canon.store(s) for s in stores}
    # The locals pool is closed under the group: a canonical global may
    # pair with any orbit member of a harvested local.
    assert sorted(s["i"] for s in quotient.locals_for("Act")) == [1, 2, 3]
    # Quotienting is idempotent at the universe level.
    assert quotient.quotiented(spec) is quotient


def test_quotiented_universe_deterministic_order():
    from repro.core.universe import StoreUniverse

    spec = _spec(3)
    stores = _stores()
    u1 = StoreUniverse(stores, {"Act": [Store({"i": 2})]}).quotiented(spec)
    u2 = StoreUniverse(stores[::-1], {"Act": [Store({"i": 3})]}).quotiented(
        spec
    )
    assert u1.globals_ == u2.globals_
    assert u1.locals_for("Act") == u2.locals_for("Act")


def test_from_reachable_quotient_matches_post_hoc_quotient():
    """Quotienting *during* BFS (folding successors to representatives)
    must harvest exactly the representatives of the unquotiented
    universe's stores — equivariance makes the two commute."""
    from repro.core.universe import StoreUniverse
    from repro.protocols import twophase

    apps = twophase.make_sequentializations(2)
    program = apps[0][1].program
    init = initial_config(twophase.initial_global(2))
    spec = twophase.make_symmetry(2)
    canon = sym.Canonicalizer(spec)

    plain = StoreUniverse.from_reachable(program, [init])
    quotient = StoreUniverse.from_reachable(program, [init], symmetry=spec)
    assert set(quotient.globals_) == {canon.store(g) for g in plain.globals_}
    assert len(quotient.globals_) < len(plain.globals_)


def test_from_reachable_closes_locals_pools_under_group():
    """The quotient BFS fixes one permutation per configuration, so the
    raw locals harvest holds one orbit member per (config, PA) pair; the
    group closure must restore exactly the unquotiented pools — without
    it, a counterexample pairing a canonical global with a non-harvested
    orbit member would be silently skipped."""
    from repro.core.universe import StoreUniverse
    from repro.protocols import paxos

    app = paxos.make_sequentialization(1, 2)
    init = initial_config(paxos.initial_global(1, 2))
    spec = paxos.make_symmetry(1, 2)
    plain = StoreUniverse.from_reachable(app.program, [init])
    quotient = StoreUniverse.from_reachable(app.program, [init], symmetry=spec)
    for action, pool in plain.locals_by_action.items():
        assert set(quotient.locals_for(action)) == set(pool), action


@pytest.mark.parametrize("case", ["twophase-n3", "paxos-r1n2"])
def test_one_canonicalizer_across_the_chain_builds_the_same_universes(case):
    """A canonicalizer shared by every universe build of an IS chain (as
    ``verify_protocol`` shares one) harvests exactly what a fresh one per
    build does: same globals in the same order, same locals pools, same
    fingerprint."""
    from repro.core.universe import StoreUniverse
    from repro.engine.rcache import universe_fingerprint

    programs, initial_global, spec = _protocol_cases()[case]
    init = initial_config(initial_global)
    builds = [
        lambda program, symmetry: StoreUniverse.from_reachable(
            program, [init], symmetry=symmetry
        ),
        lambda program, symmetry: StoreUniverse.from_random_walks(
            program, [init], walks=10, seed=3, symmetry=symmetry
        ),
    ]
    shared = sym.Canonicalizer(spec)
    for program in programs:
        for build in builds:
            fresh = build(program, spec)
            reused = build(program, shared)
            assert reused.globals_ == fresh.globals_
            assert reused.locals_by_action == fresh.locals_by_action
            assert reused.symmetry is fresh.symmetry is spec
            assert universe_fingerprint(reused) == universe_fingerprint(fresh)
    assert shared._members and not shared._config_memo
