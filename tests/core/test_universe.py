"""Tests for store universes and PA contexts."""

import pytest

from repro.core import (
    GhostContext,
    InstanceContext,
    Multiset,
    NoContext,
    Store,
    StoreUniverse,
    initial_config,
    pa,
)

from ..conftest import make_counter_program


def test_from_reachable_harvests_globals_and_locals():
    program = make_counter_program(increments=2)
    universe = StoreUniverse.from_reachable(
        program, [initial_config(Store({"x": 0}))]
    )
    assert {g["x"] for g in universe.globals_} == {0, 1, 2}
    assert len(universe.locals_for("Inc")) == 2  # i = 0, 1
    assert universe.locals_for("Unknown") == [Store()]


def test_extended_and_merge_dedupe():
    u1 = StoreUniverse([Store({"x": 0})], {"A": [Store({"i": 1})]})
    u2 = u1.extended([Store({"x": 0}), Store({"x": 5})], {"A": [Store({"i": 1})]})
    assert len(u2.globals_) == 2
    assert len(u2.locals_for("A")) == 1
    merged = u1.merge(u2)
    assert len(merged.globals_) == 2


def test_with_context_preserved_by_extended():
    universe = StoreUniverse([Store({"x": 0})]).with_context(GhostContext("g"))
    assert isinstance(universe.extended([Store({"x": 1})]).context, GhostContext)


def test_sampled_keeps_marked_globals():
    globals_ = [Store({"x": i}) for i in range(100)]
    universe = StoreUniverse(globals_)
    sampled = universe.sampled(10, keep=lambda g: g["x"] == 77)
    assert len(sampled.globals_) <= 12
    assert Store({"x": 77}) in sampled.globals_


def test_sampled_noop_under_limit():
    universe = StoreUniverse([Store({"x": 0})])
    assert universe.sampled(10) is universe


def test_from_random_walks():
    program = make_counter_program(increments=3)
    universe = StoreUniverse.from_random_walks(
        program, [initial_config(Store({"x": 0}))], walks=20, seed=1
    )
    assert {g["x"] for g in universe.globals_} == {0, 1, 2, 3}


def _reference_walk_universe(program, init, walks, seed):
    """The sampled universe as value-level walks harvest it: one
    ``random_execution`` per walk, every reached configuration kept."""
    import random

    from repro.core.explore import PendingIds, random_execution
    from repro.core.semantics import Config

    rng = random.Random(seed)
    ids = PendingIds()
    sampled = set()
    for _ in range(walks):
        execution = random_execution(program, rng.choice([init]), rng)
        for config in execution.configs():
            if isinstance(config, Config):
                sampled.add(ids.key(config))
    return StoreUniverse.harvest(sampled, ids)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_walks_fill_the_columns_and_sample_as_before(seed):
    """Walks read and fill the shared columns, yet draw the same options
    in the same order as ``random_execution``: the same seed samples the
    same universe, in the same order."""
    from repro.core.cache import reset_process_cache
    from repro.core.columnar import columnar_store
    from repro.protocols import paxos

    program = paxos.make_sequentialization(1, 2).program
    init = initial_config(paxos.initial_global(1, 2))
    reset_process_cache()
    universe = StoreUniverse.from_random_walks(
        program, [init], walks=20, seed=seed
    )
    columns = columnar_store()
    assert columns.gate_fills > 0 and columns.succ_fills > 0
    reference = _reference_walk_universe(program, init, 20, seed)
    assert universe.globals_ == reference.globals_
    assert universe.locals_by_action == reference.locals_by_action


class TestContexts:
    def test_no_context_allows_everything(self):
        context = NoContext()
        assert context.single(Store(), pa("A"))
        assert context.pair(Store(), pa("A"), pa("A"))

    def test_ghost_context_single(self):
        ghost = Multiset([pa("A", i=1)])
        context = GhostContext("pendingAsyncs")
        state = Store({"pendingAsyncs": ghost})
        assert context.single(state, pa("A", i=1))
        assert not context.single(state, pa("A", i=2))

    def test_ghost_context_pair_needs_multiplicity(self):
        context = GhostContext("pendingAsyncs")
        one = Store({"pendingAsyncs": Multiset([pa("A")])})
        two = Store({"pendingAsyncs": Multiset([pa("A"), pa("A")])})
        assert not context.pair(one, pa("A"), pa("A"))
        assert context.pair(two, pa("A"), pa("A"))

    def test_ghost_context_type_error(self):
        import pytest

        context = GhostContext("pendingAsyncs")
        with pytest.raises(TypeError):
            context.single(Store({"pendingAsyncs": 3}), pa("A"))

    def test_instance_context_same_instance_excluded(self):
        context = InstanceContext(lambda name: (name.split("#")[0], ("i",)))
        g = Store()
        assert not context.pair(g, pa("P#0", i=1), pa("P#4", i=1))
        assert context.pair(g, pa("P#0", i=1), pa("P#4", i=2))
        assert context.pair(g, pa("P#0", i=1), pa("Q#0", i=1))
        assert context.single(g, pa("P#0", i=1))


class TestSampledProperties:
    """Property suite for the deterministic down-sampler: the result
    never exceeds the limit (when the keep-set fits), every kept global
    is retained, and the selection is a pure function of the *set* of
    globals — input order cannot leak through."""

    def _globals(self, n=97):
        return [Store({"x": i, "y": i % 5}) for i in range(n)]

    def test_size_never_exceeds_limit(self):
        globals_ = self._globals()
        for limit in (1, 2, 3, 7, 10, 31, 96, 97, 200):
            sampled = StoreUniverse(globals_).sampled(limit)
            assert len(sampled.globals_) <= limit
            assert len(sampled.globals_) >= min(limit, len(globals_))

    def test_size_with_keep_never_exceeds_limit(self):
        globals_ = self._globals()
        keep = lambda g: g["x"] % 10 == 0  # 10 marked globals
        for limit in (10, 11, 15, 50, 96):
            sampled = StoreUniverse(globals_).sampled(limit, keep=keep)
            assert len(sampled.globals_) <= limit
            assert all(g in sampled.globals_ for g in globals_ if keep(g))

    def test_oversized_keep_set_is_retained_verbatim(self):
        globals_ = self._globals()
        keep = lambda g: g["x"] < 20
        sampled = StoreUniverse(globals_).sampled(5, keep=keep)
        assert sorted(g["x"] for g in sampled.globals_) == list(range(20))

    def test_deterministic_under_shuffle(self):
        import random

        globals_ = self._globals()
        baseline = StoreUniverse(globals_).sampled(13).globals_
        for seed in range(5):
            shuffled = list(globals_)
            random.Random(seed).shuffle(shuffled)
            assert StoreUniverse(shuffled).sampled(13).globals_ == baseline

    def test_keep_deterministic_under_shuffle(self):
        import random

        globals_ = self._globals()
        keep = lambda g: g["y"] == 3
        baseline = StoreUniverse(globals_).sampled(17, keep=keep).globals_
        shuffled = list(globals_)
        random.Random(42).shuffle(shuffled)
        assert (
            StoreUniverse(shuffled).sampled(17, keep=keep).globals_
            == baseline
        )

    def test_propagates_locals_context_and_symmetry(self):
        from repro.protocols import twophase

        spec = twophase.make_symmetry(2)
        universe = StoreUniverse(
            self._globals(),
            {"A": [Store({"i": 1})]},
            symmetry=spec,
        ).with_context(GhostContext("g"))
        sampled = universe.sampled(9)
        assert sampled.locals_for("A") == [Store({"i": 1})]
        assert isinstance(sampled.context, GhostContext)
        assert sampled.symmetry is spec


class TestHarvestOrder:
    """Universe order feeds the sampler, the rcache fingerprints and the
    symmetry representatives, so the key memo every harvest sorts
    through must give exactly the order of plain ``structural_key``."""

    @staticmethod
    def _table1_instances(monkeypatch):
        import repro.protocols.common as common
        from repro.analysis.table1 import TABLE1_REGISTRY

        instances = []

        def capture(instance, options=common.RunOptions()):
            instances.append(instance)

        for entry in TABLE1_REGISTRY:
            monkeypatch.setattr(entry.module, "verify_protocol", capture)
            entry.module.verify(**entry.params)
        assert len(instances) == 7
        return instances

    @staticmethod
    def _assert_structural_order(universe):
        from repro.core.hashing import structural_key

        assert universe.globals_ == sorted(universe.globals_, key=structural_key)
        for pool in universe.locals_by_action.values():
            assert pool == sorted(pool, key=structural_key)

    def test_table1_universes_sort_as_plain_structural_key(self, monkeypatch):
        quotients = 0
        for instance in self._table1_instances(monkeypatch):
            init = initial_config(instance.initial_global)
            specs = [None]
            if instance.symmetry is not None:
                specs.append(instance.symmetry())
            for spec in specs:
                for _label, application in instance.applications:
                    universe = StoreUniverse.from_reachable(
                        application.program, [init], symmetry=spec
                    )
                    self._assert_structural_order(universe)
                    quotients += universe.symmetry is not None
        assert quotients > 0

    def test_sampled_and_quotiented_sort_as_plain_structural_key(self):
        from repro.protocols import twophase

        program = twophase.make_atomic(3)
        universe = StoreUniverse.from_reachable(
            program, [initial_config(twophase.initial_global(3))]
        )
        quotient = universe.quotiented(twophase.make_symmetry(3))
        assert len(quotient.globals_) < len(universe.globals_)
        self._assert_structural_order(quotient)
        self._assert_structural_order(universe.sampled(17))
        walks = StoreUniverse.from_random_walks(
            program,
            [initial_config(twophase.initial_global(3))],
            walks=5,
            symmetry=twophase.make_symmetry(3),
        )
        self._assert_structural_order(walks)


def test_from_reachable_keeps_only_an_unquotiented_single_summary():
    from repro.core.explore import instance_summary
    from repro.protocols import twophase

    program = make_counter_program(increments=2)
    init = initial_config(Store({"x": 0}))
    universe = StoreUniverse.from_reachable(program, [init])
    summary = universe.exploration
    expected = instance_summary(program, Store({"x": 0}))
    assert summary.answers(program, init, None)
    assert (summary.can_fail, summary.final_globals, summary.num_configs) == (
        expected.can_fail,
        expected.final_globals,
        expected.num_configs,
    )
    # Several initials, a quotient, or a derived universe: no summary.
    other = initial_config(Store({"x": 1}))
    assert StoreUniverse.from_reachable(program, [init, other]).exploration is None
    assert universe.with_context(GhostContext("g")).exploration is None
    tp = twophase.make_atomic(2)
    quotient = StoreUniverse.from_reachable(
        tp,
        [initial_config(twophase.initial_global(2))],
        symmetry=twophase.make_symmetry(2),
    )
    assert quotient.exploration is None
