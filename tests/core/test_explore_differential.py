"""Differential suite: the interned explorer vs the value-level oracle.

:func:`~repro.core.explore.explore` searches over interned configurations
(a global id plus sorted pending-async ids) and reads its cells from the
shared columns, or from a private table for ``instance_summary``'s
searches. :func:`~repro.core.explore.oracle_explore` is the plain search
over :class:`~repro.core.semantics.Config` objects. On every Table 1
instance, plain and quotiented, and on the programs of both seeded
mutants, the two must agree on the four things a search reports: the
reachable set, whether a failure is reachable, the final globals and the
deadlocks. A blown budget must count the same configurations.

The last tests pin the one-transition-relation contract: after a Paxos
verification no column cell was filled twice, and ``instance_summary``
leaves the shared columns and the evaluation memos untouched.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.analysis.table1 import TABLE1_REGISTRY
from repro.core import initial_config
from repro.core.cache import process_cache, reset_process_cache
from repro.core.columnar import columnar_store
from repro.core.explore import (
    ExplorationBudgetExceeded,
    explore,
    instance_summary,
    oracle_explore,
    private_cells,
)
from repro.core.symmetry import Canonicalizer
from repro.core.universe import StoreUniverse
from repro.diagnose.fixtures import FIXTURES
from repro.protocols import broadcast, paxos, pingpong


def _instance(entry, monkeypatch):
    """The :class:`~repro.protocols.common.Instance` a Table 1 row's
    ``verify`` builds, captured instead of run."""
    captured = []
    monkeypatch.setattr(
        entry.module,
        "verify_protocol",
        lambda instance, options: captured.append(instance),
    )
    entry.module.verify(**entry.params)
    return captured[0]


def _programs(instance):
    """Every program a verification of ``instance`` explores: each IS
    application's (its universe) and the final one (the spec search)."""
    programs = [app.program for _, app in instance.applications]
    programs.append(instance.applications[-1][1].apply_and_drop())
    return programs


def _assert_agree(program, initials, symmetry=None, private=False):
    with private_cells() if private else nullcontext():
        ours = explore(
            program,
            initials,
            canonicalize=Canonicalizer(symmetry).config if symmetry else None,
        )
    oracle = oracle_explore(
        program,
        initials,
        canonicalize=Canonicalizer(symmetry).config if symmetry else None,
    )
    assert ours.num_configs == len(oracle.reachable)
    assert ours.configs() == oracle.reachable
    assert ours.can_fail == oracle.can_fail
    assert ours.final_globals == oracle.final_globals
    assert {ours.config(key) for key in ours.deadlocks} == oracle.deadlocks
    return ours


@pytest.mark.parametrize("entry", TABLE1_REGISTRY, ids=lambda e: e.name)
@pytest.mark.parametrize("quotient", [False, True], ids=["plain", "symmetry"])
def test_table1_instances_agree_with_the_oracle(entry, quotient, monkeypatch):
    instance = _instance(entry, monkeypatch)
    symmetry = None
    if quotient:
        if instance.symmetry is None:
            pytest.skip(f"{entry.name} declares no symmetry")
        symmetry = instance.symmetry()
    reset_process_cache()
    initials = [initial_config(instance.initial_global)]
    for program in _programs(instance):
        _assert_agree(program, initials, symmetry)


@pytest.mark.parametrize("entry", TABLE1_REGISTRY, ids=lambda e: e.name)
def test_private_table_agrees_with_the_oracle(entry, monkeypatch):
    """The sparse per-search table ``instance_summary`` explores with."""
    instance = _instance(entry, monkeypatch)
    reset_process_cache()
    initials = [initial_config(instance.initial_global)]
    for program in _programs(instance):
        _assert_agree(program, initials, private=True)


def _mutant_programs(fixture):
    """A seeded mutant's program, and the program with each of its
    abstractions substituted: the stuck abstraction blocks behind a gate
    that holds, so that program deadlocks."""
    app, _ = fixture.build()
    programs = [app.program]
    for name, abstraction in app.abstractions.items():
        programs.append(app.program.with_action(name, abstraction))
    return programs


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_seeded_mutant_programs_agree_with_the_oracle(name):
    reset_process_cache()
    initials = [initial_config(broadcast.initial_global(2))]
    results = [
        _assert_agree(program, initials)
        for program in _mutant_programs(FIXTURES[name])
    ]
    if name == "stuck-broadcast":
        assert results[-1].deadlocks


@pytest.mark.parametrize("private", [False, True], ids=["shared", "private"])
@pytest.mark.parametrize("limit", [1, 3, 7])
def test_budget_counts_match_the_oracle(limit, private):
    app = pingpong.make_sequentialization(3)
    initials = [initial_config(pingpong.initial_global(3))]
    with pytest.raises(ExplorationBudgetExceeded) as ours:
        with private_cells() if private else nullcontext():
            explore(app.program, initials, max_configs=limit)
    with pytest.raises(ExplorationBudgetExceeded) as oracle:
        oracle_explore(app.program, initials, max_configs=limit)
    assert ours.value.explored == oracle.value.explored == limit + 1
    assert ours.value.limit == oracle.value.limit == limit


def test_configuration_ids_do_not_outlive_the_intern_table():
    app = pingpong.make_sequentialization(1)
    result = explore(app.program, [initial_config(pingpong.initial_global(1))])
    reset_process_cache()
    with pytest.raises(RuntimeError, match="outlived"):
        result.configs()


# --------------------------------------------------------------------- #
# One transition relation
# --------------------------------------------------------------------- #


def _filled(columns) -> int:
    return sum(value is not None for col in columns.values() for value in col)


def test_paxos_verification_evaluates_every_cell_once():
    """Exploration and the conditions share the columns: every fill wrote
    a fresh cell. A fill only ever writes one entry, so equal totals mean
    no (view, local) column was filled twice at any global."""
    report = paxos.verify(rounds=2, num_nodes=2)
    assert report.ok
    store = columnar_store()
    assert store.gate_fills == _filled(store.gate_cols) > 0
    assert store.succ_fills == _filled(store.succ_cols) > 0


def test_universe_exploration_fills_the_columns_the_conditions_read():
    reset_process_cache()
    app = paxos.make_sequentialization(1, 2)
    StoreUniverse.from_reachable(
        app.program, [initial_config(paxos.initial_global(1, 2))]
    )
    assert columnar_store().gate_fills > 0
    assert columnar_store().succ_fills > 0


def test_instance_summary_leaves_the_shared_columns_alone():
    """The spec and ground-truth searches keep a private table: no column,
    no created-PA id and no evaluation memo entry outlives them."""
    reset_process_cache()
    app = paxos.make_sequentialization(1, 2)
    init_global = paxos.initial_global(1, 2)
    StoreUniverse.from_reachable(app.program, [initial_config(init_global)])
    columns = columnar_store().stats()
    memos = process_cache().counts_snapshot()
    summary = instance_summary(app.program, init_global)
    summary_final = instance_summary(app.apply_and_drop(), init_global)
    assert summary.num_configs > 0 and summary_final.num_configs > 0
    assert columnar_store().stats() == columns
    assert process_cache().counts_snapshot() == memos
