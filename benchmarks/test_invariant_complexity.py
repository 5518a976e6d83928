"""Benchmark for the **Section 5.2 invariant-complexity comparison**.

The paper contrasts IS against flat "asynchrony-aware" inductive invariants
(Ivy-style): the IS proof needs its sequencing property plus a few protocol
facts, whereas the baseline additionally needs the hard cross-round
conjuncts (formulas (8)-(12) of "Paxos made EPR"). Here we measure both
sides on the same instances:

* broadcast consensus: IS conditions vs. invariant (2) — and the weakened
  invariant (2) fails, showing the middle disjunct is load-bearing;
* Paxos: IS conditions vs. the easy+hard Ivy-style conjuncts over the
  structured candidate space — and easy-only fails consecution.
"""


from repro.core import explore, initial_config
from repro.invariants import (
    broadcast_invariant,
    broadcast_invariant_weakened,
    check_inductive_invariant,
    paxos_easy_invariant,
    paxos_full_invariant,
    paxos_invariants,
)
from repro.invariants.library import paxos_candidate_space
from repro.logic import count_atoms
from repro.protocols import broadcast, paxos


def test_broadcast_is_conditions(benchmark):
    n = 3
    application = broadcast.make_sequentialization(n)
    universe = broadcast.make_universe(application.program, n)
    result = benchmark(lambda: application.check(universe))
    assert result.holds


def test_broadcast_flat_invariant(benchmark):
    n = 3
    program = broadcast.make_atomic(n)
    init = initial_config(broadcast.initial_global(n))
    reachable = explore(program, [init]).configs()
    invariant = broadcast_invariant()
    values = broadcast.default_values(n)
    result = benchmark(
        lambda: check_inductive_invariant(
            program,
            invariant,
            [init],
            reachable,
            spec=lambda c: broadcast.spec_holds(c.glob, n, values),
        )
    )
    assert result.holds


def test_broadcast_weakened_invariant_fails(benchmark):
    n = 3
    program = broadcast.make_atomic(n)
    init = initial_config(broadcast.initial_global(n))
    reachable = explore(program, [init]).configs()
    invariant = broadcast_invariant_weakened()
    result = benchmark(
        lambda: check_inductive_invariant(program, invariant, [init], reachable)
    )
    assert not result.inductive_ok


def test_paxos_is_conditions(benchmark):
    application = paxos.make_sequentialization(1, 3)
    from repro.core.context import GhostContext
    from repro.core.universe import StoreUniverse
    from repro.protocols.common import GHOST

    universe = StoreUniverse.from_reachable(
        application.program, [initial_config(paxos.initial_global(1, 3))]
    ).with_context(GhostContext(GHOST))
    result = benchmark.pedantic(
        lambda: application.check(universe), rounds=1, iterations=1
    )
    assert result.holds


def test_paxos_full_invariant(benchmark):
    R, N = 2, 2
    program = paxos.make_atomic(R, N)
    init = initial_config(paxos.initial_global(R, N))
    candidates = list(paxos_candidate_space(R, N))
    invariant = paxos_full_invariant(N)
    result = benchmark.pedantic(
        lambda: check_inductive_invariant(
            program,
            invariant,
            [init],
            candidates,
            spec=lambda c: paxos.spec_holds(c.glob, R),
        ),
        rounds=1,
        iterations=1,
    )
    assert result.holds


def test_paxos_easy_invariant_fails(benchmark):
    """Dropping the hard (choosable) conjuncts breaks consecution — the
    paper's point about formulas (8)-(12) being necessary and hard."""
    R, N = 2, 2
    program = paxos.make_atomic(R, N)
    init = initial_config(paxos.initial_global(R, N))
    candidates = list(paxos_candidate_space(R, N))
    invariant = paxos_easy_invariant(N)
    result = benchmark.pedantic(
        lambda: check_inductive_invariant(program, invariant, [init], candidates),
        rounds=1,
        iterations=1,
    )
    assert not result.inductive_ok


def test_zz_complexity_summary(benchmark):
    """Print the complexity comparison (atoms of invariants vs the count of
    IS artifact assertions)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    easy, hard = paxos_invariants(3)
    lines = [
        "invariant complexity (number of atomic assertions):",
        f"  broadcast invariant (2):        {count_atoms(broadcast_invariant())}",
        f"  paxos baseline easy conjuncts:  {len(easy)}",
        f"  paxos baseline hard conjuncts:  {len(hard)}  <- not needed under IS",
        "  IS artifacts per protocol: one availability/ordering gate per",
        "  abstracted action (see protocols.*.make_abstractions).",
    ]
    print("\n" + "\n".join(lines))
