"""Ablations on design choices called out in DESIGN.md.

* **Iterated vs. one-shot IS** (Section 5.3): the broadcast proof done as
  one application (CollectAbs needs the ghost clause) vs. two applications
  (Broadcast leaves the pool first, the clause disappears).
* **Hand-written vs. policy-derived invariant**: the Figure 1-⑤ invariant
  authored by hand vs. the one derived from the scheduling policy.
* **Ghost (linear-permission) context vs. no context**: without the PA
  context, even valid protocols fail the mover checks — the discipline is
  load-bearing, as in CIVL.
"""


from repro.core import (
    ISApplication,
    choice_from_policy,
    invariant_from_policy,
    policy_by_key,
)
from repro.core.context import NoContext
from repro.protocols import broadcast


def test_one_shot_proof(benchmark):
    n = 3
    application = broadcast.make_sequentialization(n)
    universe = broadcast.make_universe(application.program, n)
    assert benchmark(lambda: application.check(universe)).holds


def test_iterated_proof(benchmark):
    n = 3

    def run():
        results = []
        for application in broadcast.make_iterated_sequentializations(n):
            universe = broadcast.make_universe(application.program, n)
            results.append(application.check(universe))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.holds for r in results)


def test_handwritten_invariant(benchmark):
    n = 3
    application = broadcast.make_sequentialization(n)
    universe = broadcast.make_universe(application.program, n)
    assert benchmark(lambda: application.check_i3(universe)).holds


def test_policy_derived_invariant(benchmark):
    n = 3
    program = broadcast.make_atomic(n)
    policy = policy_by_key(
        ("Broadcast", "Collect"),
        lambda _g, p: (0 if p.action == "Broadcast" else 1, p.locals["i"]),
    )
    application = ISApplication(
        program=program,
        m_name="Main",
        eliminated=("Broadcast", "Collect"),
        invariant=invariant_from_policy(program, "Main", policy),
        measure=broadcast.make_measure(),
        choice=choice_from_policy(policy),
        abstractions={"Collect": broadcast.make_collect_abs(n)},
    )
    universe = broadcast.make_universe(program, n)
    assert benchmark(lambda: application.check_i3(universe)).holds


def test_no_context_ablation(benchmark):
    """Without the linear-permission (ghost) context the LM conditions are
    checked against impossible PA co-occurrences and spuriously fail —
    demonstrating why CIVL's discipline is part of the trusted base."""
    n = 2
    application = broadcast.make_sequentialization(n)
    universe = broadcast.make_universe(application.program, n).with_context(
        NoContext()
    )
    result = benchmark.pedantic(
        lambda: application.check(universe), rounds=1, iterations=1
    )
    assert not result.holds
    assert any("LM" in r.name or "left mover" in r.name for r in result.failed())
