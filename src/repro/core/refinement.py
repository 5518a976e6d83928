"""Refinement between actions and between programs (Definitions 3.1/3.2).

*Action refinement* :math:`a_1 \\preccurlyeq a_2` requires

1. :math:`\\rho_2 \\subseteq \\rho_1` — the abstraction fails at least as
   often as the concrete action, and
2. :math:`\\rho_2 \\circ \\tau_1 \\subseteq \\tau_2` — on stores where the
   abstraction does not fail, every concrete transition is an abstract one.

*Program refinement* :math:`\\mathcal{P}_1 \\preccurlyeq \\mathcal{P}_2`
requires :math:`Good(\\mathcal{P}_2) \\subseteq Good(\\mathcal{P}_1)` and
:math:`Good(\\mathcal{P}_2) \\circ Trans(\\mathcal{P}_1) \\subseteq
Trans(\\mathcal{P}_2)`.

Both are checked exhaustively over a finite domain: a
:class:`~repro.core.universe.StoreUniverse` for actions, a finite family of
initial stores for programs. A failed check carries a concrete
counterexample, playing the role of an SMT model in CIVL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..diagnose.witness import (
    COUNTEREXAMPLE_KEEP,
    Counterexample,
    GateWitness,
    MissingTransitionWitness,
)
from .action import Action
from .explore import InstanceSummary, instance_summary
from .hashing import structural_key
from .program import Program
from .semantics import initial_config
from .store import Store, combine
from .universe import StoreUniverse

__all__ = [
    "CheckResult",
    "COUNTEREXAMPLE_KEEP",
    "check_action_refinement",
    "check_program_refinement",
]


@dataclass
class CheckResult:
    """Outcome of an exhaustive check; ``holds`` plus counterexamples.

    ``counterexamples`` is a list of typed
    :class:`~repro.diagnose.witness.Counterexample` objects pinning the
    offending stores/transitions; each still unpacks as the legacy
    ``(description, payload)`` pair. The list is capped at
    :data:`COUNTEREXAMPLE_KEEP` per result — the single truncation rule
    every merge path shares, so backends agree on what is reported.
    """

    name: str
    holds: bool
    counterexamples: List[Counterexample] = field(default_factory=list)
    checked: int = 0

    def __bool__(self) -> bool:
        return self.holds

    @property
    def verdict(self) -> str:
        """``PASS``, ``FAIL``, or ``TIMEOUT``.

        A condition is ``TIMEOUT`` when it failed to *complete* rather
        than failed to *hold*: every witness is a scheduling marker
        (``timeout``/``skipped`` kinds — deadline expiries, crashes,
        interrupts, fail-fast skips) and at least one records a
        disruption. A genuine violation witness anywhere makes the
        verdict ``FAIL`` — a real counterexample outranks an incomplete
        enumeration.
        """
        if self.holds:
            return "PASS"
        kinds = {
            getattr(cx, "kind", "counterexample")
            for cx in self.counterexamples
        }
        if "timeout" in kinds and kinds <= {"timeout", "skipped"}:
            return "TIMEOUT"
        return "FAIL"

    def __repr__(self) -> str:
        status = self.verdict
        extra = f", {len(self.counterexamples)} counterexamples" if not self.holds else ""
        return f"CheckResult({self.name}: {status}, {self.checked} checked{extra})"


def _fail(
    result: CheckResult,
    witness: Counterexample,
    keep: int = COUNTEREXAMPLE_KEEP,
) -> None:
    result.holds = False
    if len(result.counterexamples) < keep:
        result.counterexamples.append(witness)


def check_action_refinement(
    concrete: Action,
    abstract: Action,
    universe: StoreUniverse,
    name: Optional[str] = None,
    pa_name: Optional[str] = None,
) -> CheckResult:
    """Check :math:`concrete \\preccurlyeq abstract` over a store universe.

    The two actions are compared on the *same* combined stores, enumerated
    from the universe's locals for the concrete action (an abstraction in
    the paper always has the same parameter signature as the action it
    abstracts). When ``pa_name`` is given, only stores where a PA of that
    name could be scheduled (per the universe's PA context) are considered,
    and only those are combined
    (:func:`~repro.core.columnar.admitted_cells`).
    """
    from .columnar import admitted_cells

    result = CheckResult(name or f"{concrete.name} ≼ {abstract.name}", True)
    if pa_name is None:
        cells = (
            (g, l)
            for g in universe.globals_
            for l in universe.locals_for(concrete.name)
        )
    else:
        cells = admitted_cells(universe, concrete.name, pa_name)
    for g, l in cells:
        state = combine(g, l)
        result.checked += 1
        abstract_ok = abstract.gate(state)
        concrete_ok = concrete.gate(state)
        # Condition (1): ρ2 ⊆ ρ1.
        if abstract_ok and not concrete_ok:
            _fail(
                result,
                GateWitness(
                    reason="abstract gate holds where concrete gate fails",
                    check="gate-inclusion",
                    actors=(concrete.name, abstract.name),
                    state=state,
                ),
            )
            continue
        if not abstract_ok:
            # ρ2 ◦ τ1 is empty here; nothing to check.
            continue
        # Condition (2): ρ2 ◦ τ1 ⊆ τ2.
        abstract_outcomes = set(abstract.outcomes(state))
        for tr in concrete.transitions(state):
            if tr not in abstract_outcomes:
                _fail(
                    result,
                    MissingTransitionWitness(
                        reason="concrete transition missing from abstraction",
                        check="transition-inclusion",
                        actors=(concrete.name, abstract.name),
                        state=state,
                        transition=tr,
                    ),
                )
    return result


def check_program_refinement(
    concrete: Program,
    abstract: Program,
    initial_stores: Iterable[Tuple[Store, Store]],
    max_configs: Optional[int] = None,
    name: str = "program refinement",
    summaries: Iterable[InstanceSummary] = (),
) -> CheckResult:
    """Check :math:`concrete \\preccurlyeq abstract` on given initial stores.

    ``initial_stores`` yields ``(global, main-local)`` pairs; both programs
    are explored exhaustively from each. This is the ground-truth oracle the
    IS rule is validated against in the test suite.

    ``summaries`` are explorations the caller already ran: a search that
    one of them :meth:`~repro.core.explore.InstanceSummary.answers` (same
    program object, initial configuration and budget) is not run again.
    The verdict, witnesses and ``checked`` are the same either way.
    """
    pairs = list(initial_stores)
    summaries = list(summaries)
    explored = 0
    good1, good2 = set(), set()
    trans1, trans2 = set(), set()
    origin = {}
    for good, trans, program in ((good1, trans1, concrete), (good2, trans2, abstract)):
        for g, l in pairs:
            init = initial_config(g, l)
            summary = next(
                (s for s in summaries if s.answers(program, init, max_configs)),
                None,
            ) or instance_summary(program, g, l, max_configs)
            explored += summary.num_configs
            sigma = combine(g, l)
            origin[sigma] = (g, l)
            if not summary.can_fail:
                good.add(sigma)
            for final in summary.final_globals:
                trans.add((sigma, final))

    # ``checked`` counts configurations the exhaustive searches actually
    # explored (2 programs x len(pairs) instances), matching the work
    # measure of action-level checks — not the number of initial stores.
    result = CheckResult(name, True, checked=explored)
    for g, l in pairs:
        sigma = combine(g, l)
        if sigma in good2 and sigma not in good1:
            _fail(
                result,
                GateWitness(
                    reason="Good(abstract) not included in Good(concrete)",
                    check="good-inclusion",
                    state=sigma,
                    context=(g, l),
                ),
            )
    for sigma, final in sorted(trans1, key=structural_key):
        if sigma in good2 and (sigma, final) not in trans2:
            _fail(
                result,
                MissingTransitionWitness(
                    reason="terminating behaviour of concrete not reproduced by abstract",
                    check="trans-inclusion",
                    state=sigma,
                    final_global=final,
                    context=origin[sigma],
                ),
            )
    return result
