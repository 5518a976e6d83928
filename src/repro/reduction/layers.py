"""Layered refinement chains (CIVL's layered concurrent programs).

CIVL structures a verification as a chain
:math:`\\mathcal{P}_1 \\preccurlyeq \\mathcal{P}_2 \\preccurlyeq \\cdots`
where each link is justified by a transformation: reduction/summarization,
variable introduction/hiding, or (with this paper) an IS application. This
module provides the chain bookkeeping plus the cross-layer refinement
oracle used by the tests: exploring both layers exhaustively on a finite
instance and comparing their summaries modulo hidden variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.explore import instance_summary
from ..core.hashing import structural_key
from ..core.program import Program
from ..core.refinement import CheckResult, _fail
from ..core.store import Store
from ..diagnose.witness import GateWitness, MissingTransitionWitness

__all__ = ["LayerLink", "RefinementChain", "check_layer_refinement"]


def check_layer_refinement(
    concrete: Program,
    abstract: Program,
    initials: Iterable[Tuple[Store, Store, Store]],
    hidden_vars: Sequence[str] = (),
    max_configs: Optional[int] = None,
    name: str = "layer refinement",
    concrete_view: Optional[Callable[[Store], Store]] = None,
    abstract_view: Optional[Callable[[Store], Store]] = None,
) -> CheckResult:
    """Check Definition 3.2 across layers with different state spaces.

    ``initials`` yields ``(global, concrete-main-locals, abstract-main-
    locals)`` triples — the two layers may give ``Main`` different local
    frames (e.g. the fine-grained layer carries loop counters). The two
    layers may even use *different variable representations* (CIVL's
    variable introduction/hiding, e.g. Paxos hiding ``acceptorState`` and
    the channels behind ``joinedNodes``/``voteInfo``): ``concrete_view``
    and ``abstract_view`` map each layer's final global store into a shared
    observation on which the summaries are compared. By default the views
    drop ``hidden_vars`` (e.g. the ghost ``pendingAsyncs`` only one layer
    maintains).

    ``initials`` entries are either 3-tuples ``(shared_global,
    concrete_locals, abstract_locals)`` or 4-tuples ``(concrete_global,
    concrete_locals, abstract_global, abstract_locals)`` when the layers'
    state representations differ.
    """
    result = CheckResult(name, True)

    def default_view(store: Store) -> Store:
        return store.without(hidden_vars)

    view_c = concrete_view or default_view
    view_a = abstract_view or default_view

    for entry in initials:
        if len(entry) == 3:
            global_c, concrete_locals, abstract_locals = entry
            global_a = global_c
        else:
            global_c, concrete_locals, global_a, abstract_locals = entry
        summary_c = instance_summary(concrete, global_c, concrete_locals, max_configs)
        summary_a = instance_summary(abstract, global_a, abstract_locals, max_configs)
        result.checked += summary_c.num_configs + summary_a.num_configs
        if not summary_a.can_fail and summary_c.can_fail:
            _fail(
                result,
                GateWitness(
                    reason="concrete fails where abstract is failure-free",
                    check="layer-good-inclusion",
                    state=global_c,
                    context=(concrete_locals,),
                ),
            )
            continue
        if summary_a.can_fail:
            continue  # abstract fails: nothing to preserve (Definition 3.2)
        finals_a: Set[Store] = {view_a(g) for g in summary_a.final_globals}
        for final in sorted(summary_c.final_globals, key=structural_key):
            if view_c(final) not in finals_a:
                _fail(
                    result,
                    MissingTransitionWitness(
                        reason="concrete terminating state unreachable in abstract",
                        check="layer-trans-inclusion",
                        state=global_c,
                        final_global=final,
                    ),
                )
    return result


@dataclass
class LayerLink:
    """One link of a refinement chain with its justification record."""

    description: str
    concrete: Program
    abstract: Program
    justification: object = None
    check: Optional[CheckResult] = None

    @property
    def ok(self) -> bool:
        return self.check is None or self.check.holds


@dataclass
class RefinementChain:
    """A chain :math:`\\mathcal{P}_1 \\preccurlyeq \\cdots \\preccurlyeq
    \\mathcal{P}_n` built link by link."""

    links: List[LayerLink] = field(default_factory=list)

    def add(self, link: LayerLink) -> None:
        if self.links and self.links[-1].abstract is not link.concrete:
            raise ValueError("chain links must compose: abstract != next concrete")
        self.links.append(link)

    @property
    def ok(self) -> bool:
        return all(link.ok for link in self.links)

    @property
    def top(self) -> Program:
        """The most abstract program of the chain."""
        if not self.links:
            raise ValueError("empty chain")
        return self.links[-1].abstract

    @property
    def bottom(self) -> Program:
        """The most concrete program of the chain."""
        if not self.links:
            raise ValueError("empty chain")
        return self.links[0].concrete

    def report(self) -> str:
        lines = []
        for i, link in enumerate(self.links, start=1):
            status = "OK" if link.ok else "FAILED"
            lines.append(f"  P{i} ≼ P{i + 1}: {link.description} [{status}]")
        return "refinement chain:\n" + "\n".join(lines)
