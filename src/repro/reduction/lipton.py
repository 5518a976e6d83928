"""Lipton reduction: mover inference and the atomicity pattern check.

The paper assumes programs are given as atomic actions with pending asyncs
and notes that "in practice, reduction is typically applied before our new
technique" (Section 2.1). This module supplies that step for modules
written in the mini-CIVL language:

1. every instruction-level action of :math:`\\mathcal{P}_1` gets a mover
   type inferred by pairwise commutation checking over a reachable-state
   universe (``repro.core.movers``), and
2. every procedure's control-flow graph is checked against the atomic
   pattern *right movers; at most one non-mover; left movers* along every
   path, via a forward phase dataflow.

If both succeed, summarizing each procedure into a single atomic action
(``repro.lang.compile``) is a sound reduction
:math:`\\mathcal{P}_1 \\preccurlyeq \\mathcal{P}_2`; the test suite
additionally validates this refinement exhaustively on small instances
(``repro.reduction.layers``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.context import InstanceContext
from ..core.explore import explore
from ..core.movers import MoverOracle, MoverType
from ..core.program import MAIN
from ..core.semantics import Config
from ..core.universe import StoreUniverse
from ..lang.interp import Module, Procedure, action_name, build_finegrained
from ..lang.lower import CJump, Instr, IterNext, Jump

__all__ = [
    "PhaseViolation",
    "ProcedurePattern",
    "ReductionAnalysis",
    "analyze_module",
    "module_context",
    "successors",
]


def _proc_of_action(module: Module, name: str) -> str:
    if name == MAIN:
        return module.main
    return name.split("#", 1)[0]


def instance_identity(module: Module, action_name: str, locals_):
    """Identity under which two PAs exclude each other: the procedure
    instance (name + parameter values), or the linear class when declared
    (at most one live instance per class). ``None`` for multi-instance
    procedures (no exclusion, no linearity obligation)."""
    proc = module.procedure(_proc_of_action(module, action_name))
    if proc.multi_instance:
        return None
    if proc.linear_class is not None:
        return ("$class", proc.linear_class)
    return proc.name, tuple((p, locals_.get(p)) for p in proc.params)


def module_context(module: Module) -> InstanceContext:
    """The per-instance linearity context of a module (see
    :class:`~repro.core.context.InstanceContext`)."""

    def instance_of(name: str):
        proc = module.procedure(_proc_of_action(module, name))
        if proc.multi_instance:
            return None
        if proc.linear_class is not None:
            # All parameters are irrelevant: one instance per class.
            return ("$class", proc.linear_class), ()
        return proc.name, proc.params

    return InstanceContext(instance_of)

#: Dataflow phases: R = still within the right-mover prefix, L = past the
#: (optional) non-mover, only left movers allowed.
_R, _L = "R", "L"


@dataclass(frozen=True)
class PhaseViolation:
    """A pc where the atomicity pattern breaks, with the offending phase."""

    proc: str
    pc: int
    phase: str
    mover: MoverType
    reason: str


@dataclass
class ProcedurePattern:
    """Result of the pattern check for one procedure."""

    proc: str
    phases: Dict[int, Set[str]] = field(default_factory=dict)
    violations: List[PhaseViolation] = field(default_factory=list)

    @property
    def atomic(self) -> bool:
        return not self.violations


@dataclass
class ReductionAnalysis:
    """Mover types of all instruction actions plus per-procedure patterns."""

    mover_types: Dict[str, MoverType]
    patterns: Dict[str, ProcedurePattern]
    #: Reachable configurations violating per-instance linearity (two PAs
    #: of the same procedure instance pending at once); must be empty for
    #: the InstanceContext-based mover inference to be justified.
    linearity_violations: List[Config] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        """True if every procedure follows the atomic pattern and linearity
        holds, licensing the summarization into atomic actions."""
        return not self.linearity_violations and all(
            pattern.atomic for pattern in self.patterns.values()
        )

    def report(self) -> str:
        lines = ["mover types:"]
        for name in sorted(self.mover_types):
            lines.append(f"  {name}: {self.mover_types[name].value}")
        for proc, pattern in sorted(self.patterns.items()):
            status = "atomic" if pattern.atomic else "NOT atomic"
            lines.append(f"procedure {proc}: {status}")
            for violation in pattern.violations:
                lines.append(
                    f"  pc {violation.pc}: {violation.reason} "
                    f"(phase {violation.phase}, mover {violation.mover.value})"
                )
        return "\n".join(lines)


def successors(instrs: List[Instr], pc: int) -> List[int]:
    """Control successors of an instruction (end of body = no successor)."""
    instr = instrs[pc]
    if isinstance(instr, Jump):
        return [instr.target] if instr.target < len(instrs) else []
    if isinstance(instr, CJump):
        return [t for t in (instr.then, instr.orelse) if t < len(instrs)]
    if isinstance(instr, IterNext):
        result = []
        if pc + 1 < len(instrs):
            result.append(pc + 1)
        if instr.done < len(instrs) and instr.done not in result:
            result.append(instr.done)
        return result
    return [pc + 1] if pc + 1 < len(instrs) else []


def _transfer(
    proc: str, pc: int, phase: str, mover: MoverType
) -> Tuple[Optional[str], Optional[PhaseViolation]]:
    """One step of the phase dataflow: execute an action of the given mover
    type in a phase; returns the outgoing phase or a violation."""
    if phase == _R:
        if mover.is_right:
            return _R, None
        # A left-only or non-mover ends the right-mover prefix. A non-mover
        # consumes the single allowed occurrence; a left mover starts the
        # suffix directly. Either way, only left movers may follow.
        return _L, None
    # phase == _L: only left movers may appear after the non-mover.
    if mover.is_left:
        return _L, None
    return None, PhaseViolation(
        proc, pc, phase, mover, "right/non-mover after the commit point"
    )


def check_procedure_pattern(
    module: Module, proc: Procedure, mover_types: Dict[str, MoverType]
) -> ProcedurePattern:
    """Forward dataflow establishing the R*;N?;L* pattern on all paths."""
    pattern = ProcedurePattern(proc.name)
    instrs = proc.instrs
    worklist: List[Tuple[int, str]] = [(0, _R)]
    seen: Set[Tuple[int, str]] = set()
    while worklist:
        pc, phase = worklist.pop()
        if (pc, phase) in seen or pc >= len(instrs):
            continue
        seen.add((pc, phase))
        pattern.phases.setdefault(pc, set()).add(phase)
        mover = mover_types[action_name(module, proc.name, pc)]
        out_phase, violation = _transfer(proc.name, pc, phase, mover)
        if violation is not None:
            pattern.violations.append(violation)
            continue
        for successor in successors(instrs, pc):
            worklist.append((successor, out_phase))
    return pattern


def _linearity_violations(
    module: Module, reachable: Iterable[Config]
) -> List[Config]:
    """Reachable configurations with two PAs of one procedure instance."""
    violations: List[Config] = []
    for config in reachable:
        seen = {}
        for pending, count in config.pending.counts():
            identity = instance_identity(module, pending.action, pending.locals)
            if identity is None:
                continue  # multi-instance: no linearity obligation
            seen[identity] = seen.get(identity, 0) + count
        if any(total > 1 for total in seen.values()):
            violations.append(config)
            if len(violations) >= 5:
                break
    return violations


def analyze_module(
    module: Module,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
    universe: Optional[StoreUniverse] = None,
) -> ReductionAnalysis:
    """Infer mover types of the module's instruction actions over the
    reachable universe (under per-instance linearity, which is validated on
    the explored configurations) and check every procedure's atomicity
    pattern."""
    program = build_finegrained(module)
    violations: List[Config] = []
    if universe is None:
        result = explore(program, initials, max_configs=max_configs)
        violations = _linearity_violations(module, result.configs())
        universe = StoreUniverse.harvest(
            result.reachable, result.pending_ids
        ).with_context(module_context(module))
    oracle = MoverOracle(program, universe)
    mover_types = {name: oracle.mover_type(name) for name in program.action_names()}
    patterns = {
        proc.name: check_procedure_pattern(module, proc, mover_types)
        for proc in module.procedures.values()
    }
    return ReductionAnalysis(mover_types, patterns, violations)
