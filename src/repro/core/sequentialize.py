"""The Inductive Sequentialization proof rule (Figure 3).

Given a program :math:`\\mathcal{P}`, a target action name :math:`M`, and a
set of action names :math:`E` to eliminate, together with the user-invented
artifacts

* an **invariant action** :math:`I = (\\rho_I, \\tau_I)` summarizing all
  prefixes of the chosen sequentialization,
* a **choice function** :math:`f` selecting, from every transition of
  :math:`I` that still creates PAs to :math:`E`, the single PA to
  sequentialize next,
* an **abstraction function** :math:`\\alpha` supplying a left-moving
  abstraction for every action in :math:`E` (identity by default), and
* a **well-founded order** :math:`\\gg` (a lexicographic measure),

the rule concludes :math:`\\mathcal{P} \\preccurlyeq \\mathcal{P}[M \\mapsto
M']`, where :math:`M'` is :math:`I` restricted to transitions with no
remaining PAs to :math:`E`. The verification conditions are:

* *(abs)* :math:`\\mathcal{P}(A) \\preccurlyeq \\alpha(A)` for all
  :math:`A \\in E`;
* *(I1)* :math:`M \\preccurlyeq I` — base case;
* *(I2)* :math:`(\\rho_I, \\{t \\in \\tau_I \\mid PA_E(t) = \\emptyset\\})
  \\preccurlyeq M'` — the completed sequentializations are summarized by
  :math:`M'`;
* *(I3)* — induction step: after any :math:`I`-transition, the gate of the
  chosen PA's abstraction holds, and composing the transition with any step
  of that abstraction stays inside :math:`\\tau_I`;
* *(LM)* every :math:`\\alpha(A)` is a left mover w.r.t. the program;
* *(CO)* cooperation: every abstraction can execute while strictly
  decreasing the measure.

All conditions are discharged by enumeration over a
:class:`~repro.core.universe.StoreUniverse`; see DESIGN.md for the scope of
this substitution for CIVL's SMT backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..diagnose.witness import GateWitness, MissingTransitionWitness
from .action import Action, PendingAsync, Transition
from .cache import process_cache
from .columnar import admitted_cells, i3_fast_path
from .movers import is_left_mover, is_left_mover_wrt_program
from .multiset import Multiset
from .program import Program
from .refinement import CheckResult, _fail, check_action_refinement
from .semantics import Config
from .store import Store, combine
from .universe import StoreUniverse
from .wellfounded import LexicographicMeasure

__all__ = [
    "ChoiceFn",
    "choice_by_priority",
    "ISApplication",
    "ISResult",
    "pas_to",
    "derive_m_prime",
]

#: A choice function: given the initial combined store of an I-transition
#: and the transition itself, select one of its created PAs to E.
ChoiceFn = Callable[[Store, Transition], PendingAsync]


def pas_to(created: Multiset, eliminated: Iterable[str]) -> List[PendingAsync]:
    """The paper's :math:`PA_E(t)`: PAs of a transition targeting ``E``."""
    names = set(eliminated)
    return [p for p in created for _ in [0] if p.action in names]


def choice_by_priority(
    eliminated: Sequence[str],
    key: Optional[Callable[[PendingAsync], object]] = None,
) -> ChoiceFn:
    """A choice function selecting PAs by action priority, then by ``key``.

    Actions earlier in ``eliminated`` are selected first; ties among PAs of
    the same action are broken by ``key`` (default: sorted repr of the local
    store). This captures the common pattern "eliminate all Broadcasts in
    index order, then all Collects in index order".
    """
    priority = {name: i for i, name in enumerate(eliminated)}

    def default_key(pending: PendingAsync) -> object:
        return sorted(pending.locals.items())

    tie_break = key or default_key

    def choose(_sigma: Store, t: Transition) -> PendingAsync:
        candidates = [p for p in t.created.support() if p.action in priority]
        if not candidates:
            raise ValueError("choice function called on transition without PAs to E")
        return min(candidates, key=lambda p: (priority[p.action], tie_break(p)))

    return choose


def derive_m_prime(
    invariant: Action,
    eliminated: Sequence[str],
    name: str = "M'",
) -> Action:
    """The canonical :math:`M'`: the invariant action restricted to
    transitions that create no PAs to ``E``."""
    names = set(eliminated)

    def transitions_fn(state: Store):
        for t in invariant.transitions(state):
            if not any(p.action in names for p in t.created.support()):
                yield t

    return Action(name, invariant.gate, transitions_fn, invariant.params)


@dataclass
class ISResult:
    """Outcome of checking all IS conditions; per-condition results.

    ``timings`` and ``obligation_checked`` carry per-obligation wall-clock
    and enumeration counts when the result was produced by the obligation
    engine (``repro.engine.obligations``); ``worker_cache_stats`` maps
    each PID that executed an obligation to ``{"obligations": n}`` (the
    serial backend contributes a single entry).
    ``warmup_seconds`` is always ``0.0``: the process pool forks cold. The
    field stays because the benchmark ledger reads it.

    The resilience fields record how a fault-tolerant run went:
    ``interrupted`` marks a run stopped by ``KeyboardInterrupt`` (the
    condition map is a salvaged partial); ``resumed_keys`` is always
    empty (a resume is a rerun whose completed obligations are
    ``cached_keys``) and stays because the benchmark ledger reads it;
    ``timeout_keys``/``crashed_keys`` are obligations that hit their
    deadline or crashed past the retry budget; ``retries`` counts extra
    execution attempts; ``resilience_events`` is the scheduler's recovery
    log. ``cached_keys`` are obligations satisfied from the persistent
    result cache (``repro.engine.rcache``) instead of executed, and
    ``rcache_stats`` the cache's hit/miss/invalidation counter delta for
    this discharge. All are bookkeeping only and excluded from equality,
    which compares the condition map alone.
    """

    conditions: Dict[str, CheckResult] = field(default_factory=dict)
    timings: Dict[str, float] = field(
        default_factory=dict, compare=False, repr=False
    )
    obligation_checked: Dict[str, int] = field(
        default_factory=dict, compare=False, repr=False
    )
    worker_cache_stats: Dict[int, dict] = field(
        default_factory=dict, compare=False, repr=False
    )
    warmup_seconds: float = field(default=0.0, compare=False, repr=False)
    interrupted: bool = field(default=False, compare=False, repr=False)
    resumed_keys: List[str] = field(
        default_factory=list, compare=False, repr=False
    )
    timeout_keys: List[str] = field(
        default_factory=list, compare=False, repr=False
    )
    crashed_keys: List[str] = field(
        default_factory=list, compare=False, repr=False
    )
    retries: int = field(default=0, compare=False, repr=False)
    resilience_events: List = field(
        default_factory=list, compare=False, repr=False
    )
    cached_keys: List[str] = field(
        default_factory=list, compare=False, repr=False
    )
    rcache_stats: Optional[Dict[str, int]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def holds(self) -> bool:
        return all(result.holds for result in self.conditions.values())

    @property
    def timed_out(self) -> bool:
        """True when some condition is disrupted (``TIMEOUT`` verdict)
        but none genuinely failed — the run is inconclusive, not
        refuted."""
        verdicts = {r.verdict for r in self.conditions.values()}
        return "TIMEOUT" in verdicts and "FAIL" not in verdicts

    def failed(self) -> List[CheckResult]:
        return [r for r in self.conditions.values() if not r.holds]

    @property
    def total_checked(self) -> int:
        """Total enumeration count across all conditions."""
        return sum(result.checked for result in self.conditions.values())

    @property
    def num_obligations(self) -> int:
        """Number of engine obligations discharged (0 for inline checks)."""
        return len(self.timings)

    def report(self) -> str:
        lines = []
        for name, result in self.conditions.items():
            lines.append(
                f"  [{result.verdict}] {name} ({result.checked} checks)"
            )
            for description, witness in result.counterexamples:
                lines.append(f"         counterexample: {description}: {witness!r}")
        verdict = "IS conditions hold" if self.holds else "IS conditions FAILED"
        return verdict + "\n" + "\n".join(lines)

    def obligation_report(self, top: int = 10) -> str:
        """The slowest obligations with wall-clock and enumeration counts."""
        if not self.timings:
            return "(no obligation stats: result produced by inline checks)"
        ranked = sorted(self.timings.items(), key=lambda kv: -kv[1])[:top]
        lines = [
            f"  {key:<40} {seconds * 1000:>9.1f} ms "
            f"{self.obligation_checked.get(key, 0):>10} checks"
            for key, seconds in ranked
        ]
        total = sum(self.timings.values())
        header = (
            f"{self.num_obligations} obligations, {self.total_checked} checks, "
            f"{total:.2f}s total obligation time"
        )
        for pid, entry in sorted(self.worker_cache_stats.items()):
            lines.append(f"  worker {pid}: {entry['obligations']} obligations")
        return header + "\n" + "\n".join(lines)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        status = "PASS" if self.holds else "FAIL"
        return f"ISResult({status}, {len(self.conditions)} conditions)"


@dataclass
class ISApplication:
    """One application of the IS rule: frame (P, M, E) plus proof artifacts.

    Parameters
    ----------
    program:
        The program :math:`\\mathcal{P}` being transformed.
    m_name:
        The action name :math:`M` whose PAs to ``E`` are eliminated
        (not necessarily ``Main``).
    eliminated:
        The set :math:`E` of action names to eliminate, in *choice priority
        order* when the default choice function is used.
    invariant:
        The invariant action :math:`I`, sharing :math:`M`'s parameters.
    choice:
        The choice function :math:`f`; defaults to
        :func:`choice_by_priority` over ``eliminated``.
    abstractions:
        The abstraction function :math:`\\alpha` as a partial mapping;
        actions of ``E`` not listed are not abstracted
        (:math:`\\alpha(A) = \\mathcal{P}(A)`).
    measure:
        The well-founded order :math:`\\gg` as a lexicographic measure.
    m_prime:
        Optional user-supplied :math:`M'`; when omitted, the canonical
        :math:`M'` (invariant minus transitions with PAs to ``E``) is used
        and condition I2 holds by construction (still checked).
    """

    program: Program
    m_name: str
    eliminated: Tuple[str, ...]
    invariant: Action
    measure: LexicographicMeasure
    choice: Optional[ChoiceFn] = None
    abstractions: Mapping[str, Action] = field(default_factory=dict)
    m_prime: Optional[Action] = None

    def __post_init__(self) -> None:
        self.eliminated = tuple(self.eliminated)
        missing = [a for a in self.eliminated if a not in self.program]
        if missing:
            raise ValueError(f"eliminated actions not in program: {missing}")
        if self.m_name not in self.program:
            raise ValueError(f"action {self.m_name!r} not in program")
        unknown = [a for a in self.abstractions if a not in self.eliminated]
        if unknown:
            raise ValueError(f"abstractions for actions outside E: {unknown}")
        if self.choice is None:
            self.choice = choice_by_priority(self.eliminated)
        self._m_prime_canonical = self.m_prime is None
        if self.m_prime is None:
            self.m_prime = derive_m_prime(
                self.invariant, self.eliminated, name=f"{self.m_name}'"
            )

    def abstraction_of(self, action_name: str) -> Action:
        """:math:`\\alpha(A)` (identity on unlisted actions)."""
        return self.abstractions.get(action_name, self.program[action_name])

    # ------------------------------------------------------------------ #
    # Retired pool warm-up
    # ------------------------------------------------------------------ #

    # The process pool forks cold, so nothing calls these two. They stay
    # as no-ops only because the benchmark ledger (``benchmarks/ledger/
    # spans.py``) looks both up by name in this class's ``__dict__`` when
    # it installs a trace; they go when the ledger stops wrapping them.

    def warm_evaluation_cache(self, universe: StoreUniverse) -> int:
        """No-op kept for the benchmark ledger's trace hooks; returns 0."""
        return 0

    def warm_columns(self, universe: StoreUniverse) -> int:
        """No-op kept for the benchmark ledger's trace hooks; returns 0."""
        return 0

    # ------------------------------------------------------------------ #
    # Condition checks
    # ------------------------------------------------------------------ #

    def check_abstractions(
        self, universe: StoreUniverse, names: Optional[Iterable[str]] = None
    ) -> Dict[str, CheckResult]:
        """:math:`\\mathcal{P}(A) \\preccurlyeq \\alpha(A)` for all A ∈ E.

        ``names`` restricts the check to a subset of ``E`` (the obligation
        engine discharges one action per obligation).
        """
        results = {}
        pool = self.eliminated if names is None else tuple(names)
        for name in pool:
            if name in self.abstractions:
                results[f"abs[{name}]"] = check_action_refinement(
                    process_cache().cached(self.program[name]),
                    process_cache().cached(self.abstractions[name]),
                    universe,
                    name=f"{name} ≼ α({name})",
                    pa_name=name,
                )
        return results

    def check_i1(self, universe: StoreUniverse) -> CheckResult:
        """(I1): :math:`M \\preccurlyeq I`."""
        # M and I share M's parameter signature; reuse M's locals.
        universe_for_m = universe.extended(
            extra_locals={self.invariant.name: universe.locals_for(self.m_name)}
        )
        invariant = process_cache().cached(self.invariant)
        return check_action_refinement(
            process_cache().cached(self.program[self.m_name]),
            Action(
                self.m_name,  # compare on M's locals
                invariant.gate,
                invariant.transitions,
                self.invariant.params,
            ),
            universe_for_m,
            name="I1: M ≼ I",
            pa_name=self.m_name,
        )

    def check_i2(self, universe: StoreUniverse) -> CheckResult:
        """(I2): I restricted to E-free transitions refines :math:`M'`."""
        invariant = process_cache().cached(self.invariant)
        restricted = derive_m_prime(invariant, self.eliminated, name="I|E-free")
        if self._m_prime_canonical:
            # Rebuild the canonical M' over the memoized invariant so both
            # sides of the refinement share one enumeration per store.
            m_prime = derive_m_prime(invariant, self.eliminated, name="M'")
        else:
            m_prime = self.m_prime
        return check_action_refinement(
            Action(self.m_name, restricted.gate, restricted.transitions),
            Action(self.m_name, m_prime.gate, m_prime.transitions),
            universe,
            name="I2: I without E-PAs ≼ M'",
            pa_name=self.m_name,
        )

    def check_i3(self, universe: StoreUniverse) -> CheckResult:
        """(I3): the induction step.

        For every gate-satisfying store :math:`\\sigma` and transition
        :math:`t \\in \\tau_I` with PAs to E, let :math:`(\\ell, A) = f(t)`
        and :math:`A^* = \\alpha(A)`:

        1. the gate of :math:`A^*` holds on :math:`g_t \\cdot \\ell`, and
        2. composing :math:`t` with any :math:`A^*`-transition yields a
           transition in :math:`\\tau_I` from :math:`\\sigma`.
        """
        result = CheckResult("I3: inductive step", True)
        names = set(self.eliminated)
        cached = process_cache().cached
        invariant = cached(self.invariant)
        abstraction_views = {
            name: cached(self.abstraction_of(name)) for name in self.eliminated
        }
        # M's admitted cells whose invariant gate holds: the admissibility
        # scan through column-backed invariant gates, or for an uncachable
        # context the dict-shaped oracle. Both enumerate in the same order
        # and count the same checks.
        fast = i3_fast_path(universe, self.m_name, invariant)
        if fast is not None:
            cells = fast.cells()
        else:
            cells = (
                (g, l)
                for g, l in admitted_cells(universe, self.m_name)
                if invariant.gate(combine(g, l))
            )
        for g, l in cells:
            sigma = combine(g, l)
            outcomes = list(invariant.transitions(sigma))
            outcome_set = set(outcomes)
            for t in outcomes:
                if not any(p.action in names for p in t.created.support()):
                    continue
                chosen = self.choice(sigma, t)
                if chosen.action not in names or chosen not in t.created:
                    _fail(
                        result,
                        GateWitness(
                            reason="choice function selected an invalid PA",
                            check="choice",
                            actors=(chosen.action,),
                            state=sigma,
                            context=(t, chosen),
                        ),
                    )
                    continue
                abstraction = abstraction_views[chosen.action]
                state_a = combine(t.new_global, chosen.locals)
                result.checked += 1
                if fast is not None:
                    gate_a = fast.abstraction_gate(
                        abstraction, chosen.locals, t.new_global
                    )
                else:
                    gate_a = abstraction.gate(state_a)
                if not gate_a:
                    _fail(
                        result,
                        GateWitness(
                            reason=f"gate of α({chosen.action}) fails "
                            "after I-transition",
                            check="i3-gate",
                            actors=(chosen.action,),
                            state=sigma,
                            context=(t, chosen),
                        ),
                    )
                    continue
                remaining = t.created.remove(chosen)
                for tr_a in abstraction.transitions(state_a):
                    composed = Transition(
                        tr_a.new_global, remaining.union(tr_a.created)
                    )
                    result.checked += 1
                    if composed not in outcome_set:
                        _fail(
                            result,
                            MissingTransitionWitness(
                                reason="composition of I with "
                                f"α({chosen.action}) escapes τ_I",
                                check="i3-composition",
                                actors=(chosen.action,),
                                state=sigma,
                                transition=tr_a,
                                context=(t, chosen),
                            ),
                        )
        return result

    def check_lm(
        self,
        universe: StoreUniverse,
        skip: Iterable[str] = (),
        names: Optional[Iterable[str]] = None,
    ) -> Dict[str, CheckResult]:
        """(LM): every abstraction is a left mover w.r.t. the program.

        ``names`` restricts to a subset of ``E``; the obligation engine goes
        one granularity finer and discharges :meth:`check_lm_pair` per
        (abstraction, program action) pair.
        """
        results = {}
        pool = self.eliminated if names is None else tuple(names)
        for name in pool:
            abstraction = self.abstraction_of(name)
            universe_for_abs = universe.extended(
                extra_locals={abstraction.name: universe.locals_for(name)}
            )
            check = is_left_mover_wrt_program(
                Action(name, abstraction.gate, abstraction.transitions, abstraction.params),
                self.program,
                universe_for_abs,
                skip=skip,
            )
            check.name = f"LM: α({name}) left mover wrt P"
            results[f"LM[{name}]"] = check
        return results

    def lm_universe(self, universe: StoreUniverse, name: str) -> StoreUniverse:
        """The universe the LM condition for ``name`` is checked over: the
        abstraction borrows ``name``'s candidate locals."""
        abstraction = self.abstraction_of(name)
        return universe.extended(
            extra_locals={abstraction.name: universe.locals_for(name)}
        )

    def check_lm_pair(
        self,
        universe: StoreUniverse,
        name: str,
        other: str,
        universe_for_abs: Optional[StoreUniverse] = None,
    ) -> CheckResult:
        """One cell of the LM matrix: is :math:`\\alpha(name)` a left mover
        w.r.t. the single program action ``other``? The union of these
        cells over all non-skipped program actions equals
        ``check_lm(universe)[f"LM[{name}]"]`` (the engine merges them).

        ``universe_for_abs`` lets callers reuse one :meth:`lm_universe`
        across all pairs of the same ``name`` (its interned gids list, and
        with it the admissibility class masks, is per-instance).
        """
        abstraction = self.abstraction_of(name)
        if universe_for_abs is None:
            universe_for_abs = self.lm_universe(universe, name)
        return is_left_mover(
            Action(name, abstraction.gate, abstraction.transitions, abstraction.params),
            self.program[other],
            universe_for_abs,
        )

    def check_co(
        self, universe: StoreUniverse, names: Optional[Iterable[str]] = None
    ) -> CheckResult:
        """(CO): cooperation, checked locally thanks to monotonicity.

        For every A ∈ E and gate-satisfying store of :math:`\\alpha(A)`,
        some transition strictly decreases the lexicographic measure from
        :math:`(g, \\{(\\ell, A)\\})` to :math:`(g', \\Omega')`.

        ``names`` restricts to a subset of ``E`` (one engine obligation per
        eliminated action); the full condition is the in-order merge.
        """
        result = CheckResult("CO: cooperation", True)
        pool = self.eliminated if names is None else tuple(names)
        for name in pool:
            abstraction = process_cache().cached(self.abstraction_of(name))
            for g, l in admitted_cells(universe, name):
                state = combine(g, l)
                if not abstraction.gate(state):
                    continue
                result.checked += 1
                before = Config(g, Multiset([PendingAsync(name, l)]))
                decreasing = False
                for tr in abstraction.transitions(state):
                    after = Config(tr.new_global, tr.created)
                    if self.measure.decreases(before, after):
                        decreasing = True
                        break
                if not decreasing:
                    _fail(
                        result,
                        GateWitness(
                            reason=f"α({name}) cannot decrease the measure",
                            check="cooperation",
                            actors=(name,),
                            context=(g, l),
                        ),
                    )
        return result

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #

    def check(
        self,
        universe: StoreUniverse,
        lm_skip: Iterable[str] = (),
        jobs: Optional[int] = None,
        scheduler=None,
        fail_fast: bool = False,
        tracer=None,
        resilience=None,
        cache=None,
        symmetry=None,
        warm=None,
    ) -> ISResult:
        """Check all IS conditions over a store universe.

        ``lm_skip`` excludes action names from the left-mover pool, used
        for iterated IS where previously eliminated actions have already
        disappeared from the program (Section 5.3).

        The conditions are decomposed into an obligation DAG and discharged
        by ``repro.engine.obligations`` — serially by default, or across
        ``jobs`` worker processes (an explicit ``scheduler`` overrides
        ``jobs``). ``fail_fast=True`` skips obligations whose dependencies
        already failed; the default runs everything, matching
        :meth:`check_inline`. The resulting condition map is identical for
        every backend.

        ``tracer`` (a :class:`repro.obs.Tracer`) records one span per
        discharged obligation; it observes the outcomes the scheduler
        already returns and cannot change the result (``tracer=None``
        output is identical, byte for byte).

        ``resilience`` (a
        :class:`~repro.engine.resilience.ResilienceConfig`) arms
        per-obligation deadlines and crash retries. See
        ``repro.engine.obligations.discharge``.

        ``cache`` (an :class:`~repro.engine.rcache.ObligationCache` or a
        directory path) reuses persisted results for obligations whose
        dependency fingerprints are unchanged — they are seeded, not
        executed — and stores every obligation back as it completes, so
        re-running with the same cache resumes a killed run. ``warm`` (a
        :class:`~repro.engine.warm.WarmState`) memoizes this pair's
        fingerprints and cache entries across daemon requests.

        ``symmetry`` (a :class:`~repro.core.symmetry.SymmetrySpec`) folds
        the universe onto orbit representatives before discharging — a
        no-op when the universe was already built quotiented
        (``StoreUniverse.from_reachable(..., symmetry=...)``). Verdicts
        are preserved for equivariant protocols (see DESIGN.md, "Symmetry
        quotients"); the quotient's fingerprints carry the group identity
        so its cache entries never alias the unquotiented ones.
        """
        from ..engine.obligations import discharge

        if symmetry is not None:
            universe = universe.quotiented(symmetry)
        return discharge(
            self,
            universe,
            lm_skip=lm_skip,
            jobs=jobs,
            scheduler=scheduler,
            fail_fast=fail_fast,
            tracer=tracer,
            resilience=resilience,
            cache=cache,
            warm=warm,
        )

    def check_inline(
        self, universe: StoreUniverse, lm_skip: Iterable[str] = ()
    ) -> ISResult:
        """The pre-engine monolithic check: every condition in order, in
        this process, with no obligation bookkeeping. Retained as the
        regression oracle the engine's condition maps are compared against
        (``tests/engine``)."""
        result = ISResult()
        result.conditions.update(self.check_abstractions(universe))
        result.conditions["I1"] = self.check_i1(universe)
        result.conditions["I2"] = self.check_i2(universe)
        result.conditions["I3"] = self.check_i3(universe)
        result.conditions.update(self.check_lm(universe, skip=lm_skip))
        result.conditions["CO"] = self.check_co(universe)
        return result

    def apply(self) -> Program:
        """The transformed program :math:`\\mathcal{P}[M \\mapsto M']`.

        Sound only if :meth:`check` passed; callers are expected to check
        first (the protocol pipelines in ``repro.protocols`` do).
        """
        return self.program.with_action(self.m_name, self.m_prime)

    def apply_and_drop(self) -> Program:
        """Like :meth:`apply`, but also drop the eliminated actions if no
        remaining action can spawn them (convenience for iterated IS)."""
        return self.apply().without_actions(self.eliminated)
