"""Shared infrastructure for the case-study protocols (Section 5).

All protocols follow the paper's modelling conventions:

* protocol state lives in map-valued globals
  (:class:`~repro.core.mapping.FrozenDict`),
* message channels are bags (:class:`~repro.core.multiset.Multiset`) unless
  a protocol explicitly uses a FIFO queue,
* a ghost global ``pendingAsyncs`` mirrors the configuration's PA multiset
  :math:`\\Omega` (Figure 4(b)); every action updates it via
  :func:`ghost_step`, and gates of IS abstractions may refer to it
  (e.g. ``CollectAbs`` in Figure 1-④ asserts
  :math:`\\forall j.\\ \\mathtt{Broadcast}(j) \\notin \\Omega`).

The module also provides the common report type returned by each protocol's
``verify`` entry point.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.action import PendingAsync
from ..core.explore import ExplorationBudgetExceeded
from ..core.multiset import Multiset
from ..core.refinement import CheckResult
from ..core.sequentialize import ISResult
from ..core.store import Store

__all__ = [
    "GHOST",
    "ghost_step",
    "ghost_of",
    "has_pa_to",
    "count_pas_to",
    "sub_multisets",
    "bag_send",
    "BudgetHit",
    "Instance",
    "ProtocolReport",
    "RunOptions",
    "verify_protocol",
    "timed",
]

#: Conventional name of the ghost pending-async variable.
GHOST = "pendingAsyncs"


def ghost_of(state: Store) -> Multiset:
    """The ghost PA multiset of a (combined or global) store."""
    return state[GHOST]


def ghost_step(
    state: Store,
    self_pa: Optional[PendingAsync],
    created: Iterable[PendingAsync] = (),
) -> Multiset:
    """Ghost update for one action execution: remove the executing PA, add
    the created ones.

    Removal is tolerant (no-op when absent) so that actions remain total on
    the inconsistent stores enumerated during mover checks; along real
    executions the ghost is exact.
    """
    ghost = ghost_of(state)
    if self_pa is not None and self_pa in ghost:
        ghost = ghost.remove(self_pa)
    return ghost.union(Multiset(created))


def has_pa_to(state: Store, action_name: str) -> bool:
    """True if the ghost contains any PA to ``action_name``."""
    return any(p.action == action_name for p in ghost_of(state).support())


def count_pas_to(state: Store, action_name: str) -> int:
    """Number of ghost PAs to ``action_name`` (with multiplicity)."""
    return sum(
        count for p, count in ghost_of(state).counts() if p.action == action_name
    )


def sub_multisets(bag: Multiset, size: int) -> Iterator[Multiset]:
    """All distinct sub-multisets of ``bag`` with exactly ``size`` elements.

    Used to enumerate the outcomes of a blocking ``receive(k)`` over a bag
    channel: any ``k`` of the available messages may be delivered.
    """
    items: List[Tuple[object, int]] = sorted(bag.counts(), key=lambda kv: repr(kv[0]))

    def recurse(index: int, remaining: int) -> Iterator[Dict[object, int]]:
        if remaining == 0:
            yield {}
            return
        if index >= len(items):
            return
        element, available = items[index]
        max_take = min(available, remaining)
        for take in range(max_take + 1):
            for rest in recurse(index + 1, remaining - take):
                if take:
                    rest = dict(rest)
                    rest[element] = take
                yield rest

    if size > len(bag):
        return
    for counts in recurse(0, size):
        yield Multiset.from_counts(counts)


def bag_send(channel: Multiset, message) -> Multiset:
    """Append a message to a bag channel."""
    return channel.add(message)


@dataclass(frozen=True)
class BudgetHit:
    """A pipeline stage that blew its exploration budget.

    Wraps the :class:`~repro.core.explore.ExplorationBudgetExceeded` the
    stage raised: ``stage`` is the pipeline stage label (``IS[label]``,
    ``sequential spec``, ``ground truth``), ``explored``/``limit`` come
    from the exception. Reports carrying one render as BUDGET — neither
    verified nor refuted — instead of a traceback.
    """

    stage: str
    explored: int
    limit: int

    def __str__(self) -> str:
        return (
            f"{self.stage}: budget exceeded after {self.explored} "
            f"configurations (limit {self.limit})"
        )


@dataclass
class ProtocolReport:
    """Result of a protocol's full verification pipeline.

    ``ok`` requires every IS application to pass, the sequential spec to
    hold on the final program, and (when computed) the ground-truth
    refinement check to pass. A report whose pipeline blew its
    ``max_configs`` budget carries a :class:`BudgetHit` and renders as
    BUDGET: it neither passed nor failed, it ran out of room.

    ``explain_targets`` records, per IS check, the application and universe
    it ran against — everything ``repro.diagnose.explain_result`` needs to
    replay and shrink the counterexamples of a failed report.

    Status forms a small lattice — ``OK`` / ``FAILED`` / ``BUDGET`` /
    ``TIMEOUT`` / ``INTERRUPTED``: a genuine counterexample anywhere wins
    (``FAILED``), a blown budget reports before disruption kinds, and
    ``TIMEOUT``/``INTERRUPTED`` mark runs that are *inconclusive* —
    obligations hit their deadline or the run was stopped — rather than
    refuted. ``ok`` is ``True`` only for a clean, complete ``OK``.
    """

    name: str
    parameters: Dict[str, object]
    is_results: List[Tuple[str, ISResult]] = field(default_factory=list)
    spec_ok: Optional[bool] = None
    ground_truth: Optional[CheckResult] = None
    timings: Dict[str, float] = field(default_factory=dict)
    budget: Optional[BudgetHit] = None
    interrupted: bool = False
    #: True when the universe was *sampled* (random walks) rather than
    #: exhaustively harvested: a PASS is then a bounded check, not a
    #: proof. Surfaced by ``table1`` and the ``repro serve`` job payloads
    #: so a sampled PASS can't masquerade as an exhaustive one.
    bounded: bool = False
    explain_targets: List[Tuple[str, object, object]] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def num_is_applications(self) -> int:
        return len(self.is_results)

    @property
    def ok(self) -> bool:
        if self.budget is not None or self.interrupted:
            return False
        if any(not result.holds for _, result in self.is_results):
            return False
        if self.spec_ok is False:
            return False
        if self.ground_truth is not None and not self.ground_truth.holds:
            return False
        return True

    @property
    def _genuinely_failed(self) -> bool:
        """A real refutation somewhere — outranks every disruption."""
        if any(
            any(r.verdict == "FAIL" for r in result.conditions.values())
            for _, result in self.is_results
        ):
            return True
        if self.spec_ok is False:
            return True
        if self.ground_truth is not None and not self.ground_truth.holds:
            return True
        return False

    @property
    def timed_out(self) -> bool:
        """Some obligation hit its deadline (or crashed/was skipped) and
        nothing genuinely failed — the pipeline is inconclusive."""
        return any(result.timed_out for _, result in self.is_results)

    @property
    def status(self) -> str:
        """One of ``OK``/``FAILED``/``BUDGET``/``TIMEOUT``/``INTERRUPTED``
        (see the class docstring for the ordering)."""
        if self.budget is not None:
            return "BUDGET"
        if self._genuinely_failed:
            return "FAILED"
        if self.interrupted:
            return "INTERRUPTED"
        if self.timed_out:
            return "TIMEOUT"
        return "OK" if self.ok else "FAILED"

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def summary(self) -> str:
        parts = [f"{self.name}: {self.status} "
                 f"({self.num_is_applications} IS applications,"
                 f" {self.total_time:.2f}s)"]
        for label, result in self.is_results:
            if result.holds:
                verdict = "PASS"
            elif result.interrupted:
                verdict = "INTERRUPTED"
            elif result.timed_out:
                verdict = "TIMEOUT"
            else:
                verdict = "FAIL"
            parts.append(f"  IS[{label}]: {verdict}")
        if self.spec_ok is not None:
            parts.append(f"  sequential spec: {'PASS' if self.spec_ok else 'FAIL'}")
        if self.ground_truth is not None:
            parts.append(
                f"  ground-truth refinement: "
                f"{'PASS' if self.ground_truth.holds else 'FAIL'}"
            )
        if self.budget is not None:
            parts.append(f"  {self.budget}")
        if self.interrupted:
            parts.append("  interrupted: partial report (salvaged outcomes)")
        if self.bounded:
            parts.append(
                "  bounded: sampled universe — a PASS is not exhaustive"
            )
        return "\n".join(parts)


@dataclass(frozen=True)
class RunOptions:
    """How to run one verification: the engine knobs every protocol
    pipeline shares. Only ``max_configs`` (a blown budget reports BUDGET)
    and ``ground_truth`` (an extra stage) can change a report's verdict;
    the rest change where and how fast the same verdict is computed."""

    #: Exploration budget for every stage (universe, sequential spec,
    #: ground truth). A stage that blows it yields a BUDGET report naming
    #: the stage (:class:`BudgetHit`) instead of raising.
    max_configs: Optional[int] = None
    #: Obligation-discharge backend (``repro.engine.scheduler``): ``None``
    #: or below 2 is serial, ``N`` a process pool of ``N`` workers.
    #: Verdicts are backend-independent.
    jobs: Optional[int] = None
    #: Skip obligations, transitively, once a dependency failed; skipped
    #: conditions report an explicit ``skipped`` counterexample instead of
    #: running. Rows of a healthy suite are unaffected.
    fail_fast: bool = False
    #: A :class:`repro.obs.Tracer`: phase spans for every pipeline stage
    #: and obligation spans for every IS check, scoped under the protocol
    #: name and IS label, so one tracer can accumulate a whole ``table1``
    #: sweep. Never affects verdicts or reports.
    tracer: object = None
    #: A :class:`~repro.engine.resilience.ResilienceConfig`:
    #: per-obligation deadlines and crash retries for every IS check.
    #: Expired deadlines render TIMEOUT. With or without it, a
    #: ``KeyboardInterrupt`` yields a partial INTERRUPTED report of
    #: everything completed (and, with a ``cache``, stored) before the
    #: stop, not a traceback.
    resilience: object = None
    #: An :class:`~repro.engine.rcache.ObligationCache` or a directory
    #: path: obligations whose dependency fingerprints are unchanged are
    #: seeded from the store (``ISResult.cached_keys``) instead of
    #: executed, and each fresh result is stored as it completes, so
    #: re-running with the same cache resumes an interrupted run. Store
    #: universes and the spec and ground-truth results are kept there
    #: too, under the input fingerprint of what they compute from, so a
    #: warm re-verify explores nothing. One instance serves all of a
    #: run's IS applications.
    cache: object = None
    #: A :class:`~repro.engine.warm.WarmState`: this run is one request
    #: against a resident daemon. The per-run process-cache reset is
    #: skipped (interner, evaluation and columnar memos stay hot), the
    #: IS applications, universes, spec/ground-truth stages and each
    #: obligation's fingerprint and cache entry are reused from the
    #: instance's resident record, keyed by the full instance identity,
    #: and ``warm.rcache`` is the result cache unless ``cache`` is given.
    #: Verdicts are warm/cold-identical (``repro.engine.warm``).
    warm: object = None
    #: Quotient every IS universe by the instance's declared permutation
    #: group, where it declares one (ignored otherwise). Sound for the
    #: equivariant protocols that declare a group (DESIGN.md); the spec
    #: and ground-truth stages run unquotiented. The group's identity is
    #: part of the warm key and of every cache fingerprint.
    symmetry: bool = False
    #: Check the ground-truth refinement P ≼ P' by exhaustive exploration
    #: of both programs. ``None`` is the instance's default: on for every
    #: protocol but Paxos, whose concurrent state space is exponential.
    ground_truth: Optional[bool] = None


@dataclass(frozen=True)
class Instance:
    """One protocol instance, as :func:`verify_protocol` runs it.

    ``applications`` are ``(label, ISApplication)`` pairs whose programs
    are already chained (each application's program is the output of the
    previous one); the first one's program is the original program the
    ground-truth stage refines. ``spec`` is the safety predicate every
    final global store of the sequentialized program must satisfy.
    ``symmetry``, when given, builds the instance's
    :class:`~repro.core.symmetry.SymmetrySpec` for
    ``RunOptions.symmetry``. The universe source is the reachable BFS by
    default; ``walks`` switches it to that many seeded random-scheduler
    walks, for instances too large to enumerate, and the report is then
    ``bounded``.
    """

    name: str
    parameters: Dict[str, object]
    applications: Sequence[Tuple[str, object]]
    initial_global: Store
    spec: Callable[[Store], bool]
    symmetry: Optional[Callable[[], object]] = None
    walks: Optional[int] = None
    seed: int = 0
    ground_truth: bool = True


@contextmanager
def _stage(report: ProtocolReport, label: str, tracer):
    """Time one pipeline stage; a blown budget or a Ctrl-C inside it ends
    the stage with a BUDGET or INTERRUPTED mark on the report."""
    try:
        with timed(report, label, tracer=tracer):
            yield
    except ExplorationBudgetExceeded as exc:
        report.budget = BudgetHit(label, exc.explored, exc.limit)
    except KeyboardInterrupt:
        report.interrupted = True


def verify_protocol(
    instance: Instance, options: RunOptions = RunOptions()
) -> ProtocolReport:
    """The protocol pipeline: check each IS application over the instance's
    universe (under the ghost PA context), then the sequential spec on the
    final program, then (optionally) ground-truth refinement. Every
    protocol's ``verify`` is this function applied to its
    :class:`Instance`; ``options`` documents the knobs.

    A cold run (no ``options.warm``) resets the process-level caches and
    then runs against a fresh :class:`~repro.engine.warm.WarmState`, so
    warm and cold runs share one code path.
    """
    from ..core.cache import reset_process_cache
    from ..core.context import GhostContext
    from ..core.explore import InstanceSummary, instance_summary
    from ..core.refinement import check_program_refinement
    from ..core.semantics import initial_config
    from ..core.store import EMPTY_STORE
    from ..core.symmetry import Canonicalizer
    from ..core.universe import StoreUniverse
    from ..engine.rcache import ObligationCache, _Hasher, input_key
    from ..engine.warm import WarmState

    warm = options.warm
    if warm is None:
        # Each verification run starts from empty process-level caches:
        # the intern table, the evaluation memos, and the columnar tables
        # all grow monotonically during a run, and letting them persist
        # across runs accumulated the previous protocols' stores forever
        # (the historical module-level ``combine`` lru_cache had exactly
        # this leak). A warm (daemon) run deliberately keeps them: the
        # tables are content-addressed and the daemon's request mix
        # revisits the same instances, so residency is a bounded win, not
        # a leak.
        reset_process_cache()
        warm = WarmState()
    cache = (
        warm.rcache
        if options.cache is None
        else ObligationCache.ensure(options.cache)
    )
    tracer = options.tracer
    max_configs = options.max_configs
    symmetry = canon = None
    parameters = dict(instance.parameters)
    if options.symmetry and instance.symmetry is not None:
        symmetry = instance.symmetry()
        parameters["symmetry"] = symmetry.name
        # One canonicalizer for every universe build of this run: its
        # orbit tables carry over the IS chain.
        canon = Canonicalizer(symmetry)
    report = ProtocolReport(
        instance.name, parameters, bounded=instance.walks is not None
    )
    key = (
        instance.name,
        repr(sorted(parameters.items())),
        max_configs,
        symmetry.token() if symmetry is not None else None,
    )
    record = warm.resident(key, lambda: list(instance.applications))
    applications = record.applications
    original = final_program = applications[0][1].program
    initials = [initial_config(instance.initial_global)]
    # What this run already explored exhaustively and unquotiented: the
    # original program (first universe) and the final one (spec stage).
    # Ground truth reads them instead of exploring again; the summaries
    # hold no reachable set and die with the run.
    summaries = []

    # With a cache, every universe and stage result is kept under the
    # input key of what it computes from (``repro.engine.rcache``), taken
    # in one hashing session that the obligation fingerprints share.
    # Without one, no key is computed.
    hasher = _Hasher() if cache is not None else None

    def keyed(kind, *parts):
        return None if cache is None else input_key(kind, parts, hasher)

    def build_universe(program):
        if instance.walks is None:
            key = keyed(
                "universe",
                program,
                initials,
                max_configs,
                symmetry.fingerprint_parts() if symmetry is not None else None,
            )
            universe = None
            if key is not None:
                universe = cache.load_universe(
                    key, program, initials, max_configs, symmetry
                )
            if universe is None:
                universe = StoreUniverse.from_reachable(
                    program, initials, max_configs=max_configs, symmetry=canon
                )
                if key is not None:
                    cache.store_universe(key, universe)
            if program is original and universe.exploration is not None:
                summaries.append(universe.exploration)
        else:
            universe = StoreUniverse.from_random_walks(
                program,
                initials,
                walks=instance.walks,
                seed=instance.seed,
                symmetry=canon,
            )
        return universe.with_context(GhostContext(GHOST))

    def stored(key, compute):
        """``compute()``, or the stage result stored under ``key``."""
        value = None if key is None else cache.load_stage(key)
        if value is None:
            value = compute()
            if key is not None:
                cache.store_stage(key, value)
        return value

    def spec_holds():
        def explore_final():
            summary = instance_summary(
                final_program, instance.initial_global, max_configs=max_configs
            )
            holds = (
                not summary.can_fail
                and bool(summary.final_globals)
                and all(instance.spec(final) for final in summary.final_globals)
            )
            return holds, summary.can_fail, summary.final_globals, summary.num_configs

        holds, *explored = stored(
            keyed(
                "spec",
                final_program,
                instance.initial_global,
                instance.spec,
                max_configs,
            ),
            explore_final,
        )
        summaries.append(
            InstanceSummary(
                initials[0], *explored, program=final_program, max_configs=max_configs
            )
        )
        return holds

    def refines():
        return stored(
            keyed(
                "ground-truth",
                original,
                final_program,
                instance.initial_global,
                max_configs,
            ),
            lambda: check_program_refinement(
                original,
                final_program,
                [(instance.initial_global, EMPTY_STORE)],
                max_configs=max_configs,
                name="P ≼ P' (exhaustive)",
                summaries=summaries,
            ),
        )

    with tracer.scope(instance.name) if tracer is not None else nullcontext():
        for position, (label, application) in enumerate(applications, 1):
            stage = f"IS[{label}]"
            with _stage(report, stage, tracer):
                universe = record.universe(
                    label, lambda: build_universe(application.program)
                )
                if position == len(applications):
                    # No later build reads the orbit tables: free them
                    # before the last discharge, whose peak they would add to.
                    canon = None
                with tracer.scope(stage) if tracer is not None else nullcontext():
                    result = application.check(
                        universe,
                        jobs=options.jobs,
                        fail_fast=options.fail_fast,
                        tracer=tracer,
                        resilience=options.resilience,
                        cache=cache,
                        memo=record.obligations.setdefault(label, {}),
                        hasher=hasher,
                    )
                report.is_results.append((label, result))
                report.explain_targets.append((label, application, universe))
                report.interrupted = result.interrupted
            if report.budget is not None or report.interrupted:
                return report
            final_program = application.apply_and_drop()

        with _stage(report, "sequential spec", tracer):
            report.spec_ok = record.stage("spec", spec_holds)
        if report.budget is not None or report.interrupted:
            return report

        ground_truth = options.ground_truth
        if ground_truth is None:
            ground_truth = instance.ground_truth
        if ground_truth:
            with _stage(report, "ground truth", tracer):
                report.ground_truth = record.stage("ground-truth", refines)
    return report


class timed:
    """Context manager recording elapsed wall-clock into a report's timings.

    When a ``tracer`` is supplied, the same interval is also recorded as a
    ``phase`` span (at the tracer's current scope), so pipeline stages —
    ``IS[label]``, ``sequential spec``, ``ground truth`` — frame the
    obligation spans in an exported trace.

    >>> with timed(report, "IS"):
    ...     run_checks()
    """

    def __init__(self, report: ProtocolReport, label: str, tracer=None):
        self.report = report
        self.label = label
        self.tracer = tracer

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        self.report.timings[self.label] = (
            self.report.timings.get(self.label, 0.0) + elapsed
        )
        if self.tracer is not None:
            from ..obs.tracer import Span

            self.tracer.add(
                Span(
                    name=self.label,
                    category="phase",
                    start=self._start,
                    duration=elapsed,
                    pid=os.getpid(),
                )
            )
