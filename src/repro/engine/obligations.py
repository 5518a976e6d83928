"""The obligation DAG: IS conditions decomposed into schedulable units.

``ISApplication.check_inline`` discharges Figure 3's conditions as six
monolithic loops. This module decomposes the same work into an explicit DAG
of named :class:`Obligation` values — one refinement check per abstracted
action, I1, I2, I3, one left-mover check per (abstraction, program
action) pair, and one cooperation check per eliminated action — and
recomposes the per-obligation :class:`~repro.core.refinement.CheckResult`
values into an
:class:`~repro.core.sequentialize.ISResult` whose condition map is
*identical* to the inline checker's (same keys, names, verdicts, check
counts, and counterexamples), regardless of which scheduler discharged the
obligations or in what order they completed.

The DAG has depth two: LM and CO obligations of an abstracted action depend
on its ``abs`` obligation, and I3 depends on all of them (it steps through
every abstraction), so a failed abstraction lets a fail-fast scheduler skip
the conditions that would be checking a refinement that does not hold.
Skipping is a function of the DAG and recorded verdicts — never of timing —
so fail-fast runs are deterministic too (skipped conditions carry an
explicit ``skipped`` counterexample). The default is to run everything,
matching the inline checker.

Obligations are (de)hydratable by key: :func:`execute_obligation` takes an
application + universe + obligation and runs exactly one unit of work, which
is what the process-pool backend ships to workers (the payload travels by
``fork`` inheritance; only keys and results cross the pipe — see
``repro.engine.scheduler``). Every backend runs the same list: the layout
does not depend on the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.refinement import COUNTEREXAMPLE_KEEP, CheckResult
from ..core.sequentialize import ISApplication, ISResult
from ..core.universe import StoreUniverse
from ..diagnose.witness import SkippedMarker, TimeoutMarker
from .resilience import DischargeInterrupted, ResilienceConfig, ResilienceEvent

__all__ = [
    "Obligation",
    "build_obligations",
    "execute_obligation",
    "merge_outcomes",
    "discharge",
]

#: Per-obligation counterexample cap — the single shared constant from
#: ``repro.diagnose.witness`` (also used by ``refinement._fail`` and the
#: inline mover combiners), so every merge path truncates identically.
_KEEP = COUNTEREXAMPLE_KEEP


@dataclass(frozen=True)
class Obligation:
    """One schedulable unit of IS proof work.

    ``kind`` is the condition family (``abs``/``I1``/``I2``/``I3``/``LM``/
    ``CO``); ``condition`` is the key of the condition-map entry this
    obligation contributes to (several obligations may share one, e.g. the
    LM cells of one abstraction); ``params`` are the instance parameters
    the executor dispatches on; ``deps`` are keys of obligations whose
    failure makes this one moot.
    """

    key: str
    kind: str
    condition: str
    params: Tuple = ()
    deps: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"Obligation({self.key})"


def build_obligations(
    app: ISApplication,
    universe: StoreUniverse,
    lm_skip: Iterable[str] = (),
) -> List[Obligation]:
    """The obligation DAG for one IS application, in deterministic order.

    The order is the inline checker's condition order (abs, I1, I2, I3, LM,
    CO), which is also a topological order of the dependency edges — a
    serial scheduler can walk the list front to back.

    I3's ``params`` are ``(0, len(universe.globals_))``: the globals range
    its dependency fingerprint renders (``repro.engine.rcache``), kept so
    stored I3 results stay addressable.
    """
    obligations: List[Obligation] = []
    abs_keys: List[str] = []
    for name in app.eliminated:
        if name in app.abstractions:
            key = f"abs[{name}]"
            abs_keys.append(key)
            obligations.append(
                Obligation(key=key, kind="abs", condition=key, params=(name,))
            )
    all_abs = tuple(abs_keys)

    obligations.append(Obligation(key="I1", kind="I1", condition="I1"))
    obligations.append(Obligation(key="I2", kind="I2", condition="I2"))

    obligations.append(
        Obligation(
            key="I3",
            kind="I3",
            condition="I3",
            params=(0, len(universe.globals_)),
            deps=all_abs,
        )
    )

    skipped = set(lm_skip)
    lm_targets = [x for x in app.program.action_names() if x not in skipped]
    for name in app.eliminated:
        dep = (f"abs[{name}]",) if name in app.abstractions else ()
        for other in lm_targets:
            obligations.append(
                Obligation(
                    key=f"LM[{name}|{other}]",
                    kind="LM",
                    condition=f"LM[{name}]",
                    params=(name, other),
                    deps=dep,
                )
            )
        obligations.append(
            Obligation(
                key=f"CO[{name}]",
                kind="CO",
                condition="CO",
                params=(name,),
                deps=dep,
            )
        )
    return obligations


def execute_obligation(
    app: ISApplication,
    universe: StoreUniverse,
    obligation: Obligation,
    lm_universes: Optional[Dict[str, StoreUniverse]] = None,
) -> CheckResult:
    """Discharge one obligation, returning its raw :class:`CheckResult`.

    ``lm_universes`` is an optional per-run memo of
    :meth:`ISApplication.lm_universe` extensions, so the LM cells of one
    abstraction share a single extended universe (and hence its interned
    gids list and admissibility class index) instead of rebuilding it per
    cell. Workers
    keep one such memo per process.
    """
    kind = obligation.kind
    if kind == "abs":
        (name,) = obligation.params
        return app.check_abstractions(universe, names=[name])[obligation.key]
    if kind == "I1":
        return app.check_i1(universe)
    if kind == "I2":
        return app.check_i2(universe)
    if kind == "I3":
        return app.check_i3(universe)
    if kind == "LM":
        name, other = obligation.params
        uni2 = _lm_universe_for(app, universe, name, lm_universes)
        return app.check_lm_pair(universe, name, other, universe_for_abs=uni2)
    if kind == "CO":
        (name,) = obligation.params
        return app.check_co(universe, names=[name])
    raise ValueError(f"unknown obligation kind {kind!r}")


def _lm_universe_for(app, universe, name, lm_universes):
    """The per-run memo of LM-extended universes (see
    :func:`execute_obligation`); ``None`` when no memo was supplied."""
    if lm_universes is None:
        return None
    uni2 = lm_universes.get(name)
    if uni2 is None:
        uni2 = app.lm_universe(universe, name)
        lm_universes[name] = uni2
    return uni2


def _skipped_result(name: str, reasons: Iterable[str]) -> CheckResult:
    """A fail-fast skip, one marker per blocking dependency, capped like
    every other condition result."""
    result = CheckResult(name, False)
    for reason in list(reasons)[:_KEEP]:
        result.counterexamples.append(
            SkippedMarker(reason=f"skipped: {reason}", check="skipped")
        )
    return result


def _condition_display_name(ob: Obligation) -> str:
    """The condition-map display name an unexecuted obligation reports
    under — the same names the executed paths produce."""
    if ob.kind == "LM":
        return f"α({ob.params[0]}) vs {ob.params[1]}"
    return {
        "I3": "I3: inductive step",
        "CO": "CO: cooperation",
    }.get(ob.kind, ob.key)


def _fault_result(ob: Obligation, outcome, deadline) -> CheckResult:
    """The :class:`TimeoutMarker`-carrying result of an obligation that
    never completed: deadline expiry, terminal crash, or interrupt
    (``outcome is None`` — the run stopped before it was scheduled)."""
    name = _condition_display_name(ob)
    if outcome is None:
        marker = TimeoutMarker(
            reason="interrupted before execution", check="interrupted"
        )
    elif outcome.timed_out:
        marker = TimeoutMarker(
            reason=f"deadline of {deadline}s exceeded",
            check="timeout",
            attempts=outcome.attempts,
            deadline=deadline,
        )
    else:
        marker = TimeoutMarker(
            reason=(
                f"crashed after {outcome.attempts} attempt(s): "
                f"{outcome.error}"
            ),
            check="crash",
            attempts=outcome.attempts,
            deadline=deadline,
        )
    return CheckResult(name, False, [marker])


def merge_outcomes(
    app: ISApplication,
    obligations: List[Obligation],
    results: Mapping[str, CheckResult],
    timings: Optional[Mapping[str, float]] = None,
) -> ISResult:
    """Recompose per-obligation results into the inline condition map.

    Deterministic: iterates ``obligations`` in build order, so the merged
    map is independent of scheduler, job count, and completion order.

    * ``abs``/``I1``/``I2``/``I3`` map one-to-one onto condition entries.
    * ``LM`` cells fold into one per-abstraction condition exactly like
      ``is_left_mover_wrt_program``: checks summed over program actions in
      program order, counterexamples prefixed ``wrt {action}`` and the
      folded list truncated to the same cap as the inline merge.
    * ``CO`` per-action results concatenate into the single cooperation
      condition, truncated to the same cap.

    Every condition entry ends up capped at :data:`COUNTEREXAMPLE_KEEP`
    counterexamples in enumeration order — the one truncation rule shared
    with the inline checkers, asserted across backends in
    ``tests/diagnose``.
    """
    merged = ISResult()
    conditions = merged.conditions
    for ob in obligations:
        sub = results.get(ob.key)
        if sub is None:
            continue
        if ob.kind in ("abs", "I1", "I2", "I3"):
            conditions[ob.condition] = sub
        elif ob.kind == "LM":
            name, other = ob.params
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult(f"LM: α({name}) left mover wrt P", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                if len(acc.counterexamples) < _KEEP:
                    acc.counterexamples.extend(
                        cx.with_prefix(f"wrt {other}")
                        for cx in sub.counterexamples
                    )
                    del acc.counterexamples[_KEEP:]
        elif ob.kind == "CO":
            acc = conditions.get(ob.condition)
            if acc is None:
                acc = CheckResult("CO: cooperation", True)
                conditions[ob.condition] = acc
            acc.checked += sub.checked
            if not sub.holds:
                acc.holds = False
                remaining = _KEEP - len(acc.counterexamples)
                if remaining > 0:
                    acc.counterexamples.extend(sub.counterexamples[:remaining])
        merged.obligation_checked[ob.key] = sub.checked
        if timings is not None and ob.key in timings:
            merged.timings[ob.key] = timings[ob.key]
    return merged


def discharge(
    app: ISApplication,
    universe: StoreUniverse,
    lm_skip: Iterable[str] = (),
    jobs: Optional[int] = None,
    scheduler=None,
    fail_fast: bool = False,
    tracer=None,
    resilience: Optional[ResilienceConfig] = None,
    cache=None,
    memo=None,
    hasher=None,
) -> ISResult:
    """Build, schedule, and merge the obligation DAG for one application.

    ``jobs`` selects the backend (``None``/``0``/``1``: serial; ``>1``:
    fork-based process pool, falling back to serial where ``fork`` is
    unavailable); an explicit ``scheduler`` instance overrides it. The
    obligation list is the same for every backend.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one span per
    obligation — skipped obligations included (zero duration, flagged),
    each carrying its result-cache decision — plus any resilience events
    (timeouts, retries, pool rebuilds). Spans are derived *after*
    scheduling from the outcomes and events the scheduler records anyway,
    so a tracer can never perturb verdicts, condition maps, or
    scheduling/recovery decisions.

    ``resilience`` (a :class:`~repro.engine.resilience.ResilienceConfig`)
    arms per-obligation deadlines and crash retries. A
    ``KeyboardInterrupt`` mid-run is salvaged: the completed outcomes are
    merged into a partial result with ``interrupted=True`` and the
    unexecuted obligations marked with ``interrupted`` timeout witnesses.

    ``cache`` (an :class:`~repro.engine.rcache.ObligationCache`, or a
    directory path) arms the persistent content-addressed result store:
    before scheduling, every obligation's dependency fingerprint is
    looked up — a hit seeds the recorded verdict (witnesses included)
    into the fail-fast logic and the obligation never executes (outcomes
    marked ``cached``). Every completed obligation is stored the moment
    the scheduler records it, so re-running a killed run with the same
    cache is the resume. The identity index is flushed once, after
    scheduling (an interrupted run included). ``memo`` (a dict owned by
    the caller for this ``(app, universe)`` pair, the warm record's in
    ``verify_protocol``) keeps each obligation's ``(fingerprint,
    identity, entry)`` across calls: a remembered entry counts as a hit
    and reads nothing from disk, and only a successful store remembers
    one. ``hasher`` (an ``rcache`` hashing session) lets the fingerprints
    reuse the action digests the run's input keys already took.
    """
    import os as _os
    import time as _time

    from .rcache import CacheEntry, DependencyFingerprinter, ObligationCache
    from .scheduler import ObligationOutcome, make_scheduler

    if scheduler is None:
        scheduler = make_scheduler(jobs, resilience=resilience)
    cfg = (
        resilience
        if resilience is not None
        else getattr(scheduler, "resilience", None)
    ) or ResilienceConfig()
    obligations = build_obligations(app, universe, lm_skip=lm_skip)
    cache = ObligationCache.ensure(cache)
    cache_hits: Dict[str, object] = {}
    #: Per obligation: hit, miss, invalidation or uncacheable.
    decisions: Dict[str, str] = {}
    on_complete = None
    if cache is not None:
        cache_stats_before = cache.stats.snapshot()
        memo = {} if memo is None else memo
        fingerprinter = None
        for ob in obligations:
            known = memo.get(ob.key)
            if known is None:
                if fingerprinter is None:
                    fingerprinter = DependencyFingerprinter(app, universe, hasher)
                known = memo[ob.key] = (
                    fingerprinter.fingerprint(ob),
                    fingerprinter.identity(ob),
                    None,
                )
            fingerprint, identity, entry = known
            if fingerprint is None:
                cache.stats.uncacheable += 1
                decisions[ob.key] = "uncacheable"
                continue
            if entry is not None:
                cache.stats.hits += 1
            else:
                entry = cache.lookup(fingerprint, identity, ob.key)
                memo[ob.key] = (fingerprint, identity, entry)
            if entry is not None:
                cache_hits[ob.key] = entry
                decisions[ob.key] = "hit"
            else:
                decisions[ob.key] = cache.miss_kind(fingerprint, identity)

        def on_complete(outcome) -> None:
            fingerprint, identity, _ = memo[outcome.key]
            if fingerprint is not None and cache.store(
                fingerprint, identity, outcome.key, outcome
            ):
                entry = CacheEntry.from_record(CacheEntry.record_of(outcome))
                memo[outcome.key] = (fingerprint, identity, entry)

    todo = [ob for ob in obligations if ob.key not in cache_hits]
    interrupted = False
    try:
        outcomes = scheduler.run(
            app,
            universe,
            todo,
            fail_fast=fail_fast,
            on_complete=on_complete,
            seed_verdicts={k: e.holds for k, e in cache_hits.items()},
        )
    except DischargeInterrupted as exc:
        outcomes = exc.outcomes
        interrupted = True
    finally:
        if cache is not None:
            cache.flush()
    for key, entry in cache_hits.items():
        outcomes[key] = ObligationOutcome(
            key,
            entry.to_result(),
            0.0,
            _os.getpid(),
            started=_time.perf_counter(),
            attempts=entry.attempts,
            cached=True,
        )
    results: Dict[str, CheckResult] = {}
    timings: Dict[str, float] = {}
    by_key = {ob.key: ob for ob in obligations}
    for key, outcome in outcomes.items():
        timings[key] = outcome.elapsed
        if outcome.result is not None:
            results[key] = outcome.result
        elif outcome.timed_out or outcome.error is not None:
            results[key] = _fault_result(
                by_key[key], outcome, cfg.timeout_per_obligation
            )
        else:
            ob = by_key[key]
            reasons = []
            for d in ob.deps:
                dep_outcome = outcomes.get(d)
                if dep_outcome is None:
                    continue
                if dep_outcome.timed_out:
                    reasons.append(f"dependency {d} timed out")
                elif dep_outcome.error is not None:
                    reasons.append(f"dependency {d} crashed")
                elif dep_outcome.result is None:
                    reasons.append(f"dependency {d} skipped")
                elif not dep_outcome.result.holds:
                    reasons.append(f"dependency {d} failed")
            results[key] = _skipped_result(
                _condition_display_name(ob),
                reasons or [f"dependency {d} failed" for d in ob.deps],
            )
    if interrupted:
        for ob in obligations:
            if ob.key not in outcomes:
                results[ob.key] = _fault_result(ob, None, None)
    merged = merge_outcomes(app, obligations, results, timings=timings)
    merged.interrupted = interrupted
    merged.cached_keys = sorted(cache_hits)
    merged.timeout_keys = sorted(
        k for k, o in outcomes.items() if o.timed_out
    )
    merged.crashed_keys = sorted(
        k for k, o in outcomes.items() if o.error is not None
    )
    merged.retries = sum(
        max(0, o.attempts - 1) for o in outcomes.values()
    )
    merged.resilience_events = list(getattr(scheduler, "last_events", ()) or ())
    if cache is not None:
        merged.rcache_stats = cache.stats.delta(cache_stats_before)
        write_errors = merged.rcache_stats["write_errors"]
        if write_errors:
            # The run completed, but a rerun re-executes what was not stored.
            merged.resilience_events.append(
                ResilienceEvent(
                    "rcache-write-error",
                    at=_time.perf_counter(),
                    detail=f"{write_errors} failed result-cache write(s); "
                    "storing degraded",
                )
            )
    if tracer is not None:
        _emit_spans(tracer, scheduler, obligations, outcomes, decisions)
    workers: Dict[int, dict] = {}
    for outcome in outcomes.values():
        if outcome.cache_delta is not None:  # executed by outcome.pid
            workers.setdefault(outcome.pid, {"obligations": 0})["obligations"] += 1
    merged.worker_cache_stats = workers
    return merged


def _emit_spans(tracer, scheduler, obligations, outcomes, decisions) -> None:
    """Turn scheduler outcomes into tracer spans (one per obligation, in
    build order, each with its result-cache decision). Purely
    derivational: reads outcome fields and decisions the engine records
    unconditionally."""
    import os

    from ..obs.tracer import Span

    backend = getattr(scheduler, "backend_name", type(scheduler).__name__)
    for ob in obligations:
        outcome = outcomes.get(ob.key)
        if outcome is None:
            continue
        unexecuted = outcome.result is None
        tracer.add(
            Span(
                name=ob.key,
                category="obligation",
                start=outcome.started,
                duration=outcome.elapsed,
                pid=outcome.pid,
                backend=backend,
                kind=ob.kind,
                condition=ob.condition,
                checked=0 if unexecuted else outcome.result.checked,
                holds=None if unexecuted else outcome.result.holds,
                skipped=outcome.skipped,
                cache_delta=outcome.cache_delta,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                cached=outcome.cached,
                rcache=decisions.get(ob.key, ""),
            )
        )
    for event in getattr(scheduler, "last_events", ()) or ():
        tracer.add(
            Span(
                name=f"resilience:{event.kind}",
                category="resilience",
                start=event.at,
                duration=0.0,
                pid=os.getpid(),
                backend=backend,
                kind=event.kind,
                condition=event.key,
                attempts=event.attempt,
            )
        )
