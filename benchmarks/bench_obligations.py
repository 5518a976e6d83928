"""Benchmark the obligation-discharge engine on Paxos and emit
``BENCH_obligations.json``.

Configurations of the same check (Paxos, R rounds x N nodes):

``serial_oracle``
    The reference oracle: the PA context wrapped in
    :class:`repro.core.context.UncachableContext`, so the dict-shaped
    loops run, asking the context per store, with the columnar tables
    and class masks stepping aside. The evaluation
    memos stay on; they have no off switch.
``serial``
    The engine's serial backend with all memoization layers on — the
    default ``check()`` path.
``parallel_cold``
    The process-pool backend: it forks cold, each worker builds its memos
    from scratch, and it runs the serial layout's obligations.
``serial_resilient``
    The serial backend with the full resilience layer armed on the happy
    path: a (generous) per-obligation deadline and an fsync'd checkpoint
    journal, with no fault ever firing. The JSON records the overhead
    against ``serial`` (``resilience_overhead``); the design target is
    under 3% — arming deadlines and journaling must be cheap enough to
    leave on for long runs.

A ``representation`` section compares the checker's two evaluators on
one serial check: ``serial_oracle`` (above) against ``serial_fast``, the
default columnar path. The top-level ``speedup_vs_oracle`` divides the
same oracle time by each backend's.

The JSON also carries an ``rcache`` section: a cold/warm/one-edit trio of
the Paxos check against a persistent obligation-result cache
(``repro.engine.rcache``) with hit-rate attribution, plus
incremental-vs-full wall time for every Table 1 protocol pipeline — a
warm re-verify must execute zero obligations, and a single no-op edit
must re-execute only its read-set.

Jobs accounting is honest: the JSON records both the *requested* job
count and the *effective* worker count after clamping to the host's CPUs
(requesting more CPU-bound workers than cores only adds fork overhead;
the scheduler warns and clamps, and the report says so instead of
pretending the extra workers existed). On a single-CPU host the pool is
clamped to one worker and is expected to trail the serial run slightly —
the parallel win needs cores.

``--trace FILE`` attaches a :class:`repro.obs.Tracer` to the serial and
pool runs (scoped ``serial`` / ``parallel_cold``) and writes one Chrome
``trace_event`` file covering both. ``--smoke`` runs
the smallest instance (R=1, N=1) on the serial backend only and emits a
reduced JSON — CI uses it to guard this script against rot.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_obligations.py [--rounds 2]
        [--nodes 2] [--jobs 4] [--output BENCH_obligations.json]
        [--trace FILE] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core import initial_config  # noqa: E402
from repro.core.cache import process_cache, reset_process_cache  # noqa: E402
from repro.core.columnar import columnar_store  # noqa: E402
from repro.core.context import GhostContext, UncachableContext  # noqa: E402
from repro.core.store import store_interner  # noqa: E402
from repro.core.universe import StoreUniverse  # noqa: E402
from repro.engine.resilience import ResilienceConfig  # noqa: E402
from repro.engine.scheduler import (  # noqa: E402
    ProcessPoolScheduler,
    SerialScheduler,
)
from repro.protocols import paxos  # noqa: E402
from repro.protocols.common import GHOST  # noqa: E402


def _build_universe(app, init_global, oracle: bool = False) -> StoreUniverse:
    """The reachable universe under the ghost context, or, for the
    reference oracle, under the same context declared uncachable."""
    context = GhostContext(GHOST)
    universe = StoreUniverse.from_reachable(
        app.program, [initial_config(init_global)]
    )
    return universe.with_context(
        UncachableContext(context) if oracle else context
    )


def _timed_check(app, universe, jobs=None, scheduler=None, tracer=None, scope=None):
    started = time.perf_counter()
    if tracer is not None and scope is not None:
        with tracer.scope(scope):
            result = app.check(
                universe, jobs=jobs, scheduler=scheduler, tracer=tracer
            )
    else:
        result = app.check(
            universe, jobs=jobs, scheduler=scheduler, tracer=tracer
        )
    return result, time.perf_counter() - started


def _condition_map(result):
    return {
        name: (r.holds, r.checked, tuple(r.counterexamples))
        for name, r in result.conditions.items()
    }


def _worker_summary(result) -> list:
    """Per-worker accounting from the pool run: obligations discharged and
    final cache hit rates, one entry per distinct worker PID."""
    workers = []
    for pid, info in sorted(result.worker_cache_stats.items()):
        stats = info.get("stats") or {}
        entry = {"pid": pid, "obligations": info.get("obligations", 0)}
        for kind in ("gate", "transitions"):
            if kind in stats:
                entry[f"{kind}_hit_rate"] = stats[kind].get("hit_rate")
        workers.append(entry)
    return workers


def _host_id() -> dict:
    """What names the measuring host: node name, CPU model, CPU count."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "node": platform.node(),
        "cpu_model": model,
        "cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
    }


def _pool_scheduler(jobs: int) -> tuple:
    """A pool scheduler plus the clamping it applied (if any)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scheduler = ProcessPoolScheduler(jobs)
    clamp_warning = next(
        (str(w.message) for w in caught if w.category is RuntimeWarning), None
    )
    return scheduler, clamp_warning


def _wrap_invariant(app):
    """A behaviorally identical application whose invariant is a fresh
    closure — the canonical "touched one artifact" edit. Rebuilt field by
    field (not ``dataclasses.replace``) so the derived ``M'`` stays
    canonical and only the invariant's fingerprint moves."""
    from repro.core.action import Action
    from repro.core.sequentialize import ISApplication

    gate = app.invariant.gate
    return ISApplication(
        program=app.program,
        m_name=app.m_name,
        eliminated=app.eliminated,
        invariant=Action(
            app.invariant.name,
            lambda state: gate(state),
            app.invariant.transitions,
            app.invariant.params,
        ),
        measure=app.measure,
        choice=app.choice,
        abstractions=dict(app.abstractions),
    )


def _cache_trio(app, universe, cache_dir) -> dict:
    """Cold / warm / one-edit wall times of one serial check against a
    persistent result cache, with hit-rate attribution."""

    def attribution(result):
        stats = result.rcache_stats or {}
        consulted = sum(
            stats.get(k, 0)
            for k in ("hits", "misses", "invalidations", "uncacheable")
        )
        return {
            **stats,
            "executed": result.num_obligations - len(result.cached_keys),
            "hit_rate": (
                round(stats.get("hits", 0) / consulted, 4) if consulted else None
            ),
        }

    cold_result, cold_time = _timed_check_cached(app, universe, cache_dir)
    warm_result, warm_time = _timed_check_cached(app, universe, cache_dir)
    assert not (
        set(warm_result.cached_keys)
        ^ {ob_key for ob_key in cold_result.timings}
    ), "warm run failed to hit every obligation"
    assert _condition_map(cold_result) == _condition_map(warm_result), (
        "warm cache changed verdicts"
    )
    edited_result, edited_time = _timed_check_cached(
        _wrap_invariant(app), universe, cache_dir
    )
    assert _condition_map(edited_result) == _condition_map(warm_result), (
        "no-op invariant edit changed verdicts"
    )
    return {
        "wall_time_seconds": {
            "cold_cache": round(cold_time, 3),
            "warm_cache": round(warm_time, 3),
            "one_edit": round(edited_time, 3),
        },
        "speedup_warm_vs_cold": round(cold_time / warm_time, 2),
        "cold": attribution(cold_result),
        "warm": attribution(warm_result),
        "one_edit": attribution(edited_result),
    }


def _timed_check_cached(app, universe, cache_dir):
    started = time.perf_counter()
    result = app.check(universe, jobs=1, cache=cache_dir)
    return result, time.perf_counter() - started


def _protocol_verifiers() -> dict:
    from repro.protocols import (
        broadcast,
        changroberts,
        nbuyer,
        pingpong,
        prodcons,
        twophase,
    )

    return {
        "broadcast": lambda **kw: broadcast.verify(n=3, iterated=True, **kw),
        "pingpong": lambda **kw: pingpong.verify(rounds=3, **kw),
        "prodcons": lambda **kw: prodcons.verify(bound=4, **kw),
        "nbuyer": lambda **kw: nbuyer.verify(n=3, **kw),
        "changroberts": lambda **kw: changroberts.verify(n=4, **kw),
        "twophase": lambda **kw: twophase.verify(n=3, **kw),
        "paxos": lambda **kw: paxos.verify(rounds=2, num_nodes=2, **kw),
    }


def _report_cache_stats(report) -> dict:
    obligations = cached = resumed = 0
    stats = {"hits": 0, "misses": 0, "invalidations": 0, "uncacheable": 0}
    for _, result in report.is_results:
        obligations += result.num_obligations
        cached += len(result.cached_keys)
        resumed += len(result.resumed_keys)
        for key in stats:
            stats[key] += (result.rcache_stats or {}).get(key, 0)
    return {
        "obligations": obligations,
        "executed": obligations - cached - resumed,
        "cached": cached,
        **stats,
    }


def run_incremental_per_protocol() -> dict:
    """Incremental (warm result cache) vs full re-verification, per
    protocol, on the Table 1 pipelines: ``full`` is a plain ``verify()``,
    ``cold_cache`` the same run populating a fresh cache, ``incremental``
    the re-run against it — the edit-nothing-and-re-verify cost."""
    rows = {}
    for name, verify in sorted(_protocol_verifiers().items()):
        reset_process_cache()
        started = time.perf_counter()
        full = verify()
        full_time = time.perf_counter() - started
        with tempfile.TemporaryDirectory(prefix=f"bench-rcache-{name}-") as d:
            started = time.perf_counter()
            verify(cache=d)
            cold_time = time.perf_counter() - started
            started = time.perf_counter()
            warm = verify(cache=d)
            warm_time = time.perf_counter() - started
        warm_stats = _report_cache_stats(warm)
        assert warm.ok == full.ok, f"{name}: warm cache changed the verdict"
        assert warm_stats["executed"] == 0, (
            f"{name}: warm re-verify executed {warm_stats['executed']}"
        )
        rows[name] = {
            "wall_time_seconds": {
                "full": round(full_time, 3),
                "cold_cache": round(cold_time, 3),
                "incremental": round(warm_time, 3),
            },
            "speedup_incremental_vs_full": round(full_time / warm_time, 2),
            "warm": warm_stats,
        }
    return rows


def run_representation_attribution(app, init_global, reps: int = 2) -> dict:
    """The checker's two evaluators on one serial check: ``serial_oracle``
    (the dict-shaped loops, selected by an uncachable PA context) and
    ``serial_fast`` (the default columnar path). Their condition maps
    must be identical, ``checked`` included.

    The two modes interleave round-robin and each reports its best rep
    — successive checks in one process drift slower (allocator/GC), and
    measuring the modes in blocks would bill that drift to whichever mode
    ran last."""

    def _run(oracle: bool):
        reset_process_cache()
        universe = _build_universe(app, init_global, oracle=oracle)
        return _timed_check(app, universe, jobs=1)

    times = {"oracle": None, "fast": None}
    maps = {}
    fast_stats = None
    for _ in range(max(1, reps)):
        for mode in ("oracle", "fast"):
            result, elapsed = _run(oracle=mode == "oracle")
            if mode == "fast":
                fast_stats = {
                    "interner": store_interner().stats(),
                    "columns": columnar_store().stats(),
                }
            maps[mode] = _condition_map(result)
            if times[mode] is None or elapsed < times[mode]:
                times[mode] = elapsed
    assert maps["oracle"] == maps["fast"], (
        "the fast path and the oracle disagree on the condition map"
    )

    return {
        "wall_time_seconds": {
            "serial_oracle": round(times["oracle"], 3),
            "serial_fast": round(times["fast"], 3),
        },
        "speedup": {
            "fast_vs_oracle": round(times["oracle"] / times["fast"], 2),
        },
        "columnar_run_stats": fast_stats,
        "reps_per_mode": max(1, reps),
    }


def _symmetry_verify_pair(module, verify_kwargs, reps: int = 3) -> dict:
    """One protocol verified with full universes and with the orbit
    quotient, ``reps`` times each in alternation, with verdict maps
    asserted identical and the shrinkage recorded. Wall times are the
    median over the reps."""

    def _run(symmetry: bool):
        reset_process_cache()
        start = time.perf_counter()
        report = module.verify(
            ground_truth=False, symmetry=symmetry, **verify_kwargs
        )
        elapsed = time.perf_counter() - start
        return report, elapsed

    plain_times, quotient_times = [], []
    for _ in range(reps):
        plain, elapsed = _run(False)
        plain_times.append(elapsed)
        quotient, elapsed = _run(True)
        quotient_times.append(elapsed)
    plain_time = statistics.median(plain_times)
    quotient_time = statistics.median(quotient_times)
    for (_, a), (_, b) in zip(plain.is_results, quotient.is_results):
        verdicts = lambda r: {
            k: (c.name, c.holds, tuple(c.counterexamples))
            for k, c in r.conditions.items()
        }
        assert verdicts(a) == verdicts(b), "quotient changed a verdict"
    checked = lambda r: sum(res.total_checked for _, res in r.is_results)
    globals_ = lambda r: max(
        len(u.globals_) for _, _, u in r.explain_targets
    )
    return {
        "verdict": plain.ok and quotient.ok,
        "symmetry_group": quotient.parameters.get("symmetry"),
        "universe_globals": {
            "full": globals_(plain),
            "quotient": globals_(quotient),
        },
        "total_checked": {
            "full": checked(plain),
            "quotient": checked(quotient),
        },
        "universe_reduction": round(globals_(plain) / globals_(quotient), 2),
        "checked_reduction": round(checked(plain) / checked(quotient), 2),
        "wall_time_seconds": {
            "full": round(plain_time, 3),
            "quotient": round(quotient_time, 3),
        },
        "quotient_vs_full": round(quotient_time / plain_time, 2),
        "reps": reps,
    }


def run_symmetry_quotient(include_r2n3: bool = True) -> dict:
    """The symmetry-quotient section: per-protocol shrinkage at the
    bench instances, plus the headline — exhaustive Paxos R=2, N=3.

    Broadcast is included honestly: its per-node inputs are distinct, so
    node orbits barely collapse (~1x) — the section shows where the
    quotient pays and where it cannot, not just the flattering rows.
    For R2N3 the unquotiented side reports the universe size only; an
    unquotiented discharge over 600k+ globals (obligations quadratic in
    the universe) is recorded as infeasible rather than fabricated.
    """
    from repro.protocols import broadcast, nbuyer, twophase

    protocols = {
        "twophase-n3": _symmetry_verify_pair(twophase, {"n": 3}),
        "nbuyer-n3": _symmetry_verify_pair(nbuyer, {"n": 3}),
        "paxos-r2n2": _symmetry_verify_pair(
            paxos, {"rounds": 2, "num_nodes": 2}
        ),
        "broadcast-n3": _symmetry_verify_pair(broadcast, {"n": 3}),
    }
    section: dict = {"protocols": protocols}
    if include_r2n3:
        spec = paxos.make_symmetry(2, 3)
        app = paxos.make_sequentialization(2, 3)
        init = [initial_config(paxos.initial_global(2, 3))]

        reset_process_cache()
        start = time.perf_counter()
        full_universe = StoreUniverse.from_reachable(app.program, init)
        full_explore_time = time.perf_counter() - start
        full_globals = len(full_universe.globals_)
        del full_universe

        reset_process_cache()
        start = time.perf_counter()
        report = paxos.verify(
            rounds=2, num_nodes=3, ground_truth=False, symmetry=True
        )
        quotient_time = time.perf_counter() - start
        quotient_globals = max(
            len(u.globals_) for _, _, u in report.explain_targets
        )
        section["paxos-r2n3-exhaustive"] = {
            "verdict": report.ok,
            "status": report.status,
            "bounded": report.bounded,
            "symmetry_group": report.parameters.get("symmetry"),
            "group_order": spec.order(),
            "universe_globals": {
                "full": full_globals,
                "quotient": quotient_globals,
            },
            "universe_reduction": round(full_globals / quotient_globals, 2),
            "total_checked_quotient": sum(
                res.total_checked for _, res in report.is_results
            ),
            "wall_time_seconds": {
                "full_exploration_only": round(full_explore_time, 3),
                "quotient_pipeline": round(quotient_time, 3),
            },
            "full_discharge": (
                "not attempted: obligations are quadratic in the universe; "
                "previously only checkable as a random-walk bounded "
                "instance (verify_sampled, bounded=True)"
            ),
        }
    return section


def run_smoke(rounds: int = 1, nodes: int = 1) -> dict:
    """The CI guard: smallest Paxos instance, serial backend only.

    Exists so a scheduled pipeline can prove this script still runs end to
    end (imports, universe construction, engine API, JSON layout) in a few
    seconds, without the multi-minute full benchmark."""
    app = paxos.make_sequentialization(rounds, nodes)
    init_global = paxos.initial_global(rounds, nodes)
    reset_process_cache()
    universe = _build_universe(app, init_global)
    result, seconds = _timed_check(app, universe, jobs=1)
    with tempfile.TemporaryDirectory(prefix="bench-rcache-smoke-") as d:
        rcache = _cache_trio(app, universe, d)
    representation = run_representation_attribution(app, init_global, reps=1)
    # Smoke Paxos runs at R=1, N=1 where the symmetry group is trivial,
    # so the quotient gate uses two-phase commit at n=3 — universes only,
    # which keeps the smoke lane fast while still proving the orbit fold
    # end to end (spec -> canonical BFS -> reduction factor).
    from repro.protocols import twophase

    spec = twophase.make_symmetry(3)
    tp_program = twophase.make_sequentializations(3)[0][1].program
    tp_init = [initial_config(twophase.initial_global(3))]
    reset_process_cache()
    full_universe = StoreUniverse.from_reachable(tp_program, tp_init)
    reset_process_cache()
    quotient_universe = StoreUniverse.from_reachable(
        tp_program, tp_init, symmetry=spec
    )
    symmetry_section = {
        "protocol": "twophase-n3",
        "symmetry_group": spec.name,
        "group_order": spec.order(),
        "universe_globals": {
            "full": len(full_universe.globals_),
            "quotient": len(quotient_universe.globals_),
        },
        "universe_reduction": round(
            len(full_universe.globals_) / len(quotient_universe.globals_), 2
        ),
    }
    return {
        "benchmark": "obligation discharge (Paxos) — smoke",
        "mode": "smoke",
        "instance": {"rounds": rounds, "num_nodes": nodes},
        "universe": {
            "globals": len(universe.globals_),
            "num_obligations_serial": result.num_obligations,
            "total_checked": result.total_checked,
        },
        "wall_time_seconds": {"serial_memoized": round(seconds, 3)},
        "verdict": result.holds,
        "cache_hit_rates_serial": {"evaluation": process_cache().as_dict()},
        "rcache": rcache,
        "representation": representation,
        "symmetry": symmetry_section,
    }


def run_benchmark(rounds: int, nodes: int, jobs: int, tracer=None) -> dict:
    app = paxos.make_sequentialization(rounds, nodes)
    init_global = paxos.initial_global(rounds, nodes)

    # --- the two evaluators: reference oracle vs fast path -----------------
    representation = run_representation_attribution(app, init_global)
    oracle_time = representation["wall_time_seconds"]["serial_oracle"]

    # The serial vs serial_resilient comparison is a small-percentage
    # question asked of noisy single measurements, and successive checks
    # within one process slow down by up to ~10% (allocator/GC drift) —
    # measuring all serial reps before all resilient ones would bill that
    # drift to resilience. Interleave three reps of each in ABBAAB order
    # and report the best and the median of each side (single pair under
    # --trace, where repeated spans would pollute the trace file).
    plan = ["serial", "resilient"]
    if tracer is None:
        plan += ["resilient", "serial", "serial", "resilient"]

    def _run_serial():
        reset_process_cache()
        universe = _build_universe(app, init_global)
        result, elapsed = _timed_check(
            app, universe, jobs=1, tracer=tracer, scope="serial"
        )
        return result, elapsed, universe

    def _run_resilient():
        reset_process_cache()
        universe = _build_universe(app, init_global)
        with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as ckpt_dir:
            scheduler = SerialScheduler(
                resilience=ResilienceConfig(
                    timeout_per_obligation=300.0, checkpoint_dir=ckpt_dir
                )
            )
            result, elapsed = _timed_check(
                app, universe, scheduler=scheduler,
                tracer=tracer, scope="serial_resilient",
            )
        return result, elapsed

    serial_times, resilient_times = [], []
    serial_result = resilient_result = None
    serial_cache = context_cache = None
    for kind in plan:
        if kind == "serial":
            serial_result, elapsed, universe = _run_serial()
            if not serial_times or elapsed < min(serial_times):
                serial_cache = process_cache().as_dict()
                context_cache = universe.context_cache_stats.as_dict()
            serial_times.append(elapsed)
        else:
            resilient_result, elapsed = _run_resilient()
            resilient_times.append(elapsed)
    serial_time, resilient_time = min(serial_times), min(resilient_times)
    serial_median = statistics.median(serial_times)
    resilient_median = statistics.median(resilient_times)

    # --- process pool: cold workers, the serial layout ---------------------
    reset_process_cache()
    cold_universe = _build_universe(app, init_global)
    cold_scheduler, clamp_warning = _pool_scheduler(jobs)
    cold_result, cold_time = _timed_check(
        app, cold_universe, scheduler=cold_scheduler,
        tracer=tracer, scope="parallel_cold",
    )

    verdicts = {
        "serial": serial_result.holds,
        "serial_resilient": resilient_result.holds,
        "parallel_cold": cold_result.holds,
    }
    assert len(set(verdicts.values())) == 1, f"backends disagree: {verdicts}"
    assert _condition_map(serial_result) == _condition_map(cold_result), (
        "pool condition map diverges from serial"
    )
    assert _condition_map(serial_result) == _condition_map(resilient_result), (
        "resilience-armed condition map diverges from serial"
    )

    # --- persistent result cache: cold / warm / one-edit -------------------
    reset_process_cache()
    rcache_universe = _build_universe(app, init_global)
    with tempfile.TemporaryDirectory(prefix="bench-rcache-") as d:
        rcache_trio = _cache_trio(app, rcache_universe, d)
    incremental = run_incremental_per_protocol()

    # --- symmetry quotient: per-protocol shrinkage + exhaustive R2N3 -------
    # Only for the default full benchmark: the R2N3 exploration alone runs
    # for minutes, and the small-instance invocations (--rounds 1) are
    # documented as second-scale smoke runs.
    symmetry_section = (
        run_symmetry_quotient() if (rounds, nodes) == (2, 2) else None
    )

    effective_jobs = cold_scheduler.jobs
    slowest = sorted(
        serial_result.timings.items(), key=lambda kv: kv[1], reverse=True
    )[:8]
    cpus = os.cpu_count() or 1
    return {
        "benchmark": "obligation discharge (Paxos)",
        "instance": {"rounds": rounds, "num_nodes": nodes},
        "universe": {
            "globals": len(universe.globals_),
            "num_obligations_serial": serial_result.num_obligations,
            "num_obligations_pool": cold_result.num_obligations,
            "total_checked": serial_result.total_checked,
        },
        "environment": {
            "cpus": cpus,
            "python": sys.version.split()[0],
            "fork_available": "fork"
            in multiprocessing.get_all_start_methods(),
            "host": _host_id(),
        },
        "jobs": {
            "requested": jobs,
            "effective": effective_jobs,
            "clamped": effective_jobs != jobs,
            "clamp_warning": clamp_warning,
        },
        "wall_time_seconds": {
            "serial_oracle": oracle_time,
            "serial_memoized": round(serial_time, 3),
            "serial_resilient": round(resilient_time, 3),
            "parallel_cold": round(cold_time, 3),
        },
        "resilience_overhead": {
            # serial_resilient vs serial_memoized: the cost of arming the
            # per-obligation SIGALRM deadline plus the fsync'd checkpoint
            # journal with no fault firing. Design target: < 3%.
            # Best-of-reps and median-of-reps on each side.
            "seconds": round(resilient_time - serial_time, 3),
            "pct_vs_serial": round((resilient_time / serial_time - 1) * 100, 2),
            "pct_vs_serial_median": round(
                (resilient_median / serial_median - 1) * 100, 2
            ),
            "reps": len(serial_times),
            "target_pct": 3.0,
            "deadline_seconds": 300.0,
            "journaled_outcomes": resilient_result.num_obligations,
        },
        "speedup_vs_oracle": {
            "serial_memoized": round(oracle_time / serial_time, 2),
            "parallel_cold": round(oracle_time / cold_time, 2),
        },
        "parallel_vs_serial": {
            "cold": round(serial_time / cold_time, 2),
        },
        "verdict": verdicts["serial"],
        "cache_hit_rates_serial": {
            "evaluation": serial_cache,
            "context_pair_single": context_cache,
        },
        "rcache": {
            # The persistent obligation-result cache (repro.engine.rcache):
            # cold populates, warm re-verifies with zero executions, and
            # one_edit (a no-op invariant rewrap) re-executes exactly the
            # invariant readers — see 'invalidations' in its attribution.
            "trio": rcache_trio,
            "incremental_vs_full_by_protocol": incremental,
        },
        # The two evaluators (reference oracle vs columnar fast path) on
        # one serial check.
        "representation": representation,
        # Orbit quotient: universes folded to lexicographic-least
        # representatives under each protocol's declared permutation
        # group; verdicts are asserted identical to the full runs. The
        # headline entry is Paxos R=2, N=3 discharged exhaustively —
        # previously only reachable as a random-walk bounded check.
        # Default-instance runs only (minutes of exploration).
        **({"symmetry": symmetry_section} if symmetry_section else {}),
        "workers_cold": _worker_summary(cold_result),
        "slowest_obligations_serial": [
            {
                "key": key,
                "seconds": round(elapsed, 3),
                "checked": serial_result.obligation_checked.get(key, 0),
            }
            for key, elapsed in slowest
        ],
        "notes": (
            "Jobs are clamped to the host CPU count (extra CPU-bound "
            "workers only add fork overhead); 'effective' is the worker "
            "count actually used. On a single-CPU host the pool cannot "
            "beat the serial run. serial_oracle is the reference oracle "
            "(uncachable "
            "PA context: dict-shaped loops, no columns, no admissibility "
            "memos); speedup_vs_oracle divides it by each backend's time. "
            "Multi-core speedups require cpus > 1."
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_obligations.json",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest instance (R=1, N=1), serial backend only — the CI "
        "guard against this script rotting",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="also write a Chrome trace_event JSON spanning the serial "
        "and pool runs",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        payload = run_smoke()
        if args.output == ROOT / "BENCH_obligations.json":
            # Never clobber the recorded full benchmark with smoke data.
            args.output = ROOT / "BENCH_obligations_smoke.json"
    else:
        tracer = None
        if args.trace is not None:
            from repro.obs import Tracer

            tracer = Tracer()
        payload = run_benchmark(args.rounds, args.nodes, args.jobs, tracer=tracer)
        if tracer is not None:
            from repro.obs import write_chrome_trace

            write_chrome_trace(tracer, args.trace)
            payload["trace_file"] = str(args.trace)
            print(
                f"wrote {args.trace} ({len(tracer.spans)} spans)",
                file=sys.stderr,
            )
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
