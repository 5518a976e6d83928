"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``table1 [--jobs N] [--stats] [--fail-fast] [--max-configs N] [--explain]
[--symmetry] [--trace FILE] [--metrics FILE] [resilience flags]``
    Regenerate the Table 1 analogue (runs all seven verifications).
    ``--jobs`` discharges the IS obligations over N worker processes;
    ``--stats`` adds per-obligation wall-time / enumeration statistics;
    ``--fail-fast`` skips obligations downstream of a failure;
    ``--max-configs`` bounds every exploration (blown budgets render as a
    BUDGET row instead of a traceback); ``--explain`` shrinks and
    replay-confirms the counterexamples of every failed row;
    ``--trace`` writes a Chrome ``trace_event`` JSON (open in
    ``chrome://tracing`` or Perfetto) and ``--metrics`` a flat metrics
    JSON, both covering every discharged obligation;
    ``--symmetry``/``--no-symmetry`` toggles the orbit quotient: every
    exploration and IS universe is folded to lexicographic-least
    representatives under the protocol's declared permutation group
    (``make_symmetry``), shrinking the enumeration without changing any
    verdict.
``verify <protocol> [--jobs N] [--fail-fast] [--max-configs N] [--explain]
[--symmetry] [--trace FILE] [--metrics FILE] [resilience flags]``
    Run one protocol's pipeline at its default instance parameters and
    print the report. Protocols: broadcast, pingpong, prodcons, nbuyer,
    changroberts, twophase, paxos.

Cache flags (``verify`` and ``table1``)
    ``--cache DIR`` arms the persistent content-addressed obligation
    result cache (``repro.engine.rcache``): a re-verify of an unchanged
    protocol loads its store universes and spec/ground-truth results
    from DIR, seeds every obligation from it and so explores and executes
    nothing, and an edit re-executes exactly the obligations whose
    dependency fingerprints changed. ``$REPRO_CACHE`` supplies a default
    directory; ``--no-cache`` disables both; ``--cache-stats`` prints
    greppable ``rcache:`` counter lines (hits/misses/invalidations,
    universe and stage hits/misses, and the executed-vs-cached split)
    after the report. Every obligation is
    stored as it completes, so re-running an interrupted command with the
    same ``--cache`` is the resume: it executes only what never finished.

Resilience flags (``verify`` and ``table1``)
    ``--timeout-per-obligation S`` arms a wall-clock deadline per
    obligation attempt (expired obligations report TIMEOUT instead of
    hanging the run); ``--max-retries K`` bounds crash retries. Ctrl-C
    prints the salvaged partial report and exits 130, as does a run whose
    discharge was interrupted.
``explain <fixture> [--jobs N] [--json FILE]``
    Run a seeded failing fixture (``repro.diagnose.fixtures``) end to end
    and print the diagnosis: every counterexample minimized by
    delta-debugging, each shrink step replay-confirmed against the
    violated obligation predicate. ``--json`` also writes the
    machine-readable failure report (schema ``repro.obs/failure/v1``);
    ``--list`` enumerates the fixtures. Exit code 0 iff every witness was
    replay-confirmed.
``serve [--host H] [--port P] [--queue-depth N] [--state DIR]
[--max-configs N] [--timeout-per-obligation S] [--drain-grace S]``
    Run the warm verification daemon (``repro.serve``): accepts
    verify/table1/explain jobs over HTTP/JSON on a bounded queue,
    keeps universes, caches, and the result store resident across
    requests, streams per-obligation progress as SSE from
    ``/jobs/<id>/events``, and journals job state under ``--state DIR``
    so a restart resumes in-flight runs. Host, port, and queue depth
    default from ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT`` /
    ``REPRO_SERVE_QUEUE_DEPTH``. SIGTERM drains: the in-flight job is
    interrupted, its completed obligations already stored, before exit.
    Jobs discharge serially: the
    daemon runs them beside other threads, and forking a process pool
    from a multi-threaded process can deadlock the child.
``list``
    List the available protocols with their Table 1 #IS counts.
"""

from __future__ import annotations

import argparse
import os
import sys


def _make_resilience(args):
    """A ``ResilienceConfig`` when any resilience flag was used, else
    ``None`` — the default path stays the pre-resilience one."""
    kwargs = {
        name: getattr(args, name)
        for name in ("timeout_per_obligation", "max_retries")
        if getattr(args, name, None) is not None
    }
    if not kwargs:
        return None
    from .engine.resilience import ResilienceConfig

    return ResilienceConfig(**kwargs)


def _add_resilience_flags(subparser) -> None:
    subparser.add_argument(
        "--timeout-per-obligation",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock deadline (seconds) per obligation attempt; "
        "expired obligations report TIMEOUT",
    )
    subparser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help="crash retries per obligation before it degrades to "
        "in-parent execution and reports CRASH (default: 2)",
    )


def _add_cache_flags(subparser) -> None:
    subparser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent obligation result cache: obligations whose "
        "dependency fingerprints are unchanged are seeded from DIR "
        "instead of re-executed, and each is stored as it completes, so "
        "rerunning an interrupted command with the same DIR resumes it "
        "(default: $REPRO_CACHE if set)",
    )
    subparser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (overrides --cache and $REPRO_CACHE)",
    )
    subparser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print cache hit/miss/invalidation counters and the "
        "executed-vs-cached obligation split after the report",
    )


def _make_cache(parser, args):
    """An ``ObligationCache`` when caching is armed, else ``None``.

    ``--cache DIR`` wins, then ``$REPRO_CACHE``; ``--no-cache`` disables
    both. ``--cache-stats`` without a cache directory is an error."""
    directory = getattr(args, "cache", None) or os.environ.get("REPRO_CACHE")
    if getattr(args, "no_cache", False):
        directory = None
    if getattr(args, "cache_stats", False) and not directory:
        parser.error("--cache-stats requires --cache DIR (or $REPRO_CACHE)")
    if not directory:
        return None
    from .engine.rcache import ObligationCache

    return ObligationCache(directory)


def _print_cache_stats(cache, reports) -> None:
    """The greppable cache summary behind ``--cache-stats``: the cache's
    counter totals for this invocation, the universe and stage entries
    read, then the obligation split — ``executed=0`` and
    ``universe_misses=0`` are the incremental-verification CI gates."""
    stats = cache.stats
    print(
        f"rcache: hits={stats.hits} misses={stats.misses} "
        f"invalidations={stats.invalidations} stores={stats.stores} "
        f"uncacheable={stats.uncacheable} write_errors={stats.write_errors}"
    )
    print(
        f"rcache: universes={stats.universe_hits + stats.universe_misses} "
        f"universe_hits={stats.universe_hits} "
        f"universe_misses={stats.universe_misses} "
        f"stages={stats.stage_hits + stats.stage_misses} "
        f"stage_hits={stats.stage_hits} stage_misses={stats.stage_misses}"
    )
    total = cached = 0
    for report in reports:
        for _label, result in report.is_results:
            total += result.num_obligations
            cached += len(result.cached_keys)
    print(
        f"rcache: obligations={total} executed={total - cached} "
        f"cached={cached}"
    )


def _make_tracer(args):
    """A tracer when ``--trace``/``--metrics`` was requested, else None —
    the engine's untraced path stays byte-identical."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return None
    from .obs import Tracer

    tracer = Tracer()
    tracer.meta["argv"] = " ".join(sys.argv[1:])
    return tracer


def _run_options(args):
    """The engine knobs shared by ``verify`` and ``table1``."""
    from .protocols.common import RunOptions

    return RunOptions(
        max_configs=args.max_configs,
        jobs=args.jobs,
        fail_fast=args.fail_fast,
        tracer=_make_tracer(args),
        resilience=args.resilience_config,
        cache=args.cache_config,
        symmetry=args.symmetry,
    )


def _export_trace(tracer, args) -> None:
    from .obs import render_summary, write_chrome_trace, write_metrics

    print()
    print(render_summary(tracer))
    if args.trace:
        path = write_chrome_trace(tracer, args.trace)
        print(
            f"trace: wrote {path} ({len(tracer.spans)} spans; open in "
            f"chrome://tracing or https://ui.perfetto.dev)"
        )
    if args.metrics:
        path = write_metrics(tracer, args.metrics)
        print(f"metrics: wrote {path}")


def _explain_report(report) -> None:
    """Shrink, replay-confirm, and print every failed IS check's
    counterexamples (the ``--explain`` flag of verify/table1)."""
    from .diagnose import explain_result
    from .diagnose.render import render_explanation

    results = dict(report.is_results)
    for label, application, _universe in report.explain_targets:
        result = results.get(label)
        if result is None or result.holds:
            continue
        explanation = explain_result(
            application, result, target=f"{report.name} IS[{label}]"
        )
        print()
        print(render_explanation(explanation))


def _cmd_table1(args) -> int:
    from .analysis import (
        build_table1,
        render_obligation_stats,
        render_table1,
        verify_trace_consistency,
    )

    options = _run_options(args)
    tracer, cache = options.tracer, options.cache
    rows = build_table1(**vars(options))
    print(render_table1(rows))
    if cache is not None and args.cache_stats:
        _print_cache_stats(
            cache, [row.report for row in rows if row.report is not None]
        )
    if args.stats:
        print()
        print(render_obligation_stats(rows))
    if args.explain:
        for row in rows:
            if row.report is not None and not row.ok:
                _explain_report(row.report)
    if tracer is not None:
        verify_trace_consistency(rows, tracer)
        _export_trace(tracer, args)
    if any(row.report is not None and row.report.interrupted for row in rows):
        print("interrupted: partial table (completed rows shown)",
              file=sys.stderr)
        return 130
    return 0 if all(row.ok for row in rows) else 1


def _cmd_verify(args) -> int:
    from .protocols import ALL_PROTOCOLS

    module = ALL_PROTOCOLS.get(args.protocol)
    if module is None:
        print(f"unknown protocol {args.protocol!r}; try: "
              f"{', '.join(sorted(ALL_PROTOCOLS))}", file=sys.stderr)
        return 2
    options = _run_options(args)
    tracer, cache = options.tracer, options.cache
    report = module.verify(**vars(options))
    print(report.summary())
    if cache is not None and args.cache_stats:
        _print_cache_stats(cache, [report])
    if args.explain:
        _explain_report(report)
    if tracer is not None:
        _export_trace(tracer, args)
    if report.interrupted:
        return 130
    return 0 if report.ok else 1


def _cmd_explain(args) -> int:
    from .diagnose import FIXTURES, explain_fixture
    from .diagnose.render import render_explanation

    if args.list or args.fixture is None:
        for name, fixture in sorted(FIXTURES.items()):
            print(f"  {name:<22} {fixture.title}")
        return 0
    if args.fixture not in FIXTURES:
        print(f"unknown fixture {args.fixture!r}; try: "
              f"{', '.join(sorted(FIXTURES))}", file=sys.stderr)
        return 2
    fixture = FIXTURES[args.fixture]
    print(f"fixture: {fixture.name} — {fixture.title}")
    print(fixture.description)
    print()
    explanation = explain_fixture(args.fixture, jobs=args.jobs)
    print(render_explanation(explanation))
    if args.json:
        from .obs import write_failure_report

        path = write_failure_report(explanation, args.json)
        print(f"failure report: wrote {path}")
    return 0 if explanation.all_confirmed else 1


def _cmd_serve(args) -> int:
    from .serve import ServeConfig
    from .serve.daemon import run_daemon

    try:
        config = ServeConfig.from_env(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            state_dir=args.state,
            max_configs=args.max_configs,
            timeout_per_obligation=args.timeout_per_obligation,
            drain_grace=args.drain_grace,
            sandbox=True if args.sandbox else None,
            sandbox_max_rss_mb=args.sandbox_max_rss_mb,
            sandbox_cpu_seconds=args.sandbox_cpu_seconds,
            sandbox_recycle_after=args.sandbox_recycle_after,
            sandbox_heartbeat_grace=args.sandbox_heartbeat_grace,
            sandbox_max_respawns=args.sandbox_max_respawns,
            sandbox_breaker_threshold=args.sandbox_breaker_threshold,
            sandbox_fallback=True if args.sandbox_fallback else None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_daemon(config)


def _cmd_cache(parser, args) -> int:
    """``repro cache stats|gc`` — inspect or trim the result cache."""
    from .engine.rcache import CACHE_MAX_MB_ENV, ObligationCache

    directory = args.dir or os.environ.get("REPRO_CACHE")
    if not directory:
        parser.error("cache commands need --dir DIR (or $REPRO_CACHE)")
    cache = ObligationCache(directory, max_mb=args.max_mb)
    info = cache.size_info()
    mb = info["bytes"] / (1024 * 1024)
    quota = info["max_mb"]
    if args.action == "stats":
        print(
            f"rcache: dir={cache.directory} entries={info['entries']} "
            f"inputs={info['inputs']} "
            f"bytes={info['bytes']} mb={mb:.2f} temps={info['temps']} "
            f"quota_mb={quota if quota is not None else 'none'}"
        )
        if quota is None:
            print(
                f"rcache: no quota configured (set {CACHE_MAX_MB_ENV} "
                f"or pass --max-mb)"
            )
        return 0
    # gc
    if quota is None:
        parser.error(
            f"gc needs a quota: pass --max-mb or set {CACHE_MAX_MB_ENV}"
        )
    outcome = cache.gc(max_mb=quota)
    after = cache.size_info()
    print(
        f"rcache: gc removed={outcome['removed']} "
        f"freed_bytes={outcome['freed_bytes']} temps={outcome['temps']} "
        f"entries={after['entries']} inputs={after['inputs']} "
        f"bytes={after['bytes']} quota_mb={quota}"
    )
    return 0


def _cmd_list(_args) -> int:
    from .protocols import ALL_PROTOCOLS

    counts = {
        "broadcast": 2, "pingpong": 1, "prodcons": 1, "nbuyer": 4,
        "changroberts": 2, "twophase": 4, "paxos": 1,
    }
    for name in sorted(ALL_PROTOCOLS):
        print(f"  {name:<14} (#IS = {counts[name]})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inductive Sequentialization of Asynchronous Programs "
        "(PLDI 2020) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    table1 = sub.add_parser("table1", help="regenerate the Table 1 analogue")
    table1.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for obligation discharge (default: serial)",
    )
    table1.add_argument(
        "--stats",
        action="store_true",
        help="also print per-obligation wall-time / enumeration statistics",
    )
    table1.add_argument(
        "--fail-fast",
        action="store_true",
        help="skip obligations (transitively) downstream of a failed one",
    )
    table1.add_argument(
        "--max-configs",
        type=int,
        default=None,
        metavar="N",
        help="exploration budget per instance; blown budgets render as "
        "BUDGET rows instead of tracebacks",
    )
    table1.add_argument(
        "--explain",
        action="store_true",
        help="shrink and replay-confirm the counterexamples of failed rows",
    )
    table1.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace_event JSON of every discharged obligation",
    )
    table1.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a flat metrics JSON (per-obligation and aggregates)",
    )
    table1.add_argument(
        "--symmetry",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="quotient every exploration and IS universe by the "
        "protocol's declared permutation group (where one exists); "
        "verdicts are unchanged, the enumeration shrinks",
    )
    _add_resilience_flags(table1)
    _add_cache_flags(table1)
    verify = sub.add_parser("verify", help="verify one protocol")
    verify.add_argument("protocol")
    verify.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for obligation discharge (default: serial)",
    )
    verify.add_argument(
        "--fail-fast",
        action="store_true",
        help="skip obligations (transitively) downstream of a failed one",
    )
    verify.add_argument(
        "--max-configs",
        type=int,
        default=None,
        metavar="N",
        help="exploration budget; a blown budget reports BUDGET instead "
        "of a traceback",
    )
    verify.add_argument(
        "--explain",
        action="store_true",
        help="shrink and replay-confirm the counterexamples of failed "
        "IS checks",
    )
    verify.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace_event JSON of every discharged obligation",
    )
    verify.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="write a flat metrics JSON (per-obligation and aggregates)",
    )
    verify.add_argument(
        "--symmetry",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="quotient the exploration and IS universes by the "
        "protocol's declared permutation group (where one exists)",
    )
    _add_resilience_flags(verify)
    _add_cache_flags(verify)
    explain = sub.add_parser(
        "explain",
        help="diagnose a seeded failing fixture: shrink + replay witnesses",
    )
    explain.add_argument(
        "fixture",
        nargs="?",
        default=None,
        help="fixture name (see --list); omit to list fixtures",
    )
    explain.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes for obligation discharge (default: serial)",
    )
    explain.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the failure report as JSON (repro.obs/failure/v1)",
    )
    explain.add_argument(
        "--list",
        action="store_true",
        help="list the available fixtures",
    )
    serve = sub.add_parser(
        "serve",
        help="run the warm verification daemon (HTTP/JSON job queue)",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="bind address (default: $REPRO_SERVE_HOST or 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port; 0 picks a free one, announced on stdout "
        "(default: $REPRO_SERVE_PORT or 7717)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="bounded admission queue; a full queue refuses with 429 + "
        "Retry-After (default: $REPRO_SERVE_QUEUE_DEPTH or 16)",
    )
    serve.add_argument(
        "--state",
        metavar="DIR",
        default=None,
        help="root for persistent state: the job journal and the "
        "obligation result cache (default: in-memory)",
    )
    serve.add_argument(
        "--max-configs",
        type=int,
        default=None,
        metavar="N",
        help="operator ceiling on per-job exploration budgets (jobs "
        "asking for more are clamped)",
    )
    serve.add_argument(
        "--timeout-per-obligation",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock deadline per obligation attempt for every job",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        metavar="S",
        help="seconds SIGTERM waits for the in-flight job to salvage "
        "itself before exiting (default: 5)",
    )
    serve.add_argument(
        "--sandbox",
        action="store_true",
        help="execute jobs in a supervised subprocess sandbox (crash "
        "isolation; default: $REPRO_SERVE_SANDBOX or off)",
    )
    serve.add_argument(
        "--sandbox-max-rss-mb",
        type=int,
        default=None,
        metavar="MB",
        help="RLIMIT_AS ceiling for the sandbox worker",
    )
    serve.add_argument(
        "--sandbox-cpu-seconds",
        type=int,
        default=None,
        metavar="S",
        help="RLIMIT_CPU ceiling for the sandbox worker",
    )
    serve.add_argument(
        "--sandbox-recycle-after",
        type=int,
        default=None,
        metavar="N",
        help="replace the sandbox worker after N jobs (default: 64)",
    )
    serve.add_argument(
        "--sandbox-heartbeat-grace",
        type=float,
        default=None,
        metavar="S",
        help="kill a sandbox worker silent for S seconds (default: 20)",
    )
    serve.add_argument(
        "--sandbox-max-respawns",
        type=int,
        default=None,
        metavar="N",
        help="respawn+retry attempts per job before the circuit "
        "breaker decides (default: 2)",
    )
    serve.add_argument(
        "--sandbox-breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help="consecutive crashes of one request that open its "
        "circuit breaker (default: 2)",
    )
    serve.add_argument(
        "--sandbox-fallback",
        action="store_true",
        help="after the ladder is exhausted, run the job in-process "
        "and flag the report (default: typed CRASHED verdict)",
    )
    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the obligation result cache",
    )
    cache.add_argument(
        "action",
        choices=("stats", "gc"),
        help="stats: entry count / bytes / quota; gc: evict "
        "least-recently-used entries until under the quota",
    )
    cache.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache directory (default: $REPRO_CACHE)",
    )
    cache.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size quota in MiB (default: $REPRO_CACHE_MAX_MB)",
    )
    sub.add_parser("list", help="list protocols")
    args = parser.parse_args(argv)
    if args.command in ("table1", "verify"):
        args.resilience_config = _make_resilience(args)
        args.cache_config = _make_cache(parser, args)
    if args.command == "cache":
        return _cmd_cache(parser, args)
    try:
        return {
            "table1": _cmd_table1,
            "verify": _cmd_verify,
            "explain": _cmd_explain,
            "serve": _cmd_serve,
            "list": _cmd_list,
        }[args.command](args)
    except KeyboardInterrupt:
        # Last-resort salvage: the pipelines normally convert Ctrl-C into
        # a partial report themselves; this catches interrupts outside
        # them (argument handling, rendering) without a traceback.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
