"""Serve-path probes that the benchmark ledger does not take.

Two modes: a latency histogram under sustained load, and the subprocess
sandbox's warm-path tax.

``--load SECONDS --url http://H:P`` drives an *external* daemon with a
closed submit-and-follow loop (each job's completion is read from its
SSE stream) for the given duration and writes a latency histogram JSON
(``--output``, default ``serve-load.json``), the artifact the
``serve-smoke`` CI job uploads.

``--sandbox-overhead`` runs two embedded daemons at once, in-process and
sandboxed, times warm pingpong round-trips in alternating pairs (one on
each, the order flipping every pair, so host drift lands on both sides),
and exits nonzero when the median per-pair ratio sandbox/in-process
exceeds 1.15. It writes its JSON to ``--output`` (default
``sandbox-overhead.json``).
This covers warm single-instance pingpong only and never reaches a
recycle; the benchmark ledger's ``serve-sandbox`` rows measure a mixed
deck (README, "Crash isolation").

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py --load 30
        --url http://127.0.0.1:7717 [--output serve-load.json]
    PYTHONPATH=src python benchmarks/bench_serve.py --sandbox-overhead
        [--output sandbox-overhead.json]
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Histogram bucket upper bounds (seconds) for the load report.
BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, float("inf"))


def _post_job(base: str, payload: dict) -> dict:
    req = urllib.request.Request(
        base + "/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.load(resp)


def _get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return json.load(resp)


def _run_to_completion(base: str, payload: dict, timeout: float = 300.0):
    """Submit one job and follow its SSE stream to the terminal ``status``
    event; returns ``(latency_seconds, job_detail)``. Latency ends when
    that event arrives, so no poll interval quantizes it."""
    started = time.perf_counter()
    job_id = _post_job(base, payload)["job"]["id"]
    with urllib.request.urlopen(
        f"{base}/jobs/{job_id}/events", timeout=timeout
    ) as stream:
        event = None
        for raw in stream:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif event == "status" and line.startswith("data: "):
                status = json.loads(line[len("data: "):])["status"]
                if status in ("done", "failed", "interrupted", "crashed"):
                    latency = time.perf_counter() - started
                    return latency, _get(base, f"/jobs/{job_id}")
    raise RuntimeError(f"job {job_id}'s event stream ended before its result")


def _percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


class EmbeddedDaemon:
    """A ``ServeDaemon`` on a background thread, for benchmarking."""

    def __init__(self, state_dir: str, **config):
        from repro.serve import ServeConfig
        from repro.serve.daemon import ServeDaemon

        self.daemon = ServeDaemon(
            ServeConfig(host="127.0.0.1", port=0, state_dir=state_dir,
                        **config)
        )
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.daemon.run()), daemon=True
        )

    def __enter__(self) -> str:
        self.thread.start()
        if not self.daemon.ready.wait(timeout=30):
            raise RuntimeError("daemon did not become ready")
        return f"http://127.0.0.1:{self.daemon.bound_port}"

    def __exit__(self, *exc) -> None:
        self.daemon.request_shutdown()
        self.thread.join(timeout=30)


# ------------------------------------------------------------------ #
# Sandbox isolation overhead
# ------------------------------------------------------------------ #


def run_sandbox_overhead(requests: int = 30) -> dict:
    """Warm pingpong round-trips, in-process vs subprocess sandbox.

    Both sides are the same daemon, same request, same HTTP
    submit-and-follow loop; the only difference is the isolation level,
    so the per-pair ratio *is* the sandbox tax (JSONL protocol hop, span forwarding, the
    supervised pipe). Both daemons run for the whole measurement and the
    requests alternate in pairs, so a drift in host load hits both
    sides of a pair alike. The acceptance gate: the median pair ratio
    ≤ 1.15 on the warm path.
    """
    payload = {"kind": "verify", "protocol": "pingpong",
               "params": {"rounds": 2}}
    modes = (("inprocess", {}), ("sandbox", {"sandbox": True}))
    latencies = {mode: [] for mode, _config in modes}
    with contextlib.ExitStack() as stack:
        bases = {}
        for mode, config in modes:
            state = stack.enter_context(
                tempfile.TemporaryDirectory(prefix=f"bench-{mode}-")
            )
            bases[mode] = stack.enter_context(EmbeddedDaemon(state, **config))
            # Two warm-ups: populate the rcache, then serve one
            # fully-cached request so timing starts at steady state.
            for _ in range(2):
                _latency, detail = _run_to_completion(bases[mode], payload)
                if detail["status"] != "done":
                    raise RuntimeError(f"{mode} warm-up ended {detail['status']}")
        print(f"bench_serve: sandbox-overhead x{requests} alternating pairs ...",
              flush=True)
        for pair in range(requests):
            order = modes if pair % 2 == 0 else modes[::-1]
            for mode, _config in order:
                latency, detail = _run_to_completion(bases[mode], payload)
                if detail["result"]["obligations"]["executed"]:
                    raise RuntimeError(f"{mode}: warm run re-executed")
                latencies[mode].append(latency)
    sides = {
        mode: {
            "requests": requests,
            "p50_seconds": round(_percentile(samples, 0.50), 6),
            "p99_seconds": round(_percentile(samples, 0.99), 6),
            "mean_seconds": round(statistics.fmean(samples), 6),
        }
        for mode, samples in latencies.items()
    }
    ratios = [
        sandbox / max(inprocess, 1e-9)
        for inprocess, sandbox in zip(latencies["inprocess"], latencies["sandbox"])
    ]
    overhead = statistics.median(ratios) - 1.0
    report = {
        "benchmark": "subprocess sandbox overhead (warm pingpong, paired)",
        "inprocess": sides["inprocess"],
        "sandbox": sides["sandbox"],
        "pairs": requests,
        "overhead_fraction": round(overhead, 4),
        "gate_max_fraction": 0.15,
        "verdict": overhead <= 0.15,
    }
    print(
        f"bench_serve: sandbox overhead median pair ratio "
        f"{overhead * 100:+.1f}% over {requests} pairs (p50 "
        f"{sides['inprocess']['p50_seconds']}s -> "
        f"{sides['sandbox']['p50_seconds']}s, gate +15%)",
        flush=True,
    )
    return report


# ------------------------------------------------------------------ #
# Sustained load against an external daemon
# ------------------------------------------------------------------ #


def run_load(url: str, seconds: float, protocol: str = "pingpong") -> dict:
    """Submit-and-follow in a closed loop for ``seconds``; histogram
    latency."""
    base = url.rstrip("/")
    payload = {"kind": "verify", "protocol": protocol}
    # One untimed warm-up so the histogram measures steady state.
    _run_to_completion(base, payload)
    latencies = []
    errors = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            latency, detail = _run_to_completion(base, payload)
        except Exception:
            errors += 1
            continue
        if detail["status"] != "done":
            errors += 1
            continue
        latencies.append(latency)
    counts = [0] * len(BUCKETS)
    for latency in latencies:
        for index, bound in enumerate(BUCKETS):
            if latency <= bound:
                counts[index] += 1
                break
    histogram = [
        {"le_seconds": bound if bound != float("inf") else "inf",
         "count": count}
        for bound, count in zip(BUCKETS, counts)
    ]
    report = {
        "benchmark": "serve sustained load",
        "url": base,
        "protocol": protocol,
        "duration_seconds": seconds,
        "completed_requests": len(latencies),
        "errors": errors,
        "requests_per_second": round(len(latencies) / seconds, 2),
        "latency_seconds": {
            "p50": round(_percentile(latencies, 0.50), 6),
            "p99": round(_percentile(latencies, 0.99), 6),
            "max": round(max(latencies), 6),
        } if latencies else None,
        "histogram": histogram,
    }
    return report


# ------------------------------------------------------------------ #
# Entry point
# ------------------------------------------------------------------ #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output JSON (default: serve-load.json in --load mode, "
        "sandbox-overhead.json in --sandbox-overhead mode)",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--load",
        type=float,
        default=None,
        metavar="SECONDS",
        help="sustained-load mode against --url for SECONDS",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running daemon (--load mode)",
    )
    mode.add_argument(
        "--sandbox-overhead",
        action="store_true",
        help="measure subprocess-sandbox overhead on warm round-trips; "
        "exit 1 above the 15%% gate",
    )
    args = parser.parse_args(argv)

    if args.sandbox_overhead:
        report = run_sandbox_overhead()
        output = args.output or ROOT / "sandbox-overhead.json"
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"bench_serve: wrote {output}")
        return 0 if report["verdict"] else 1

    if not args.url:
        parser.error("--load requires --url http://HOST:PORT")
    report = run_load(args.url, args.load)
    output = args.output or ROOT / "serve-load.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench_serve: wrote {output}")
    print(json.dumps({k: v for k, v in report.items()
                      if k != "histogram"}, indent=2))
    return 0 if report["completed_requests"] > 0 and not report["errors"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
