"""Serve-path probes that the benchmark ledger does not take.

Two modes: a latency histogram under sustained load, and the subprocess
sandbox's warm-path tax.

``--load SECONDS --url http://H:P`` drives an *external* daemon with a
closed submit+poll loop for the given duration and writes a latency
histogram JSON (``--output``, default ``serve-load.json``), the
artifact the ``serve-smoke`` CI job uploads.

``--sandbox-overhead`` runs two embedded daemons, in-process and
sandboxed, times warm pingpong round-trips on each, and exits nonzero
when the sandbox's p50 exceeds the in-process p50 by more than 15%. It
writes its JSON to ``--output`` (default ``sandbox-overhead.json``).
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
    """Submit one job and poll it to a terminal state; returns
    ``(latency_seconds, job_detail)``."""
    started = time.perf_counter()
    job_id = _post_job(base, payload)["job"]["id"]
    deadline = time.time() + timeout
    while time.time() < deadline:
        detail = _get(base, f"/jobs/{job_id}")
        if detail["status"] in ("done", "failed", "interrupted"):
            return time.perf_counter() - started, detail
        time.sleep(0.002)
    raise RuntimeError(f"job {job_id} did not finish within {timeout}s")


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

    Both sides are the same daemon, same request, same HTTP submit+poll
    loop; the only difference is the isolation level, so the p50 delta
    *is* the sandbox tax (JSONL protocol hop, span forwarding, the
    supervised pipe). The acceptance gate: ≤ 15% on the warm path.
    """
    payload = {"kind": "verify", "protocol": "pingpong",
               "params": {"rounds": 2}}
    sides = {}
    for mode, config in (
        ("inprocess", {}),
        ("sandbox", {"sandbox": True}),
    ):
        with tempfile.TemporaryDirectory(prefix=f"bench-{mode}-") as state:
            with EmbeddedDaemon(state, **config) as base:
                print(f"bench_serve: sandbox-overhead {mode} "
                      f"x{requests} ...", flush=True)
                # Two warm-ups: populate the rcache, then serve one
                # fully-cached request so timing starts at steady state.
                for _ in range(2):
                    _latency, detail = _run_to_completion(base, payload)
                    if detail["status"] != "done":
                        raise RuntimeError(
                            f"{mode} warm-up ended {detail['status']}"
                        )
                latencies = []
                for _ in range(requests):
                    latency, detail = _run_to_completion(base, payload)
                    if detail["result"]["obligations"]["executed"]:
                        raise RuntimeError(f"{mode}: warm run re-executed")
                    latencies.append(latency)
                sides[mode] = {
                    "requests": requests,
                    "p50_seconds": round(_percentile(latencies, 0.50), 6),
                    "p99_seconds": round(_percentile(latencies, 0.99), 6),
                    "mean_seconds": round(statistics.fmean(latencies), 6),
                }
    overhead = (
        sides["sandbox"]["p50_seconds"]
        / max(sides["inprocess"]["p50_seconds"], 1e-9)
        - 1.0
    )
    report = {
        "benchmark": "subprocess sandbox overhead (warm pingpong)",
        "inprocess": sides["inprocess"],
        "sandbox": sides["sandbox"],
        "overhead_fraction": round(overhead, 4),
        "gate_max_fraction": 0.15,
        "verdict": overhead <= 0.15,
    }
    print(
        f"bench_serve: sandbox overhead p50 "
        f"{sides['inprocess']['p50_seconds']}s -> "
        f"{sides['sandbox']['p50_seconds']}s "
        f"({overhead * 100:+.1f}%, gate +15%)",
        flush=True,
    )
    return report


# ------------------------------------------------------------------ #
# Sustained load against an external daemon
# ------------------------------------------------------------------ #


def run_load(url: str, seconds: float, protocol: str = "pingpong") -> dict:
    """Submit+poll in a closed loop for ``seconds``; histogram latency."""
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
