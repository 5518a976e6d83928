"""Chaos soak: a seeded fault schedule against a live ``repro serve``.

The robustness claim this drill gates: under randomized sandbox-worker
SIGKILLs, injected disk faults (``rcache.store=enospc``,
``journal.append=eio``), and SIGTERM restarts of the daemon itself —
all while a client keeps submitting verification jobs —

* the service stays live (every ``/healthz`` probe answers),
* **no job is lost** (every submitted job reaches a terminal state,
  surviving daemon restarts via the job journal),
* every verdict is **typed-identical** to a fault-free in-process
  oracle of the same instance, and
* once the pressure clears, a restarted daemon serves an identical
  request from its (fault-scarred) result cache with ``executed == 0``.

Verdicts may never silently degrade: a disk full, a dead worker, or a
killed daemon can cost time (respawns, re-execution, restart replay)
but not soundness — caches degrade to misses, journals to re-runs.

The schedule is a seeded ``random.Random`` walk over four actions
(submit / kill the sandbox worker / SIGTERM+restart the daemon /
sleep), so a CI failure replays locally with the same ``--seed``.
Every action and observation is appended to a JSONL event log
(``--events``), which the CI ``chaos-soak`` job uploads as an
artifact.

Usage::

    PYTHONPATH=src python benchmarks/chaos_soak.py
        [--seed N] [--actions N] [--events chaos-events.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: Faults armed for the daemon *and* (inherited) every sandbox worker:
#: the first rcache stores hit a full disk, the first checkpoint-journal
#: appends hit I/O errors. Counters re-arm per spawned process, so every
#: respawned worker takes fresh hits — the soak never runs out of chaos.
FAULTS = "rcache.store=enospc:4;journal.append=eio:2"

#: The request mix. Small on purpose: the soak's point is fault
#: coverage, not load; the benchmark ledger's serve workloads cover
#: throughput.
REQUESTS = [
    {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 2}},
    {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 3}},
]


def _key(payload: dict) -> str:
    return f"pingpong-r{payload['params']['rounds']}"


def oracle_verdicts() -> dict:
    """Fault-free in-process reference verdicts, one per request."""
    from repro.protocols import pingpong

    verdicts = {}
    for payload in REQUESTS:
        report = pingpong.verify(rounds=payload["params"]["rounds"])
        verdicts[_key(payload)] = {
            "status": report.status,
            "ok": report.ok,
            "total": sum(r.num_obligations for _l, r in report.is_results),
            "is_checks": [
                {"label": label, "holds": result.holds}
                for label, result in report.is_results
            ],
        }
    return verdicts


class EventLog:
    def __init__(self, path: Path):
        self.path = path
        self.handle = open(path, "w", encoding="utf-8")

    def emit(self, kind: str, **fields) -> None:
        record = {"at": round(time.time(), 3), "event": kind, **fields}
        self.handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.handle.flush()
        print(f"chaos: {kind} {fields}", flush=True)

    def close(self) -> None:
        self.handle.close()


class Daemon:
    """The daemon under test, as a killable child process."""

    def __init__(self, state_dir: Path, faults: str, log: EventLog):
        self.state_dir = state_dir
        self.log = log
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULTS", None)
        if faults:
            env["REPRO_FAULTS"] = faults
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--state", str(state_dir),
                "--sandbox",
                # Worker kills are the *point*; never let them latch the
                # breaker — repeat crashes must keep being retried.
                "--sandbox-max-respawns", "3",
                "--sandbox-breaker-threshold", "1000000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.base = None
        deadline = time.time() + 120
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (http://[^ ]+:\d+)", line)
            if match:
                self.base = match.group(1)
                break
        if not self.base:
            raise RuntimeError("daemon never announced its port")
        log.emit("daemon-up", pid=self.proc.pid, base=self.base,
                 faults=faults)

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.base + path, timeout=60) as resp:
            return json.load(resp)

    def post(self, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            return json.load(resp)

    def sigterm(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=120)
        self.proc.stdout.close()
        self.log.emit("daemon-sigterm", pid=self.proc.pid)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=60)
        self.proc.stdout.close()


def assert_typed_identical(result: dict, oracle: dict, job_id: str) -> None:
    mismatches = []
    if result["status"] != oracle["status"]:
        mismatches.append(f"status {result['status']} != {oracle['status']}")
    if result["ok"] is not oracle["ok"]:
        mismatches.append(f"ok {result['ok']} != {oracle['ok']}")
    if result["obligations"]["total"] != oracle["total"]:
        mismatches.append(
            f"total {result['obligations']['total']} != {oracle['total']}"
        )
    got_checks = [
        {"label": c["label"], "holds": c["holds"]}
        for c in result["is_checks"]
    ]
    if got_checks != oracle["is_checks"]:
        mismatches.append("is_checks differ")
    if mismatches:
        raise AssertionError(
            f"{job_id}: verdict diverged from fault-free oracle: "
            + "; ".join(mismatches)
        )


def run_soak(seed: int, actions: int, events_path: Path) -> int:
    rng = random.Random(seed)
    log = EventLog(events_path)
    log.emit("soak-start", seed=seed, actions=actions, faults=FAULTS)
    oracle = oracle_verdicts()
    log.emit("oracle-ready", verdicts={k: v["status"] for k, v in
                                       oracle.items()})

    state = Path(tempfile.mkdtemp(prefix="chaos-soak-"))
    daemon = Daemon(state, FAULTS, log)
    submitted = {}  # job_id -> request key
    worker_kills = 0
    restarts = 0

    def probe() -> dict:
        health = daemon.get("/healthz")
        assert health["status"] in ("ok", "draining"), health["status"]
        return health

    try:
        for step in range(actions):
            action = rng.choices(
                ("submit", "kill-worker", "restart", "sleep"),
                weights=(5, 2, 1, 2),
            )[0]
            if action == "submit":
                payload = rng.choice(REQUESTS)
                accepted = daemon.post("/jobs", payload)
                job_id = accepted["job"]["id"]
                submitted[job_id] = _key(payload)
                log.emit("submit", step=step, job=job_id,
                         request=_key(payload))
            elif action == "kill-worker":
                health = probe()
                pid = health["sandbox"].get("worker_pid")
                if pid:
                    try:
                        os.kill(pid, signal.SIGKILL)
                        worker_kills += 1
                        log.emit("kill-worker", step=step, pid=pid)
                    except ProcessLookupError:
                        log.emit("kill-worker-raced", step=step, pid=pid)
                else:
                    log.emit("kill-worker-skipped", step=step,
                             reason="no live worker")
            elif action == "restart":
                daemon.sigterm()
                restarts += 1
                daemon = Daemon(state, FAULTS, log)
            else:
                pause = rng.uniform(0.05, 0.4)
                log.emit("sleep", step=step, seconds=round(pause, 3))
                time.sleep(pause)
            # Liveness gate: the service answers after *every* action.
            health = probe()
            log.emit("healthz", step=step,
                     counters=health["counters"],
                     sandbox_restarts=health["sandbox"].get("restarts"),
                     rcache_write_errors=(health["rcache"] or {}).get(
                         "write_errors"))

        # Drain: every submitted job must reach a terminal state.
        deadline = time.time() + 600
        pending = set(submitted)
        while pending and time.time() < deadline:
            for job_id in sorted(pending):
                detail = daemon.get(f"/jobs/{job_id}")
                if detail["status"] in ("done", "failed", "crashed",
                                        "interrupted"):
                    pending.discard(job_id)
                    log.emit("terminal", job=job_id,
                             status=detail["status"],
                             attempts=detail.get("attempts"))
            time.sleep(0.1)
        assert not pending, f"jobs lost or stuck: {sorted(pending)}"

        # Verdict gate: every job's result is typed-identical to the
        # fault-free oracle. Faults may cost retries, never verdicts.
        for job_id, key in submitted.items():
            detail = daemon.get(f"/jobs/{job_id}")
            assert detail["status"] == "done", (
                f"{job_id} ended {detail['status']!r} "
                f"(error: {detail.get('error')})"
            )
            assert_typed_identical(detail["result"], oracle[key], job_id)
        log.emit("verdicts-verified", jobs=len(submitted),
                 worker_kills=worker_kills, daemon_restarts=restarts)

        # Pressure-clear gate: restart with NO faults; the identical
        # request must be served warm from the surviving cache state.
        daemon.sigterm()
        daemon = Daemon(state, "", log)
        for round_index in range(2):
            accepted = daemon.post("/jobs", REQUESTS[0])
            job_id = accepted["job"]["id"]
            deadline = time.time() + 300
            while time.time() < deadline:
                detail = daemon.get(f"/jobs/{job_id}")
                if detail["status"] in ("done", "failed", "crashed"):
                    break
                time.sleep(0.05)
            assert detail["status"] == "done", detail
            assert_typed_identical(
                detail["result"], oracle[_key(REQUESTS[0])], job_id
            )
            executed = detail["result"]["obligations"]["executed"]
            log.emit("pressure-clear", round=round_index, job=job_id,
                     executed=executed)
        # Round 0 may re-execute what enospc kept out of the cache;
        # by round 1 the cache is whole again and executed must be 0.
        assert executed == 0, (
            f"expected a fully cached round after faults cleared, "
            f"got executed={executed}"
        )
        log.emit("soak-pass", jobs=len(submitted),
                 worker_kills=worker_kills, daemon_restarts=restarts)
        return 0
    finally:
        daemon.kill()
        log.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260808,
                        help="RNG seed for the action schedule")
    parser.add_argument("--actions", type=int, default=18,
                        help="number of scheduled chaos actions")
    parser.add_argument("--events", type=Path,
                        default=ROOT / "chaos-events.jsonl",
                        help="JSONL event log (CI uploads this)")
    args = parser.parse_args(argv)
    try:
        code = run_soak(args.seed, args.actions, args.events)
    except AssertionError as failure:
        print(f"chaos: FAIL {failure}", flush=True)
        return 1
    print("chaos: soak passed", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
