"""Crash-consistency drills against a real daemon *process*.

The in-process suite (test_daemon) covers SIGTERM's cooperative drain;
these tests cover the uncooperative end: SIGKILL mid-job — no drain, no
atexit, no flush — then a restart on the same state directory. The
contract is the two stores': the job journal re-enqueues the unfinished
job, the result cache serves back every obligation stored before the
kill (``cached > 0``, so ``executed < total``), and the rerun's typed
verdict is the ordinary one.

The full randomized chaos soak (worker kills + disk faults under load)
lives in ``benchmarks/chaos_soak.py``; the CI ``chaos-soak`` job runs
it seeded. Here we keep one deterministic kill so the fast lane guards
the recovery path.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PINGPONG = {"kind": "verify", "protocol": "pingpong", "params": {"rounds": 2}}


class DaemonProcess:
    """`repro serve` as a real child process on an ephemeral port."""

    def __init__(self, state_dir, env_extra=None, args=()):
        env = os.environ.copy()
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--state",
                str(state_dir),
                *args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.base = None
        deadline = time.time() + 60
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on (http://[^ ]+:\d+)", line)
            if match:
                self.base = match.group(1)
                break
        assert self.base, "daemon never announced its port"

    def get(self, path):
        with urllib.request.urlopen(self.base + path, timeout=30) as resp:
            return resp.status, json.load(resp)

    def post(self, path, payload):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(payload).encode("utf-8")
        )
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.load(resp)

    def wait_status(self, job_id, states, timeout=120.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            _s, detail = self.get(f"/jobs/{job_id}")
            if detail["status"] in states:
                return detail
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} still {detail['status']!r}")

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def terminate(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def _stored_entries(state_dir) -> int:
    """Obligation results in the daemon's result cache."""
    return len(list(Path(state_dir).glob("rcache/objects/*.json")))


@pytest.mark.real_protocol
def test_sigkill_midjob_restart_reenqueues_and_resumes(tmp_path):
    """SIGKILL — not SIGTERM — while an obligation hangs: nothing gets
    to flush or journal an 'interrupted' record. The restarted daemon
    must rebuild the backlog purely from what already hit disk."""
    daemon = DaemonProcess(
        tmp_path, env_extra={"REPRO_FAULTS": "I2=hang"}
    )
    try:
        _status, accepted = daemon.post("/jobs", PINGPONG)
        job_id = accepted["job"]["id"]
        daemon.wait_status(job_id, ("running",), timeout=60)
        # Wait for the pre-hang obligations to be stored, then kill -9.
        deadline = time.time() + 60
        while _stored_entries(tmp_path) == 0 and time.time() < deadline:
            time.sleep(0.05)
        assert _stored_entries(tmp_path) > 0, "no obligation stored"
    finally:
        daemon.sigkill()

    # No 'interrupted'/'finished' record made it out — the job journal
    # ends with 'started', which is exactly the restart backlog shape.
    events = [
        json.loads(line)["event"]
        for line in (tmp_path / "jobs.jsonl").read_text().splitlines()[1:]
    ]
    assert events[-1] == "started", events

    restarted = DaemonProcess(tmp_path)  # no faults this time
    try:
        detail = restarted.wait_status(
            job_id, ("done", "failed", "crashed"), timeout=120
        )
        assert detail["status"] == "done"
        assert detail["result"]["status"] == "OK"
        split = detail["result"]["obligations"]
        assert 0 < split["cached"] and split["executed"] < split["total"]
        assert detail["attempts"] >= 2
        # And the daemon is healthy, not limping: a fresh identical
        # request is warm-served without re-execution.
        _s, again = restarted.post("/jobs", PINGPONG)
        repeat = restarted.wait_status(again["job"]["id"], ("done",))
        assert repeat["result"]["obligations"]["executed"] == 0
    finally:
        restarted.terminate()
