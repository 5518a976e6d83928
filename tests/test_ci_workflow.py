"""Sanity checks on the CI pipeline definition.

CI config rots silently — a typo'd job name or an unpinned action only
fails on the forge, after push. These tests lint ``ci.yml`` locally: the
jobs the README badge implies must exist, every third-party action must
be version-pinned, and the commands must reference tox environments and
scripts that actually exist in this repo.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(WORKFLOW.read_text())


def _steps(workflow, job):
    return workflow["jobs"][job]["steps"]


def _run_commands(workflow):
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["run"]


def test_expected_jobs_exist(workflow):
    assert set(workflow["jobs"]) == {
        "lint",
        "fast",
        "full",
        "bench-smoke",
        "trace-artifact",
        "fault-injection",
        "incremental-verification",
        "serve-smoke",
        "explain-artifact",
        "chaos-soak",
        "ledger-smoke",
    }


def test_every_job_is_timeout_bounded(workflow):
    """A hung runner bills by the minute and blocks the queue; every
    job — not just the fault-injecting ones — must carry a sane
    ``timeout-minutes``."""
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert minutes is not None, f"{name}: missing timeout-minutes"
        assert 0 < minutes <= 30, f"{name}: timeout-minutes {minutes}"


def test_every_action_is_version_pinned(workflow):
    for name, job in workflow["jobs"].items():
        for step in job["steps"]:
            uses = step.get("uses")
            if uses is None:
                continue
            action, _, version = uses.partition("@")
            assert version, f"{name}: unpinned action {uses!r}"
            assert version.startswith("v"), f"{name}: loose pin {uses!r}"
            assert action.startswith("actions/"), (
                f"{name}: unexpected third-party action {uses!r}"
            )


def test_fast_lane_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["fast"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12", "3.13"]


def test_full_suite_gated_on_lint_and_fast(workflow):
    assert set(workflow["jobs"]["full"]["needs"]) == {"lint", "fast"}
    assert any('-m ""' in cmd for cmd in _run_commands(workflow))


def test_full_job_diffs_table1_rows_across_hash_seeds(workflow):
    """Universe order, witness order and every Table 1 count must not
    depend on ``PYTHONHASHSEED``: the full job runs ``repro table1`` under
    two seeds and diffs the rows with the Time column cut out."""
    commands = [
        step["run"] for step in _steps(workflow, "full") if "run" in step
    ]
    step = next(cmd for cmd in commands if "repro table1" in cmd)
    assert "PYTHONHASHSEED=$seed python -m repro table1" in step
    assert "for seed in 0 1" in step
    assert "set -o pipefail" in step
    assert "sed -E 's/ +[0-9]+\\.[0-9]{2} / /'" in step
    assert "diff table1-seed0.txt table1-seed1.txt" in step


def test_full_job_runs_the_explorer_differential_under_two_hash_seeds(workflow):
    """PA and store ids are assigned in discovery order, which hash-seeded
    set iteration inside actions can change: the interned explorer must
    agree with the value-level oracle under more than one seed."""
    step = next(
        s
        for s in _steps(workflow, "full")
        if s.get("name")
        == "Interned exploration agrees with the oracle explorer under two hash seeds"
    )
    assert "for seed in 0 1" in step["run"]
    assert (
        'PYTHONHASHSEED=$seed pytest -m "" -q tests/core/test_explore_differential.py'
        in step["run"]
    )


def test_full_job_runs_the_symmetry_suite_under_two_hash_seeds(workflow):
    """Value ids and the orbit search's member order follow discovery
    order, which hash-seeded set iteration can change: the orbit
    representatives must not."""
    step = next(
        s
        for s in _steps(workflow, "full")
        if s.get("name") == "Symmetry representatives agree under two hash seeds"
    )
    assert "for seed in 0 1" in step["run"]
    assert (
        'PYTHONHASHSEED=$seed pytest -m "" -q tests/core/test_symmetry.py'
        in step["run"]
    )


def test_tox_environments_referenced_by_ci_exist(workflow):
    tox = configparser.ConfigParser()
    tox.read(ROOT / "tox.ini")
    referenced = []
    for cmd in _run_commands(workflow):
        tokens = cmd.split()
        if "tox" not in tokens:
            continue
        for flag, value in zip(tokens, tokens[1:]):
            if flag == "-e":
                referenced.extend(value.split(","))
    assert referenced, "no tox environments referenced by ci.yml"
    for env in referenced:
        assert tox.has_section(f"testenv:{env}"), (
            f"ci.yml uses tox env {env!r} missing from tox.ini"
        )


def test_smoke_and_trace_scripts_exist(workflow):
    commands = list(_run_commands(workflow))
    assert any("tests/engine/test_fast_path_floor.py" in cmd for cmd in commands)
    assert any("--trace" in cmd and "--metrics" in cmd for cmd in commands)
    assert (ROOT / "tests" / "engine" / "test_fast_path_floor.py").exists()


def test_trace_artifact_job_traces_broadcast_stages(workflow):
    """Broadcast runs two IS applications through the shared pipeline;
    its exported trace must frame every stage in a phase span."""
    commands = [step["run"] for step in _steps(workflow, "trace-artifact")
                if "run" in step]
    assert any(
        "repro verify broadcast" in cmd
        and "--trace trace-broadcast.json" in cmd
        and "--metrics metrics-broadcast.json" in cmd
        for cmd in commands
    )
    check = next(cmd for cmd in commands
                 if "trace-broadcast.json" in cmd and "phases" in cmd)
    for stage in ("IS[Broadcast]", "IS[Collect]", "sequential spec",
                  "ground truth"):
        assert f'"{stage}"' in check, stage
    assert 'metrics["totals"]["checked"] > 0' in check


def test_bench_smoke_guards_representation_attribution(workflow):
    """The bench-smoke job must run the live benchmark gates with the slow
    lane selected and stdout shown: the fast path against the reference
    oracle on Paxos R2N2 at the 3x floor, and the twophase n=3 quotient
    folding by at least 2x."""
    commands = [step["run"] for step in _steps(workflow, "bench-smoke")
                if "run" in step]
    gates = next(cmd for cmd in commands if "test_fast_path_floor.py" in cmd)
    assert 'pytest -m ""' in gates and " -s " in gates
    assert (
        "tests/engine/test_symmetry_differential.py"
        "::test_quotient_shrinks_the_enumeration" in gates
    )

    from tests.engine import test_fast_path_floor as floor
    from tests.engine import test_symmetry_differential as symmetry

    assert floor.FLOOR == 3.0
    source = (ROOT / "tests" / "engine" / "test_fast_path_floor.py").read_text()
    for field in ("UncachableContext", "gate_fills", "_typed_condition_map"):
        assert field in source, f"floor test misses {field!r}"
    assert "twophase" in symmetry.SYMMETRIC_CASES
    assert "twophase" not in symmetry.SLOW


@pytest.mark.parametrize(
    "job",
    [
        "trace-artifact",
        "fault-injection",
        "serve-smoke",
        "explain-artifact",
        "chaos-soak",
    ],
)
def test_artifact_upload_requires_files(workflow, job):
    uploads = [
        step
        for step in _steps(workflow, job)
        if step.get("uses", "").startswith("actions/upload-artifact")
    ]
    assert len(uploads) == 1
    assert uploads[0]["with"]["if-no-files-found"] == "error"


def test_fault_injection_job_interrupts_then_resumes(workflow):
    """The resilience job must be hang-bounded (``timeout-minutes``), run
    the fault regression files — the crash-point suite over result-cache
    entries and the record log, and the disk-fault tests — demand the
    partial-report exit code (130) from the injected-interrupt run with
    its completed obligations stored, and resume by rerunning with the
    same ``--cache``, executing fewer obligations than the total."""
    job = workflow["jobs"]["fault-injection"]
    assert 0 < job["timeout-minutes"] <= 30
    commands = [step["run"] for step in job["steps"] if "run" in step]
    suite = next(cmd for cmd in commands if "pytest" in cmd)
    for path in (
        "tests/engine/test_faults.py",
        "tests/engine/test_resilience.py",
        "tests/engine/test_journal.py",
        "tests/engine/test_fs_faults.py",
        "tests/serve/test_jobs.py",
        "tests/engine/test_recordlog.py",
    ):
        assert path in suite
        assert (ROOT / path).exists()
    # The daemon's job threads time out through the polled deadline.
    node = "test_inprocess_deadline_fires_and_leaves_warm_tables_intact"
    assert f"tests/serve/test_daemon.py::{node}" in suite
    assert f"def {node}(" in (ROOT / "tests/serve/test_daemon.py").read_text()
    interrupted = next(
        step
        for step in job["steps"]
        if "REPRO_FAULTS" in (step.get("env") or {})
    )
    assert "interrupt" in interrupted["env"]["REPRO_FAULTS"]
    assert "--jobs 2" in interrupted["run"]
    assert "--cache c" in interrupted["run"]
    assert "130" in interrupted["run"]
    assert "ls c/objects/*.json" in interrupted["run"]
    rerun = next(
        cmd for cmd in commands if "--cache c" in cmd and cmd is not interrupted["run"]
    )
    assert "--cache-stats" in rerun
    assert "executed < total" in rerun
    upload = next(
        step
        for step in job["steps"]
        if step.get("uses", "").startswith("actions/upload-artifact")
    )
    assert upload["with"]["path"] == "c/"


def test_incremental_verification_job_proves_cache_reuse(workflow):
    """The incremental job must verify twice against one ``--cache``
    directory, assert the warm run discharges *zero* obligations (the
    ``executed=0`` grep), then edit exactly one gate through a mutation
    anchor that still exists in the source and demand a partial re-run
    (``0 < executed < total``)."""
    job = workflow["jobs"]["incremental-verification"]
    assert "fast" in job["needs"]
    commands = [step["run"] for step in job["steps"] if "run" in step]

    verify_cmds = [cmd for cmd in commands if "repro verify pingpong" in cmd]
    assert len(verify_cmds) == 3, "cold, warm, and post-edit runs"
    for cmd in verify_cmds:
        assert "--cache .rcache" in cmd
        assert "--cache-stats" in cmd
        # tee feeds the greps; without pipefail a failed verify would
        # vanish behind tee's exit code.
        assert "set -o pipefail" in cmd

    warm = verify_cmds[1]
    assert "executed=0" in warm

    mutation = next(cmd for cmd in commands if "mutation anchor" in cmd)
    anchor = next(
        line.split("needle = ", 1)[1].strip("'\" ")
        for line in mutation.splitlines()
        if line.strip().startswith("needle =")
    )
    source = (ROOT / "src" / "repro" / "protocols" / "pingpong.py").read_text()
    assert source.count(anchor) == 1, "mutation anchor drifted from source"

    partial = verify_cmds[2]
    assert "0 < executed < total" in partial


def test_incremental_verification_job_rechecks_a_quotiented_instance(workflow):
    """A quotiented universe's fingerprint must not move between two
    processes either: the job verifies twophase ``--symmetry`` twice
    against its own cache directory and greps ``executed=0`` on the
    second run."""
    steps = _steps(workflow, "incremental-verification")
    step = next(
        s
        for s in steps
        if s.get("name")
        == "Warm re-verify of a quotiented instance discharges zero obligations"
    )
    cmd = step["run"]
    assert "set -o pipefail" in cmd
    runs = [
        line
        for line in cmd.splitlines()
        if "repro verify twophase --symmetry" in line
    ]
    assert len(runs) == 2, "a cold and a warm run"
    assert cmd.count("--cache .rcache-sym --cache-stats") == 2
    warm_log = cmd.split("tee ")[-1].split()[0]
    grep = cmd.strip().splitlines()[-1]
    assert "executed=0" in grep and grep.endswith(warm_log)


def test_chaos_soak_job_is_seeded_and_gated(workflow):
    """The chaos job must run the soak with a pinned ``--seed`` (a CI
    failure has to replay locally), write the event-log artifact, and
    hold the sandbox isolation overhead to the ≤15% gate."""
    job = workflow["jobs"]["chaos-soak"]
    commands = [step["run"] for step in job["steps"] if "run" in step]
    soak = next(cmd for cmd in commands if "chaos_soak.py" in cmd)
    assert "--seed" in soak
    assert "chaos-events.jsonl" in soak
    assert (ROOT / "benchmarks" / "chaos_soak.py").exists()
    overhead = next(cmd for cmd in commands if "--sandbox-overhead" in cmd)
    assert "set -o pipefail" in overhead
    assert "--output chaos-sandbox-bench.json" in overhead
    # The gate's bound lives in the script that re-measures it.
    bench = (ROOT / "benchmarks" / "bench_serve.py").read_text()
    assert '"gate_max_fraction": 0.15' in bench
    assert '"verdict": overhead <= 0.15' in bench


def test_every_job_caches_pip_and_tox_environments(workflow):
    """Every job must restore the pip/tox caches, keyed on the files
    that define the environments (``pyproject.toml``/``tox.ini``) so an
    edit to either invalidates the cache instead of serving stale
    dependencies."""
    for name, job in workflow["jobs"].items():
        caches = [
            step
            for step in job["steps"]
            if step.get("uses", "").startswith("actions/cache")
        ]
        assert len(caches) == 1, f"{name}: expected exactly one cache step"
        with_ = caches[0]["with"]
        assert "~/.cache/pip" in with_["path"], name
        assert ".tox" in with_["path"], name
        key = with_["key"]
        assert "hashFiles('pyproject.toml', 'tox.ini')" in key, name
        # Matrix jobs must key per interpreter, or 3.10 wheels leak
        # into the 3.13 environment.
        assert "py" in key, name


def test_serve_smoke_job_gates_warm_reuse_and_resume(workflow):
    """The serve-smoke job must boot the daemon, prove the second
    identical request executes zero obligations, run the sustained load
    test that produces the uploaded histogram, SIGTERM the daemon
    mid-job under an injected hang, assert the restart completes the
    job re-executing only the obligations the result cache does not
    already hold, and drill the in-process deadline: an injected hang
    ends TIMEOUT within 10 s."""
    job = workflow["jobs"]["serve-smoke"]
    assert "fast" in job["needs"]
    assert 0 < job["timeout-minutes"] <= 30
    commands = [step["run"] for step in job["steps"] if "run" in step]

    boot = next(cmd for cmd in commands if "repro serve" in cmd)
    assert "repro-serve: listening" in boot

    warm = next(cmd for cmd in commands if '"executed"' in cmd)
    assert 'split["executed"] == 0' in warm

    load = next(cmd for cmd in commands if "bench_serve.py" in cmd)
    assert "--load" in load
    assert "serve-load.json" in load
    assert (ROOT / "benchmarks" / "bench_serve.py").exists()

    hang_step = next(
        step
        for step in job["steps"]
        if "REPRO_FAULTS" in (step.get("env") or {})
    )
    assert "hang" in hang_step["env"]["REPRO_FAULTS"]
    assert "kill -TERM" in hang_step["run"]
    assert '"event": "interrupted"' in hang_step["run"]

    assert "servestate2/rcache/objects" in hang_step["run"]
    drill = next(
        step
        for step in job["steps"]
        if "--timeout-per-obligation" in step.get("run", "")
    )
    assert "hang" in drill["env"]["REPRO_FAULTS"]
    assert 'detail["result"]["status"] == "TIMEOUT"' in drill["run"]
    assert "started < 10" in drill["run"]
    resume = next(cmd for cmd in commands if 'split["cached"]' in cmd)
    assert 'split["cached"] > 0' in resume
    assert 'split["executed"] < split["total"]' in resume

    upload = next(
        step
        for step in job["steps"]
        if step.get("uses", "").startswith("actions/upload-artifact")
    )
    assert upload["with"]["path"] == "serve-load.json"


def test_explain_job_runs_seeded_fixture_and_gates_on_minimization(workflow):
    """The diagnostics job must run ``repro explain`` on a fixture that
    exists in the registry, write the JSON report, and assert both replay
    confirmation and shrinkage before uploading."""
    from repro.diagnose import FIXTURES

    commands = [
        step["run"]
        for step in _steps(workflow, "explain-artifact")
        if "run" in step
    ]
    explain_cmd = next(cmd for cmd in commands if "repro explain" in cmd)
    fixture_name = explain_cmd.split("repro explain", 1)[1].split()[0]
    assert fixture_name in FIXTURES
    assert "--json" in explain_cmd
    validation = next(cmd for cmd in commands if "failure-report.json" in cmd
                      and "json.load" in cmd)
    assert "repro.obs/failure/v1" in validation
    assert "replay_confirmed" in validation
    assert "minimized_size" in validation


def test_ledger_smoke_job_runs_the_ledger_self_test(workflow):
    """The benchmark ledger's self-test is not part of the tier-1 suite,
    so a CI job of its own must run it, bounded in time."""
    job = workflow["jobs"]["ledger-smoke"]
    assert 0 < job["timeout-minutes"] <= 10
    commands = [step["run"] for step in job["steps"] if "run" in step]
    assert "PYTHONPATH=src python -m pytest benchmarks/ledger -q" in commands
    assert (ROOT / "benchmarks" / "ledger" / "test_ledger.py").exists()


def test_ledger_smoke_job_keeps_the_context_counter_alive(workflow):
    """``context.hit_frac`` reads 0.0 when nothing feeds the universe's
    admissibility counters; a traced smoke run of ``table1`` must read it
    above zero from the last-line JSON."""
    commands = [
        step["run"] for step in _steps(workflow, "ledger-smoke") if "run" in step
    ]
    traced = [
        c
        for c in commands
        if "benchmarks/ledger/run.py --workload table1 --smoke --trace 1 --seed 1"
        in c
    ]
    assert len(traced) == 1
    assert "tail -n 1" in traced[0]
    assert "['context.hit_frac']" in traced[0] and "v > 0" in traced[0]
