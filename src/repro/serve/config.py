"""Daemon configuration: CLI flags over ``REPRO_SERVE_*`` environment.

The precedence convention mirrors ``REPRO_CACHE``/``REPRO_FAULTS``:
an explicit CLI flag wins, then the environment variable, then the
built-in default. The environment surface is deliberately small — the
three knobs an operator sets per deployment:

``REPRO_SERVE_HOST``
    Bind address (default ``127.0.0.1``; the daemon is an internal
    service, binding wide is an explicit opt-in).
``REPRO_SERVE_PORT``
    TCP port (default ``7717``; ``0`` asks the kernel for a free port —
    the daemon announces the bound one on stdout).
``REPRO_SERVE_QUEUE_DEPTH``
    Bounded admission-queue depth (default ``16``). A POST arriving with
    the queue full is refused with ``429`` and a ``Retry-After`` hint —
    backpressure instead of unbounded buffering.
``REPRO_SERVE_SANDBOX``
    ``1``/``true``/``yes`` runs every job in the supervised subprocess
    sandbox (:mod:`repro.serve.executor`) instead of on the in-process
    worker thread. Off by default: in-process is faster and is what
    embedded tests (which install process-global fault injectors) need;
    the sandbox is the production posture.

Everything else (state directory, default budgets, sandbox limits) is
flag-only; see ``repro serve --help``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ServeConfig", "DEFAULT_HOST", "DEFAULT_PORT", "DEFAULT_QUEUE_DEPTH"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7717
DEFAULT_QUEUE_DEPTH = 16


def _env_int(environ: Mapping[str, str], key: str) -> Optional[int]:
    raw = environ.get(key)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{key} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class ServeConfig:
    """One immutable value carrying every daemon knob.

    ``state_dir`` roots all persistence: the job journal
    (``jobs.jsonl``) and the resident result cache (``rcache/``), which
    stores each obligation as it completes. ``None`` runs fully
    in-memory — still warm across requests, but nothing survives a
    restart. ``max_configs``/``timeout_per_obligation`` are *caps*: a
    job asking for more is clamped, a job asking for nothing gets the
    default — per-job budgets with an operator ceiling.
    ``drain_grace`` bounds how long a SIGTERM waits for the in-flight
    job to salvage itself before the process exits anyway.

    The ``sandbox_*`` fields configure the crash-isolation layer
    (:mod:`repro.serve.executor`): subprocess rlimits, the heartbeat
    watchdog, respawn/breaker bounds, and the optional in-process
    fallback. They only apply when ``sandbox`` is on.
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    state_dir: Optional[str] = None
    max_configs: Optional[int] = None
    timeout_per_obligation: Optional[float] = None
    drain_grace: float = 5.0
    sandbox: bool = False
    sandbox_max_rss_mb: Optional[int] = None
    sandbox_cpu_seconds: Optional[int] = None
    sandbox_recycle_after: int = 64
    sandbox_heartbeat_grace: float = 20.0
    sandbox_max_respawns: int = 2
    sandbox_breaker_threshold: int = 2
    sandbox_fallback: bool = False

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if not (0 <= self.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.sandbox_recycle_after < 1:
            raise ValueError(
                f"sandbox_recycle_after must be >= 1, "
                f"got {self.sandbox_recycle_after}"
            )
        if self.sandbox_max_respawns < 0:
            raise ValueError(
                f"sandbox_max_respawns must be >= 0, "
                f"got {self.sandbox_max_respawns}"
            )
        if self.sandbox_breaker_threshold < 1:
            raise ValueError(
                f"sandbox_breaker_threshold must be >= 1, "
                f"got {self.sandbox_breaker_threshold}"
            )

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        **overrides,
    ) -> "ServeConfig":
        """Resolve flag > environment > default, per field.

        ``overrides`` are the CLI flags; a ``None`` override means "not
        given on the command line" and falls through to the
        environment."""
        environ = os.environ if environ is None else environ
        resolved = dict(overrides)
        if resolved.get("host") is None:
            resolved["host"] = environ.get("REPRO_SERVE_HOST") or DEFAULT_HOST
        if resolved.get("port") is None:
            env_port = _env_int(environ, "REPRO_SERVE_PORT")
            resolved["port"] = DEFAULT_PORT if env_port is None else env_port
        if resolved.get("queue_depth") is None:
            env_depth = _env_int(environ, "REPRO_SERVE_QUEUE_DEPTH")
            resolved["queue_depth"] = (
                DEFAULT_QUEUE_DEPTH if env_depth is None else env_depth
            )
        if resolved.get("sandbox") is None:
            raw = environ.get("REPRO_SERVE_SANDBOX", "")
            resolved["sandbox"] = raw.strip().lower() in ("1", "true", "yes")
        resolved = {k: v for k, v in resolved.items() if v is not None}
        return cls(**resolved)
