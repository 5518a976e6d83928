"""Deterministic fault injection for the obligation-discharge engine.

CIVL's solver back end can hang, crash, or get OOM-killed, and a robust
verifier has to survive all three. Our explicit-state substitute needs a
way to *manufacture* those failures on demand — deterministically, per
obligation, for a bounded number of attempts — so the recovery machinery
in ``repro.engine.scheduler`` can be exercised by ordinary tests instead
of waiting for real crashes.

A :class:`FaultInjector` maps obligation keys to :class:`FaultSpec`
values. Both backends consult the active injector immediately before
executing an obligation, passing the current *attempt number*; a spec
fires only while ``attempt < times``, so a fault can be configured to
fail the first ``k`` attempts and then let the retry succeed — which is
what makes recovery tests deterministic.

Three fault modes:

``hang``
    Sleep for ``seconds`` (default: effectively forever) in 20 ms slices,
    polling the thread's stop state between them: an armed deadline ends
    the sleep and the obligation reports ``TIMEOUT``.
``raise``
    Raise :class:`FaultError` — the stand-in for a solver crash. In a
    pool worker the exception travels back through the future; the
    scheduler retries with backoff.
``exit``
    ``os._exit(43)`` — the stand-in for an OOM kill. Only honoured inside
    a pool worker; in the parent process (serial backend, in-parent
    degradation) it is demoted to ``raise``, because killing the parent
    would take the whole run — and the test harness — down with it.

Injectors are installed two ways, both inherited by ``fork`` workers:

* programmatically — :func:`install` sets a process-global injector
  (tests use this; the forked pool sees it through copy-on-write);
* environment — ``REPRO_FAULTS="I1=raise:2;LM[A|B]=hang"`` (``key=mode``
  or ``key=mode:times``), consulted whenever no injector is installed.

Filesystem faults
-----------------
Beyond obligation faults, the injector models *disk* failures for the
persistence layers (``repro.engine.rcache``, and
``repro.engine.recordlog`` under the serve job journal). A spec whose
mode is one of :data:`_FS_MODES` — ``enospc`` (disk full), ``eio`` (I/O
error), ``eperm`` (permission denied), ``torn`` (partial write lands on
disk, then the write errors) — is keyed by a *write site* rather than an
obligation key (``rcache.store``, ``rcache.index``, ``jobs.append``) and
consulted through :func:`maybe_fail_write` at the
moment of the write. ``times`` bounds firings per process via an
injector-internal counter (writes have no scheduler attempt number), so
``REPRO_FAULTS="rcache.store=enospc:4"`` models transient disk pressure
that clears after four failed stores.

The injector is a pure test/ops harness: with no injector installed and
``REPRO_FAULTS`` unset, :func:`active_injector` returns ``None`` and the
engine's hot path pays a single module-global read per obligation.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .resilience import poll

__all__ = [
    "FaultError",
    "FaultSpec",
    "FaultInjector",
    "install",
    "clear",
    "active_injector",
    "maybe_fs_fault",
    "maybe_fail_write",
    "fs_error",
]

#: Environment variable holding fault specs (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code used by ``exit``-mode faults, distinguishable from a normal
#: worker death in pool diagnostics.
FAULT_EXIT_CODE = 43

_MODES = ("hang", "raise", "exit", "interrupt")

#: Filesystem fault modes (see "Filesystem faults" in the module docstring).
_FS_MODES = ("enospc", "eio", "eperm", "torn")

#: errno carried by the injected OSError per fs mode. ``torn`` raises EIO
#: *after* a partial write reaches the final path — the caller performed
#: damage before learning of the failure, which is what distinguishes it
#: from a clean ``eio``.
_FS_ERRNO = {
    "enospc": errno.ENOSPC,
    "eio": errno.EIO,
    "eperm": errno.EACCES,
    "torn": errno.EIO,
}


class FaultError(RuntimeError):
    """The injected stand-in for a solver/worker crash."""


@dataclass(frozen=True)
class FaultSpec:
    """One obligation's configured fault.

    ``times`` bounds how many attempts the fault afflicts: attempts
    ``0 .. times-1`` fire, attempt ``times`` onwards run clean — so a
    spec with ``times=1`` models a transient crash that a single retry
    survives, and a large ``times`` models a persistent failure that
    exhausts the retry budget. ``seconds`` is the hang duration for
    ``hang`` mode (long enough to outlive any sane deadline by default).
    """

    key: str
    mode: str
    times: int = 1
    seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES + _FS_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; "
                f"expected one of {_MODES + _FS_MODES}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")


class FaultInjector:
    """Deterministic per-obligation fault oracle (see module docstring)."""

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.by_key: Dict[str, FaultSpec] = {}
        # fs faults have no scheduler attempt number; firings are counted
        # here so ``times`` still bounds them (per process — a respawned
        # sandbox worker re-arms its env-configured fs faults).
        self._fs_fired: Dict[str, int] = {}
        for spec in specs:
            self.by_key[spec.key] = spec

    @classmethod
    def from_env(cls, value: str) -> "FaultInjector":
        """Parse ``key=mode[:times]`` specs joined by ``;``."""
        specs = []
        for item in value.split(";"):
            item = item.strip()
            if not item:
                continue
            key, _, rest = item.partition("=")
            if not rest:
                raise ValueError(
                    f"malformed {FAULTS_ENV} entry {item!r}; "
                    f"expected key=mode or key=mode:times"
                )
            mode, _, times = rest.partition(":")
            specs.append(
                FaultSpec(
                    key=key.strip(),
                    mode=mode.strip(),
                    times=int(times) if times else 1,
                )
            )
        return cls(specs)

    def fire(self, key: str, attempt: int, in_worker: bool = True) -> None:
        """Inject the configured fault for ``key``, if any is due.

        ``attempt`` is the zero-based attempt number the scheduler is
        about to run; the spec fires only while ``attempt < times``.
        ``in_worker`` is True inside a forked pool worker — the only
        place an ``exit`` fault is honoured literally.
        """
        spec = self.by_key.get(key)
        if spec is None or spec.mode in _FS_MODES or attempt >= spec.times:
            return
        if spec.mode == "hang":
            end = time.monotonic() + spec.seconds
            while (left := end - time.monotonic()) > 0:
                poll()
                time.sleep(min(0.02, left))
            return
        if spec.mode == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt on {key}")
        if spec.mode == "exit" and in_worker:
            os._exit(FAULT_EXIT_CODE)
        # "raise", and "exit" demoted in the parent process.
        raise FaultError(f"injected {spec.mode} fault on {key}")

    def fs_fault(self, key: str) -> Optional[str]:
        """The fs fault mode due at write site ``key``, or ``None``.

        Consuming: each call that returns a mode burns one of the spec's
        ``times`` firings. The *caller* manufactures the OSError (via
        :func:`fs_error`) so the injector never touches the disk itself.
        """
        spec = self.by_key.get(key)
        if spec is None or spec.mode not in _FS_MODES:
            return None
        fired = self._fs_fired.get(key, 0)
        if fired >= spec.times:
            return None
        self._fs_fired[key] = fired + 1
        return spec.mode

    def __repr__(self) -> str:
        return f"FaultInjector({sorted(self.by_key)})"


#: The installed process-global injector (fork-inherited by workers).
_INSTALLED: Optional[FaultInjector] = None

#: Memoized parse of the last-seen ``REPRO_FAULTS`` value.
_ENV_CACHE: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install(injector: Optional[FaultInjector]) -> None:
    """Install (or with ``None``, remove) the process-global injector."""
    global _INSTALLED
    _INSTALLED = injector


def clear() -> None:
    """Remove the installed injector (environment specs still apply)."""
    install(None)


def active_injector() -> Optional[FaultInjector]:
    """The injector the schedulers should consult: the installed one,
    else one parsed from ``REPRO_FAULTS``, else ``None``."""
    if _INSTALLED is not None:
        return _INSTALLED
    value = os.environ.get(FAULTS_ENV)
    if not value:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] != value:
        _ENV_CACHE = (value, FaultInjector.from_env(value))
    return _ENV_CACHE[1]


def maybe_fs_fault(key: str) -> Optional[str]:
    """Ask the active injector (if any) for an fs fault at write site
    ``key``. The common no-injector case is one global read."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.fs_fault(key)


def maybe_fail_write(key: str, path, data, write) -> None:
    """The write-site hook: raise the OSError of an fs fault due at
    ``key``, after landing the first half of ``data`` through ``write``
    when the mode is ``torn`` — the damage a reader must then absorb.
    Returns normally when no fault is due."""
    mode = maybe_fs_fault(key)
    if mode is None:
        return
    if mode == "torn":
        try:
            write(data[: max(1, len(data) // 2)])
        except OSError:
            pass
    raise fs_error(mode, str(path))


def fs_error(mode: str, path: str = "") -> OSError:
    """Manufacture the OSError an fs fault ``mode`` stands in for."""
    code = _FS_ERRNO.get(mode, errno.EIO)
    return OSError(code, f"injected {mode}: {os.strerror(code)}", path or None)
