"""Persistent, content-addressed obligation result cache.

The obligation DAG (``repro.engine.obligations``) decomposes one IS
application into independent proof obligations, each of which reads a
*small* slice of the application: an abstraction check reads one program
action and its abstraction, I1 reads ``M`` and the invariant, an LM cell
reads one abstraction and one program action, and so on. This module
keys each obligation's result by a **per-obligation dependency
fingerprint**: a content hash of

* the engine schema version (:data:`RCACHE_SCHEMA`),
* the obligation's kind, key, and instance parameters,
* a structural hash of every action/gate/predicate the obligation
  transitively reads (closures are hashed by bytecode, constants,
  closure-cell contents, and referenced globals — not by identity), and
* a fingerprint of the store universe (order-insensitive over the
  globals and per-action locals pools).

A :class:`ObligationCache` maps fingerprints to completed
:class:`~repro.core.refinement.CheckResult` payloads on disk. On the next
run, ``discharge()`` recomputes each obligation's fingerprint: an exact
match means *nothing the obligation reads has changed*, so its recorded
verdict (witnesses included) is still the answer — the obligation is
seeded into the fail-fast verdict map and never executed. Any edit to a
gate, transition, predicate, measure, or universe changes the hash of
every obligation that reads it, and only those re-execute.

**Soundness** rests on the read-set being an *over-approximation*: the
fingerprint covers at least everything ``execute_obligation`` evaluates
for that kind (see :class:`DependencyFingerprinter`). When a value
resists structural hashing — an object whose only rendering is an
address-carrying ``repr`` — the hasher raises :class:`Unfingerprintable`
and the obligation is simply *uncacheable*: it always executes. Unknown
never means "reuse".

The cache directory layout is write-once, content-addressed::

    DIR/objects/<fingerprint>.json   one completed obligation each
    DIR/index.json                   obligation identity -> last fingerprint

The identity index is bookkeeping only (it attributes a miss to
*invalidation* — same obligation, changed content — rather than a cold
store) and is never consulted to answer a lookup; corrupt or missing
entries degrade to misses, never to wrong verdicts. Entry writes are
atomic (temp file + rename), so a killed run leaves no torn objects.

**Resume.** ``discharge`` stores each outcome the moment it completes,
so re-running a killed run with the same cache directory *is* the
resume. A crash mid-write leaves no entry, a stray temp file (never
read; :meth:`gc` sweeps it once its writer is dead), or a whole entry; a
torn final file (the ``torn`` fault) fails to decode and is a miss.

**Disk faults degrade, never abort.** Every write path — entry store,
index flush, even creating the cache directory — tolerates ``OSError``
(``ENOSPC``, ``EIO``, permissions): the failed write is counted in
``stats.write_errors`` (printed by ``--cache-stats``; ``discharge``
adds one ``rcache-write-error`` resilience event), and the run continues
with the entry simply *not cached*. This is sound
for the same reason a cold cache is sound: a missing entry can only
cause re-execution, never a wrong verdict (see DESIGN, "Why degraded
writes preserve soundness").

**Quota.** ``REPRO_CACHE_MAX_MB`` (or ``ObligationCache(..., max_mb=)``)
caps the objects directory; :meth:`gc` evicts least-recently-*used*
entries first (hits refresh mtime) until under the cap, and stores
auto-GC periodically when a quota is set. ``repro cache stats|gc``
exposes both from the CLI.

**Sharing.** Two daemons may share one cache directory: the identity
index is flushed under an advisory ``flock`` after merging the on-disk
index (last writer wins per identity, nobody tears the file), and entry
objects are content-addressed so concurrent writers racing on the same
fingerprint write identical bytes.

Each obligation's cache decision (hit, miss, invalidation or
uncacheable) rides on its obligation span, derived *after* discharge,
preserving the tracing layer's no-perturbation guarantee.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import json
import os
import pickle
import re
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.cache import EvaluationCache
from ..core.columnar import ColumnarStore
from ..core.mapping import FrozenDict
from ..core.multiset import Multiset
from ..core.program import Program
from ..core.refinement import CheckResult
from ..core.store import Store, StoreInterner
from . import faults

try:  # advisory inter-process locking; absent on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only dependency
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "RCACHE_SCHEMA",
    "CACHE_MAX_MB_ENV",
    "Unfingerprintable",
    "stable_digest",
    "universe_fingerprint",
    "DependencyFingerprinter",
    "RcacheStats",
    "CacheEntry",
    "ObligationCache",
]

#: Bump on any change to the fingerprint recipe or the entry layout —
#: it is hashed into every fingerprint, so old entries become misses.
RCACHE_SCHEMA = "repro.engine/rcache/v1"

#: Environment variable holding the cache size quota in megabytes.
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Stores between automatic GC passes when a quota is configured.
_GC_EVERY = 32

#: Recursion bound for the structural hasher. Deep enough for every
#: closure/action graph in the repo; a runaway structure degrades to
#: :class:`Unfingerprintable` (uncacheable), never to a wrong hash.
_MAX_DEPTH = 64

_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")

#: Hashable repro value types whose digests are memoized per hasher —
#: ghost multisets repeat :class:`PendingAsync` values across thousands
#:  of stores, so the memo turns the universe fingerprint near-linear.
_MEMO_TYPES = (Store, Multiset, FrozenDict, PendingAsync, Transition, Action)

#: Memoization infrastructure: pure caches over pure functions, whose
#: contents are a record of *what was evaluated*, never an input to what
#: any obligation computes. Digested as a bare class token — ``combine``
#: references the process :class:`StoreInterner` as a module global, and
#: hashing the table's contents would churn every function digest that
#: (transitively) mentions ``combine`` as caches fill.
_MEMO_INFRA = (StoreInterner, ColumnarStore, EvaluationCache)


class Unfingerprintable(Exception):
    """A value the structural hasher cannot render deterministically
    (e.g. an object whose only rendering carries a memory address).
    Obligations reading such a value are uncacheable — a safe default."""


def _feed(digest, parts) -> None:
    for part in parts:
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x1f")


def _hex(*parts: str) -> str:
    # ``_feed`` inlined: this runs once per digested node.
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "surrogatepass"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _code_names(code) -> set:
    """Every global name referenced by ``code`` or a nested code const."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


class _Hasher:
    """One structural-hashing session (shared digest memo).

    Functions and code objects are digested at most once per session,
    memoized by identity (the entry holds the object, so its id cannot
    be reused while the session lives). A digest is kept only if no
    ``cycle`` token was produced while computing it: a recursive
    function's digest depends on where its cycle closes, and so on the
    order it was requested in. The memo dies with the session, so an
    in-place edit (a closure cell, ``__code__``) between two sessions is
    always seen.
    """

    def __init__(self) -> None:
        self._memo: Dict[object, str] = {}
        self._by_identity: Dict[int, Tuple[object, str]] = {}
        #: ``cycle`` tokens produced so far in this session.
        self._cycles = 0

    def digest(self, obj, path: Tuple[int, ...] = (), depth: int = 0) -> str:
        if depth > _MAX_DEPTH:
            raise Unfingerprintable(
                f"structure deeper than {_MAX_DEPTH} levels"
            )
        # Scalars first: cheap, and never part of a cycle.
        if obj is None:
            return _hex("none")
        if isinstance(obj, int):
            # Bools digest as their int value: False == 0 and True == 1
            # as dict/set/multiset keys, so which spelling survives key
            # collapse is insertion-order noise the digest must not see.
            return _hex("int", str(int(obj)))
        if isinstance(obj, float):
            return _hex("float", repr(obj))
        if isinstance(obj, str):
            return _hex("str", obj)
        if isinstance(obj, bytes):
            return _hex("bytes", obj.hex())
        if id(obj) in path:
            # Deterministic cycle token: the digest depends on *where*
            # the cycle closes, which is itself structural.
            self._cycles += 1
            return _hex("cycle")
        memoizable = isinstance(obj, _MEMO_TYPES)
        if memoizable:
            hit = self._memo.get(obj)
            if hit is not None:
                return hit
        out = self._compound(obj, path + (id(obj),), depth + 1)
        if memoizable:
            self._memo[obj] = out
        return out

    def _compound(self, obj, path, depth) -> str:
        dig = lambda x: self.digest(x, path, depth)  # noqa: E731
        if isinstance(obj, _MEMO_INFRA):
            return _hex("class", type(obj).__module__, type(obj).__qualname__)
        if isinstance(obj, tuple):
            return _hex("tuple", *[dig(x) for x in obj])
        if isinstance(obj, list):
            return _hex("list", *[dig(x) for x in obj])
        if isinstance(obj, (set, frozenset)):
            return _hex("set", *sorted(dig(x) for x in obj))
        if isinstance(obj, dict):
            pairs = sorted((dig(k), dig(v)) for k, v in obj.items())
            return _hex("dict", *[p for kv in pairs for p in kv])
        if isinstance(obj, Store):
            parts = []
            for key, value in sorted(obj.items()):
                parts.append(key)
                parts.append(dig(value))
            return _hex("Store", *parts)
        if isinstance(obj, Multiset):
            entries = sorted(
                (dig(elem), count) for elem, count in obj.counts()
            )
            return _hex(
                "Multiset", *[f"{d}*{n}" for d, n in entries]
            )
        if isinstance(obj, FrozenDict):
            pairs = sorted((dig(k), dig(v)) for k, v in obj.items())
            return _hex("FrozenDict", *[p for kv in pairs for p in kv])
        if isinstance(obj, Program):
            parts = ["globals:" + ",".join(obj.global_vars)]
            for name, action in sorted(obj.actions()):
                parts.append(name)
                parts.append(dig(action))
            return _hex("Program", *parts)
        if isinstance(obj, types.CodeType):
            return self._code(obj, path, depth)
        if isinstance(obj, types.FunctionType):
            return self._function(obj, path, depth)
        if isinstance(obj, (types.BuiltinFunctionType, types.BuiltinMethodType)):
            return _hex(
                "builtin", getattr(obj, "__module__", "") or "", obj.__qualname__
            )
        if isinstance(obj, types.MethodType):
            return _hex("method", dig(obj.__func__), dig(obj.__self__))
        if isinstance(obj, functools.partial):
            return _hex(
                "partial",
                dig(obj.func),
                dig(obj.args),
                dig(dict(obj.keywords)),
            )
        if isinstance(obj, functools._lru_cache_wrapper):
            return _hex("lru_cache", dig(obj.__wrapped__))
        if isinstance(obj, types.ModuleType):
            # Modules are hashed by *name*, not content: an edit inside a
            # module referenced only as a namespace is invisible here.
            # The protocol pipelines reference module members directly
            # (which hash structurally); see DESIGN.md for the caveat.
            return _hex("module", obj.__name__)
        if isinstance(obj, type):
            return _hex("class", obj.__module__, obj.__qualname__)
        if dataclasses.is_dataclass(obj):
            parts = [type(obj).__module__, type(obj).__qualname__]
            for f in dataclasses.fields(obj):
                parts.append(f.name)
                parts.append(dig(getattr(obj, f.name)))
            return _hex("dataclass", *parts)
        module = getattr(type(obj), "__module__", "") or ""
        if module.startswith("repro") and hasattr(obj, "__dict__"):
            # Repro-internal value objects (e.g. PA contexts): hash the
            # declared instance state under the class identity.
            parts = [type(obj).__module__, type(obj).__qualname__]
            for name in sorted(vars(obj)):
                parts.append(name)
                parts.append(dig(vars(obj)[name]))
            return _hex("object", *parts)
        rendering = repr(obj)
        if _ADDRESS_RE.search(rendering):
            raise Unfingerprintable(
                f"{type(obj).__module__}.{type(obj).__qualname__} has no "
                f"address-free rendering: {rendering!r}"
            )
        return _hex("repr", type(obj).__qualname__, rendering)

    def _code(self, code, path, depth) -> str:
        """Bytecode-level code-object hash. Line/column tables and the
        file name are deliberately excluded: moving a function does not
        change what it computes. Nested code consts recurse."""
        hit = self._by_identity.get(id(code))
        if hit is not None:
            return hit[1]
        cycles = self._cycles
        parts = [
            str(code.co_argcount),
            str(code.co_posonlyargcount),
            str(code.co_kwonlyargcount),
            str(code.co_flags),
            code.co_code.hex(),
            ",".join(code.co_names),
            ",".join(code.co_varnames),
            ",".join(code.co_freevars),
            ",".join(code.co_cellvars),
        ]
        for const in code.co_consts:
            parts.append(self.digest(const, path, depth))
        return self._remember(code, cycles, _hex("code", *parts))

    def _remember(self, obj, cycles: int, out: str) -> str:
        """Memoize ``obj``'s digest ``out`` unless a ``cycle`` token was
        produced since the session counted ``cycles``."""
        if self._cycles == cycles:
            self._by_identity[id(obj)] = (obj, out)
        return out

    def _function(self, fn, path, depth) -> str:
        hit = self._by_identity.get(id(fn))
        if hit is not None:
            return hit[1]
        cycles = self._cycles
        dig = lambda x: self.digest(x, path, depth)  # noqa: E731
        parts = [self._code(fn.__code__, path, depth)]
        parts.append(dig(fn.__defaults__))
        parts.append(dig(fn.__kwdefaults__))
        for cell in fn.__closure__ or ():
            try:
                contents = cell.cell_contents
            except ValueError:
                parts.append(_hex("emptycell"))
                continue
            parts.append(dig(contents))
        # Referenced globals: any name the (nested) bytecode loads that
        # resolves in the function's module namespace is part of what the
        # function computes. Builtins resolve elsewhere and are skipped.
        for name in sorted(_code_names(fn.__code__)):
            if name in fn.__globals__:
                parts.append(name)
                parts.append(dig(fn.__globals__[name]))
        return self._remember(fn, cycles, _hex("function", *parts))


def stable_digest(obj) -> str:
    """Deterministic structural sha256 of ``obj`` (hex).

    Stable across process restarts, ``PYTHONHASHSEED`` values, dict
    insertion orders, and set iteration orders; sensitive to every field
    of the value, including closure bytecode, closure-cell contents,
    default arguments, and referenced module globals. Raises
    :class:`Unfingerprintable` for values with no deterministic
    rendering.
    """
    return _Hasher().digest(obj)


def universe_fingerprint(universe, hasher: Optional[_Hasher] = None) -> str:
    """Order-insensitive fingerprint of a store universe.

    Hashes the *set* of global stores, the per-action locals pools (by
    action name, each pool as a set), and the PA context — the same
    inputs every obligation enumerates. Iteration order of the pools does
    not matter (``from_reachable`` sorts stores anyway, but samplers need
    not).

    The pools are immutable stores, so their digest is taken once per
    universe object and kept on it (``StoreUniverse._pools_digest``).
    The context and symmetry parts hold closures whose cells may change
    between runs: they are digested on every call.
    """
    hasher = hasher or _Hasher()
    pools = universe._pools_digest
    if pools is None:
        parts = ["universe", "globals"]
        parts.extend(
            sorted(hasher.digest(store) for store in universe.globals_)
        )
        for name in sorted(universe.locals_by_action):
            parts.append("locals:" + name)
            parts.extend(
                sorted(
                    hasher.digest(store)
                    for store in universe.locals_by_action[name]
                )
            )
        pools = hashlib.sha256()
        _feed(pools, parts)
        universe._pools_digest = pools
    digest = pools.copy()
    parts = ["context", hasher.digest(universe.context)]
    symmetry = getattr(universe, "symmetry", None)
    if symmetry is not None:
        # A quotiented universe must never alias its unquotiented twin
        # (or a quotient under a different group): digest the spec's
        # domains *and* rename-rule closures, not just its name.
        parts.append("symmetry")
        parts.append(hasher.digest(symmetry.fingerprint_parts()))
    _feed(digest, parts)
    return digest.hexdigest()


class DependencyFingerprinter:
    """Per-obligation dependency fingerprints for one (app, universe).

    The read-set rules mirror :func:`~repro.engine.obligations.execute_obligation`
    kind by kind, *over-approximating* what each obligation evaluates:

    * ``abs[A]`` reads ``P[A]`` and ``α(A)``;
    * ``I1`` reads ``P[M]`` and the invariant;
    * ``I2`` reads the invariant, ``E``, and ``M'`` (a canonical token
      when ``M'`` is derived from the invariant — it then carries no
      information beyond the invariant itself);
    * ``I3`` reads the invariant, the choice function, and ``α(e)`` for
      *every* eliminated action; its literal tokens keep the
      ``(0, len(globals))`` params, so stored I3 entries stay addressable;
    * ``LM`` reads ``α(A)`` and the right-hand program action;
    * ``CO[A]`` reads ``α(A)`` and the termination measure.

    ``α(A)`` falls back to ``P[A]`` for unabstracted eliminated actions,
    exactly like :meth:`ISApplication.abstraction_of` — so editing such
    an action reaches its I3/LM/CO obligations too. Every fingerprint
    additionally covers the universe fingerprint, the schema version, and
    the obligation key. A dependency that cannot be hashed makes the
    obligation uncacheable (``fingerprint`` returns ``None``).
    """

    def __init__(self, app, universe):
        self.app = app
        self._hasher = _Hasher()
        self._memo: Dict[str, Optional[str]] = {}
        try:
            self._universe_fp: Optional[str] = universe_fingerprint(
                universe, self._hasher
            )
        except Unfingerprintable:
            self._universe_fp = None
        self._frame = _hex(
            "frame",
            getattr(app, "m_name", "") or "",
            ",".join(getattr(app, "eliminated", ()) or ()),
            ",".join(sorted(getattr(app, "abstractions", {}) or {})),
            ",".join(app.program.action_names()) if app is not None else "",
            str(len(universe.globals_) if universe is not None else 0),
        )

    def _dep(self, label: str, obj) -> Optional[str]:
        if label not in self._memo:
            try:
                self._memo[label] = self._hasher.digest(obj)
            except Unfingerprintable:
                self._memo[label] = None
        return self._memo[label]

    def _reads(self, ob) -> Tuple[List[Tuple[str, object]], List[str]]:
        """(hashed dependencies, literal tokens) for one obligation."""
        app = self.app
        kind = ob.kind
        if kind == "abs":
            name = ob.params[0]
            return (
                [
                    (f"program:{name}", app.program[name]),
                    (f"abstraction:{name}", app.abstractions[name]),
                ],
                [],
            )
        if kind == "I1":
            return (
                [
                    (f"program:{app.m_name}", app.program[app.m_name]),
                    ("invariant", app.invariant),
                ],
                [f"m={app.m_name}"],
            )
        if kind == "I2":
            deps = [("invariant", app.invariant)]
            tokens = ["E=" + ",".join(app.eliminated)]
            if getattr(app, "_m_prime_canonical", False):
                tokens.append("m_prime=canonical")
            else:
                deps.append(("m_prime", app.m_prime))
            return deps, tokens
        if kind == "I3":
            deps = [("invariant", app.invariant), ("choice", app.choice)]
            for name in app.eliminated:
                deps.append((f"alpha:{name}", app.abstraction_of(name)))
            return deps, [
                "E=" + ",".join(app.eliminated),
                f"m={app.m_name}",
                f"params={ob.params!r}",
            ]
        if kind == "LM":
            name, other = ob.params
            return (
                [
                    (f"alpha:{name}", app.abstraction_of(name)),
                    (f"program:{other}", app.program[other]),
                ],
                [f"params={ob.params!r}"],
            )
        if kind == "CO":
            name = ob.params[0]
            return (
                [
                    (f"alpha:{name}", app.abstraction_of(name)),
                    ("measure", app.measure),
                ],
                [],
            )
        raise ValueError(f"unknown obligation kind {kind!r}")

    def fingerprint(self, ob) -> Optional[str]:
        """Content hash keying ``ob``'s result, or ``None`` (uncacheable)."""
        if self._universe_fp is None:
            return None
        parts = [
            RCACHE_SCHEMA,
            f"kind={ob.kind}",
            f"key={ob.key}",
            f"universe={self._universe_fp}",
        ]
        deps, tokens = self._reads(ob)
        for label, obj in deps:
            digest = self._dep(label, obj)
            if digest is None:
                return None
            parts.append(f"{label}={digest}")
        parts.extend(tokens)
        return _hex("obligation", *parts)

    def identity(self, ob) -> str:
        """Content-*independent* identity of ``ob`` — the application
        frame (names only) plus the obligation key. Two runs of the same
        proof share identities even after an edit, which is what lets the
        cache tell *invalidation* (same identity, new fingerprint) apart
        from a cold miss."""
        return _hex("identity", self._frame, ob.key)


@dataclass
class CacheEntry:
    """One stored obligation outcome: enough to rebuild the
    ``CheckResult`` and seed the fail-fast verdict map. The record is
    JSON; witnesses are a base64-wrapped pickle of the typed
    counterexample list (the envelope greppable, the payload exact)."""

    key: str
    holds: bool
    checked: int
    name: str
    elapsed: float
    attempts: int
    witnesses_b64: Optional[str] = None

    @staticmethod
    def record_of(outcome) -> dict:
        """The JSON record of one completed scheduler outcome."""
        result = outcome.result
        return {
            "key": outcome.key,
            "name": result.name,
            "holds": result.holds,
            "checked": result.checked,
            "elapsed": round(outcome.elapsed, 6),
            "attempts": getattr(outcome, "attempts", 1),
            "witnesses": (
                base64.b64encode(pickle.dumps(result.counterexamples)).decode()
                if result.counterexamples
                else None
            ),
        }

    @classmethod
    def from_record(cls, record: dict) -> "CacheEntry":
        """Decode one record; raises on anything malformed — the witness
        payload included, which must decode now, not at merge time."""
        entry = cls(
            key=record["key"],
            holds=bool(record["holds"]),
            checked=int(record["checked"]),
            name=record["name"],
            elapsed=float(record.get("elapsed", 0.0)),
            attempts=int(record.get("attempts", 1)),
            witnesses_b64=record.get("witnesses"),
        )
        entry.to_result()
        return entry

    def to_result(self) -> CheckResult:
        counterexamples: List = []
        if self.witnesses_b64:
            counterexamples = pickle.loads(base64.b64decode(self.witnesses_b64))
        return CheckResult(
            self.name, self.holds, counterexamples, checked=self.checked
        )


@dataclass
class RcacheStats:
    """Counters for one :class:`ObligationCache` (cumulative across
    every discharge that shared the cache object)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    stores: int = 0
    uncacheable: int = 0
    #: Failed disk writes (entry store, index flush, directory create),
    #: each degraded to a non-store instead of aborting the run.
    write_errors: int = 0
    #: Entries evicted by :meth:`ObligationCache.gc` (LRU quota).
    gc_removed: int = 0
    gc_runs: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def delta(self, before: Optional[Dict[str, int]]) -> Dict[str, int]:
        now = self.snapshot()
        if not before:
            return now
        return {k: now[k] - before.get(k, 0) for k in now}


_INDEX_SCHEMA_KEY = "schema"


class ObligationCache:
    """Content-addressed store of completed obligation results.

    One instance may serve many ``discharge()`` calls (a whole protocol
    pipeline, or a full Table 1 sweep); ``stats`` accumulate across them
    and callers snapshot per discharge.
    """

    def __init__(self, directory, max_mb: Optional[float] = None):
        self.directory = Path(directory)
        self.objects_dir = self.directory / "objects"
        self.index_path = self.directory / "index.json"
        self.lock_path = self.directory / ".lock"
        self.stats = RcacheStats()
        #: Set when the cache directory itself cannot be created — every
        #: lookup is then a miss and every store a counted write_error.
        self.disabled = False
        #: flush()/gc() attempts that could not take the advisory lock.
        self.lock_timeouts = 0
        if max_mb is None:
            raw = os.environ.get(CACHE_MAX_MB_ENV, "").strip()
            if raw:
                try:
                    max_mb = float(raw)
                except ValueError:
                    max_mb = None
        self.max_mb = max_mb if max_mb and max_mb > 0 else None
        self._stores_since_gc = 0
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True
            self.stats.write_errors += 1
        self._index: Dict[str, str] = self._load_index()
        self._index_dirty = False

    @classmethod
    def ensure(cls, cache) -> Optional["ObligationCache"]:
        """Normalize a ``cache=`` argument: ``None`` passes through, an
        :class:`ObligationCache` is returned as-is, and a path-like
        opens (creating) a cache at that directory."""
        if cache is None or isinstance(cache, cls):
            return cache
        return cls(cache)

    # ------------------------------------------------------------------ #
    # Index
    # ------------------------------------------------------------------ #

    def _load_index(self) -> Dict[str, str]:
        try:
            payload = json.loads(self.index_path.read_text())
            if payload.get(_INDEX_SCHEMA_KEY) != RCACHE_SCHEMA:
                return {}
            identities = payload.get("identities", {})
            return {str(k): str(v) for k, v in identities.items()}
        except FileNotFoundError:
            return {}
        except Exception:
            # A corrupt index only costs invalidation *attribution*
            # (invalidations will count as plain misses), never verdicts.
            return {}

    def flush(self) -> None:
        """Persist the identity index (atomic write, advisory lock).

        The on-disk index is re-read and merged under the lock (our
        entries win) so two daemons sharing the directory union their
        identity maps instead of clobbering each other. A failed write
        leaves the index dirty (a later flush retries) and counts a
        ``write_error``; an unobtainable lock skips this flush entirely —
        the index is attribution bookkeeping, never verdicts.
        """
        if not self._index_dirty or self.disabled:
            return
        lock = self._acquire_lock()
        if lock is None and fcntl is not None:
            self.lock_timeouts += 1
            return
        try:
            merged = self._load_index()
            merged.update(self._index)
            self._index = merged
            payload = {
                _INDEX_SCHEMA_KEY: RCACHE_SCHEMA,
                "identities": dict(sorted(self._index.items())),
            }
            try:
                self._atomic_write(
                    self.index_path,
                    json.dumps(payload, indent=0),
                    fault_key="rcache.index",
                )
            except OSError:
                self.stats.write_errors += 1
                return
            self._index_dirty = False
        finally:
            self._release_lock(lock)

    def _acquire_lock(self, timeout: float = 2.0):
        """Advisory inter-process lock on the cache dir, or ``None``.

        Best-effort by design: platforms without ``fcntl`` (or a lock
        file that cannot even be opened) proceed unlocked — the atomic
        rename still prevents torn files, locking only prevents lost
        index merges between concurrent daemons.
        """
        if fcntl is None:
            return None
        try:
            handle = open(self.lock_path, "a+")
        except OSError:
            return None
        deadline = time.monotonic() + timeout
        while True:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                return handle
            except OSError:
                if time.monotonic() >= deadline:
                    handle.close()
                    return None
                time.sleep(0.02)

    def _release_lock(self, handle) -> None:
        if handle is None:
            return
        try:
            fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError:
            pass
        handle.close()

    def _atomic_write(
        self, path: Path, text: str, fault_key: Optional[str] = None
    ) -> None:
        if fault_key is not None:
            # A torn fault damages the *final* path, not the temp file:
            # the worst case the read side must absorb (it does:
            # undecodable entries are misses).
            faults.maybe_fail_write(fault_key, path, text, path.write_text)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #

    def miss_kind(self, fingerprint: str, identity: str) -> str:
        """``"invalidation"`` when ``identity`` was last stored under a
        *different* fingerprint (its content changed), else ``"miss"``."""
        known = self._index.get(identity)
        if known is not None and known != fingerprint:
            return "invalidation"
        return "miss"

    def lookup(
        self, fingerprint: str, identity: str, key: str
    ) -> Optional[CacheEntry]:
        """The completed outcome stored under ``fingerprint``, or ``None``.

        Corrupt, missing, mismatched, or undecodable entries are misses,
        counted as plain misses or invalidations (:meth:`miss_kind`).
        """
        entry = self._read_entry(fingerprint, key)
        if entry is not None:
            self.stats.hits += 1
            try:
                # Refresh mtime so quota GC evicts least-recently-*used*,
                # not least-recently-written. Best-effort.
                os.utime(self.objects_dir / f"{fingerprint}.json")
            except OSError:
                pass
            return entry
        if self.miss_kind(fingerprint, identity) == "invalidation":
            self.stats.invalidations += 1
        else:
            self.stats.misses += 1
        return None

    def _read_entry(self, fingerprint: str, key: str) -> Optional[CacheEntry]:
        path = self.objects_dir / f"{fingerprint}.json"
        try:
            record = json.loads(path.read_text())
            if record.get("schema") != RCACHE_SCHEMA:
                return None
            if record.get("key") != key or record.get("fingerprint") != fingerprint:
                # sha256 collision, a moved file or tampering; never
                # trust it.
                return None
            return CacheEntry.from_record(record)
        except FileNotFoundError:
            return None
        except Exception:
            return None

    def store(self, fingerprint: str, identity: str, key: str, outcome) -> bool:
        """Persist one *completed* scheduler outcome; True when written.

        Only genuine verdicts are stored: skipped, timed-out, crashed,
        and cache-hit outcomes are not (the first three must re-attempt;
        the last is already on disk).

        A disk failure (``ENOSPC``/``EIO``/permissions) never propagates:
        the entry degrades to a future miss and ``stats.write_errors``
        counts it — the verify run itself is unaffected.
        """
        result = getattr(outcome, "result", None)
        if result is None or getattr(outcome, "cached", False) or self.disabled:
            return False
        record = {
            "schema": RCACHE_SCHEMA,
            "fingerprint": fingerprint,
            **CacheEntry.record_of(outcome),
        }
        try:
            self._atomic_write(
                self.objects_dir / f"{fingerprint}.json",
                json.dumps(record),
                fault_key="rcache.store",
            )
        except OSError:
            self.stats.write_errors += 1
            return False
        self._index[identity] = fingerprint
        self._index_dirty = True
        self.stats.stores += 1
        if self.max_mb is not None:
            self._stores_since_gc += 1
            if self._stores_since_gc >= _GC_EVERY:
                self.gc()
        return True

    # ------------------------------------------------------------------ #
    # Quota / GC
    # ------------------------------------------------------------------ #

    def _temps(self, stale_only: bool = False) -> List[Path]:
        """``.<name>.<pid>.tmp`` files of writes that never reached their
        rename; with ``stale_only``, those whose writer is dead or that
        are over an hour old (the pid may have been reused)."""
        found = []
        for path in [*self.directory.glob(".*.tmp"), *self.objects_dir.glob(".*.tmp")]:
            try:
                if stale_only and time.time() - path.stat().st_mtime < 3600:
                    os.kill(int(path.name.rsplit(".", 2)[-2]), 0)  # writer alive?
                    continue
            except (ValueError, ProcessLookupError):
                pass  # no such writer
            except OSError:
                continue  # gone already, or its writer runs as another user
            found.append(path)
        return found

    def size_info(self) -> Dict[str, object]:
        """On-disk footprint: entry count, bytes, leftover temp files, and
        the quota (if any)."""
        entries = 0
        total = 0
        try:
            for path in self.objects_dir.glob("*.json"):
                try:
                    total += path.stat().st_size
                    entries += 1
                except OSError:
                    continue
        except OSError:
            pass
        return {
            "entries": entries,
            "bytes": total,
            "temps": len(self._temps()),
            "max_mb": self.max_mb,
            "disabled": self.disabled,
        }

    def gc(self, max_mb: Optional[float] = None) -> Dict[str, int]:
        """Evict least-recently-used entries until under the quota.

        ``max_mb`` overrides the configured quota for this pass. Eviction
        order is mtime (hits refresh it — see :meth:`lookup`), so warm
        entries survive cold ones. Deleting an entry another process is
        mid-read is safe: its read degrades to a miss. Every pass first
        sweeps stale temp files (:meth:`_temps`). Returns ``{"removed": n,
        "freed_bytes": b, "temps": t}``.
        """
        self._stores_since_gc = 0
        temps = 0
        for path in () if self.disabled else self._temps(stale_only=True):
            try:
                path.unlink()
                temps += 1
            except OSError:
                pass
        limit = max_mb if max_mb is not None else self.max_mb
        if limit is None or self.disabled:
            return {"removed": 0, "freed_bytes": 0, "temps": temps}
        budget = int(limit * 1024 * 1024)
        entries = []
        total = 0
        try:
            candidates = list(self.objects_dir.glob("*.json"))
        except OSError:
            return {"removed": 0, "freed_bytes": 0, "temps": temps}
        for path in candidates:
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        removed = 0
        freed = 0
        if total > budget:
            self.stats.gc_runs += 1
            lock = self._acquire_lock()
            try:
                for _, size, path in sorted(entries):
                    if total - freed <= budget:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += 1
                    freed += size
            finally:
                self._release_lock(lock)
            self.stats.gc_removed += removed
        return {"removed": removed, "freed_bytes": freed, "temps": temps}

    def __len__(self) -> int:
        """Entries on disk (cheap directory scan; tests and stats only)."""
        try:
            return sum(1 for _ in self.objects_dir.glob("*.json"))
        except OSError:
            return 0

    def __repr__(self) -> str:
        return (
            f"ObligationCache({self.directory}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"invalidations={self.stats.invalidations})"
        )
