"""Resident warm state for verification-as-a-service.

Every one-shot ``repro verify`` pays the same cold-start tax: the
reachable store universe is rebuilt, the interner/evaluation/columnar
caches refill from empty, and the persistent result cache is re-opened
and re-fingerprinted from disk. A long-running daemon (``repro serve``)
amortizes all of it by keeping one :class:`WarmState` alive across
requests:

* one :class:`~repro.engine.rcache.ObligationCache` instance (the
  content-addressed result store) whose in-memory identity index stays
  loaded;
* the pre-built store universes, keyed per protocol instance — the
  enumeration is deterministic, so the universe (with its interned
  gids list already built by earlier requests) is reused verbatim. The
  maps are the in-memory front of the result cache's universe and stage
  entries: only a miss here reads (or writes) the disk, so a recycled
  sandbox worker loads its universes instead of exploring them;
* the chained IS applications themselves, so gate/transition *objects*
  are stable across requests and the universe memos keyed by them keep
  hitting instead of growing;
* the derived pipeline stages (sequential spec, ground truth) that are
  pure functions of the protocol instance;
* per resident ``(app, universe)`` pair, each obligation's
  ``(fingerprint, identity)``, and a bounded in-memory front of the
  result-cache entries read or stored, keyed by ``(fingerprint,
  obligation key)``: a repeated request neither fingerprints nor reads
  the disk.

Soundness: every entry is keyed by the full instance identity —
protocol name, instance parameters, IS label, and exploration budget —
and the cached values are outputs of deterministic pure constructions
over those keys. Reuse can therefore never change a verdict, only skip
recomputation; obligation *results* are additionally guarded by the
result cache's per-obligation dependency fingerprints
(``repro.engine.rcache``), which hash actual gate/transition content.
The fingerprint memo trusts what the universe memo does: resident
objects are never edited in place (a closure cell changed under a
resident pair is not seen until ``forget()``). The entry front is
content-addressed, so it is sound in any scope. ``tests/serve/test_warm.py``
holds warm re-runs to typed-identical reports against cold ones, and
``tests/engine/test_rcache_fingerprint.py`` every memoized fingerprint
to a fresh fingerprinter's.

The maps are bounded (:attr:`WarmState.max_entries`, FIFO eviction) so a
client sweeping instance parameters cannot grow the daemon without
bound. Warm state is *not* thread-safe: the daemon discharges one job at
a time (the admission queue serializes), which is also what keeps the
process-level interner/columnar caches coherent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .rcache import CacheEntry, ObligationCache

__all__ = ["WarmState", "WarmStats"]

#: Bound on the in-memory front of result-cache entries (entries, not
#: bytes; a passing obligation's entry is a few hundred bytes).
FRONT_ENTRIES = 4096


@dataclass
class WarmStats:
    """Hit/build counters for the resident maps, per kind."""

    universe_hits: int = 0
    universe_builds: int = 0
    stage_hits: int = 0
    stage_computes: int = 0
    pipeline_hits: int = 0
    pipeline_builds: int = 0
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "universe_hits": self.universe_hits,
            "universe_builds": self.universe_builds,
            "stage_hits": self.stage_hits,
            "stage_computes": self.stage_computes,
            "pipeline_hits": self.pipeline_hits,
            "pipeline_builds": self.pipeline_builds,
            "evictions": self.evictions,
        }


@dataclass
class WarmState:
    """Hot verification state kept resident across requests.

    ``rcache`` is the shared result cache (or ``None`` when the daemon
    runs cacheless). ``verify_protocol`` runs every verification against
    one: a cold run against a fresh state, a daemon request
    (``RunOptions(warm=...)``) against the resident one, which consults
    the three memo maps and — crucially — *skips the per-run
    process-cache reset*: the interner, evaluation memos, and columnar
    tables stay warm across requests. That is sound because all three are
    content-addressed (interning is structural, memos key by intern
    ids), and bounded because the request mix revisits the same
    protocol instances; see the module docstring.
    """

    rcache: Optional[ObligationCache] = None
    max_entries: int = 64
    stats: WarmStats = field(default_factory=WarmStats)

    def __post_init__(self) -> None:
        self.rcache = ObligationCache.ensure(self.rcache)
        self._universes: "OrderedDict[Tuple, object]" = OrderedDict()
        self._stages: "OrderedDict[Tuple, object]" = OrderedDict()
        self._pipelines: "OrderedDict[Tuple, object]" = OrderedDict()
        #: ``(id(app), id(universe))`` -> ``(app, universe, {key: pair})``
        #: for resident universes only; dropped with the universe.
        self._fingerprints: Dict[Tuple[int, int], Tuple] = {}
        self._front: "OrderedDict[Tuple[str, str], CacheEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Memo maps
    # ------------------------------------------------------------------ #

    def _memo(
        self,
        table: OrderedDict,
        key: Tuple,
        build: Callable,
        hits: str,
        builds: str,
    ):
        if key in table:
            setattr(self.stats, hits, getattr(self.stats, hits) + 1)
            return table[key]
        value = build()
        setattr(self.stats, builds, getattr(self.stats, builds) + 1)
        table[key] = value
        while len(table) > self.max_entries:
            _, evicted = table.popitem(last=False)
            self.stats.evictions += 1
            if table is self._universes:
                self._fingerprints = {
                    pair: memo
                    for pair, memo in self._fingerprints.items()
                    if memo[1] is not evicted
                }
        return value

    def universe(self, key: Tuple, build: Callable):
        """The pre-built store universe for one (instance, IS label), or
        ``build()`` stored under ``key`` on first use. A build that
        raises (budget exceeded, interrupt) caches nothing."""
        return self._memo(
            self._universes, key, build, "universe_hits", "universe_builds"
        )

    def stage(self, key: Tuple, compute: Callable):
        """A derived pipeline-stage result (sequential spec verdict,
        ground-truth ``CheckResult``) memoized per instance."""
        return self._memo(
            self._stages, key, compute, "stage_hits", "stage_computes"
        )

    def pipeline(self, key: Tuple, build: Callable):
        """The chained IS applications for one protocol instance.

        Returning the first-built application objects keeps action
        identities stable across requests, so the universe's
        per-(class, action) memo tables accumulate once instead of
        re-growing per request."""
        return self._memo(
            self._pipelines, key, build, "pipeline_hits", "pipeline_builds"
        )

    def fingerprints(self, app, universe) -> Dict[str, Tuple]:
        """The ``{obligation key: (fingerprint, identity)}`` memo that
        ``discharge`` fills for one ``(app, universe)`` pair; kept only
        while ``universe`` is resident, otherwise a throwaway dict. (The
        entry holds both objects, so neither id is reused meanwhile.)"""
        pair = (id(app), id(universe))
        if pair not in self._fingerprints:
            if not any(value is universe for value in self._universes.values()):
                return {}
            self._fingerprints[pair] = (app, universe, {})
        return self._fingerprints[pair][2]

    def lookup(self, cache, fingerprint: str, identity: str, key: str):
        """``cache.lookup`` behind the in-memory front: a front hit counts
        as a cache hit and reads nothing from disk."""
        entry = self._front.get((fingerprint, key))
        if entry is not None:
            cache.stats.hits += 1
        else:
            entry = cache.lookup(fingerprint, identity, key)
        if entry is not None:
            self._remember((fingerprint, key), entry)
        return entry

    def store(self, cache, fingerprint: str, identity: str, key: str, outcome):
        """``cache.store``, remembering what landed in the front."""
        if cache.store(fingerprint, identity, key, outcome):
            record = CacheEntry.record_of(outcome)
            self._remember((fingerprint, key), CacheEntry.from_record(record))

    def _remember(self, front_key: Tuple[str, str], entry: CacheEntry) -> None:
        self._front[front_key] = entry
        self._front.move_to_end(front_key)
        while len(self._front) > FRONT_ENTRIES:
            self._front.popitem(last=False)

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #

    def forget(self) -> None:
        """Drop every resident map and memo (tests and memory pressure);
        the result cache on disk — and its open instance — survive."""
        self._universes.clear()
        self._stages.clear()
        self._pipelines.clear()
        self._fingerprints.clear()
        self._front.clear()

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary for ``/healthz``."""
        payload: Dict[str, object] = {
            "universes": len(self._universes),
            "stages": len(self._stages),
            "pipelines": len(self._pipelines),
            "max_entries": self.max_entries,
            "stats": self.stats.snapshot(),
        }
        if self.rcache is not None:
            payload["rcache"] = {
                "directory": str(self.rcache.directory),
                **self.rcache.stats.snapshot(),
            }
        return payload
