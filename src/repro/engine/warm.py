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
  gids list already built by earlier requests) is reused verbatim;
* the chained IS applications themselves, so gate/transition *objects*
  are stable across requests and the universe memos keyed by them keep
  hitting instead of growing;
* the derived pipeline stages (sequential spec, ground truth) that are
  pure functions of the protocol instance.

Soundness: every entry is keyed by the full instance identity —
protocol name, instance parameters, IS label, and exploration budget —
and the cached values are outputs of deterministic pure constructions
over those keys. Reuse can therefore never change a verdict, only skip
recomputation; obligation *results* are additionally guarded by the
result cache's per-obligation dependency fingerprints
(``repro.engine.rcache``), which hash actual gate/transition content.
``tests/serve/test_warm.py`` holds warm re-runs to typed-identical
reports against cold ones.

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

from .rcache import ObligationCache

__all__ = ["WarmState", "WarmStats"]


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
            table.popitem(last=False)
            self.stats.evictions += 1
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

    # ------------------------------------------------------------------ #
    # Introspection / maintenance
    # ------------------------------------------------------------------ #

    def forget(self) -> None:
        """Drop every resident map (tests and memory pressure); the
        result cache on disk — and its open instance — survive."""
        self._universes.clear()
        self._stages.clear()
        self._pipelines.clear()

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
