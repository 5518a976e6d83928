"""Resident warm state for verification-as-a-service.

Every one-shot ``repro verify`` pays the same cold-start tax: the
reachable store universe is rebuilt, the interner/evaluation/columnar
caches refill from empty, and the persistent result cache is re-opened
and re-fingerprinted from disk. A long-running daemon (``repro serve``)
amortizes all of it by keeping one :class:`WarmState` alive across
requests. It holds one :class:`~repro.engine.rcache.ObligationCache`
(whose in-memory identity index stays loaded) and, per protocol
instance, one :class:`Resident` record of the instance's fixed proof
parts:

* the chained IS applications, so gate/transition *objects* are stable
  across requests and the universe memos keyed by them keep hitting
  instead of growing;
* the store universes, by IS label — the enumeration is deterministic,
  so a universe (with its interned gids already built by earlier
  requests) is reused verbatim;
* the sequential-spec and ground-truth stage results;
* per IS label, each obligation's ``(fingerprint, identity, entry)``:
  the dependency fingerprint and identity ``discharge`` computed, and
  the result-cache entry it read or stored (``None`` until one is), so
  a repeated request neither fingerprints nor reads the disk.

The record is the in-memory front of the result cache's universe and
stage entries: only a miss here reads (or writes) the disk, so a
recycled sandbox worker loads its universes instead of exploring them.

Soundness: a record is keyed by the full instance identity — protocol
name, instance parameters, exploration budget and symmetry group — and
everything in it is the output of a deterministic construction over
that key. Reuse can therefore never change a verdict, only skip
recomputation. A remembered fingerprint trusts what the universe reuse
does: resident objects are never edited in place (a closure cell changed
under a resident application is not seen until ``forget()``). A
remembered entry is content-addressed by its fingerprint, like the file
it came from. ``tests/serve/test_warm.py`` holds warm re-runs to
typed-identical reports against cold ones, and
``tests/engine/test_rcache_fingerprint.py`` every remembered fingerprint
to a fresh fingerprinter's.

The records are bounded: :attr:`WarmState.max_entries` caps the resident
universes (a record without one weighs one), and whole records leave
least recently requested first, so a client sweeping instance parameters
cannot grow the daemon without bound. Warm state is *not* thread-safe:
the daemon discharges one job at a time (the admission queue
serializes), which is also what keeps the process-level
interner/columnar caches coherent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .rcache import ObligationCache

__all__ = ["Resident", "WarmState", "WarmStats"]


@dataclass
class WarmStats:
    """Hit/build counters for the resident records; ``pipeline_*`` count
    records and ``evictions`` the records dropped by the bound."""

    universe_hits: int = 0
    universe_builds: int = 0
    stage_hits: int = 0
    stage_computes: int = 0
    pipeline_hits: int = 0
    pipeline_builds: int = 0
    evictions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(vars(self))


class Resident:
    """One protocol instance's resident proof parts (module docstring)."""

    def __init__(self, warm: "WarmState", applications) -> None:
        self._warm = warm
        self.applications = applications
        self.universes: Dict[str, object] = {}
        self.stages: Dict[str, object] = {}
        #: IS label -> ``{obligation key: (fingerprint, identity, entry)}``,
        #: the ``memo`` that ``discharge`` reads and fills.
        self.obligations: Dict[str, Dict[str, Tuple]] = {}

    def universe(self, label: str, build: Callable):
        """The store universe for IS ``label``, or ``build()`` kept on
        first use. A build that raises (budget exceeded, interrupt)
        keeps nothing."""
        if label in self.universes:
            self._warm.stats.universe_hits += 1
        else:
            self.universes[label] = build()
            self._warm.stats.universe_builds += 1
            self._warm._bound()
        return self.universes[label]

    def stage(self, name: str, compute: Callable):
        """A pipeline-stage result (``"spec"``, ``"ground-truth"``)."""
        if name in self.stages:
            self._warm.stats.stage_hits += 1
        else:
            self.stages[name] = compute()
            self._warm.stats.stage_computes += 1
        return self.stages[name]


@dataclass
class WarmState:
    """Hot verification state kept resident across requests.

    ``rcache`` is the shared result cache (or ``None`` when the daemon
    runs cacheless). ``verify_protocol`` runs every verification against
    one: a cold run against a fresh state, a daemon request
    (``RunOptions(warm=...)``) against the resident one, whose records
    it reuses and — crucially — for which it *skips the per-run
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
        self.records: "OrderedDict[Tuple, Resident]" = OrderedDict()

    def resident(self, key: Tuple, applications: Callable) -> Resident:
        """The record of the instance ``key``; a new one holds
        ``applications()`` and nothing else yet."""
        if key in self.records:
            self.stats.pipeline_hits += 1
            self.records.move_to_end(key)
        else:
            self.records[key] = Resident(self, applications())
            self.stats.pipeline_builds += 1
            self._bound()
        return self.records[key]

    def _bound(self) -> None:
        """Drop whole records, least recently requested first, until the
        resident universes fit ``max_entries`` (a record without one
        weighs one); the newest record always stays."""
        weight = sum(len(r.universes) or 1 for r in self.records.values())
        while weight > self.max_entries and len(self.records) > 1:
            weight -= len(self.records.popitem(last=False)[1].universes) or 1
            self.stats.evictions += 1

    def forget(self) -> None:
        """Drop every resident record (tests and memory pressure); the
        result cache on disk — and its open instance — survive."""
        self.records.clear()

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary for ``/healthz``."""
        payload: Dict[str, object] = {
            "universes": sum(len(r.universes) for r in self.records.values()),
            "stages": sum(len(r.stages) for r in self.records.values()),
            "pipelines": len(self.records),
            "max_entries": self.max_entries,
            "stats": self.stats.snapshot(),
        }
        if self.rcache is not None:
            stats = self.rcache.stats.snapshot()
            payload["rcache"] = {"directory": str(self.rcache.directory), **stats}
        return payload
