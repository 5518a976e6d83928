"""Store universes: finite quantifier domains for checking conditions.

Every proof obligation of the paper — action refinement (Definition 3.1),
the four left-mover conditions (Section 3), and the IS conditions I1/I2/I3/
LM/CO (Figure 3) — is a universally quantified statement over stores. CIVL
discharges them with an SMT solver; this reproduction discharges them by
*enumeration over a finite universe of stores* (see DESIGN.md).

A :class:`StoreUniverse` provides

* a set of candidate **global stores**, and
* per action name, a set of candidate **local stores** (parameter values).

The canonical construction is :meth:`StoreUniverse.from_reachable`, which
explores a program instance and harvests every global store of a reachable
configuration and every local store of a pending async observed during the
exploration. Protocols typically extend this with boundary stores (e.g.
perturbed channels) via :meth:`extended` so the checks also cover the
intermediate stores produced while commuting actions during rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from .cache import CacheStats
from .context import NoContext, PAContext
from .explore import ConfigKey, InstanceSummary, PendingIds, explore, walk_configs
from .hashing import KeyMemo
from .program import Program
from .semantics import Config
from .store import EMPTY_STORE, Store, intern_epoch, store_interner

__all__ = ["StoreUniverse"]


@dataclass
class StoreUniverse:
    """A finite quantifier domain: global stores + per-action local stores.

    The optional :class:`~repro.core.context.PAContext` restricts which
    (store, pending-async) combinations the conditions are checked on,
    reproducing CIVL's linear-permission discipline (see
    ``repro.core.context``).
    """

    globals_: List[Store]
    locals_by_action: Dict[str, List[Store]] = field(default_factory=dict)
    context: PAContext = field(default_factory=NoContext)
    #: The :class:`~repro.core.symmetry.SymmetrySpec` this universe is
    #: quotiented under, or ``None`` for an unquotiented universe. Hashed
    #: into ``universe_fingerprint`` (``repro.engine.rcache``) so
    #: quotiented and unquotiented caches can never alias.
    symmetry: Optional[object] = None
    #: Admissibility decisions the columnar scans (``repro.core.columnar``)
    #: served for conditions over this universe: a miss per
    #: ``context.single`` call, a hit per cell served from a memoized
    #: class decision.
    context_cache_stats: CacheStats = field(
        default_factory=CacheStats, repr=False, compare=False
    )
    #: What :meth:`from_reachable` learned about its one initial
    #: configuration when it explored it unquotiented: failure, final
    #: globals and configuration count — never the reachable set. The
    #: pipeline hands it to the ground-truth stage
    #: (:func:`~repro.core.refinement.check_program_refinement`) instead of
    #: exploring the same program again. A universe loaded from the result
    #: cache carries the summary its entry recorded. Derived universes drop
    #: it.
    exploration: Optional[InstanceSummary] = field(
        default=None, repr=False, compare=False
    )
    _memo_epoch: object = field(default=None, repr=False, compare=False)
    _gids_cache: object = field(default=None, repr=False, compare=False)
    #: The hex digest of the globals and locals pools
    #: (``repro.engine.rcache.pools_digest``), filled on first use or
    #: recorded by the cache entry this universe was loaded from. The
    #: pools are immutable stores, so their digest is a property of this
    #: object; the context and symmetry parts hold closures and are
    #: digested on every call. Other derived universes than
    #: :meth:`with_context`'s digest their own pools.
    _pools_digest: Optional[str] = field(default=None, repr=False, compare=False)

    def _fresh_memo_keys(self) -> None:
        """The columnar layer caches the universe's interned gids list
        here, but this object may outlive an intern-table reset
        (``reset_process_cache`` cannot reach per-universe state) — so
        drop it whenever the table's epoch moved, before a stale id can
        alias a different store."""
        epoch = intern_epoch()
        if self._memo_epoch is not epoch:
            self._gids_cache = None
            self._memo_epoch = epoch

    @classmethod
    def from_reachable(
        cls,
        program: Program,
        initials: Iterable[Config],
        max_configs: Optional[int] = None,
        symmetry=None,
    ) -> "StoreUniverse":
        """Harvest globals and PA locals from the reachable state space.

        With a ``symmetry`` (a :class:`~repro.core.symmetry.SymmetrySpec`),
        the exploration itself runs on the orbit quotient — every visited
        configuration is canonicalized before deduplication — so both the
        search frontier *and* the harvested universe shrink by up to the
        group order. Locals are harvested from the canonical
        configurations' pending multisets — and then **closed under the
        group**: a canonical representative fixes one permutation per
        configuration, so the raw harvest holds one orbit member per
        (config, PA) pair, while the discharge pairs every canonical
        global with every pool element and needs the member *matching
        that global's ghost* to be present. Closure restores exactly the
        locals the unquotiented harvest would contain (reachability is
        equivariant), so a failing (global, locals) pair in the full
        product always has a failing image in the quotient product —
        counterexamples cannot be quotiented away.

        Stores are ordered by :func:`~repro.core.hashing.structural_key`
        (not ``repr``): address-bearing reprs of exotic values made
        universe order — and therefore sampler output and fingerprints —
        nondeterministic across processes.
        """
        canon = None
        if symmetry is not None:
            from .symmetry import Canonicalizer

            canon = Canonicalizer.of(symmetry)
        initials = list(initials)
        result = explore(
            program,
            initials,
            max_configs=max_configs,
            canonicalize=canon.config if canon is not None else None,
        )
        universe = cls.harvest(result.reachable, result.pending_ids, canon)
        if canon is not None:
            canon.drop_scratch()
        if canon is None and len(initials) == 1:
            # The exhaustive, unquotiented search of one initial
            # configuration is exactly ``instance_summary``'s: keep its
            # summary (a quotient's counts and finals are per orbit).
            universe.exploration = InstanceSummary(
                initials[0],
                result.can_fail,
                result.final_globals,
                result.num_configs,
                program=program,
                max_configs=max_configs,
            )
        return universe

    @classmethod
    def from_random_walks(
        cls,
        program: Program,
        initials: Iterable[Config],
        walks: int = 200,
        max_steps: int = 10_000,
        seed: int = 0,
        symmetry=None,
    ) -> "StoreUniverse":
        """Harvest a universe from random-scheduler walks instead of full
        BFS — the bounded-checking fallback for instances whose reachable
        state space is too large to enumerate (e.g. Paxos at R=2, N=3).
        A PASS over such a universe is a bounded check, not an exhaustive
        one; protocols document which instances use it (and reports carry
        ``bounded=True``). ``symmetry`` canonicalizes every sampled
        configuration before harvesting, folding the sample onto orbit
        representatives (locals pools group-closed, as in
        :meth:`from_reachable`). The walks read and fill the shared
        columns (:func:`~repro.core.explore.walk_configs`), so the
        conditions find every walked cell evaluated."""
        import random

        canon = None
        if symmetry is not None:
            from .symmetry import Canonicalizer

            canon = Canonicalizer.of(symmetry)
        rng = random.Random(seed)
        ids = PendingIds()
        sampled = set()
        for config in walk_configs(program, list(initials), rng, walks, max_steps, ids):
            if canon is not None:
                config = canon.config(config)
            sampled.add(ids.key(config))
        universe = cls.harvest(sampled, ids, canon)
        if canon is not None:
            canon.drop_scratch()
        return universe

    @classmethod
    def harvest(
        cls, configs: Iterable[ConfigKey], pending_ids: PendingIds, canon=None
    ) -> "StoreUniverse":
        """The universe of a set of interned configurations (keys of
        ``pending_ids``, see ``repro.core.explore``): the global store of
        each, and per action the locals of each pending async, ordered by
        :func:`~repro.core.hashing.structural_key` through one
        :class:`~repro.core.hashing.KeyMemo` that is dropped on return.

        With a ``canon`` (a :class:`~repro.core.symmetry.Canonicalizer`
        whose representatives ``configs`` are), the locals pools are
        closed under its group and the universe is quotiented under its
        spec (see :meth:`from_reachable`).
        """
        pending_ids.check()
        gids: Set[int] = set()
        pids: Set[int] = set()
        for gid, pending in configs:
            gids.add(gid)
            pids.update(pending)
        store_of = store_interner().store_of
        globals_seen = {store_of(gid) for gid in gids}
        locals_seen: Dict[str, Set[Store]] = {}
        for pid in pids:
            pending = pending_ids.pas[pid]
            locals_seen.setdefault(pending.action, set()).add(pending.locals)
        if canon is not None:
            for name, stores in locals_seen.items():
                locals_seen[name] = {
                    member
                    for store in stores
                    for member in canon.local_orbit(name, store)
                }
        key = KeyMemo()
        return cls(
            sorted(globals_seen, key=key),
            {name: sorted(stores, key=key) for name, stores in locals_seen.items()},
            symmetry=canon.spec if canon is not None else None,
        )

    def sampled(self, limit: int, keep=None) -> "StoreUniverse":
        """A deterministic stratified subsample of the globals (every k-th
        after ordering by structural key), always retaining globals for
        which ``keep`` holds. Locals are kept in full.

        The result has exactly ``min(limit, len(globals_))`` globals when
        the keep-set fits within the limit, and the keep-set verbatim
        otherwise — never more than ``max(limit, len(retained))`` (the
        old floor-division stride silently blew the caller's budget).
        The stratified part picks evenly spaced positions over the
        ordered rest. Ordering by structural key makes the sample
        independent of the universe's construction order.
        """
        if len(self.globals_) <= limit:
            return self
        ordered = sorted(self.globals_, key=KeyMemo())
        if keep is None:
            retained: List[Store] = []
            rest = ordered
        else:
            retained = [g for g in ordered if keep(g)]
            retained_set = set(retained)
            rest = [g for g in ordered if g not in retained_set]
        room = limit - len(retained)
        if room <= 0:
            sample = retained
        elif len(rest) <= room:
            sample = retained + rest
        else:
            # Exactly ``room`` evenly spaced positions; the first and the
            # last of the ordered rest are always included.
            last = len(rest) - 1
            positions = sorted(
                {(j * last) // (room - 1) for j in range(room)}
                if room > 1
                else {0}
            )
            sample = retained + [rest[p] for p in positions]
        return StoreUniverse(
            sample, self.locals_by_action, self.context, self.symmetry
        )

    def quotiented(self, symmetry) -> "StoreUniverse":
        """This universe folded onto orbit representatives.

        Globals map to their canonical orbit elements (deduplicated);
        locals pools are closed under the group and deduplicated — a
        no-op for pools harvested from a full exploration (those are
        group-closed already by equivariance of reachability), but it
        keeps hand-extended boundary pools covering every orbit a
        canonical global's ghost can mention. Already-quotiented
        universes and ``symmetry=None`` pass through unchanged.
        """
        if symmetry is None or self.symmetry is not None:
            return self
        from .symmetry import Canonicalizer

        canon = Canonicalizer.of(symmetry)
        key = KeyMemo()
        globals_ = sorted({canon.store(g) for g in self.globals_}, key=key)
        locals_by_action: Dict[str, List[Store]] = {}
        for name, pool in self.locals_by_action.items():
            closed: Dict[Store, None] = {}
            for locals_ in pool:
                for member in canon.local_orbit(name, locals_):
                    closed.setdefault(member)
            locals_by_action[name] = sorted(closed, key=key)
        return StoreUniverse(
            globals_, locals_by_action, self.context, canon.spec
        )

    def locals_for(self, action_name: str) -> List[Store]:
        """Candidate local stores for an action (default: the empty store)."""
        return self.locals_by_action.get(action_name, [EMPTY_STORE])

    def with_context(self, context: PAContext) -> "StoreUniverse":
        """A copy of this universe under a different PA context (the same
        pools, so the same pools digest)."""
        return StoreUniverse(
            self.globals_,
            self.locals_by_action,
            context,
            self.symmetry,
            _pools_digest=self._pools_digest,
        )

    def extended(
        self,
        extra_globals: Iterable[Store] = (),
        extra_locals: Mapping[str, Iterable[Store]] = (),
    ) -> "StoreUniverse":
        """A new universe with additional globals / locals."""
        globals_ = list(dict.fromkeys([*self.globals_, *extra_globals]))
        locals_by_action = {k: list(v) for k, v in self.locals_by_action.items()}
        for name, stores in dict(extra_locals).items():
            merged = locals_by_action.get(name, []) + list(stores)
            locals_by_action[name] = list(dict.fromkeys(merged))
        return StoreUniverse(
            globals_, locals_by_action, self.context, self.symmetry
        )

    def merge(self, other: "StoreUniverse") -> "StoreUniverse":
        """Union of two universes (keeps this universe's PA context)."""
        return self.extended(other.globals_, other.locals_by_action)

    def __repr__(self) -> str:
        locals_desc = {k: len(v) for k, v in self.locals_by_action.items()}
        quotient = (
            f", quotient={self.symmetry.name}" if self.symmetry is not None else ""
        )
        return (
            f"StoreUniverse({len(self.globals_)} globals, "
            f"locals={locals_desc}{quotient})"
        )
