"""Explicit-state exploration of asynchronous programs.

This module is the workhorse that substitutes for the SMT backend of the
paper's CIVL implementation: on a finite protocol instance it computes the
exact sets used in Definition 3.2,

* :math:`Good(\\mathcal{P})` — initial stores from which the program cannot
  fail, and
* :math:`Trans(\\mathcal{P})` — the input/output summary relating initial
  stores to final global stores of terminating executions,

by exhaustive breadth-first search over configurations. It also provides
execution sampling and bounded enumeration of terminating executions, used
by the refinement tests and the execution-rewriting engine, and the
random-walk sampler of bounded universes (:func:`walk_configs`).

Interned configurations
-----------------------

:func:`explore` searches over *interned* configurations, Ganty and
Majumdar's representation of an asynchronous program's state: a global
store plus a counter vector over pending handlers. A configuration key is
``(gid, pids)``: the global's id in the process
:class:`~repro.core.store.StoreInterner` and the sorted tuple (with
repeats) of its pending asyncs' ids in the search's :class:`PendingIds`.

Each pending async is one (action, local) cell per global, and exploration
fills the columnar store's own gate and successor columns
(``repro.core.columnar``) through the same memoizing action views the IS
conditions use. The conditions later quantify over the same reachable
globals and find every explored cell filled: one transition relation,
evaluated once per cell. A search whose cells no condition reads
(:func:`instance_summary`: the sequential spec and ground truth) keeps a
private sparse table instead, which dies with the search — the dense
columns hold one slot per interned store, and filling them for those
searches cost memory for nothing (DESIGN.md, "Universe harvest and shared
explorations").

:func:`oracle_explore` is the plain value-level search over
:class:`~repro.core.semantics.Config` objects and ``steps_from``. It is the
test oracle the interned explorer is differentially checked against
(``tests/core/test_explore_differential.py``), as the
``UncachableContext`` loops are for the conditions; no production path
calls it.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..engine.resilience import poll
from .action import PendingAsync
from .multiset import Multiset
from .program import Program
from .semantics import (
    Config,
    Execution,
    Failure,
    Step,
    initial_config,
    steps_from,
)
from .store import Store, combine, intern_epoch, store_interner

__all__ = [
    "ExplorationResult",
    "ExplorationBudgetExceeded",
    "PendingIds",
    "explore",
    "private_cells",
    "oracle_explore",
    "OracleExploration",
    "instance_summary",
    "InstanceSummary",
    "good_and_trans",
    "reachable_globals",
    "random_execution",
    "walk_configs",
    "terminating_executions",
]

#: An interned configuration: ``(global id, sorted pending-async ids)``.
ConfigKey = Tuple[int, Tuple[int, ...]]


class ExplorationBudgetExceeded(RuntimeError):
    """Raised when exploration exceeds its configuration budget.

    Carries what the aborted search had already learned: ``explored`` is
    the number of distinct configurations reached before the budget blew
    (always ``limit + 1`` — the overflowing configuration is counted) and
    ``limit`` is the budget itself. Callers report this as a BUDGET
    verdict (see ``repro.protocols.common`` and ``repro.analysis.table1``)
    rather than letting the traceback discard the partial count.
    """

    def __init__(self, explored: int, limit: int):
        super().__init__(
            f"exploration budget exceeded: {explored} reachable "
            f"configurations (limit {limit})"
        )
        self.explored = explored
        self.limit = limit


class PendingIds:
    """The pending-async ids of one search: ``(action, local id)`` → a
    dense int, in discovery order, over the process intern table.

    Ids mean something only together with this table and the intern
    table's epoch it was made under; :meth:`config` refuses a key once the
    intern table was reset.
    """

    __slots__ = ("ids", "pas", "epoch")

    def __init__(self) -> None:
        self.ids: Dict[Tuple[str, int], int] = {}
        #: Id → the pending async (locals canonical in the intern table).
        self.pas: List[PendingAsync] = []
        self.epoch = intern_epoch()

    def intern(self, pending: PendingAsync) -> int:
        itn = store_interner()
        key = (pending.action, itn.intern(pending.locals))
        pid = self.ids.get(key)
        if pid is None:
            pid = self.ids[key] = len(self.pas)
            self.pas.append(PendingAsync(pending.action, itn.store_of(key[1])))
        return pid

    def pending_key(self, pending: Multiset) -> Tuple[int, ...]:
        """The sorted id tuple (multiplicities as repeats) of a multiset."""
        intern = self.intern
        return tuple(sorted(intern(pa) for pa in pending))

    def key(self, config: Config) -> ConfigKey:
        return (store_interner().intern(config.glob), self.pending_key(config.pending))

    def check(self) -> None:
        """Raise if the intern table was reset since this table was made:
        its keys' global ids would name other stores now."""
        if intern_epoch() is not self.epoch:
            raise RuntimeError(
                "configuration ids outlived the intern table that minted them"
            )

    def config(self, key: ConfigKey) -> Config:
        """The value-level configuration of an interned one."""
        self.check()
        gid, pids = key
        pas = self.pas
        return Config(
            store_interner().store_of(gid), Multiset([pas[p] for p in pids])
        )


@dataclass
class ExplorationResult:
    """Result of exploring a program from a set of initial configurations.

    ``reachable`` and ``deadlocks`` hold interned configuration keys
    (module docstring); :meth:`configs` and :meth:`config` build the
    value-level :class:`~repro.core.semantics.Config` objects, valid until
    the next intern-table reset.
    """

    reachable: Set[ConfigKey]
    can_fail: bool
    final_globals: Set[Store]
    #: Reachable configurations that are deadlocked: not terminated, yet no
    #: enabled step exists (every pending action is blocking).
    deadlocks: Set[ConfigKey] = field(default_factory=set)
    pending_ids: PendingIds = field(default_factory=PendingIds, repr=False)

    @property
    def num_configs(self) -> int:
        return len(self.reachable)

    def config(self, key: ConfigKey) -> Config:
        return self.pending_ids.config(key)

    def configs(self) -> Set[Config]:
        """Every reachable configuration, value-level."""
        config = self.pending_ids.config
        return {config(key) for key in self.reachable}


class _SharedCells:
    """Exploration's view of the columnar store: each pending async's gate
    and successor columns, read through the memoizing action view the IS
    conditions use (same ``_view_key``), filled on a miss. Created-PA
    multisets map from the store's ``created_cid`` to id tuples through a
    per-search memo."""

    __slots__ = ("program", "ids", "store", "cached", "cols", "created")

    def __init__(self, program: Program, ids: PendingIds) -> None:
        from .cache import process_cache
        from .columnar import columnar_store

        self.program = program
        self.ids = ids
        self.store = columnar_store()
        self.cached = process_cache().cached
        self.cols: Dict[int, tuple] = {}
        self.created: Dict[int, Tuple[int, ...]] = {}

    def _columns(self, pid: int) -> tuple:
        entry = self.cols.get(pid)
        if entry is None:
            pending = self.ids.pas[pid]
            view = self.cached(self.program[pending.action])
            lid = store_interner().intern(pending.locals)
            entry = self.cols[pid] = (
                view,
                lid,
                self.store.gate_column_lazy(view, lid),
                self.store.succ_column(view, lid),
            )
        return entry

    def entries(self, pid: int, gid: int):
        """``None`` when the gate fails, else the successor column's
        ``(transition, new gid, created cid)`` entries, in the action's
        enumeration order."""
        view, lid, gcol, scol = self._columns(pid)
        ok = gcol[gid] if gid < len(gcol) else None
        if ok is None:
            ok = self.store.fill_gate(gcol, view, lid, gid)
        if not ok:
            return None
        entries = scol[gid] if gid < len(scol) else None
        if entries is None:
            entries = self.store.fill_succ(scol, view, lid, gid)
        return entries

    def successors(self, pid: int, gid: int):
        """``None`` when the gate fails, else ``(new gid, created ids)``
        per transition, in the action's enumeration order."""
        entries = self.entries(pid, gid)
        if entries is None:
            return None
        created = self.created
        out = []
        for tr, new_gid, cid in entries:
            pids = created.get(cid)
            if pids is None:
                pids = created[cid] = self.ids.pending_key(tr.created)
            out.append((new_gid, pids))
        return out


class _PrivateCells:
    """A sparse ``(PA id, gid)`` table private to one search: the raw
    actions, no shared column, no evaluation memo."""

    __slots__ = ("program", "ids", "table")

    def __init__(self, program: Program, ids: PendingIds) -> None:
        self.program = program
        self.ids = ids
        self.table: Dict[Tuple[int, int], Optional[list]] = {}

    def successors(self, pid: int, gid: int):
        cell = (pid, gid)
        table = self.table
        if cell in table:
            return table[cell]
        poll()
        pending = self.ids.pas[pid]
        action = self.program[pending.action]
        itn = store_interner()
        state = itn.combine_ids(gid, itn.intern(pending.locals))
        out = None
        if action.gate(state):
            pending_key = self.ids.pending_key
            out = [
                (itn.intern(tr.new_global), pending_key(tr.created))
                for tr in action.transitions(state)
            ]
        table[cell] = out
        return out


#: Set inside :func:`private_cells`.
_PRIVATE: ContextVar[bool] = ContextVar("repro_private_cells", default=False)


@contextmanager
def private_cells() -> Iterator[None]:
    """Searches run inside this block keep their cells in a private sparse
    table that dies with each search, not in the shared columns: for
    searches whose cells no IS condition reads (:func:`instance_summary`).
    :func:`explore`'s signature stays the one callers and tracers wrap."""
    token = _PRIVATE.set(True)
    try:
        yield
    finally:
        _PRIVATE.reset(token)


def explore(
    program: Program,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
    canonicalize=None,
) -> ExplorationResult:
    """Breadth-first exploration of all configurations reachable from
    ``initials``, over interned configurations (module docstring).
    Collects terminating global stores, whether a failure is reachable,
    and deadlocked configurations.

    ``canonicalize`` (a ``Config -> Config`` map, e.g.
    :meth:`repro.core.symmetry.Canonicalizer.config`) folds every visited
    configuration to its orbit representative *before* deduplication, so
    the search explores the quotient state space: ``reachable`` then holds
    one configuration per orbit. Sound when the program is equivariant
    under the underlying permutation group — each representative's
    successors are representatives of the original successors' orbits —
    which is exactly what a protocol asserts by declaring a
    :class:`~repro.core.symmetry.SymmetrySpec`. The value-level target is
    built only for that call, then interned again; each distinct raw
    target is canonicalized once per search.

    Cells are read and filled in the shared columns, except inside
    :func:`private_cells`: then in a table that dies with the search.
    """
    ids = PendingIds()
    cells = _PrivateCells if _PRIVATE.get() else _SharedCells
    successors = cells(program, ids).successors
    frontier: List[ConfigKey] = []
    reachable: Set[ConfigKey] = set()
    final_gids: Set[int] = set()
    deadlocks: Set[ConfigKey] = set()
    can_fail = False

    canon = None
    if canonicalize is not None:
        folded: Dict[ConfigKey, ConfigKey] = {}

        def canon(key: ConfigKey) -> ConfigKey:
            rep = folded.get(key)
            if rep is None:
                rep = folded[key] = ids.key(canonicalize(ids.config(key)))
            return rep

    for config in initials:
        if canonicalize is not None:
            config = canonicalize(config)
        key = ids.key(config)
        if key not in reachable:
            reachable.add(key)
            frontier.append(key)

    while frontier:
        key = frontier.pop()
        gid, pids = key
        if not pids:
            final_gids.add(gid)
            continue
        progressed = False
        previous = -1
        for i, pid in enumerate(pids):
            if pid == previous:
                continue
            previous = pid
            succs = successors(pid, gid)
            if succs is None:
                progressed = can_fail = True
                continue
            if not succs:
                continue
            progressed = True
            rest = pids[:i] + pids[i + 1 :]
            for new_gid, created in succs:
                target = (new_gid, tuple(sorted(rest + created)) if created else rest)
                if canon is not None:
                    target = canon(target)
                if target not in reachable:
                    reachable.add(target)
                    if max_configs is not None and len(reachable) > max_configs:
                        raise ExplorationBudgetExceeded(len(reachable), max_configs)
                    frontier.append(target)
        if not progressed:
            deadlocks.add(key)

    store_of = store_interner().store_of
    return ExplorationResult(
        reachable,
        can_fail,
        {store_of(gid) for gid in final_gids},
        deadlocks,
        ids,
    )


@dataclass
class OracleExploration:
    """:func:`oracle_explore`'s result: the same four facts as
    :class:`ExplorationResult`, over value-level configurations."""

    reachable: Set[Config]
    can_fail: bool
    final_globals: Set[Store]
    deadlocks: Set[Config]


def oracle_explore(
    program: Program,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
    canonicalize=None,
) -> OracleExploration:
    """The reference explorer :func:`explore` is tested against: the same
    search over :class:`~repro.core.semantics.Config` objects, with
    ``steps_from`` evaluating every action afresh. Test use only."""
    frontier: List[Config] = []
    reachable: Set[Config] = set()
    final_globals: Set[Store] = set()
    deadlocks: Set[Config] = set()
    can_fail = False

    for config in initials:
        if canonicalize is not None:
            config = canonicalize(config)
        if config not in reachable:
            reachable.add(config)
            frontier.append(config)

    while frontier:
        config = frontier.pop()
        if config.terminated:
            final_globals.add(config.glob)
            continue
        progressed = False
        for step in steps_from(program, config):
            progressed = True
            if isinstance(step.target, Failure):
                can_fail = True
                continue
            target = step.target
            if canonicalize is not None:
                target = canonicalize(target)
            if target not in reachable:
                reachable.add(target)
                if max_configs is not None and len(reachable) > max_configs:
                    raise ExplorationBudgetExceeded(len(reachable), max_configs)
                frontier.append(target)
        if not progressed:
            deadlocks.add(config)

    return OracleExploration(reachable, can_fail, final_globals, deadlocks)


@dataclass
class InstanceSummary:
    """Summary of one initialized instance: failure possibility + outputs."""

    initial: Config
    can_fail: bool
    final_globals: Set[Store]
    #: Distinct configurations the exhaustive search visited — the honest
    #: work measure program-level refinement checks report as ``checked``.
    num_configs: int = 0
    #: The program and budget the search ran under. A summary stands in
    #: for another search only if it :meth:`answers` that search.
    program: Optional[Program] = field(default=None, repr=False, compare=False)
    max_configs: Optional[int] = None

    def answers(
        self, program: Program, initial: Config, max_configs: Optional[int]
    ) -> bool:
        """Whether this summary is what ``instance_summary`` would compute
        for ``(program, initial, max_configs)``: the same program object,
        an equal initial configuration and the same budget."""
        return (
            self.program is program
            and self.max_configs == max_configs
            and self.initial == initial
        )


def instance_summary(
    program: Program,
    global_store: Store,
    main_locals: Store = Store(),
    max_configs: Optional[int] = None,
) -> InstanceSummary:
    """Explore a single initialized instance ``(g, {(ℓ, Main)})``."""
    init = initial_config(global_store, main_locals)
    # No IS condition reads this search's cells (it is the sequential
    # spec's or ground truth's), so they stay out of the shared columns.
    with private_cells():
        result = explore(program, [init], max_configs=max_configs)
    return InstanceSummary(
        init,
        result.can_fail,
        result.final_globals,
        result.num_configs,
        program=program,
        max_configs=max_configs,
    )


def good_and_trans(
    program: Program,
    initial_stores: Iterable[Tuple[Store, Store]],
    max_configs: Optional[int] = None,
) -> Tuple[Set[Store], Set[Tuple[Store, Store]]]:
    """Compute :math:`Good(\\mathcal{P})` and :math:`Trans(\\mathcal{P})`
    restricted to the given initial ``(global, main-local)`` store pairs.

    Returns ``(good, trans)`` where ``good`` contains the combined initial
    stores :math:`g \\cdot \\ell` without reachable failure and ``trans``
    contains pairs :math:`(g \\cdot \\ell, g')` for terminating executions.
    """
    good: Set[Store] = set()
    trans: Set[Tuple[Store, Store]] = set()
    for global_store, main_locals in initial_stores:
        summary = instance_summary(program, global_store, main_locals, max_configs)
        sigma = combine(global_store, main_locals)
        if not summary.can_fail:
            good.add(sigma)
        for final in summary.final_globals:
            trans.add((sigma, final))
    return good, trans


def reachable_globals(
    program: Program,
    initials: Iterable[Config],
    max_configs: Optional[int] = None,
) -> Set[Store]:
    """All global stores occurring in reachable configurations.

    The primary source of store universes for discharging mover and IS
    conditions on an instance (see ``repro.core.universe``).
    """
    result = explore(program, initials, max_configs=max_configs)
    store_of = store_interner().store_of
    return {store_of(gid) for gid, _ in result.reachable}


def random_execution(
    program: Program,
    init: Config,
    rng: random.Random,
    max_steps: int = 10_000,
) -> Execution:
    """Sample one execution under a uniformly random scheduler.

    Runs until termination, failure, deadlock, or the step bound. Used by
    randomized refinement tests and as input to the rewriting engine.
    """
    steps: List[Step] = []
    current = init
    for _ in range(max_steps):
        if current.terminated:
            break
        options = list(steps_from(program, current))
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        if isinstance(step.target, Failure):
            break
        current = step.target
    return Execution(init, steps)


def walk_configs(
    program: Program,
    initials: List[Config],
    rng: random.Random,
    walks: int,
    max_steps: int,
    ids: PendingIds,
) -> Iterator[Config]:
    """Every configuration of ``walks`` :func:`random_execution` walks,
    each from an initial configuration drawn by ``rng``: the same draws,
    the same options in ``steps_from`` order and so the same walks, but
    each step's gate and transitions are read from (and fill) the shared
    columns, as :func:`explore` does, instead of evaluated afresh. A
    failing step ends its walk and yields nothing."""
    cells = _SharedCells(program, ids)
    itn = store_interner()
    for _ in range(walks):
        current = rng.choice(initials)
        yield current
        for _ in range(max_steps):
            if current.terminated:
                break
            gid = itn.intern(current.glob)
            options: list = []
            for pending in current.pending.support():
                entries = cells.entries(ids.intern(pending), gid)
                if entries is None:
                    options.append(None)
                else:
                    options.extend((pending, entry) for entry in entries)
            if not options:
                break
            choice = rng.choice(options)
            if choice is None:
                break
            pending, (tr, new_gid, _) = choice
            current = Config(
                itn.store_of(new_gid),
                current.pending.remove(pending).union(tr.created),
            )
            yield current


def terminating_executions(
    program: Program,
    init: Config,
    limit: Optional[int] = None,
    max_depth: int = 10_000,
) -> Iterator[Execution]:
    """Enumerate terminating executions from ``init`` by depth-first search.

    Intended for small instances only (the number of interleavings grows
    factorially); ``limit`` caps the number of executions yielded.
    """
    count = 0
    stack: List[Tuple[Config, List[Step]]] = [(init, [])]
    while stack:
        config, prefix = stack.pop()
        if config.terminated:
            yield Execution(init, list(prefix))
            count += 1
            if limit is not None and count >= limit:
                return
            continue
        if len(prefix) >= max_depth:
            continue
        for step in steps_from(program, config):
            if isinstance(step.target, Failure):
                continue
            stack.append((step.target, prefix + [step]))
