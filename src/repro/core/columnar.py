"""Columnar batch evaluation of IS predicates over interned universes.

Every IS condition quantifies over (global, local) cells of a store
universe, restricted to the cells the PA context admits (CIVL's linear
permissions: the PA is pending, and two commuted PAs are distinct). The
LM and I3 obligations visit millions of such cells per discharge run.
This module serves their hot predicates from *columns*: per-(action-view,
local) arrays indexed by the global store's intern id
(``repro.core.store.StoreInterner``), filled on probe and extended for
successor globals discovered while commuting actions.

Exploration fills columns too. The universe's reachability search
(``repro.core.explore``) reads and fills the gate and successor columns
of every (pending async, global) cell it schedules, through the same
memoizing views the conditions use. By the time a condition runs, the
cells of every reachable global's pending asyncs are already filled, so
each cell is evaluated once per run, whichever side reaches it first.
The column kinds:

* **gate columns** — ``col[gid] -> bool`` for one (view, local) pair;
* **successor columns** — ``col[gid] -> ((tr, new_gid, created_cid), …)``
  with the transition's new global interned and its created-PA multiset
  mapped to a small int, so the commutation diagram chase
  (``_has_swapped``) compares ints instead of multisets;
* **admissibility** — decisions of the PA context, asked once per
  ``cache_key`` equivalence class of globals (the ghost multiset) and
  shared by every global in the class. ``_Admissibility`` is the one
  class index; the universe keeps no admissibility memo of its own.

Every condition enumerates *admissibility-first*: most cells are ruled
out by the context, so the loops start from the context, not from the
stores:

1. the globals of the enumerated gids list are grouped by class, one
   ascending position list per class;
2. per (pool, class), the context decides a whole pool at once, asked
   at one representative global of the class and memoized: for the
   single-PA conditions (abs, I1, I2, I3, CO and non-blocking)
   ``PAContext.admitted`` gives the admitted local indices, for the three
   pair conditions of LM ``PAContext.admitted_pairs`` gives each l-local's
   admissible x-local indices. ``GhostContext`` answers both from the
   ghost's distinct members, so most classes cost a few lookups;
3. the position lists of the classes that admit anything are merged in
   ascending order (global-major, as the oracle enumerates), and each
   position visits only its class's admitted locals, in index order;
4. only then does the condition's body run: :func:`admitted_cells` hands
   abs, I1, I2 and CO their (global, local) cells, I3 reads its invariant
   gate column, and the left-mover loops probe the l-gate (filled
   lazily) before running unchanged over the admitted x-locals and the
   successor columns.

A skipped cell is one where the oracle's loop body does nothing, so
semantics are *identical* to the oracle — the dict-shaped loops in
``repro.core.movers`` and ``ISApplication.check_i3``, and the per-cell
``context.single`` loop of :func:`admitted_cells`: the same enumeration
order, ``checked`` incremented at the same points, and witnesses with the
same stores and transitions.
``tests/engine/test_columnar_differential.py`` asserts typed-identical
:class:`CheckResult`s on the Table 1 protocols and on failing mutants.
One difference is observable: an l-gate is never evaluated on a cell the
context rules out, so a gate that raises there raises only under the
oracle. The fast path has no off switch. It steps aside (falling back to
the oracle) for exactly one input: a PA context that declares its
decisions uncachable (``cache_key`` returns ``None``), because the class
index keys by the context's equivalence classes. Wrapping a context in
:class:`repro.core.context.UncachableContext` is therefore how tests and
benchmarks reach the oracle.

Columns key by intern ids, so the store registers with
``repro.core.cache.register_reset_hook`` and resets together with the
interner and the evaluation cache. Persistent result fingerprints
(``repro.engine.rcache``) never see ids or columns — they hash canonical
store contents, which is what keeps warm re-verification valid across the
representation change.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..diagnose.witness import CommutationWitness, GateWitness
from ..engine.resilience import poll
from .action import PendingAsync
from .cache import register_reset_hook
from .context import Pool
from .refinement import CheckResult, _fail
from .store import Store, store_interner

__all__ = [
    "ColumnarStore",
    "columnar_store",
    "admitted_cells",
    "left_mover_condition_columnar",
    "i3_fast_path",
]


class _Uncachable(Exception):
    """Raised when a PA context declares its decisions uncachable
    (``cache_key`` returned ``None``); the caller falls back to the
    dict-shaped oracle, which consults the context per store."""


def _view_key(view) -> Tuple[object, object]:
    """Columns are shared per underlying (gate, transitions) callable
    pair — the same identity the evaluation cache memoizes under — so the
    many Action wrappers the IS checks build around one invariant all hit
    the same columns."""
    action = getattr(view, "action", view)
    return (action.gate, action.transitions)


class _Admissibility:
    """Admissibility decisions for one PA context, per context class.

    ``ck_col[gid]`` maps a global's intern id to the dense index of its
    ``cache_key`` equivalence class; ``reps[ck]`` keeps one representative
    global per class. Decisions depend only on the class, so they are
    asked once per class — for the ghost context the ~2800 globals of a
    Paxos universe collapse onto a few hundred ghost multisets — and once
    per pool: one ``context.admitted`` (or ``admitted_pairs``) call
    decides every local of the pool, memoized per (pool, class).

    ``positions`` groups the positions of the last prefilled gids list by
    class: ``positions[ck]`` lists, ascending, the ``i`` with ``gids[i]``
    in class ``ck``, and ``cks[i]`` is that class. Every scan merges the
    lists of the classes that admit anything and visits only those
    positions. The grouping is redone only for a gids list of other
    contents: derived universes (``StoreUniverse.extended``) rebuild
    equal lists, so most prefills of a Table 1 run repeat the last
    grouping under a new list object (EXPERIMENTS.md, "Value kernel").
    """

    __slots__ = (
        "context",
        "ck_col",
        "ck_ids",
        "reps",
        "positions",
        "cks",
        "decisions",
        "_prefilled",
    )

    def __init__(self, context) -> None:
        self.context = context
        self.ck_col: List[Optional[int]] = []
        self.ck_ids: Dict[object, int] = {}
        self.reps: List[Store] = []
        self.positions: Dict[int, List[int]] = {}
        self.cks: List[int] = []
        # Pool key -> {class: ((il, decision), ...)}; a pool key is the
        # action name(s) and interned local ids, so equal pools of two
        # universes share their decisions.
        self.decisions: Dict[Tuple, Dict[int, tuple]] = {}
        self._prefilled: object = None

    def prefill(self, globals_pool, gids, table_size: int) -> None:
        """Classify every global of ``gids`` and group its positions by
        class, unless the last prefilled list has the same contents."""
        if self._prefilled is gids or self._prefilled == gids:
            return
        col = self.ck_col
        if len(col) < table_size:
            col.extend([None] * (table_size - len(col)))
        cks = [col[gid] for gid in gids]
        if None in cks:
            cache_key = self.context.cache_key
            ck_ids = self.ck_ids
            for i, ck in enumerate(cks):
                if ck is not None:
                    continue
                ck = col[gids[i]]
                if ck is None:
                    key = cache_key(globals_pool[i])
                    if key is None:
                        raise _Uncachable
                    ck = ck_ids.get(key)
                    if ck is None:
                        ck = len(self.reps)
                        ck_ids[key] = ck
                        self.reps.append(globals_pool[i])
                    col[gids[i]] = ck
                cks[i] = ck
        positions: Dict[int, List[int]] = {}
        for i, ck in enumerate(cks):
            at = positions.get(ck)
            if at is None:
                positions[ck] = [i]
            else:
                at.append(i)
        self.positions = positions
        self.cks = cks
        self._prefilled = gids

    def single_classes(self, classes, name: str, locals_, lids, stats) -> dict:
        """Per class index in ``classes``, ``(il, True)`` for every
        local ``il`` whose PA the class admits (``context.admitted``). Each
        (pool, class) decision the context is asked counts as a miss in
        ``stats``."""
        admitted = self.context.admitted
        pool = Pool(locals_)

        def decide(rep):
            stats.misses += 1
            return tuple((il, True) for il in admitted(rep, name, pool))

        return self._per_class(classes, (name, lids), decide)

    def pair_classes(
        self, classes, name_l, locals_l, lids_l, name_x, locals_x, lids_x
    ) -> dict:
        """Per class index in ``classes``, ``(il, row)`` for every left
        local ``il`` whose row — the right-local indices the class admits
        alongside it (``context.admitted_pairs``) — is non-empty. The three
        pair conditions of one (l, x) share the decisions."""
        admitted_pairs = self.context.admitted_pairs
        pool_l, pool_x = Pool(locals_l), Pool(locals_x)
        return self._per_class(
            classes,
            (name_l, lids_l, name_x, lids_x),
            lambda rep: admitted_pairs(rep, name_l, pool_l, name_x, pool_x),
        )

    def _per_class(self, classes, pool_key, decide) -> dict:
        """The pool's memo ``{ck: decide(reps[ck])}``, filled for every
        class index in ``classes``."""
        memo = self.decisions.setdefault(pool_key, {})
        reps = self.reps
        for ck in classes:
            if ck not in memo:
                memo[ck] = decide(reps[ck])
        return memo


class ColumnarStore:
    """Process-wide registry of evaluation columns (see module docstring)."""

    def __init__(self) -> None:
        self.gate_cols: Dict[Tuple, List[Optional[bool]]] = {}
        self.succ_cols: Dict[Tuple, List[Optional[tuple]]] = {}
        self.created_ids: Dict[object, int] = {}
        self.contexts: Dict[object, _Admissibility] = {}
        self.gate_fills = 0
        self.succ_fills = 0
        # Column key -> the exact gids list already batch-filled, compared
        # by identity (the reference also pins the list against id reuse).
        self._gate_batched: Dict[Tuple, object] = {}

    # ------------------------------------------------------------------ #
    # Columns
    # ------------------------------------------------------------------ #

    def _column(self, registry, view, lid: int, size: int) -> list:
        key = (_view_key(view), lid)
        col = registry.get(key)
        if col is None:
            col = []
            registry[key] = col
        if len(col) < size:
            col.extend([None] * (size - len(col)))
        return col

    def gate_column(self, view, lid: int, gids) -> list:
        """The gate column of (view, local), batch-filled over ``gids``."""
        itn = store_interner()
        key = (_view_key(view), lid)
        col = self._column(self.gate_cols, view, lid, len(itn))
        if self._gate_batched.get(key) is gids:
            return col
        gate = view.gate
        combine_ids = itn.combine_ids
        fills = 0
        for gid in gids:
            if col[gid] is None:
                poll()
                col[gid] = gate(combine_ids(gid, lid))
                fills += 1
        self.gate_fills += fills
        self._gate_batched[key] = gids
        return col

    def gate_column_lazy(self, view, lid: int) -> list:
        """The gate column of (view, local) with no batch fill: entries
        are ``None`` until probed (``fill_gate``). The left-mover loops
        probe gates only on admitted cells, so a batch fill over the
        whole pool would be mostly wasted work."""
        return self._column(self.gate_cols, view, lid, len(store_interner()))

    def fill_gate(self, col: list, view, lid: int, gid: int) -> bool:
        """Fill one gate entry on probe (any global, successors included)."""
        poll()
        itn = store_interner()
        if gid >= len(col):
            col.extend([None] * (len(itn) - len(col)))
        value = view.gate(itn.combine_ids(gid, lid))
        col[gid] = value
        self.gate_fills += 1
        return value

    def succ_column(self, view, lid: int, gids=(), where=None) -> list:
        """The successor column of (view, local).

        When ``where`` (a gate column) is given, entries are batch-filled
        for the gids whose gate holds — the ones the mover loops will
        visit — and left lazy elsewhere.
        """
        itn = store_interner()
        col = self._column(self.succ_cols, view, lid, len(itn))
        if where is not None:
            for gid in gids:
                if col[gid] is None and where[gid]:
                    self.fill_succ(col, view, lid, gid)
        return col

    def fill_succ(self, col: list, view, lid: int, gid: int) -> tuple:
        """Evaluate and intern the transitions of (view, local) from the
        global with id ``gid``: ``(tr, new_gid, created_cid)`` triples."""
        poll()
        itn = store_interner()
        state = itn.combine_ids(gid, lid)
        intern = itn.intern
        created_ids = self.created_ids
        entries = []
        for tr in view.transitions(state):
            created = tr.created
            cid = created_ids.get(created)
            if cid is None:
                cid = len(created_ids)
                created_ids[created] = cid
            entries.append((tr, intern(tr.new_global), cid))
        entries = tuple(entries)
        if gid >= len(col):
            col.extend([None] * (len(itn) - len(col)))
        col[gid] = entries
        self.succ_fills += 1
        return entries

    # ------------------------------------------------------------------ #
    # Admissibility
    # ------------------------------------------------------------------ #

    def admissibility(self, universe, globals_pool, gids) -> _Admissibility:
        context = universe.context
        adm = self.contexts.get(context)
        if adm is None:
            adm = _Admissibility(context)
            self.contexts[context] = adm
        adm.prefill(globals_pool, gids, len(store_interner()))
        return adm

    # ------------------------------------------------------------------ #
    # Lifecycle / accounting
    # ------------------------------------------------------------------ #

    def clear(self) -> None:
        self.gate_cols.clear()
        self.succ_cols.clear()
        self.created_ids.clear()
        self.contexts.clear()
        self._gate_batched.clear()
        self.gate_fills = 0
        self.succ_fills = 0

    def stats(self) -> Dict[str, int]:
        return {
            "gate_columns": len(self.gate_cols),
            "succ_columns": len(self.succ_cols),
            "gate_fills": self.gate_fills,
            "succ_fills": self.succ_fills,
            "created_multisets": len(self.created_ids),
            "admissibility_contexts": len(self.contexts),
        }

    def __repr__(self) -> str:
        return (
            f"ColumnarStore({len(self.gate_cols)} gate cols, "
            f"{len(self.succ_cols)} succ cols, "
            f"{self.gate_fills}+{self.succ_fills} fills)"
        )


_STORE = ColumnarStore()
register_reset_hook(_STORE.clear)


def columnar_store() -> ColumnarStore:
    """The process's column store (forked children share it COW)."""
    return _STORE


# ---------------------------------------------------------------------- #
# Admitted cells
# ---------------------------------------------------------------------- #


def _universe_ids(universe):
    # The whole-universe gids list is interned once per epoch and cached
    # on the universe; its object identity doubles as the batch-fill
    # marker for gate columns and admissibility prefills.
    itn = store_interner()
    universe._fresh_memo_keys()
    gids = universe._gids_cache
    if gids is None:
        intern = itn.intern
        gids = [intern(g) for g in universe.globals_]
        universe._gids_cache = gids
    return itn, gids


def _locals_ids(itn, universe, name):
    locals_ = universe.locals_for(name)
    intern = itn.intern
    return locals_, tuple(intern(l) for l in locals_)


class _Cells:
    """One action's cells: the universe's interned globals, the action's
    interned locals, and the PA context's class index over those
    globals."""

    def __init__(self, universe, name):
        itn, self.gids = _universe_ids(universe)
        self.pool = universe.globals_
        self.itn = itn
        self.locals_, self.lids = _locals_ids(itn, universe, name)
        self.adm = adm = _STORE.admissibility(universe, self.pool, self.gids)
        self.positions, self.cks = adm.positions, adm.cks
        self.stats = universe.context_cache_stats

    def singles(self, pa_name: str):
        """``(gi, il, True)`` per cell whose PA ``(pa_name, locals_[il])``
        the context admits, in the oracle's order. Every cell counts in
        the universe's ``context_cache_stats``: a miss per (pool, class)
        decision the context is asked, a hit per other cell, each served
        from a memoized class decision."""
        stats = self.stats
        asked = stats.misses
        by_class = self.adm.single_classes(
            self.positions, pa_name, self.locals_, self.lids, stats
        )
        stats.hits += len(self.gids) * len(self.lids) - (stats.misses - asked)
        return self.scan(by_class)

    def scan(self, by_class):
        """``(gi, il, decision)`` for the cells of the classes that admit
        something, in the oracle's order (global-major, then locals).
        Every skipped cell is one where the oracle's loop body does
        nothing. Polls the stop state once per 256 globals."""
        live = [at for ck, at in self.positions.items() if by_class[ck]]
        if len(live) == 1:
            order = live[0]
        else:
            # Each list is ascending, so the sort merges sorted runs.
            order = sorted(chain.from_iterable(live))
        cks = self.cks
        for n, gi in enumerate(order):
            if not n & 255:
                poll()
            for il, decision in by_class[cks[gi]]:
                yield gi, il, decision


def admitted_cells(universe, name: str, pa_name=None):
    """The cells ``(g, l)`` of the universe's globals ×
    ``locals_for(name)`` from which the PA context admits PA
    ``(pa_name, l)`` (``pa_name`` defaults to ``name``), in the
    oracle's order: global-major, then locals in pool order.

    Served by the admissibility scan; an uncachable context gets the
    reference loop, which asks ``context.single`` per cell."""
    pa_name = name if pa_name is None else pa_name
    try:
        cells = _Cells(universe, name)
    except _Uncachable:
        single = universe.context.single
        return (
            (g, l)
            for g in universe.globals_
            for l in universe.locals_for(name)
            if single(g, PendingAsync(pa_name, l))
        )
    pool, locals_ = cells.pool, cells.locals_
    return ((pool[gi], locals_[il]) for gi, il, _ in cells.singles(pa_name))


# ---------------------------------------------------------------------- #
# Columnar left-mover conditions (order-exact oracle replacements)
# ---------------------------------------------------------------------- #


class _Frame(_Cells):
    """What each left-mover condition of ``l`` w.r.t. ``x`` starts from:
    ``l``'s cells, ``x``'s interned locals, and lazy columns."""

    def __init__(self, l, x, universe):
        super().__init__(universe, l.name)
        self.locals_x, self.lids_x = _locals_ids(self.itn, universe, x.name)
        self.l, self.x = l, x
        self.lcols = self.gates(l, self.lids)

    @staticmethod
    def gates(view, lids) -> list:
        return [_STORE.gate_column_lazy(view, lid) for lid in lids]

    @staticmethod
    def succs(view, lids) -> list:
        return [_STORE.succ_column(view, lid) for lid in lids]

    def pair_cells(self):
        """``(gi, gid, il, row)`` per admitted cell whose l-gate holds,
        ``row`` being the admissible right-local indices."""
        return self._gated(
            self.scan(
                self.adm.pair_classes(
                    self.positions,
                    self.l.name,
                    self.locals_,
                    self.lids,
                    self.x.name,
                    self.locals_x,
                    self.lids_x,
                )
            )
        )

    def single_cells(self):
        """``(gi, gid, il, True)`` per cell whose PA the context admits
        and whose l-gate holds."""
        return self._gated(self.singles(self.l.name))

    def _gated(self, cells):
        """The cells whose l-gate holds, filled on probe."""
        gids, lcols = self.gids, self.lcols
        l, lids, fill_gate = self.l, self.lids, _STORE.fill_gate
        for gi, il, row in cells:
            gid = gids[gi]
            lcol = lcols[il]
            ok = lcol[gid]
            if ok is None:
                ok = fill_gate(lcol, l, lids[il], gid)
            if ok:
                yield gi, gid, il, row


def _gate_forward_preserved(l, x, universe, fail_fast):
    result = CheckResult(f"gate of {l.name} forward-preserved by {x.name}", True)
    f = _Frame(l, x, universe)
    lids_l, lids_x, lcols = f.lids, f.lids_x, f.lcols
    xcols, xsucc = f.gates(x, lids_x), f.succs(x, lids_x)
    fill_gate, fill_succ = _STORE.fill_gate, _STORE.fill_succ
    checked = 0
    for gi, gid, il, adm_ix in f.pair_cells():
        lcol = lcols[il]
        for ix in adm_ix:
            xcol = xcols[ix]
            xg = xcol[gid]
            if xg is None:
                xg = fill_gate(xcol, x, lids_x[ix], gid)
            if not xg:
                continue
            succs = xsucc[ix][gid]
            if succs is None:
                succs = fill_succ(xsucc[ix], x, lids_x[ix], gid)
            for entry in succs:
                checked += 1
                ngid = entry[1]
                after = lcol[ngid] if ngid < len(lcol) else None
                if after is None:
                    after = fill_gate(lcol, l, lids_l[il], ngid)
                if not after:
                    _fail(
                        result,
                        CommutationWitness(
                            reason="gate lost",
                            check="forward-preservation",
                            actors=(l.name, x.name),
                            global_store=f.pool[gi],
                            left_locals=f.locals_[il],
                            right_locals=f.locals_x[ix],
                            first_transition=entry[0],
                        ),
                    )
                    if fail_fast:
                        result.checked = checked
                        return result
    result.checked = checked
    return result


def _gate_backward_preserved(l, x, universe, fail_fast):
    result = CheckResult(f"gate of {x.name} backward-preserved by {l.name}", True)
    f = _Frame(l, x, universe)
    lids_l, lids_x = f.lids, f.lids_x
    xcols, lsucc = f.gates(x, lids_x), f.succs(l, lids_l)
    fill_gate, fill_succ = _STORE.fill_gate, _STORE.fill_succ
    checked = 0
    for gi, gid, il, adm_ix in f.pair_cells():
        succs = lsucc[il][gid]
        if succs is None:
            succs = fill_succ(lsucc[il], l, lids_l[il], gid)
        for entry in succs:
            ngid = entry[1]
            for ix in adm_ix:
                checked += 1
                xcol = xcols[ix]
                after = xcol[ngid] if ngid < len(xcol) else None
                if after is None:
                    after = fill_gate(xcol, x, lids_x[ix], ngid)
                if not after:
                    continue
                before = xcol[gid]
                if before is None:
                    before = fill_gate(xcol, x, lids_x[ix], gid)
                if not before:
                    _fail(
                        result,
                        CommutationWitness(
                            reason="gate introduced",
                            check="backward-preservation",
                            actors=(l.name, x.name),
                            global_store=f.pool[gi],
                            left_locals=f.locals_[il],
                            right_locals=f.locals_x[ix],
                            first_transition=entry[0],
                        ),
                    )
                    if fail_fast:
                        result.checked = checked
                        return result
    result.checked = checked
    return result


def _commutes_left(l, x, universe, fail_fast):
    result = CheckResult(f"{l.name} commutes to the left of {x.name}", True)
    f = _Frame(l, x, universe)
    lids_l, lids_x = f.lids, f.lids_x
    xcols, xsucc, lsucc = f.gates(x, lids_x), f.succs(x, lids_x), f.succs(l, lids_l)
    fill_gate, fill_succ = _STORE.fill_gate, _STORE.fill_succ
    checked = 0
    for gi, gid, il, adm_ix in f.pair_cells():
        lid_l = lids_l[il]
        lsucc_il = lsucc[il]
        for ix in adm_ix:
            xcol = xcols[ix]
            xg = xcol[gid]
            if xg is None:
                xg = fill_gate(xcol, x, lids_x[ix], gid)
            if not xg:
                continue
            xsucc_ix = xsucc[ix]
            succs_x = xsucc_ix[gid]
            if succs_x is None:
                succs_x = fill_succ(xsucc_ix, x, lids_x[ix], gid)
            for entry_x in succs_x:
                mid_gid = entry_x[1]
                cid_x = entry_x[2]
                succs_mid = lsucc_il[mid_gid] if mid_gid < len(lsucc_il) else None
                if succs_mid is None:
                    succs_mid = fill_succ(lsucc_il, l, lid_l, mid_gid)
                for entry_l in succs_mid:
                    checked += 1
                    # ∃ĝ: l from g reaches ĝ with entry_l's PAs, then x
                    # from ĝ reaches the same final global with
                    # entry_x's PAs — the oracle's ``_has_swapped``
                    # on interned ids.
                    cid_l = entry_l[2]
                    ngid_l = entry_l[1]
                    swapped = False
                    succs_l0 = lsucc_il[gid]
                    if succs_l0 is None:
                        succs_l0 = fill_succ(lsucc_il, l, lid_l, gid)
                    for e2 in succs_l0:
                        if e2[2] != cid_l:
                            continue
                        xsucc2 = xsucc_ix[e2[1]] if e2[1] < len(xsucc_ix) else None
                        if xsucc2 is None:
                            xsucc2 = fill_succ(xsucc_ix, x, lids_x[ix], e2[1])
                        for e3 in xsucc2:
                            if e3[2] == cid_x and e3[1] == ngid_l:
                                swapped = True
                                break
                        if swapped:
                            break
                    if not swapped:
                        _fail(
                            result,
                            CommutationWitness(
                                reason="no matching l-then-x execution",
                                check="commutation",
                                actors=(l.name, x.name),
                                global_store=f.pool[gi],
                                left_locals=f.locals_[il],
                                right_locals=f.locals_x[ix],
                                first_transition=entry_x[0],
                                second_transition=entry_l[0],
                            ),
                        )
                        if fail_fast:
                            result.checked = checked
                            return result
    result.checked = checked
    return result


def _non_blocking(l, x, universe, fail_fast):
    result = CheckResult(f"{l.name} non-blocking", True)
    f = _Frame(l, x, universe)
    lids_l = f.lids
    lsucc = f.succs(l, lids_l)
    fill_succ = _STORE.fill_succ
    checked = 0
    for gi, gid, il, _ in f.single_cells():
        checked += 1
        succs = lsucc[il][gid]
        if succs is None:
            succs = fill_succ(lsucc[il], l, lids_l[il], gid)
        if not succs:
            _fail(
                result,
                GateWitness(
                    reason="blocks in gate-satisfying store",
                    check="non-blocking",
                    actors=(l.name,),
                    state=f.itn.combine_ids(gid, lids_l[il]),
                ),
            )
            if fail_fast:
                result.checked = checked
                return result
    result.checked = checked
    return result


_FNS = {
    "forward_preservation": _gate_forward_preserved,
    "backward_preservation": _gate_backward_preserved,
    "commutation": _commutes_left,
    "non_blocking": _non_blocking,
}


def left_mover_condition_columnar(
    condition: str, l, x, universe, fail_fast: bool = False
) -> Optional[CheckResult]:
    """Columnar evaluation of one left-mover condition, or ``None`` for
    an uncachable PA context — the caller then runs the dict oracle."""
    try:
        return _FNS[condition](l, x, universe, fail_fast)
    except _Uncachable:
        return None


# ---------------------------------------------------------------------- #
# I3 fast path
# ---------------------------------------------------------------------- #


class I3Fast:
    """Column-backed cells and gates for ``ISApplication.check_i3``.

    Serves M's admitted cells (the single-PA scan) through the
    invariant's batch-filled gate columns, and the abstractions' gates on
    post-transition stores from lazy columns, while the composition chase
    itself stays object-level (it is not the hot part).
    """

    __slots__ = ("_cells", "_m_name", "_inv_cols", "_abs_cols")

    def __init__(self, universe, m_name, invariant):
        self._cells = cells = _Cells(universe, m_name)
        self._m_name = m_name
        self._inv_cols = [
            _STORE.gate_column(invariant, lid, cells.gids) for lid in cells.lids
        ]
        self._abs_cols: Dict[Tuple, list] = {}

    def cells(self):
        """``(g, l)`` per admitted cell whose invariant gate holds, in
        the oracle's order."""
        c = self._cells
        pool, gids, locals_, inv_cols = c.pool, c.gids, c.locals_, self._inv_cols
        for gi, il, _ in c.singles(self._m_name):
            if inv_cols[il][gids[gi]]:
                yield pool[gi], locals_[il]

    def abstraction_gate(self, view, locals_store: Store, new_global: Store) -> bool:
        itn = self._cells.itn
        lid = itn.intern(locals_store)
        key = (_view_key(view), lid)
        col = self._abs_cols.get(key)
        if col is None:
            col = _STORE._column(_STORE.gate_cols, view, lid, len(itn))
            self._abs_cols[key] = col
        gid = itn.intern(new_global)
        value = col[gid] if gid < len(col) else None
        if value is None:
            value = _STORE.fill_gate(col, view, lid, gid)
        return value


def i3_fast_path(universe, m_name, invariant) -> Optional[I3Fast]:
    """An :class:`I3Fast` for ``universe``, or ``None`` for an
    uncachable PA context."""
    try:
        return I3Fast(universe, m_name, invariant)
    except _Uncachable:
        return None
