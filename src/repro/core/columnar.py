"""Columnar batch evaluation of IS predicates over interned universes.

The LM and I3 obligations enumerate millions of (global, local) combos per
discharge run, and the dict-shaped hot path paid a Python call plus a
hashed-dict probe per predicate per combo (``gate(combine(g, l))``,
``universe.pair_ok(...)``, ``transitions(...)`` — see the profile in
ROADMAP item 3). This module replaces those per-store calls with
*columns*: per-(action-view, local) arrays indexed by the global store's
intern id (``repro.core.store.StoreInterner``), filled in one batch pass
over the universe and extended lazily for successor globals discovered
while commuting actions. The inner loops of the four left-mover conditions
and of I3 then run on list indexing and small-int compares:

* **gate columns** — ``col[gid] -> bool`` for one (view, local) pair;
* **successor columns** — ``col[gid] -> ((tr, new_gid, created_cid), …)``
  with the transition's new global interned and its created-PA multiset
  mapped to a small int, so the commutation diagram chase
  (``_has_swapped``) compares ints instead of multisets;
* **admissibility tables** — pair/single decisions per PA context, keyed
  by the context's ``cache_key`` equivalence class of globals (the ghost
  multiset), computed once per class and shared by every global in it.

Semantics are *identical* to the dict-shaped oracle in
``repro.core.movers`` / ``ISApplication.check_i3``: the loops preserve the
exact enumeration order (global-major, then locals, then transitions), the
``checked`` counters increment at the same points, and witnesses carry the
same stores and transitions — ``tests/engine/test_columnar_differential.py``
asserts typed-identical :class:`CheckResult`s on all seven protocols. The
fast path has no off switch. It steps aside (falling back to the oracle)
for exactly one input: a PA context that declares its decisions
uncachable (``cache_key`` returns ``None``), because admissibility tables
key by the context's equivalence classes. Wrapping a context in
:class:`repro.core.context.UncachableContext` is therefore how tests and
benchmarks reach the oracle.

Forked pool workers inherit the column store through fork copy-on-write
(the scheduler's warm-up pass builds the columns in the parent first), so
a worker starts from filled tables instead of re-deriving them. Columns
key by intern ids, so the store registers with
``repro.core.cache.register_reset_hook`` and resets together with the
interner and the evaluation cache. Persistent result fingerprints
(``repro.engine.rcache``) never see ids or columns — they hash canonical
store contents, which is what keeps warm re-verification valid across the
representation change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..diagnose.witness import CommutationWitness, GateWitness
from .action import PendingAsync
from .cache import register_reset_hook
from .refinement import CheckResult, _fail
from .store import Store, store_interner

__all__ = [
    "ColumnarStore",
    "columnar_store",
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
    """Pair/single admissibility tables for one PA context.

    ``ck_col[gid]`` maps a global's intern id to the dense index of its
    ``cache_key`` equivalence class; ``reps[ck]`` keeps one representative
    global per class for lazy decision fills. Decisions are stored per
    class in small dicts keyed by that index — for the ghost context this
    collapses the ~2800 globals of a Paxos universe onto a few hundred
    ghost multisets, which is what removes ``pair_ok`` from the profile.
    """

    __slots__ = (
        "context",
        "ck_col",
        "ck_ids",
        "reps",
        "pair_cells",
        "single_cells",
        "row_memos",
        "_prefilled",
    )

    def __init__(self, context) -> None:
        self.context = context
        self.ck_col: List[Optional[int]] = []
        self.ck_ids: Dict[object, int] = {}
        self.reps: List[Store] = []
        self.pair_cells: Dict[Tuple, Dict[int, bool]] = {}
        self.single_cells: Dict[Tuple, Dict[int, bool]] = {}
        self.row_memos: Dict[Tuple, Dict[int, tuple]] = {}
        self._prefilled: object = None

    def prefill(self, globals_pool, gids, table_size: int) -> None:
        if self._prefilled is gids:
            return
        col = self.ck_col
        if len(col) < table_size:
            col.extend([None] * (table_size - len(col)))
        cache_key = self.context.cache_key
        ck_ids = self.ck_ids
        for i, gid in enumerate(gids):
            if col[gid] is None:
                key = cache_key(globals_pool[i])
                if key is None:
                    raise _Uncachable
                ck = ck_ids.get(key)
                if ck is None:
                    ck = len(self.reps)
                    ck_ids[key] = ck
                    self.reps.append(globals_pool[i])
                col[gid] = ck
        self._prefilled = gids

    def pair_row(self, name1: str, lid1: int, name2: str, locals2, lids2):
        """One row of lazy pair cells: ``(cell, local2)`` per right-hand
        local, where ``cell`` maps a class index to the decision."""
        cells = self.pair_cells
        row = []
        for l2, lid2 in zip(locals2, lids2):
            key = (name1, lid1, name2, lid2)
            cell = cells.get(key)
            if cell is None:
                cell = {}
                cells[key] = cell
            row.append((cell, l2))
        return row

    def single_cell(self, name: str, lid: int) -> Dict[int, bool]:
        key = (name, lid)
        cell = self.single_cells.get(key)
        if cell is None:
            cell = {}
            self.single_cells[key] = cell
        return cell

    def row_memo(self, name1: str, lid1: int, name2: str, lids2_key) -> dict:
        """Class-index → admissible right-local indices, shared across the
        four LM conditions of the same (left, right) pair.  ``lids2_key``
        pins the right-hand locals pool the indices point into."""
        key = (name1, lid1, name2, lids2_key)
        memo = self.row_memos.get(key)
        if memo is None:
            memo = {}
            self.row_memos[key] = memo
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
                col[gid] = gate(combine_ids(gid, lid))
                fills += 1
        self.gate_fills += fills
        self._gate_batched[key] = gids
        return col

    def gate_column_lazy(self, view, lid: int) -> list:
        """The gate column of (view, local) with no batch fill: entries
        are ``None`` until probed (``fill_gate``).  Right-hand movers are
        probed only where the left gate and admissibility already passed,
        so batch-evaluating their gates over the whole pool is wasted
        work — Main-typed right columns dominated the cold profile."""
        return self._column(self.gate_cols, view, lid, len(store_interner()))

    def fill_gate(self, col: list, view, lid: int, gid: int) -> bool:
        """Lazy gate fill for an out-of-universe (successor) global."""
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
# Columnar left-mover conditions (order-exact oracle replacements)
# ---------------------------------------------------------------------- #


def _universe_ids(universe, globals_subset):
    itn = store_interner()
    if globals_subset is None:
        # The whole-universe gids list is interned once per epoch and
        # cached on the universe; its object identity doubles as the
        # batch-fill marker for gate columns and admissibility prefills.
        universe._fresh_memo_keys()
        gids = universe._gids_cache
        if gids is None:
            intern = itn.intern
            gids = [intern(g) for g in universe.globals_]
            universe._gids_cache = gids
        return itn, universe.globals_, gids
    intern = itn.intern
    return itn, globals_subset, [intern(g) for g in globals_subset]


def _locals_ids(itn, universe, name):
    locals_ = universe.locals_for(name)
    intern = itn.intern
    return locals_, [intern(l) for l in locals_]


def _adm_row_ix(row, ck, ctx_pair, reps, name_l, ll, name_x):
    """Indices of right-locals admissible with ``ll`` under class ``ck``.

    The pair-admissibility of (ll, lx) depends only on the context's
    cache_key class of the global, so the whole inner probe collapses to
    one tuple per (left-local, class) that every global in the class —
    and every successor entry — reuses.  Ascending index order matches
    the oracle's enumeration of right-locals.
    """
    out = []
    rep = None
    left = None
    for ix, (cell, lx) in enumerate(row):
        ok = cell.get(ck)
        if ok is None:
            if rep is None:
                rep = reps[ck]
                left = PendingAsync(name_l, ll)
            ok = ctx_pair(rep, left, PendingAsync(name_x, lx))
            cell[ck] = ok
        if ok:
            out.append(ix)
    return tuple(out)


def _gate_forward_preserved(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"gate of {l.name} forward-preserved by {x.name}", True)
    cs = _STORE
    itn, globals_pool, gids = _universe_ids(universe, globals_subset)
    locals_l, lids_l = _locals_ids(itn, universe, l.name)
    locals_x, lids_x = _locals_ids(itn, universe, x.name)
    adm = cs.admissibility(universe, globals_pool, gids)
    lcols = [cs.gate_column(l, lid, gids) for lid in lids_l]
    xcols = [cs.gate_column_lazy(x, lid) for lid in lids_x]
    xsucc = [cs.succ_column(x, lid) for lid in lids_x]
    pair_rows = [
        adm.pair_row(l.name, lid_l, x.name, locals_x, lids_x) for lid_l in lids_l
    ]
    ck_col = adm.ck_col
    ctx_pair = adm.context.pair
    reps = adm.reps
    name_l, name_x = l.name, x.name
    n_l, n_x = len(locals_l), len(locals_x)
    checked = 0
    fill_gate, fill_succ = cs.fill_gate, cs.fill_succ
    lids_x_key = tuple(lids_x)
    adm_memos = [
        adm.row_memo(name_l, lid_l, name_x, lids_x_key) for lid_l in lids_l
    ]
    for gi in range(len(gids)):
        gid = gids[gi]
        ck = ck_col[gid]
        for il in range(n_l):
            lcol = lcols[il]
            if not lcol[gid]:
                continue
            ll = locals_l[il]
            lid_l = lids_l[il]
            memo = adm_memos[il]
            adm_ix = memo.get(ck)
            if adm_ix is None:
                adm_ix = _adm_row_ix(
                    pair_rows[il], ck, ctx_pair, reps, name_l, ll, name_x
                )
                memo[ck] = adm_ix
            for ix in adm_ix:
                xcol = xcols[ix]
                xg = xcol[gid]
                if xg is None:
                    xg = fill_gate(xcol, x, lids_x[ix], gid)
                if not xg:
                    continue
                lx = locals_x[ix]
                succs = xsucc[ix][gid]
                if succs is None:
                    succs = fill_succ(xsucc[ix], x, lids_x[ix], gid)
                for entry in succs:
                    checked += 1
                    ngid = entry[1]
                    after = lcol[ngid] if ngid < len(lcol) else None
                    if after is None:
                        after = fill_gate(lcol, l, lid_l, ngid)
                    if not after:
                        _fail(
                            result,
                            CommutationWitness(
                                reason="gate lost",
                                check="forward-preservation",
                                actors=(name_l, name_x),
                                global_store=globals_pool[gi],
                                left_locals=ll,
                                right_locals=lx,
                                first_transition=entry[0],
                            ),
                        )
                        if fail_fast:
                            result.checked = checked
                            return result
    result.checked = checked
    return result


def _gate_backward_preserved(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"gate of {x.name} backward-preserved by {l.name}", True)
    cs = _STORE
    itn, globals_pool, gids = _universe_ids(universe, globals_subset)
    locals_l, lids_l = _locals_ids(itn, universe, l.name)
    locals_x, lids_x = _locals_ids(itn, universe, x.name)
    adm = cs.admissibility(universe, globals_pool, gids)
    lcols = [cs.gate_column(l, lid, gids) for lid in lids_l]
    xcols = [cs.gate_column_lazy(x, lid) for lid in lids_x]
    lsucc = [cs.succ_column(l, lid) for lid in lids_l]
    pair_rows = [
        adm.pair_row(l.name, lid_l, x.name, locals_x, lids_x) for lid_l in lids_l
    ]
    ck_col = adm.ck_col
    ctx_pair = adm.context.pair
    reps = adm.reps
    name_l, name_x = l.name, x.name
    n_l, n_x = len(locals_l), len(locals_x)
    checked = 0
    fill_gate, fill_succ = cs.fill_gate, cs.fill_succ
    lids_x_key = tuple(lids_x)
    adm_memos = [
        adm.row_memo(name_l, lid_l, name_x, lids_x_key) for lid_l in lids_l
    ]
    for gi in range(len(gids)):
        gid = gids[gi]
        ck = ck_col[gid]
        for il in range(n_l):
            if not lcols[il][gid]:
                continue
            ll = locals_l[il]
            # Admissibility before the successor fill: when no right-hand
            # local is admissible under this class, the (often expensive)
            # transition evaluation is never needed.
            memo = adm_memos[il]
            adm_ix = memo.get(ck)
            if adm_ix is None:
                adm_ix = _adm_row_ix(
                    pair_rows[il], ck, ctx_pair, reps, name_l, ll, name_x
                )
                memo[ck] = adm_ix
            if not adm_ix:
                continue
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
                                actors=(name_l, name_x),
                                global_store=globals_pool[gi],
                                left_locals=ll,
                                right_locals=locals_x[ix],
                                first_transition=entry[0],
                            ),
                        )
                        if fail_fast:
                            result.checked = checked
                            return result
    result.checked = checked
    return result


def _commutes_left(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"{l.name} commutes to the left of {x.name}", True)
    cs = _STORE
    itn, globals_pool, gids = _universe_ids(universe, globals_subset)
    locals_l, lids_l = _locals_ids(itn, universe, l.name)
    locals_x, lids_x = _locals_ids(itn, universe, x.name)
    adm = cs.admissibility(universe, globals_pool, gids)
    lcols = [cs.gate_column(l, lid, gids) for lid in lids_l]
    xcols = [cs.gate_column_lazy(x, lid) for lid in lids_x]
    xsucc = [cs.succ_column(x, lid) for lid in lids_x]
    lsucc = [cs.succ_column(l, lid) for lid in lids_l]
    pair_rows = [
        adm.pair_row(l.name, lid_l, x.name, locals_x, lids_x) for lid_l in lids_l
    ]
    ck_col = adm.ck_col
    ctx_pair = adm.context.pair
    reps = adm.reps
    name_l, name_x = l.name, x.name
    n_l, n_x = len(locals_l), len(locals_x)
    checked = 0
    fill_gate, fill_succ = cs.fill_gate, cs.fill_succ
    lids_x_key = tuple(lids_x)
    adm_memos = [
        adm.row_memo(name_l, lid_l, name_x, lids_x_key) for lid_l in lids_l
    ]
    for gi in range(len(gids)):
        gid = gids[gi]
        ck = ck_col[gid]
        for il in range(n_l):
            if not lcols[il][gid]:
                continue
            ll = locals_l[il]
            lid_l = lids_l[il]
            lsucc_il = lsucc[il]
            memo = adm_memos[il]
            adm_ix = memo.get(ck)
            if adm_ix is None:
                adm_ix = _adm_row_ix(
                    pair_rows[il], ck, ctx_pair, reps, name_l, ll, name_x
                )
                memo[ck] = adm_ix
            for ix in adm_ix:
                xcol = xcols[ix]
                xg = xcol[gid]
                if xg is None:
                    xg = fill_gate(xcol, x, lids_x[ix], gid)
                if not xg:
                    continue
                lx = locals_x[ix]
                xsucc_ix = xsucc[ix]
                succs_x = xsucc_ix[gid]
                if succs_x is None:
                    succs_x = fill_succ(xsucc_ix, x, lids_x[ix], gid)
                for entry_x in succs_x:
                    mid_gid = entry_x[1]
                    cid_x = entry_x[2]
                    succs_mid = (
                        lsucc_il[mid_gid] if mid_gid < len(lsucc_il) else None
                    )
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
                            xsucc2 = (
                                xsucc_ix[e2[1]] if e2[1] < len(xsucc_ix) else None
                            )
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
                                    actors=(name_l, name_x),
                                    global_store=globals_pool[gi],
                                    left_locals=ll,
                                    right_locals=lx,
                                    first_transition=entry_x[0],
                                    second_transition=entry_l[0],
                                ),
                            )
                            if fail_fast:
                                result.checked = checked
                                return result
    result.checked = checked
    return result


def _non_blocking(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"{l.name} non-blocking", True)
    cs = _STORE
    itn, globals_pool, gids = _universe_ids(universe, globals_subset)
    locals_l, lids_l = _locals_ids(itn, universe, l.name)
    adm = cs.admissibility(universe, globals_pool, gids)
    lcols = [cs.gate_column(l, lid, gids) for lid in lids_l]
    lsucc = [cs.succ_column(l, lid) for lid in lids_l]
    cells = [adm.single_cell(l.name, lid) for lid in lids_l]
    ck_col = adm.ck_col
    ctx_single = adm.context.single
    reps = adm.reps
    name_l = l.name
    n_l = len(locals_l)
    checked = 0
    fill_succ = cs.fill_succ
    for gi in range(len(gids)):
        gid = gids[gi]
        ck = ck_col[gid]
        for il in range(n_l):
            cell = cells[il]
            ok = cell.get(ck)
            if ok is None:
                ok = ctx_single(reps[ck], PendingAsync(name_l, locals_l[il]))
                cell[ck] = ok
            if not ok:
                continue
            if not lcols[il][gid]:
                continue
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
                        actors=(name_l,),
                        state=itn.combine_ids(gid, lids_l[il]),
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
    condition: str, l, x, universe, fail_fast: bool = False, globals_subset=None
) -> Optional[CheckResult]:
    """Columnar evaluation of one left-mover condition, or ``None`` for
    an uncachable PA context — the caller then runs the dict oracle."""
    try:
        return _FNS[condition](l, x, universe, fail_fast, globals_subset)
    except _Uncachable:
        return None


# ---------------------------------------------------------------------- #
# I3 fast path
# ---------------------------------------------------------------------- #


class I3Fast:
    """Column-backed predicate lookups for ``ISApplication.check_i3``.

    Serves the I3 inner loop's three hot predicates from columns — the
    single-PA admissibility of M's candidates, the invariant's gate, and
    the abstractions' gates on post-transition stores — while the
    composition chase itself stays object-level (it is not the hot part).
    """

    __slots__ = (
        "gids",
        "_itn",
        "_adm",
        "_m_name",
        "_locals",
        "_lids",
        "_inv_cols",
        "_single",
        "_abs_cols",
        "_store",
    )

    def __init__(self, universe, globals_pool, gids, m_name, locals_pool, invariant):
        cs = _STORE
        itn = store_interner()
        self.gids = gids
        self._store = cs
        self._itn = itn
        self._m_name = m_name
        self._locals = locals_pool
        self._lids = [itn.intern(l) for l in locals_pool]
        self._adm = cs.admissibility(universe, globals_pool, gids)
        self._inv_cols = [
            cs.gate_column(invariant, lid, gids) for lid in self._lids
        ]
        self._single = [
            self._adm.single_cell(m_name, lid) for lid in self._lids
        ]
        self._abs_cols: Dict[Tuple, list] = {}

    def single_ok(self, li: int, gid: int) -> bool:
        adm = self._adm
        ck = adm.ck_col[gid]
        cell = self._single[li]
        ok = cell.get(ck)
        if ok is None:
            ok = adm.context.single(
                adm.reps[ck], PendingAsync(self._m_name, self._locals[li])
            )
            cell[ck] = ok
        return ok

    def invariant_gate(self, li: int, gid: int) -> bool:
        return self._inv_cols[li][gid]

    def abstraction_gate(self, view, locals_store: Store, new_global: Store) -> bool:
        itn = self._itn
        lid = itn.intern(locals_store)
        key = (_view_key(view), lid)
        col = self._abs_cols.get(key)
        if col is None:
            col = self._store._column(self._store.gate_cols, view, lid, len(itn))
            self._abs_cols[key] = col
        gid = itn.intern(new_global)
        value = col[gid] if gid < len(col) else None
        if value is None:
            value = self._store.fill_gate(col, view, lid, gid)
        return value


def i3_fast_path(
    universe, globals_pool, m_name, locals_pool, invariant
) -> Optional[I3Fast]:
    """An :class:`I3Fast` for this I3 shard, or ``None`` for an
    uncachable PA context."""
    itn = store_interner()
    intern = itn.intern
    gids = [intern(g) for g in globals_pool]
    try:
        return I3Fast(universe, globals_pool, gids, m_name, locals_pool, invariant)
    except _Uncachable:
        return None
