"""Columnar batch evaluation of IS predicates over interned universes.

The LM and I3 obligations quantify over millions of (global, local)
combos per discharge run. This module serves their hot predicates from
*columns*: per-(action-view, local) arrays indexed by the global store's
intern id (``repro.core.store.StoreInterner``), filled on probe and
extended for successor globals discovered while commuting actions:

* **gate columns** — ``col[gid] -> bool`` for one (view, local) pair;
* **successor columns** — ``col[gid] -> ((tr, new_gid, created_cid), …)``
  with the transition's new global interned and its created-PA multiset
  mapped to a small int, so the commutation diagram chase
  (``_has_swapped``) compares ints instead of multisets;
* **admissibility** — decisions of the PA context, asked once per
  ``cache_key`` equivalence class of globals (the ghost multiset) and
  shared by every global in the class.

The four left-mover conditions enumerate *admissibility-first*. Most
(global, l-local) cells have no admissible partner under the PA context,
so the loops start from the context, not from the gates:

1. the globals of the enumerated gids list are grouped by class, one
   Python-int position bitmask per class;
2. per (l-local, class), the context decides a whole row at once —
   ``PAContext.pair_row`` gives the admissible x-local indices (for
   non-blocking, ``single`` decides the l-local alone);
3. the OR of the masks of the classes that admit anything is scanned in
   ascending bit order (global-major, as the oracle enumerates), and each
   position visits only its class's admitted l-locals, in index order;
4. only then is the l-gate probed, filled lazily, and the inner loops run
   unchanged over the admitted x-locals and the successor columns.

A skipped cell is one where the oracle's inner loops do nothing (no
admissible x-local), so semantics are *identical* to the dict-shaped
oracle in ``repro.core.movers`` / ``ISApplication.check_i3``: the same
enumeration order, ``checked`` incremented at the same points, and
witnesses with the same stores and transitions.
``tests/engine/test_columnar_differential.py`` asserts typed-identical
:class:`CheckResult`s on the Table 1 protocols and on failing mutants.
One difference is observable: an l-gate is never evaluated on a cell the
context rules out, so a gate that raises there raises only under the
oracle. The fast path has no off switch. It steps aside (falling back to
the oracle) for exactly one input: a PA context that declares its
decisions uncachable (``cache_key`` returns ``None``), because the class
masks key by the context's equivalence classes. Wrapping a context in
:class:`repro.core.context.UncachableContext` is therefore how tests and
benchmarks reach the oracle.

Forked pool workers inherit the column store through fork copy-on-write
(the scheduler's warm-up pass batch-fills columns in the parent first).
Columns key by intern ids, so the store registers with
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
    """Admissibility decisions for one PA context, per context class.

    ``ck_col[gid]`` maps a global's intern id to the dense index of its
    ``cache_key`` equivalence class; ``reps[ck]`` keeps one representative
    global per class. Decisions depend only on the class, so they are
    asked once per class — for the ghost context the ~2800 globals of a
    Paxos universe collapse onto a few hundred ghost multisets.

    ``masks`` groups the positions of the last prefilled gids list by
    class: ``masks[ck]`` has bit ``i`` set when ``gids[i]`` is in class
    ``ck``. The left-mover loops OR together the masks of the classes that
    admit anything and visit only those positions.
    """

    __slots__ = (
        "context",
        "ck_col",
        "ck_ids",
        "reps",
        "masks",
        "single_cells",
        "row_memos",
        "_prefilled",
    )

    def __init__(self, context) -> None:
        self.context = context
        self.ck_col: List[Optional[int]] = []
        self.ck_ids: Dict[object, int] = {}
        self.reps: List[Store] = []
        self.masks: Dict[int, int] = {}
        self.single_cells: Dict[Tuple, Dict[int, bool]] = {}
        self.row_memos: Dict[Tuple, Dict[int, tuple]] = {}
        self._prefilled: object = None

    def prefill(self, globals_pool, gids, table_size: int) -> None:
        """Classify every global of ``gids`` and build its class masks,
        once per gids list (compared by identity)."""
        if self._prefilled is gids:
            return
        col = self.ck_col
        if len(col) < table_size:
            col.extend([None] * (table_size - len(col)))
        cache_key = self.context.cache_key
        ck_ids = self.ck_ids
        masks: Dict[int, int] = {}
        for i, gid in enumerate(gids):
            ck = col[gid]
            if ck is None:
                key = cache_key(globals_pool[i])
                if key is None:
                    raise _Uncachable
                ck = ck_ids.get(key)
                if ck is None:
                    ck = len(self.reps)
                    ck_ids[key] = ck
                    self.reps.append(globals_pool[i])
                col[gid] = ck
            masks[ck] = masks.get(ck, 0) | (1 << i)
        self.masks = masks
        self._prefilled = gids

    def single_cell(self, name: str, lid: int) -> Dict[int, bool]:
        key = (name, lid)
        cell = self.single_cells.get(key)
        if cell is None:
            cell = {}
            self.single_cells[key] = cell
        return cell

    def single_classes(self, classes, name: str, locals_, lids) -> list:
        """Per class index in ``classes``, ``(il, True)`` for every local
        ``il`` whose PA the class admits (``context.single``)."""
        single = self.context.single
        return self._by_class(
            classes,
            [self.single_cell(name, lid) for lid in lids],
            lambda rep, il: single(rep, PendingAsync(name, locals_[il])),
        )

    def pair_classes(
        self, classes, name_l, locals_l, lids_l, name_x, locals_x, lids_x
    ) -> list:
        """Per class index in ``classes``, ``(il, row)`` for every left
        local ``il`` whose row — the right-local indices the class admits
        alongside it (``context.pair_row``) — is non-empty. Rows are
        memoized per (left local, right locals pool, class), so the three
        pair conditions of one (l, x) share them."""
        key_x = tuple(lids_x)
        pair_row = self.context.pair_row
        firsts = [PendingAsync(name_l, ll) for ll in locals_l]
        seconds = [PendingAsync(name_x, lx) for lx in locals_x]
        return self._by_class(
            classes,
            [
                self.row_memos.setdefault((name_l, lid, name_x, key_x), {})
                for lid in lids_l
            ],
            lambda rep, il: pair_row(rep, firsts[il], seconds),
        )

    def _by_class(self, classes, memos, decide) -> list:
        """``out[ck]`` lists ``(il, decision)``, in index order, for every
        local ``il`` whose decision under class ``ck`` is truthy; it is
        ``()`` for class indices outside ``classes``. ``memos[il]`` caches
        ``decide(representative, il)`` per class."""
        out = [()] * len(self.reps)
        for ck in classes:
            rep = self.reps[ck]
            live = []
            for il, memo in enumerate(memos):
                decision = memo.get(ck)
                if decision is None:
                    decision = decide(rep, il)
                    memo[ck] = decision
                if decision:
                    live.append((il, decision))
            out[ck] = tuple(live)
        return out


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
        are ``None`` until probed (``fill_gate``). The left-mover loops
        probe gates only on admitted cells, so a batch fill over the
        whole pool would be mostly wasted work."""
        return self._column(self.gate_cols, view, lid, len(store_interner()))

    def fill_gate(self, col: list, view, lid: int, gid: int) -> bool:
        """Fill one gate entry on probe (any global, successors included)."""
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


def _positions(mask: int) -> List[int]:
    """The set bits of ``mask``, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class _Frame:
    """What each left-mover condition of ``l`` w.r.t. ``x`` starts from:
    the interned globals and locals, the class masks, lazy columns, and
    the admitted cells."""

    def __init__(self, l, x, universe, globals_subset):
        itn, self.pool, self.gids = _universe_ids(universe, globals_subset)
        self.itn = itn
        self.locals_l, self.lids_l = _locals_ids(itn, universe, l.name)
        self.locals_x, self.lids_x = _locals_ids(itn, universe, x.name)
        self.adm = _STORE.admissibility(universe, self.pool, self.gids)
        self.masks = self.adm.masks
        self.l, self.x = l, x
        self.lcols = self.gates(l, self.lids_l)

    @staticmethod
    def gates(view, lids) -> list:
        return [_STORE.gate_column_lazy(view, lid) for lid in lids]

    @staticmethod
    def succs(view, lids) -> list:
        return [_STORE.succ_column(view, lid) for lid in lids]

    def pair_cells(self):
        """``(gi, gid, il, row)`` per admitted cell whose l-gate holds,
        ``row`` being the admissible right-local indices."""
        return self._scan(
            self.adm.pair_classes(
                self.masks,
                self.l.name,
                self.locals_l,
                self.lids_l,
                self.x.name,
                self.locals_x,
                self.lids_x,
            )
        )

    def single_cells(self):
        """``(gi, gid, il, True)`` per cell whose PA the context admits
        and whose l-gate holds."""
        return self._scan(
            self.adm.single_classes(
                self.masks, self.l.name, self.locals_l, self.lids_l
            )
        )

    def _scan(self, by_class):
        """The cells of the classes that admit something, in the oracle's
        order (global-major, then locals), through the l-gate, filled on
        probe. Every skipped cell is one where the oracle's inner loops do
        nothing."""
        live = 0
        for ck, mask in self.masks.items():
            if by_class[ck]:
                live |= mask
        gids, ck_col, lcols = self.gids, self.adm.ck_col, self.lcols
        l, lids_l, fill_gate = self.l, self.lids_l, _STORE.fill_gate
        for gi in _positions(live):
            gid = gids[gi]
            for il, row in by_class[ck_col[gid]]:
                lcol = lcols[il]
                ok = lcol[gid]
                if ok is None:
                    ok = fill_gate(lcol, l, lids_l[il], gid)
                if ok:
                    yield gi, gid, il, row


def _gate_forward_preserved(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"gate of {l.name} forward-preserved by {x.name}", True)
    f = _Frame(l, x, universe, globals_subset)
    lids_l, lids_x, lcols = f.lids_l, f.lids_x, f.lcols
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
                            left_locals=f.locals_l[il],
                            right_locals=f.locals_x[ix],
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
    f = _Frame(l, x, universe, globals_subset)
    lids_l, lids_x = f.lids_l, f.lids_x
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
                            left_locals=f.locals_l[il],
                            right_locals=f.locals_x[ix],
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
    f = _Frame(l, x, universe, globals_subset)
    lids_l, lids_x = f.lids_l, f.lids_x
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
                                left_locals=f.locals_l[il],
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


def _non_blocking(l, x, universe, fail_fast, globals_subset):
    result = CheckResult(f"{l.name} non-blocking", True)
    f = _Frame(l, x, universe, globals_subset)
    lids_l = f.lids_l
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
