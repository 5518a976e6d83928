"""Symmetry reduction: quotient store universes by value-permutation groups.

The case-study protocols are symmetric in node identity (and Paxos also in
the proposed values): permuting the node ids of a reachable configuration
yields another reachable configuration, and every gate, transition
relation, abstraction, and termination measure commutes with the renaming.
The IS proof obligations are universally quantified over harvested store
universes, so it suffices to check **one representative per orbit** of the
permutation group — the classic symmetry reduction of explicit-state model
checking, applied here to the enumeration universes that substitute for
the paper's SMT backend (see DESIGN.md, "Symmetry quotients").

A protocol *declares* its symmetry as a :class:`SymmetrySpec`: named
**sorts** (finite value domains acted on by their full symmetric group,
e.g. ``node -> (1, 2, 3)``), a **rename rule** per global variable saying
where sort values sit inside the variable's shape, and a rule per action
parameter. The ghost ``pendingAsyncs`` bag is renamed automatically from
the action-parameter rules, so a configuration's global store and its
pending multiset are always renamed **jointly** by one permutation —
that joint consistency is what keeps the ghost admissibility filtering
(:class:`~repro.core.context.GhostContext`) exact on the quotient.

:class:`Canonicalizer` picks the lexicographically least orbit element
under :func:`~repro.core.hashing.structural_key` — a deterministic,
cross-process total order — so canonical representatives agree between
runs, processes, and ``PYTHONHASHSEED`` values, and the interner, the
columnar columns, the evaluation memos, and the rcache fingerprints all
operate on the quotient without any further changes. Candidate keys are
assembled from a table of per-``(variable, value)`` renames and fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from .action import PendingAsync
from .hashing import structural_key
from .mapping import FrozenDict
from .multiset import Multiset
from .semantics import Config
from .store import Store

__all__ = [
    "Perm",
    "RenameRule",
    "ID",
    "atom",
    "opt",
    "tup",
    "seq",
    "fset",
    "fmap",
    "bag",
    "SymmetrySpec",
    "Canonicalizer",
]

#: One group element: per sort, a bijection on that sort's domain.
Perm = Mapping[str, Mapping[Hashable, Hashable]]

#: A rename rule: apply a group element to one value shape.
RenameRule = Callable[[Perm, Hashable], Hashable]


# --------------------------------------------------------------------- #
# Rename-rule combinators
# --------------------------------------------------------------------- #


def ID(perm: Perm, value: Hashable) -> Hashable:
    """Leave the value untouched (counters, rounds, payload data)."""
    return value


def atom(sort: str) -> RenameRule:
    """A bare value of ``sort``: map it through the permutation.

    Lenient on values outside the declared domain (they pass through
    unchanged), so boundary stores with out-of-range ids stay legal.
    """

    def rule(perm: Perm, value: Hashable) -> Hashable:
        mapping = perm.get(sort)
        if mapping is None:
            return value
        return mapping.get(value, value)

    return rule


def opt(inner: RenameRule) -> RenameRule:
    """``Optional``: ``None`` passes through, anything else is renamed."""

    def rule(perm: Perm, value: Hashable) -> Hashable:
        if value is None:
            return None
        return inner(perm, value)

    return rule


def tup(*rules: RenameRule) -> RenameRule:
    """A fixed-arity tuple, one rule per position."""

    def rule(perm: Perm, value: Hashable) -> Hashable:
        return tuple(r(perm, v) for r, v in zip(rules, value))

    return rule


def seq(inner: RenameRule) -> RenameRule:
    """A variable-length tuple of uniform elements (order preserved)."""

    def rule(perm: Perm, value: Hashable) -> Hashable:
        return tuple(inner(perm, v) for v in value)

    return rule


def fset(inner: RenameRule) -> RenameRule:
    """A ``frozenset`` of renamed elements."""

    def rule(perm: Perm, value: Hashable) -> Hashable:
        return frozenset(inner(perm, v) for v in value)

    return rule


def fmap(key_rule: RenameRule, value_rule: RenameRule) -> RenameRule:
    """A :class:`~repro.core.mapping.FrozenDict`, keys and values renamed.

    Key renaming is a bijection on the declared domain, so distinct keys
    stay distinct and the map shape is preserved.
    """

    def rule(perm: Perm, value: Hashable) -> Hashable:
        return FrozenDict(
            {key_rule(perm, k): value_rule(perm, v) for k, v in value.items()}
        )

    return rule


def bag(inner: RenameRule) -> RenameRule:
    """A :class:`~repro.core.multiset.Multiset` of renamed elements.

    Multiplicities of elements that happen to collide after a lenient
    rename accumulate rather than overwrite.
    """

    def rule(perm: Perm, value: Hashable) -> Hashable:
        counts: Dict[Hashable, int] = {}
        for element, count in value.counts():
            renamed = inner(perm, element)
            counts[renamed] = counts.get(renamed, 0) + count
        return Multiset.from_counts(counts)

    return rule


# --------------------------------------------------------------------- #
# The declared symmetry of a protocol instance
# --------------------------------------------------------------------- #


@dataclass
class SymmetrySpec:
    """A protocol instance's declared permutation symmetry.

    * ``sorts`` maps a sort name to its finite domain; the acting group is
      the direct product of the full symmetric groups on each domain.
    * ``global_rules`` maps a global variable name to the rule renaming
      its value; undeclared globals are left untouched (sound only if
      they genuinely contain no sort values — the soundness suite in
      ``tests/engine/test_symmetry_differential.py`` holds every declared
      spec to verdict identity against the unquotiented oracle).
    * ``local_rules`` maps an action name to per-parameter rules; actions
      or parameters without rules are untouched.
    * ``ghost_var`` names the ghost pending-async bag, renamed
      automatically by renaming each :class:`PendingAsync` through
      ``local_rules`` — jointly with the rest of the store, under the
      same permutation.

    Declaring a spec is a **soundness obligation**: every gate,
    transition relation, abstraction, measure, and spec predicate of the
    protocol must commute with the renaming (equivariance). The repo's
    protocols keep node ids opaque — membership tests, set updates,
    counting — so this holds by inspection and is pinned by test.
    """

    name: str
    sorts: Dict[str, Tuple[Hashable, ...]]
    global_rules: Dict[str, RenameRule] = field(default_factory=dict)
    local_rules: Dict[str, Dict[str, RenameRule]] = field(default_factory=dict)
    ghost_var: Optional[str] = None

    def group(self) -> List[Perm]:
        """All group elements, the identity first.

        The group order is :math:`\\prod_s |dom(s)|!` — tiny for the
        instance sizes enumeration can reach (e.g. 12 for Paxos with 3
        nodes and 2 values). The canonicalizer's image table renames and
        renders each distinct ``(variable, value)`` pair once for the
        whole group, so that factor is paid per *distinct* value; a store
        visit pays only for joining and comparing one key per element.
        """
        sort_names = sorted(self.sorts)
        per_sort: List[List[Dict[Hashable, Hashable]]] = []
        for sort in sort_names:
            domain = tuple(self.sorts[sort])
            per_sort.append(
                [dict(zip(domain, image)) for image in permutations(domain)]
            )
        return [
            dict(zip(sort_names, combo)) for combo in product(*per_sort)
        ]

    def order(self) -> int:
        """The group order (without materializing the group)."""
        total = 1
        for domain in self.sorts.values():
            for k in range(2, len(domain) + 1):
                total *= k
        return total

    def token(self) -> str:
        """A deterministic identity string for warm-state keys and
        progress reporting. Persistent cache fingerprints go further and
        digest the rule closures themselves (``repro.engine.rcache``)."""
        sorts = ",".join(
            f"{s}:{structural_key(tuple(dom))}"
            for s, dom in sorted(self.sorts.items())
        )
        rules = ",".join(sorted(self.global_rules))
        locals_ = ",".join(
            f"{a}({','.join(sorted(params))})"
            for a, params in sorted(self.local_rules.items())
        )
        return f"sym[{self.name}|{sorts}|{rules}|{locals_}|{self.ghost_var}]"

    def fingerprint_parts(self):
        """Everything a content-addressed fingerprint must cover: the
        domains and the rule functions (digested by closure bytecode in
        ``repro.engine.rcache``), so two specs with equal names but
        different rules can never alias a cache entry."""
        return (
            "symmetry-spec",
            self.name,
            tuple(sorted((s, tuple(d)) for s, d in self.sorts.items())),
            tuple(sorted(self.global_rules.items())),
            tuple(
                (action, tuple(sorted(rules.items())))
                for action, rules in sorted(self.local_rules.items())
            ),
            self.ghost_var,
        )


# --------------------------------------------------------------------- #
# Canonicalization
# --------------------------------------------------------------------- #


class Canonicalizer:
    """Maps stores and configurations to lexicographic-least orbit
    representatives under a :class:`SymmetrySpec`.

    Everything reads one **image table** keyed by ``(variable, value)``:
    a row holds, per group element, the renamed value and its key fragment
    ``structural_key(variable) + "=" + structural_key(renamed)``. A store's
    key is ``"Store{"`` + its sorted fragments joined by ``","`` + ``"}"``,
    so the group sweep compares keys assembled from rows and builds only
    the winning store. Rules run and images render once per distinct
    ``(variable, value)``; results are memoized per store and per config.
    """

    def __init__(self, spec: SymmetrySpec):
        self.spec = spec
        self.perms: List[Perm] = spec.group()
        self._globals_memo: Dict[Store, Store] = {}
        self._config_memo: Dict[Config, Config] = {}
        self._images: Dict[Tuple[str, Hashable], Tuple[tuple, tuple]] = {}
        self._element_keys: Dict[Hashable, str] = {}
        self._pa_memo: Dict[Tuple[int, PendingAsync], PendingAsync] = {}

    @classmethod
    def of(cls, symmetry) -> "Canonicalizer":
        """Accept either a spec or an existing canonicalizer."""
        if isinstance(symmetry, Canonicalizer):
            return symmetry
        return cls(symmetry)

    # -- renaming ------------------------------------------------------ #

    def rename_pa(self, pending: PendingAsync, pi: int) -> PendingAsync:
        """Rename one pending async's parameters (action names are never
        sort values)."""
        memo_key = (pi, pending)
        cached = self._pa_memo.get(memo_key)
        if cached is not None:
            return cached
        rules = self.spec.local_rules.get(pending.action)
        if not rules or not len(pending.locals):
            renamed = pending
        else:
            perm = self.perms[pi]
            data = pending.locals.as_dict()
            changed = False
            for param, rule in rules.items():
                if param in data:
                    new = rule(perm, data[param])
                    if new is not data[param]:
                        data[param] = new
                        changed = True
            renamed = PendingAsync(pending.action, Store(data)) if changed else pending
        self._pa_memo[memo_key] = renamed
        return renamed

    def rename_pending(self, pending: Multiset, pi: int) -> Multiset:
        """Rename a pending-async multiset element by element."""
        counts: Dict[Hashable, int] = {}
        for element, count in pending.counts():
            renamed = self.rename_pa(element, pi)
            counts[renamed] = counts.get(renamed, 0) + count
        return Multiset.from_counts(counts)

    def _image(self, var: str, value: Hashable) -> Tuple[tuple, tuple]:
        """The image-table row of one ``(variable, value)`` pair: its
        renamed values and key fragments in group order (index 0, the
        identity, holds the value itself)."""
        row = self._images.get((var, value))
        if row is None:
            rule = self.spec.global_rules.get(var)
            if rule is not None:
                renamed = [value] + [rule(p, value) for p in self.perms[1:]]
            elif var == self.spec.ghost_var and isinstance(value, Multiset):
                pis = range(1, len(self.perms))
                renamed = [value] + [self.rename_pending(value, pi) for pi in pis]
            else:
                renamed = [value] * len(self.perms)
            prefix = structural_key(var) + "="
            fragments: Dict[Hashable, str] = {}
            for image in renamed:
                if image not in fragments:
                    fragments[image] = prefix + self._render(image)
            row = (tuple(renamed), tuple(map(fragments.__getitem__, renamed)))
            self._images[(var, value)] = row
        return row

    def _render(self, value: Hashable) -> str:
        """``structural_key(value)`` byte for byte, from memoized keys of
        a bag's elements and of a map's keys and values: the images of
        one value under the group share them."""
        key = self._element_key
        if isinstance(value, Multiset):
            parts = [f"{key(e)}*{c}" for e, c in value.counts()]
            return "m{" + ",".join(sorted(parts)) + "}"
        if isinstance(value, FrozenDict):
            parts = [f"{key(k)}={key(v)}" for k, v in value.items()]
            return type(value).__name__ + "{" + ",".join(sorted(parts)) + "}"
        return structural_key(value)

    def _element_key(self, value: Hashable) -> str:
        key = self._element_keys.get(value)
        if key is None:
            key = self._element_keys[value] = structural_key(value)
        return key

    def rename_global(self, store: Store, pi: int) -> Store:
        """Rename one global store under group element ``pi`` (ghost bag
        included, via the action-parameter rules); the identity returns
        the store itself."""
        if pi == 0:
            return store
        return Store(
            {var: self._image(var, value)[0][pi] for var, value in store.items()}
        )

    def rename_local(self, action: str, locals_: Store, pi: int) -> Store:
        """Rename one action's local (parameter) store."""
        return self.rename_pa(PendingAsync(action, locals_), pi).locals

    # -- canonical representatives ------------------------------------- #

    def _least(self, store: Store) -> List[int]:
        """Every group element, in group order, whose image of ``store``
        has the least ``structural_key``. No ``s<len>:<name>=`` prefix is
        a prefix of another, so the variable names alone fix the fragment
        order of every column, and rows sort by their first fragment."""
        rows = sorted(self._image(var, value)[1] for var, value in store.items())
        keys = ["Store{" + ",".join(col) + "}" for col in zip(*rows)] or [""]
        least = min(keys)
        return [pi for pi, key in enumerate(keys) if key == least]

    def store(self, store: Store) -> Store:
        """The orbit representative of a global store: the first group
        element's image with the least structural key (so a store that is
        already least is returned as is)."""
        cached = self._globals_memo.get(store)
        if cached is None:
            cached = self.rename_global(store, self._least(store)[0])
            self._globals_memo[store] = cached
        return cached

    def config(self, config: Config) -> Config:
        """The orbit representative of a configuration, renamed
        **jointly**: one permutation is applied to the global store and
        the pending multiset, so the ghost bag inside the canonical
        global still mirrors the canonical pending multiset exactly.
        Global-store ties break on the renamed pending bag's key, so the
        joint representative stays deterministic even for configurations
        without a ghost mirror."""
        cached = self._config_memo.get(config)
        if cached is not None:
            return cached
        pending = config.pending
        pi, *ties = self._least(config.glob)
        if ties:
            pi = min(
                [pi, *ties],
                key=lambda p: self._render(self.rename_pending(pending, p)),
            )
        canonical = config
        if pi != 0:
            canonical = Config(
                self.rename_global(config.glob, pi), self.rename_pending(pending, pi)
            )
        self._config_memo[config] = canonical
        return canonical

    def local_orbit(self, action: str, locals_: Store) -> List[Store]:
        """The full orbit of one action's local store (used to close
        sampled or extended locals pools under the group)."""
        seen: Dict[Store, None] = {}
        for pi in range(len(self.perms)):
            seen.setdefault(self.rename_local(action, locals_, pi))
        return list(seen)

    def orbit(self, store: Store) -> List[Store]:
        """The full orbit of a global store (distinct elements)."""
        seen: Dict[Store, None] = {}
        for pi in range(len(self.perms)):
            seen.setdefault(self.rename_global(store, pi))
        return list(seen)

    def __repr__(self) -> str:
        return (
            f"Canonicalizer({self.spec.name}, |G|={len(self.perms)}, "
            f"{len(self._globals_memo)} globals memoized)"
        )
