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
operate on the quotient without any further changes. It solves each
orbit once, over value ids and per-generator image tables, and memoizes
every member's representative.
"""

from __future__ import annotations

from array import array
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
        nodes and 2 values). Indices into this list name group elements
        everywhere (:class:`Canonicalizer` tie lists, ``rename_*``). The
        canonicalizer renames values only under :meth:`generators` and
        reaches the rest of the group by composing indices, so a value
        is renamed once or twice per sort, not |G|−1 times.
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

    def generators(self) -> List[Perm]:
        """Elements generating :meth:`group`: per sort with two or more
        values, the transposition of its first two values and the cycle
        through its whole domain (one element when the domain has exactly
        two values). Every other sort is fixed."""
        identity = {sort: {v: v for v in dom} for sort, dom in self.sorts.items()}
        out: List[Perm] = []
        for sort in sorted(self.sorts):
            domain = tuple(self.sorts[sort])
            if len(domain) < 2:
                continue
            swap = {**identity[sort], domain[0]: domain[1], domain[1]: domain[0]}
            cycle = dict(zip(domain, domain[1:] + domain[:1]))
            for mapping in (swap, cycle) if len(domain) > 2 else (swap,):
                out.append({**identity, sort: mapping})
        return out

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

#: An orbit-table entry: the orbit's representative store and the group
#: elements, in group order, that map the member to it.
Least = Tuple[Store, Tuple[int, ...]]


def _pack(vids) -> bytes:
    """A set of vids as a compact, hashable, order-free key."""
    return array("I", sorted(vids)).tobytes()


class Canonicalizer:
    """Maps stores and configurations to lexicographic-least orbit
    representatives under a :class:`SymmetrySpec`.

    It works on **value ids**: every distinct ``(variable, value)`` pair
    gets a dense int (a *vid*) and, when an orbit search compares it, its
    key fragment ``structural_key(variable) + "=" + structural_key(value)``.
    A store is then the set of its vids, and a store's key is
    ``"Store{"`` + its fragments in variable order joined by ``","`` +
    ``"}"``, which is ``structural_key`` of the store byte for byte.

    The group acts on vids through its **generators** only
    (:meth:`SymmetrySpec.generators`): per generator, an id→id image
    table, filled once per vid. The first time a store is looked up, its
    whole orbit is closed under the generators by breadth-first search,
    the least member is picked by key, and **every member** is memoized,
    keyed by its sorted vids, with its orbit and the group element
    reaching it. A lookup returns the representative and the member's tie
    list: the group elements, in group order, mapping it to the
    representative. The tie list is a coset of the stabilizer, which the
    search's non-tree edges generate (Schreier generators), composed
    through a |G|×|G| table. So an orbit is solved once, and any later
    member costs one vid lookup per variable.

    One canonicalizer serves a whole verification (``verify_protocol``
    passes it to every universe build): the vid, image and orbit tables
    persist across the IS chain, while the configuration memo and the
    rendered strings (fragments and element keys) are per exploration,
    dropped by :meth:`drop_scratch` after each harvest.
    """

    def __init__(self, spec: SymmetrySpec):
        self.spec = spec
        self.perms: List[Perm] = spec.group()
        # Each element as a tuple over the concatenated sort domains:
        # position j holds the position of the image of position j's value.
        domain = [(sort, v) for sort in sorted(spec.sorts) for v in spec.sorts[sort]]
        position = {pair: j for j, pair in enumerate(domain)}

        def flat(perm: Perm) -> Tuple[int, ...]:
            return tuple(position[sort, perm[sort][v]] for sort, v in domain)

        flats = [flat(perm) for perm in self.perms]
        index = {f: i for i, f in enumerate(flats)}
        #: ``_mul[a][b]`` is the element applying ``b``, then ``a``.
        self._mul: List[List[int]] = [
            [index[tuple(a[j] for j in b)] for b in flats] for a in flats
        ]
        self._inv: List[int] = [row.index(0) for row in self._mul]
        self.generators: List[int] = [index[flat(g)] for g in spec.generators()]
        self._vids: Dict[Tuple[str, Hashable], int] = {}
        self._values: List[Tuple[str, Hashable]] = []
        self._fragments: Dict[int, str] = {}
        self._gen_maps: List[Dict[int, int]] = [{} for _ in self.generators]
        #: Per orbit: its representative, the element mapping the orbit's
        #: first-seen member to it, and that member's stabilizer.
        self._orbits: List[Tuple[Store, int, Tuple[int, ...]]] = []
        #: A member's sorted vids, packed, → ``orbit * |G| + g``, where
        #: ``g`` maps the orbit's first-seen member to this one. Ints and
        #: bytes only: the table can hold millions of members, and none
        #: of them is an object the garbage collector has to walk.
        self._members: Dict[bytes, int] = {}
        self._pa_memo: Dict[Tuple[int, PendingAsync], PendingAsync] = {}
        self._config_memo: Dict[Config, Config] = {}
        self._element_keys: Dict[Hashable, str] = {}
        #: Whether the ghost variable is renamed as a pending bag.
        self._mirror = (
            spec.ghost_var is not None and spec.ghost_var not in spec.global_rules
        )

    @classmethod
    def of(cls, symmetry) -> "Canonicalizer":
        """Accept either a spec or an existing canonicalizer."""
        if isinstance(symmetry, Canonicalizer):
            return symmetry
        return cls(symmetry)

    def drop_scratch(self) -> None:
        """Forget the per-exploration memos (configurations and rendered
        strings); the vid, image and orbit tables stay."""
        self._config_memo = {}
        self._fragments = {}
        self._element_keys = {}

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

    def _rename(self, var: str, value: Hashable, pi: int) -> Hashable:
        """One global variable's value under group element ``pi``."""
        rule = self.spec.global_rules.get(var)
        if rule is not None:
            return rule(self.perms[pi], value)
        if var == self.spec.ghost_var and isinstance(value, Multiset):
            return self.rename_pending(value, pi)
        return value

    def rename_global(self, store: Store, pi: int) -> Store:
        """Rename one global store under group element ``pi`` (ghost bag
        included, via the action-parameter rules); the identity returns
        the store itself."""
        if pi == 0:
            return store
        return Store(
            {var: self._rename(var, value, pi) for var, value in store.items()}
        )

    def rename_local(self, action: str, locals_: Store, pi: int) -> Store:
        """Rename one action's local (parameter) store."""
        return self.rename_pa(PendingAsync(action, locals_), pi).locals

    # -- value ids ----------------------------------------------------- #

    def _vid(self, var: str, value: Hashable) -> int:
        """The id of one ``(variable, value)`` pair."""
        pair = (var, value)
        vid = self._vids.get(pair)
        if vid is None:
            vid = self._vids[pair] = len(self._values)
            self._values.append(pair)
        return vid

    def _fragment(self, vid: int) -> str:
        """``structural_key(var) + "=" + structural_key(value)`` of a vid."""
        fragment = self._fragments.get(vid)
        if fragment is None:
            var, value = self._values[vid]
            fragment = self._element_key(var) + "=" + self._render(value)
            self._fragments[vid] = fragment
        return fragment

    def _image(self, k: int, vid: int) -> int:
        """The vid of ``vid``'s value renamed by generator ``k``."""
        images = self._gen_maps[k]
        image = images.get(vid)
        if image is None:
            var, value = self._values[vid]
            renamed = self._rename(var, value, self.generators[k])
            image = images[vid] = self._vid(var, renamed)
        return image

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

    # -- orbit tables -------------------------------------------------- #

    def least(self, store: Store) -> Least:
        """The orbit representative of ``store`` and every group element,
        in group order, whose image of ``store`` it is (the least
        ``structural_key`` in the orbit). Solves the orbit on a miss."""
        vids = [self._vid(var, value) for var, value in store.items()]
        code = self._members.get(_pack(vids))
        if code is None:
            code = self._solve(store, tuple(vids))
        orbit, g = divmod(code, len(self.perms))
        rep, to_rep, stabilizer = self._orbits[orbit]
        mul, from_member = self._mul, self._inv[g]
        ties = sorted(mul[mul[to_rep][h]][from_member] for h in stabilizer)
        return rep, tuple(ties)

    def _solve(self, store: Store, start: Tuple[int, ...]) -> int:
        """Close ``store``'s orbit under the generators, memoize every
        member and return ``store``'s member code. Member tuples are
        positional: entry ``i`` is the vid of ``store``'s ``i``-th
        variable."""
        mul, inv = self._mul, self._inv
        image = self._image
        reached = {start: 0}  # member -> an element mapping store to it
        members = [start]
        schreier = set()
        for member in members:
            g = reached[member]
            for k, s in enumerate(self.generators):
                target = tuple([image(k, vid) for vid in member])
                h = mul[s][g]
                known = reached.get(target)
                if known is None:
                    reached[target] = h
                    members.append(target)
                elif known != h:
                    schreier.add(mul[inv[known]][h])
        stabilizer = [0]
        closed = {0}
        for a in stabilizer:
            for h in schreier:
                b = mul[h][a]
                if b not in closed:
                    closed.add(b)
                    stabilizer.append(b)
        # A fragment starts with ``s<len>:<name>=`` and no such prefix is
        # a prefix of another, so sorting one member's fragments fixes
        # the variable order of every member's key.
        fragment = self._fragment
        order = sorted(range(len(start)), key=lambda i: fragment(start[i]))
        keys = [
            "Store{" + ",".join([fragment(m[i]) for i in order]) + "}" for m in members
        ]
        best = keys.index(min(keys))
        least = members[best]
        if best == 0:
            rep = store
        else:
            values = self._values
            rep = Store(
                {var: values[vid][1] for var, vid in zip(store.variables(), least)}
            )
        orbit = len(self._orbits)
        self._orbits.append((rep, reached[least], tuple(stabilizer)))
        base = orbit * len(self.perms)
        members_table = self._members
        for member in members:
            members_table[_pack(member)] = base + reached[member]
        return base

    # -- canonical representatives ------------------------------------- #

    def store(self, store: Store) -> Store:
        """The orbit representative of a global store: the first group
        element's image with the least structural key (so a store that is
        already least is returned as is)."""
        rep, ties = self.least(store)
        return store if ties[0] == 0 else rep

    def config(self, config: Config) -> Config:
        """The orbit representative of a configuration, renamed
        **jointly**: one permutation is applied to the global store and
        the pending multiset, so the ghost bag inside the canonical
        global still mirrors the canonical pending multiset exactly.
        Global-store ties break on the renamed pending bag's key (the
        first least in group order), so the joint representative stays
        deterministic even for configurations without a ghost mirror."""
        cached = self._config_memo.get(config)
        if cached is not None:
            return cached
        pending = config.pending
        glob = config.glob
        rep, ties = self.least(glob)
        pi = ties[0]
        # Every tie renames a ghost mirror of the pending bag alike.
        if len(ties) > 1 and not (
            self._mirror and glob.get(self.spec.ghost_var) == pending
        ):
            pi = min(ties, key=lambda p: self._render(self.rename_pending(pending, p)))
        canonical = config
        if pi != 0:
            canonical = Config(rep, self.rename_pending(pending, pi))
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
            f"{len(self._orbits)} orbits, {len(self._members)} members memoized)"
        )
