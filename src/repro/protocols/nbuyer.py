"""N-Buyer purchase coordination (Section 5.3, adapted from [8]).

``n`` buyers coordinate the purchase of an item from a seller: one buyer
requests a quote, the seller broadcasts the price to all buyers, every
buyer independently promises a contribution, and a decision task places the
order if the contributions cover the price. The verified functional
correctness property (added by the paper's authors to the session-typed
original) states that *if an order is placed, the recorded total equals the
sum of the promised contributions and covers the price*.

The buyers contribute concurrently (fork-join parallelism); IS reduces this
to the fixed order request → quote → contribute(1..n) → decide, using four
applications as in Table 1 (#IS = 4), each enlarging the sequential prefix.
Thanks to iteration, every abstraction gate is just a message-availability
assertion — the potentially interfering actions have already left the pool.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..core.action import Action, PendingAsync, Transition
from ..core.mapping import FrozenDict
from ..core.multiset import EMPTY, Multiset
from ..core.program import MAIN, Program
from ..core.schedule import choice_from_policy, invariant_from_policy, policy_by_key
from ..core.sequentialize import ISApplication
from ..core.store import EMPTY_STORE, Store
from ..core.wellfounded import LexicographicMeasure, pa_potential
from .common import (
    GHOST,
    Instance,
    ProtocolReport,
    RunOptions,
    ghost_step,
    sub_multisets,
    verify_protocol,
)

__all__ = [
    "GLOBAL_VARS",
    "PARAMETERS",
    "initial_global",
    "make_atomic",
    "make_measure",
    "make_sequentializations",
    "make_symmetry",
    "spec_holds",
    "verify",
]

GLOBAL_VARS = ("price", "contrib", "ordered", "order_total", "CH", GHOST)

#: The instance parameters of :func:`verify`; every other keyword is a
#: :class:`RunOptions` field.
PARAMETERS = ("n", "prices", "contributions")

#: Channel keys: the seller's request channel, one quote channel per buyer,
#: and the decision channel collecting contributions.
_SELLER, _DECIDE = "seller", "decide"

_MAIN_PA = PendingAsync(MAIN, EMPTY_STORE)


def _request_pa() -> PendingAsync:
    return PendingAsync("Request", EMPTY_STORE)


def _quote_pa() -> PendingAsync:
    return PendingAsync("Quote", EMPTY_STORE)


def _contribute_pa(i: int) -> PendingAsync:
    return PendingAsync("Contribute", Store({"i": i}))


def _decide_pa() -> PendingAsync:
    return PendingAsync("Decide", EMPTY_STORE)


def initial_global(n: int) -> Store:
    channels = {_SELLER: EMPTY, _DECIDE: EMPTY}
    channels.update({("buyer", i): EMPTY for i in range(1, n + 1)})
    return Store(
        {
            "price": None,
            "contrib": FrozenDict({i: None for i in range(1, n + 1)}),
            "ordered": False,
            "order_total": 0,
            "CH": FrozenDict(channels),
            GHOST: Multiset([_MAIN_PA]),
        }
    )


def _globals(state: Store) -> Store:
    return state.restrict(GLOBAL_VARS)


def make_atomic(
    n: int,
    prices: Sequence[int] = (2, 3),
    contributions: Sequence[int] = (0, 1, 2),
) -> Program:
    """The atomic-action N-Buyer program.

    * ``Main`` spawns ``Request``.
    * ``Request`` sends the quote request and spawns the seller's ``Quote``
      handler.
    * ``Quote`` receives the request, nondeterministically fixes the price,
      broadcasts it to every buyer, and spawns their ``Contribute`` handlers
      plus the ``Decide`` collector.
    * ``Contribute(i)`` receives the price and promises a nondeterministic
      contribution, sent to the decision channel.
    * ``Decide`` blocks for all ``n`` contributions, sums them, and places
      the order iff the total covers the price.
    """

    def main_transitions(state: Store) -> Iterator[Transition]:
        created = [_request_pa()]
        yield Transition(
            _globals(state).set(GHOST, ghost_step(state, _MAIN_PA, created)),
            Multiset(created),
        )

    def request_transitions(state: Store) -> Iterator[Transition]:
        channels = state["CH"]
        created = [_quote_pa()]
        new_global = _globals(state).update(
            {
                "CH": channels.set(_SELLER, channels[_SELLER].add("req")),
                GHOST: ghost_step(state, _request_pa(), created),
            }
        )
        yield Transition(new_global, Multiset(created))

    def quote_transitions(state: Store) -> Iterator[Transition]:
        channels = state["CH"]
        if len(channels[_SELLER]) == 0:
            return  # blocks until the request arrives
        drained = channels.set(_SELLER, channels[_SELLER].remove("req"))
        for price in prices:
            updated = drained.update(
                {("buyer", i): drained[("buyer", i)].add(price) for i in range(1, n + 1)}
            )
            created = [_contribute_pa(i) for i in range(1, n + 1)] + [_decide_pa()]
            new_global = _globals(state).update(
                {
                    "price": price,
                    "CH": updated,
                    GHOST: ghost_step(state, _quote_pa(), created),
                }
            )
            yield Transition(new_global, Multiset(created))

    def contribute_transitions(state: Store) -> Iterator[Transition]:
        i = state["i"]
        channels = state["CH"]
        key = ("buyer", i)
        for price in channels[key].support():
            rest = channels.set(key, channels[key].remove(price))
            for amount in contributions:
                new_global = _globals(state).update(
                    {
                        "contrib": state["contrib"].set(i, amount),
                        "CH": rest.set(_DECIDE, rest[_DECIDE].add(amount)),
                        GHOST: ghost_step(state, _contribute_pa(i)),
                    }
                )
                yield Transition(new_global)

    def decide_transitions(state: Store) -> Iterator[Transition]:
        channels = state["CH"]
        if len(channels[_DECIDE]) < n:
            return  # blocks for all n contributions
        for received in sub_multisets(channels[_DECIDE], n):
            total = sum(received)
            new_global = _globals(state).update(
                {
                    "CH": channels.set(_DECIDE, channels[_DECIDE] - received),
                    "ordered": total >= state["price"],
                    "order_total": total,
                    GHOST: ghost_step(state, _decide_pa()),
                }
            )
            yield Transition(new_global)

    return Program(
        {
            MAIN: Action(MAIN, lambda _s: True, main_transitions),
            "Request": Action("Request", lambda _s: True, request_transitions),
            "Quote": Action("Quote", lambda _s: True, quote_transitions),
            "Contribute": Action(
                "Contribute", lambda _s: True, contribute_transitions, ("i",)
            ),
            "Decide": Action("Decide", lambda _s: True, decide_transitions),
        },
        global_vars=GLOBAL_VARS,
    )


def make_measure(n: int) -> LexicographicMeasure:
    """PA potential with weights chosen so that every action strictly
    decreases the total (Quote fans out into n+1 new PAs)."""
    weights = {
        "Request": 2 * n + 5,
        "Quote": 2 * n + 4,
        "Contribute": 2,
        "Decide": 1,
        MAIN: 2 * n + 6,
    }

    def weight(pending: PendingAsync) -> int:
        return weights.get(pending.action, 1)

    return LexicographicMeasure((pa_potential(weight),), name="nbuyer potential")


def _availability_abs(program: Program, name: str, gate) -> Action:
    """An abstraction that strengthens the gate to message availability."""
    return Action(
        f"{name}Abs", gate, program[name].transitions, program[name].params
    )


def make_sequentializations(
    n: int,
    prices: Sequence[int] = (2, 3),
    contributions: Sequence[int] = (0, 1, 2),
) -> List[Tuple[str, ISApplication]]:
    """Four IS applications (Table 1 reports #IS = 4): Request, then Quote,
    then the Contributes, then Decide."""
    program = make_atomic(n, prices, contributions)
    measure = make_measure(n)
    applications: List[Tuple[str, ISApplication]] = []

    def add(label: str, current: Program, eliminated, key, abstractions):
        policy = policy_by_key(eliminated, key)
        application = ISApplication(
            program=current,
            m_name=MAIN,
            eliminated=tuple(eliminated),
            invariant=invariant_from_policy(
                current, MAIN, policy, name=f"Inv{label}"
            ),
            measure=measure,
            choice=choice_from_policy(policy),
            abstractions=abstractions,
        )
        applications.append((label, application))
        return application.apply_and_drop()

    current = add(
        "Request", program, ("Request",), lambda _g, _p: (0,), {}
    )
    current = add(
        "Quote",
        current,
        ("Quote",),
        lambda _g, _p: (0,),
        {
            "Quote": _availability_abs(
                current, "Quote", lambda s: len(s["CH"][_SELLER]) >= 1
            )
        },
    )
    current = add(
        "Contribute",
        current,
        ("Contribute",),
        lambda _g, p: (p.locals["i"],),
        {
            "Contribute": _availability_abs(
                current,
                "Contribute",
                lambda s: len(s["CH"][("buyer", s["i"])]) >= 1,
            )
        },
    )
    add(
        "Decide",
        current,
        ("Decide",),
        lambda _g, _p: (0,),
        {
            "Decide": _availability_abs(
                current, "Decide", lambda s: len(s["CH"][_DECIDE]) >= n
            )
        },
    )
    return applications


def make_module(
    n: int,
    prices: Sequence[int] = (2, 3),
    contributions: Sequence[int] = (0, 1, 2),
):
    """The fine-grained implementation in the mini-CIVL language: the
    decision task aggregates the ``n`` contributions one blocking receive
    at a time."""
    from ..lang import (
        Assign,
        Async,
        C,
        Call,
        Foreach,
        Havoc,
        MapAssign,
        Module,
        Procedure,
        Receive,
        Send,
        V,
    )

    buyers = tuple(range(1, n + 1))

    def buyer_key(expr):
        return Call("buyerKey", lambda i: ("buyer", i), (expr,))

    main = Procedure(MAIN, (), (Async.of("Request"),))
    request = Procedure(
        "Request",
        (),
        (Send("CH", C(_SELLER), C("req")), Async.of("Quote")),
    )
    quote = Procedure(
        "Quote",
        (),
        (
            Receive("m", "CH", C(_SELLER)),
            Havoc("p", lambda _s: tuple(prices)),
            Assign("price", V("p")),
            Foreach.of(
                "i",
                lambda _s: buyers,
                [
                    Send("CH", buyer_key(V("i")), V("p")),
                    Async.of("Contribute", i=V("i")),
                ],
            ),
            # The price travels as a parameter of the decision task: the
            # decision must not re-read the global after the quote.
            Async.of("Decide", p=V("p")),
        ),
        locals={"m": None, "p": None},
    )
    contribute = Procedure(
        "Contribute",
        ("i",),
        (
            Receive("p", "CH", buyer_key(V("i"))),
            Havoc("c", lambda _s: tuple(contributions)),
            MapAssign("contrib", V("i"), V("c")),
            Send("CH", C(_DECIDE), V("c")),
        ),
        locals={"p": None, "c": None},
    )
    decide = Procedure(
        "Decide",
        ("p",),
        (
            Assign("total", C(0)),
            Foreach.of(
                "k",
                lambda _s: buyers,
                [
                    Receive("c", "CH", C(_DECIDE)),
                    Assign("total", V("total") + V("c")),
                ],
            ),
            Assign("order_total", V("total")),
            Assign("ordered", V("total") >= V("p")),
        ),
        locals={"c": None, "total": 0},
        linear_class="decider",
    )
    return Module(
        {
            MAIN: main,
            "Request": request,
            "Quote": quote,
            "Contribute": contribute,
            "Decide": decide,
        },
        global_vars=GLOBAL_VARS,
    )


def make_symmetry(n: int):
    """N-Buyer is symmetric in the buyer identity.

    Buyer ids index ``contrib`` and the ``("buyer", i)`` quote channels
    and appear as the ``i`` parameter of ``Contribute``.  Payloads (the
    "req" token, price ints, contribution amounts) carry no ids, and the
    seller and decision collector treat buyers uniformly, so the program,
    its abstractions, the measure (weights by action name only), and
    ``spec_holds`` (a sum over all buyers) commute with the renaming.
    Group order: ``n!``.
    """
    from ..core import symmetry as sym

    buyer = sym.atom("buyer")

    def chkey(perm, key):
        if isinstance(key, tuple):
            return (key[0], buyer(perm, key[1]))
        return key

    return sym.SymmetrySpec(
        name=f"nbuyer-n{n}",
        sorts={"buyer": tuple(range(1, n + 1))},
        global_rules={
            "contrib": sym.fmap(buyer, sym.ID),
            "CH": sym.fmap(chkey, sym.ID),
        },
        local_rules={"Contribute": {"i": buyer}},
        ghost_var=GHOST,
    )


def spec_holds(final_global: Store, n: int) -> bool:
    """The functional correctness property: the order total is exactly the
    sum of all promised contributions, and covers the price iff ordered."""
    contrib = final_global["contrib"]
    promised = sum(contrib[i] for i in range(1, n + 1))
    if final_global["order_total"] != promised:
        return False
    return final_global["ordered"] == (promised >= final_global["price"])


def verify(
    n: int = 3,
    prices: Sequence[int] = (2, 3),
    contributions: Sequence[int] = (0, 1, 2),
    **options,
) -> ProtocolReport:
    """Full pipeline for N-Buyer; ``options`` are :class:`RunOptions`
    fields. ``symmetry=True`` quotients the exploration and the IS
    universes by :func:`make_symmetry`'s buyer-permutation group."""
    instance = Instance(
        "n-buyer",
        {"n": n, "prices": tuple(prices), "contributions": tuple(contributions)},
        make_sequentializations(n, prices, contributions),
        initial_global(n),
        lambda final: spec_holds(final, n),
        symmetry=lambda: make_symmetry(n),
    )
    return verify_protocol(instance, RunOptions(**options))
