"""Regenerating Table 1: all seven examples verified with IS.

One registry entry per protocol binds together the protocol module and
its Table 1 instance parameters, the functions constituting the IS proof
artifacts, and the functions constituting the implementation —
from which the Table 1 analogue (#IS, LOC total / IS / impl, time) is
computed. ``build_table1()`` runs everything and returns the rows;
``examples/run_table1.py`` and ``benchmarks/test_table1.py`` print them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..protocols import (
    broadcast,
    changroberts,
    nbuyer,
    paxos,
    pingpong,
    prodcons,
    twophase,
)
from ..protocols.common import ProtocolReport
from .metrics import module_loc, source_loc

__all__ = [
    "Table1Row",
    "TABLE1_REGISTRY",
    "build_table1",
    "render_table1",
    "render_obligation_stats",
]


@dataclass
class Table1Row:
    example: str
    num_is: int
    loc_total: int
    loc_is: int
    loc_impl: int
    time_seconds: float
    ok: bool
    #: ``OK``/``FAILED``/``BUDGET``/``TIMEOUT``/``INTERRUPTED`` — the
    #: report's verdict lattice (BUDGET: blew ``max_configs``; TIMEOUT:
    #: obligations hit their deadline; INTERRUPTED: stopped by Ctrl-C —
    #: none of these decide the instance).
    status: str = "OK"
    #: Engine statistics: obligations discharged / stores enumerated across
    #: the row's IS applications (0 when produced by the inline checker).
    num_obligations: int = 0
    num_checks: int = 0
    #: ``True`` when the row's universe was sampled (random walks), so a
    #: PASS is a bounded check, not an exhaustive discharge; surfaced in
    #: the rendered table as a ``*`` on the status.
    bounded: bool = False
    #: The underlying report, for per-obligation drill-down
    #: (:func:`render_obligation_stats`); not rendered in the table.
    report: Optional[ProtocolReport] = field(default=None, repr=False, compare=False)


@dataclass
class _Entry:
    name: str
    module: object
    #: Instance parameters passed to ``module.verify``.
    params: Dict[str, object]
    is_artifacts: Sequence[Callable]
    implementation: Sequence[Callable]


TABLE1_REGISTRY: List[_Entry] = [
    _Entry(
        "Broadcast consensus",
        broadcast,
        {"n": 3, "iterated": True},
        (
            broadcast.make_invariant,
            broadcast.make_broadcast_invariant,
            broadcast.make_collect_invariant,
            broadcast.make_collect_abs,
            broadcast.make_measure,
            broadcast.make_sequentialization,
            broadcast.make_iterated_sequentializations,
        ),
        (broadcast.make_atomic, broadcast.make_module, broadcast.initial_global),
    ),
    _Entry(
        "Ping-Pong",
        pingpong,
        {"rounds": 3},
        (
            pingpong.make_abstractions,
            pingpong.make_measure,
            pingpong.make_policy,
            pingpong.make_sequentialization,
        ),
        (pingpong.make_atomic, pingpong.make_module, pingpong.initial_global),
    ),
    _Entry(
        "Producer-Consumer",
        prodcons,
        {"bound": 4},
        (
            prodcons.make_consumer_abs,
            prodcons.make_measure,
            prodcons.make_policy,
            prodcons.make_sequentialization,
        ),
        (prodcons.make_atomic, prodcons.make_module, prodcons.initial_global),
    ),
    _Entry(
        "N-Buyer",
        nbuyer,
        {"n": 3},
        (nbuyer.make_measure, nbuyer.make_sequentializations),
        (nbuyer.make_atomic, nbuyer.initial_global),
    ),
    _Entry(
        "Chang-Roberts",
        changroberts,
        {"n": 4},
        (
            changroberts.make_handle_abs,
            changroberts.upstream_threat,
            changroberts.make_measure,
            changroberts.make_init_policy,
            changroberts.make_handle_policy,
            changroberts.make_sequentializations,
        ),
        (changroberts.make_atomic, changroberts.initial_global),
    ),
    _Entry(
        "Two-phase commit",
        twophase,
        {"n": 3},
        (twophase.make_measure, twophase.make_sequentializations),
        (twophase.make_atomic, twophase.initial_global),
    ),
    _Entry(
        "Paxos",
        paxos,
        {"rounds": 2, "num_nodes": 2},
        (
            paxos.make_abstractions,
            paxos.make_measure,
            paxos.make_policy,
            paxos.make_sequentialization,
        ),
        (paxos.make_atomic, paxos.initial_global, paxos.is_quorum),
    ),
]


def build_table1(entries: Sequence[_Entry] = None, **options) -> List[Table1Row]:
    """Run every example's full pipeline with the same ``options`` (fields
    of :class:`~repro.protocols.common.RunOptions`) and assemble the table.

    One result-cache instance serves the whole sweep, so an unchanged
    protocol's obligations are seeded instead of re-executed. A row that
    blows the ``max_configs`` budget gets status BUDGET instead of
    aborting the sweep; an interrupted row (Ctrl-C) stops the sweep with
    the completed rows plus the partial one.
    """
    from ..engine.rcache import ObligationCache

    options["cache"] = ObligationCache.ensure(options.get("cache"))
    rows: List[Table1Row] = []
    for entry in entries if entries is not None else TABLE1_REGISTRY:
        report = entry.module.verify(**entry.params, **options)
        rows.append(
            Table1Row(
                example=entry.name,
                num_is=report.num_is_applications,
                loc_total=module_loc(entry.module),
                loc_is=source_loc(entry.is_artifacts),
                loc_impl=source_loc(entry.implementation),
                time_seconds=report.total_time,
                ok=report.ok,
                status=report.status,
                num_obligations=sum(
                    r.num_obligations for _, r in report.is_results
                ),
                num_checks=sum(r.total_checked for _, r in report.is_results),
                bounded=report.bounded,
                report=report,
            )
        )
        if report.interrupted:
            # Ctrl-C: keep the completed rows plus this partial one, skip
            # the remaining examples — the caller renders what survived.
            break
    return rows


def render_table1(rows: Sequence[Table1Row]) -> str:
    """Render the table in the paper's column layout, extended with the
    obligation engine's per-row statistics (#Obl, #Checks). A bounded row
    (sampled universe — the PASS is not exhaustive) is starred."""
    header = (
        f"{'Example':<22} {'#IS':>4} {'LOC Total':>10} {'LOC IS':>7} "
        f"{'LOC Impl':>9} {'Time (s)':>9} {'#Obl':>5} {'#Checks':>9}  "
        f"{'Status':<7}"
    )
    lines = [header, "-" * len(header)]
    starred = False
    for row in rows:
        status = row.status + ("*" if row.bounded else "")
        starred = starred or row.bounded
        lines.append(
            f"{row.example:<22} {row.num_is:>4} {row.loc_total:>10} "
            f"{row.loc_is:>7} {row.loc_impl:>9} {row.time_seconds:>9.2f} "
            f"{row.num_obligations:>5} {row.num_checks:>9}  "
            f"{status:<7}"
        )
    if starred:
        lines.append("* bounded: sampled universe — a PASS is not exhaustive")
    return "\n".join(lines)


def render_obligation_stats(rows: Sequence[Table1Row], top: int = 5) -> str:
    """Per-protocol drill-down: the slowest obligations of every IS
    application, with wall-clock and enumeration counts."""
    lines: List[str] = []
    for row in rows:
        if row.report is None:
            continue
        for label, result in row.report.is_results:
            lines.append(f"{row.example} — IS[{label}]")
            lines.append(result.obligation_report(top=top))
    return "\n".join(lines)
