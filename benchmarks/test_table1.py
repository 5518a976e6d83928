"""Benchmark regenerating **Table 1** of the paper.

One benchmark per example row runs the protocol's complete verification
pipeline (all IS applications + sequential spec + ground truth where
feasible); the final case assembles and prints the full table, which is the
artifact to compare against the paper (see EXPERIMENTS.md: the #IS column
must match exactly; LoC and time columns match in shape, not absolutes).
"""

import pathlib


from repro.analysis import build_table1, render_table1
from repro.protocols import (
    broadcast,
    changroberts,
    nbuyer,
    paxos,
    pingpong,
    prodcons,
    twophase,
)

_EXPECTED_IS = {
    "Broadcast consensus": 2,
    "Ping-Pong": 1,
    "Producer-Consumer": 1,
    "N-Buyer": 4,
    "Chang-Roberts": 2,
    "Two-phase commit": 4,
    "Paxos": 1,
}


def _bench_protocol(benchmark, verify, expected_is):
    report = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert report.ok, report.summary()
    assert report.num_is_applications == expected_is


def test_broadcast_consensus_row(benchmark):
    _bench_protocol(benchmark, lambda: broadcast.verify(n=3, iterated=True), 2)


def test_ping_pong_row(benchmark):
    _bench_protocol(benchmark, lambda: pingpong.verify(rounds=3), 1)


def test_producer_consumer_row(benchmark):
    _bench_protocol(benchmark, lambda: prodcons.verify(bound=4), 1)


def test_n_buyer_row(benchmark):
    _bench_protocol(benchmark, lambda: nbuyer.verify(n=3), 4)


def test_chang_roberts_row(benchmark):
    _bench_protocol(benchmark, lambda: changroberts.verify(n=4), 2)


def test_two_phase_commit_row(benchmark):
    _bench_protocol(benchmark, lambda: twophase.verify(n=3), 4)


def test_paxos_row(benchmark):
    _bench_protocol(
        benchmark, lambda: paxos.verify(rounds=2, num_nodes=2), 1
    )


def test_zz_assemble_full_table(benchmark):
    """Build the whole table (re-running every pipeline) and persist it."""
    rows = benchmark.pedantic(build_table1, rounds=1, iterations=1)
    text = render_table1(rows)
    out = pathlib.Path(__file__).with_name("table1_generated.txt")
    out.write_text(text + "\n")
    print("\n" + text)
    assert all(row.ok for row in rows)
    assert {row.example: row.num_is for row in rows} == _EXPECTED_IS
