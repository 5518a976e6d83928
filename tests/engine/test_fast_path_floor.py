"""Speed floor: the columnar fast path against the reference oracle.

The differential suite (``test_columnar_differential``) holds the two
evaluators typed-identical; this test holds the fast path to what it is
for. On Paxos R=2/N=2, one serial check on the default columnar path
must run at least 3x faster than the same check under
:class:`~repro.core.context.UncachableContext`, the dict-shaped oracle.

The two modes interleave, each from a reset process cache, and each
reports its best of two: successive checks in one process drift slower,
and timing the modes in blocks would bill that drift to whichever ran
last. Only ``check`` is timed, not the universe build.

Slow lane; the ``bench-smoke`` CI job runs it with ``-s`` so the ratio
shows in the log::

    PYTHONPATH=src python -m pytest -m slow -s tests/engine/test_fast_path_floor.py
"""

from __future__ import annotations

import time

import pytest

from repro.core.cache import reset_process_cache
from repro.core.columnar import columnar_store
from repro.protocols import paxos

from .test_columnar_differential import _typed_condition_map, _universe

#: The floor on oracle time / fast time.
FLOOR = 3.0
REPS = 2


@pytest.mark.slow
def test_fast_path_meets_the_speedup_floor_on_paxos_r2n2():
    app = paxos.make_sequentialization(2, 2)
    init_global = paxos.initial_global(2, 2)
    best = {"oracle": float("inf"), "fast": float("inf")}
    maps = {}
    fills = {}
    for _ in range(REPS):
        for mode in ("oracle", "fast"):
            reset_process_cache()
            universe = _universe(app, init_global, oracle=mode == "oracle")
            explored = columnar_store().gate_fills
            started = time.perf_counter()
            result = app.check(universe, jobs=1)
            best[mode] = min(best[mode], time.perf_counter() - started)
            maps[mode] = _typed_condition_map(result)
            fills[mode] = (explored, columnar_store().gate_fills)
    reset_process_cache()

    assert maps["fast"] == maps["oracle"]
    # The oracle fills no column of its own; the fast path's tables are
    # live, so the ratio below compares two different evaluators.
    assert fills["oracle"][1] == fills["oracle"][0]
    assert fills["fast"][1] > 0
    ratio = best["oracle"] / best["fast"]
    print(
        f"\nfast vs oracle on Paxos R2N2: oracle {best['oracle']:.3f}s, "
        f"fast {best['fast']:.3f}s, ratio {ratio:.2f}x (floor {FLOOR}x), "
        f"fast-path gate fills {fills['fast'][1]}"
    )
    assert ratio >= FLOOR, f"fast path {ratio:.2f}x the oracle, floor {FLOOR}x"
