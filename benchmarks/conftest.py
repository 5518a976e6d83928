"""Benchmark-suite configuration.

The benchmarks regenerate the paper's evaluation artifacts (see
EXPERIMENTS.md): run with ``pytest benchmarks/ --benchmark-only``. The
rendered Table 1 is written to ``benchmarks/table1_generated.txt`` by the
Table 1 benchmark module.
"""



def pytest_collection_modifyitems(config, items):
    # Benchmarks live outside the default testpaths; nothing to adjust,
    # but keep deterministic ordering for reproducible output files.
    items.sort(key=lambda item: item.nodeid)
