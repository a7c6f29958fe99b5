"""Benchmark-suite configuration.

Prints the experiment banner (the paper's Table 1 against the scaled
operating point actually used) once per session, and provides shared
fixtures. Run with::

    pytest benchmarks/ --benchmark-only

Scale knob: ``REPRO_SCALE`` multiplies N / r / Q of the scaled
defaults (1.0 ≈ N=20K; 50 restores the paper's N=1M — expect hours
under CPython at that size).
"""

from __future__ import annotations

import gc

import pytest

from harness import TABLE_1, env_scale, format_table, scaled_defaults


@pytest.fixture(autouse=True)
def settle_gc():
    """Collect cyclic garbage *before* each benchmark test.

    Some benches build structures that are cyclic by nature (the TSL
    skiplist's doubly-linked towers leave ~300k cycle objects), and a
    full suite run accumulates that debt until a gen-2 collection
    fires — if it fires inside another test's timed section, that test
    is charged hundreds of milliseconds of unrelated GC work and a
    timing assertion (e.g. TMA-vs-brute) flips on heap layout rather
    than algorithm cost. Settling the heap up front keeps each bench's
    measurement its own.
    """
    gc.collect()
    yield


def pytest_sessionstart(session):
    spec = scaled_defaults()
    print("\n" + "=" * 72)
    print("Reproduction of Mouratidis, Bakiras & Papadias, SIGMOD 2006")
    print("Continuous Monitoring of Top-k Queries over Sliding Windows")
    print("=" * 72)
    rows = [
        [name, str(info["default"]), ", ".join(map(str, info["range"]))]
        for name, info in TABLE_1.items()
    ]
    print("Table 1 (paper): system parameters")
    print(format_table(["Parameter", "Default", "Range"], rows))
    print(
        f"\nScaled operating point (REPRO_SCALE={env_scale():g}): "
        f"N={spec.n}, r={spec.rate}, Q={spec.num_queries}, k={spec.k}, "
        f"d={spec.dims}, grid={spec.grid_cells_per_axis()}^d, "
        f"cycles={spec.cycles}"
    )
    print("=" * 72)


@pytest.fixture(scope="session")
def base_spec():
    """The scaled default workload; benches derive sweeps from it."""
    return scaled_defaults()
