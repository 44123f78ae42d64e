"""Shared fixtures for the per-figure benchmarks.

Experiment results are cached at session scope so that each figure's
assertions and its pytest-benchmark timing draw from one computation.
The printed tables are the reproduction artifacts — run with ``-s`` to
see them.  ``repro figures`` maps each paper figure to its benchmark
module, and each module's assertions state the paper claim it checks.
"""

from __future__ import annotations

import pytest

from repro.bench import BenchScale

# Benchmark scale: ~400× smaller working sets than the paper's 9–38 GB
# runs, with think times calibrated to preserve compute/fault balance.
SCALE = BenchScale(
    wss_pages=12_288,
    accesses=40_000,
    micro_wss_pages=8_192,
    micro_accesses=24_000,
    seed=42,
)


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return SCALE


@pytest.fixture(scope="session")
def fig9_fig10_runs():
    """One shared run for the Figure 9 and Figure 10 benches."""
    from repro.bench import fig9_fig10_prefetcher_comparison

    return fig9_fig10_prefetcher_comparison(SCALE)


@pytest.fixture(scope="session")
def fig11_cells():
    """One shared grid for both Figure 11 benches."""
    from repro.bench import fig11_applications

    return fig11_applications(SCALE)


def run_once(benchmark, fn, *args, **kwargs):
    """Time *fn* exactly once through pytest-benchmark.

    The experiments are deterministic simulations — repeating them
    yields identical results — so a single round both records a
    meaningful wall-clock figure and keeps the suite fast.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
