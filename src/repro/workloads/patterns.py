"""Primitive access patterns: the §2 microbenchmarks and building blocks.

``SequentialWorkload`` and ``StrideWorkload`` are the two
microbenchmarks of Figures 2 and 7 (sequential scan; stride of 10
pages).  ``RandomWorkload`` and ``ZipfianWorkload`` are the irregular
building blocks used by the application traces.  ``PatternSegment``
generators are reused by the composite application workloads in this
package.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.sim.rng import SimRandom, _zipf_cdf
from repro.workloads.base import Workload

__all__ = [
    "SequentialWorkload",
    "StrideWorkload",
    "RandomWorkload",
    "ZipfianWorkload",
    "batched",
    "permloop_arrays",
    "sequential_arrays",
    "sequential_run",
    "stride_arrays",
    "stride_run",
    "take",
    "uniform_arrays",
    "zipfian_arrays",
]


def sequential_run(start: int, length: int) -> Iterator[int]:
    """``length`` consecutive pages starting at ``start``."""
    for step in range(length):
        yield start + step


def stride_run(start: int, stride: int, count: int) -> Iterator[int]:
    """``count`` pages spaced ``stride`` apart from ``start``."""
    for step in range(count):
        yield start + step * stride


# -- pattern array generators ------------------------------------------------
# Each yields int64 vpn arrays forever; the workloads below and the
# phases of :class:`~repro.workloads.phased.PhasedWorkload` share them.


def batched(vpns: Iterable[int], batch: int) -> Iterator[np.ndarray]:
    """Batch a scalar vpn stream into int64 arrays of *batch* entries.

    For patterns with per-draw control flow and no closed array form;
    batching still skips the per-access object construction.
    """
    vpns = iter(vpns)
    while True:
        yield np.fromiter(islice(vpns, batch), np.int64, count=batch)


def take(arrays: Iterable[np.ndarray], count: int) -> Iterator[np.ndarray]:
    """The first *count* entries of an array stream."""
    if count <= 0:
        return
    for array in arrays:
        if len(array) >= count:
            yield array[:count]
            return
        yield array
        count -= len(array)


def sequential_arrays(wss_pages: int) -> Iterator[np.ndarray]:
    """Front-to-back sweeps of the working set, repeated."""
    sweep = np.arange(wss_pages, dtype=np.int64)
    while True:
        yield sweep


def stride_arrays(wss_pages: int, stride: int) -> Iterator[np.ndarray]:
    """Sweeps ``stride`` pages apart, each starting one page further in.

    When the start itself is past the region (``stride > wss_pages``)
    the sweep is that one page before wrapping.
    """
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    phase = 0
    while True:
        if phase < wss_pages:
            yield np.arange(phase, wss_pages, stride, dtype=np.int64)
        else:
            yield np.array([phase], dtype=np.int64)
        phase = (phase + 1) % stride


def uniform_arrays(rng: SimRandom, wss_pages: int, batch: int) -> Iterator[np.ndarray]:
    """Uniform-random pages, one ``randrange`` each.

    Python's Mersenne Twister integer draws have no bit-exact array
    form, so the draws are batched instead.
    """
    randrange = rng.randrange
    while True:
        yield np.fromiter(
            (randrange(wss_pages) for _ in range(batch)), np.int64, count=batch
        )


def zipfian_arrays(
    rng: SimRandom, wss_pages: int, skew: float, batch: int
) -> Iterator[np.ndarray]:
    """Zipf(*skew*) ranks scattered across the working set.

    Ranks are inverse-transform samples of batched uniform draws;
    ``searchsorted`` on the float64 CDF computes the same index as
    :meth:`SimRandom.zipf`'s ``bisect_left``.  The scatter permutation
    keeps popularity uncorrelated with address adjacency.
    """
    scatter = list(range(wss_pages))
    rng.spawn("scatter").shuffle(scatter)
    draw = rng.spawn("zipf")
    scatter_arr = np.array(scatter, dtype=np.int64)
    cdf = np.array(_zipf_cdf(wss_pages, skew), dtype=np.float64)
    while True:
        ranks = np.searchsorted(cdf, draw.random_array(batch), side="left")
        yield scatter_arr[np.minimum(ranks, wss_pages - 1)]


def permloop_arrays(rng: SimRandom, loop_pages: int) -> Iterator[np.ndarray]:
    """One fixed random permutation of ``loop_pages`` pages, looped."""
    order = list(range(loop_pages))
    rng.spawn("perm").shuffle(order)
    loop = np.array(order, dtype=np.int64)
    while True:
        yield loop


class SequentialWorkload(Workload):
    """Scan the working set front to back, repeatedly."""

    name = "sequential"

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        return sequential_arrays(self.wss_pages)


class StrideWorkload(Workload):
    """Walk the working set with a fixed page stride (default 10).

    Mirrors the paper's Stride-10 microbenchmark: sweep the region in
    strides of ``stride`` pages, then restart one page over, so that
    *every* page is eventually touched but consecutive accesses are
    never adjacent.  With memory for only half the region, each page is
    evicted long before its next visit, so under sequential-only
    readahead every access misses (the Figure 2b cliff) — while the
    trace remains perfectly predictable for a stride-aware detector.
    """

    name = "stride"

    def __init__(self, wss_pages: int, total_accesses: int, stride: int = 10, **kwargs) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        self.stride = stride
        self.name = f"stride-{stride}"

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        return stride_arrays(self.wss_pages, self.stride)


class RandomWorkload(Workload):
    """Uniform-random page access: the unpredictable extreme."""

    name = "random"

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        return uniform_arrays(rng, self.wss_pages, batch)


class ZipfianWorkload(Workload):
    """Skewed random access (hot pages exist, but no spatial pattern)."""

    name = "zipfian"

    def __init__(
        self, wss_pages: int, total_accesses: int, skew: float = 0.99, **kwargs
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if skew <= 0:
            raise ValueError(f"skew must be positive, got {skew}")
        self.skew = skew

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        return zipfian_arrays(rng, self.wss_pages, self.skew, batch)
