"""Segment-mix workloads: the scaffold behind the application traces.

Each application trace is a burst-interleaving of per-thread streams;
each stream emits *segments* — a sequential run, a stride run, or an
irregular run — drawn from a per-application weight table.  Tuning the
weights and segment shapes against the paper's measured pattern mixes
(Figure 3 plus the percentages quoted in §5.3) gives synthetic traces
that pose the same detection problem to a prefetcher as the real
applications did, which is all a prefetcher ever observes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.sim.rng import SimRandom
from repro.workloads.base import Workload
from repro.workloads.mixer import burst_interleave, weighted_choice
from repro.workloads.patterns import batched, sequential_run, stride_run

__all__ = ["SegmentMixWorkload"]


class SegmentMixWorkload(Workload):
    """Composite workload built from weighted pattern segments."""

    name = "segment-mix"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        *,
        sequential_weight: float,
        stride_weight: float,
        irregular_weight: float,
        seq_run_pages: tuple[int, int] = (32, 128),
        strides: tuple[int, ...] = (2, 4, 8, 16),
        stride_run_steps: tuple[int, int] = (16, 48),
        irregular_run_steps: tuple[int, int] = (4, 16),
        irregular_skew: float | None = None,
        hot_fraction: float | None = None,
        interleave: int = 1,
        burst: tuple[int, int] = (4, 16),
        phase_correlated: bool = False,
        phase_accesses: tuple[int, int] = (256, 1024),
        shard_cursors: bool = False,
        region_fraction: float | None = None,
        region_dwell_accesses: int = 3000,
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        weights = [
            ("sequential", sequential_weight),
            ("stride", stride_weight),
            ("irregular", irregular_weight),
        ]
        if any(weight < 0 for _, weight in weights):
            raise ValueError("segment weights must be non-negative")
        if interleave < 1:
            raise ValueError(f"interleave must be >= 1, got {interleave}")
        self.segment_weights = weights
        self.seq_run_pages = seq_run_pages
        self.strides = strides
        self.stride_run_steps = stride_run_steps
        self.irregular_run_steps = irregular_run_steps
        if hot_fraction is not None and not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
        self.irregular_skew = irregular_skew
        self.hot_fraction = hot_fraction
        self.interleave = interleave
        self.burst = burst
        self.phase_correlated = phase_correlated
        self.phase_accesses = phase_accesses
        self.shard_cursors = shard_cursors
        if region_fraction is not None and not 0.0 < region_fraction <= 1.0:
            raise ValueError(f"region_fraction must be in (0, 1], got {region_fraction}")
        self.region_fraction = region_fraction
        self.region_dwell_accesses = region_dwell_accesses

    @property
    def hot_pages(self) -> int:
        """Size of the hot (irregular-access) region in pages."""
        if self.hot_fraction is None:
            return self.wss_pages
        return max(1, int(self.wss_pages * self.hot_fraction))

    def _irregular_target(self, rng: SimRandom, scatter: list[int]) -> int:
        if self.irregular_skew is None:
            return rng.randrange(len(scatter))
        return scatter[rng.zipf(len(scatter), self.irregular_skew)]

    def _draw_phase(self, rng: SimRandom) -> tuple[str, int]:
        """A phase: the segment kind plus the stride all threads share."""
        return weighted_choice(rng, self.segment_weights), rng.choice(self.strides)

    def _segment_stream(
        self, rng: SimRandom, phase: list[tuple[str, int]] | None, thread: int
    ) -> Iterator[int]:
        """One thread's infinite stream of pattern segments.

        With phase correlation, the segment *kind* (and the stride, for
        stride phases) is read from the shared ``phase`` cell instead of
        drawn independently — modelling BSP-style engines where all
        worker threads run the same operation (gather/apply/scatter, or
        the panels of a blocked matmul) at the same time.

        With ``shard_cursors``, each thread owns a contiguous shard of
        the address space and its streaming segments *continue a
        persistent cursor* through that shard, wrapping around —
        modelling engines that re-scan the same arrays in the same
        order every iteration.  This repetition is what keeps swap
        layout aligned with access order across rounds; without it
        (random segment starts) offset-based readahead has nothing to
        work with.

        Irregular segments draw from the *hot region* — the first
        ``hot_pages`` of the address space, hash-scattered — modelling
        pointer-chasing over hot structures (vertex data, B-tree upper
        levels) while streaming segments sweep the cold bulk.
        """
        scatter = list(range(self.hot_pages))
        rng.spawn("scatter").shuffle(scatter)
        pick = rng.spawn("pick")
        body = rng.spawn("body")
        if self.shard_cursors:
            shard_size = self.wss_pages // self.interleave
            shard_lo = thread * shard_size
            shard_hi = self.wss_pages if thread == self.interleave - 1 else shard_lo + shard_size
        else:
            shard_lo, shard_hi = 0, self.wss_pages
        # Region dwell: streaming concentrates on one window of the
        # shard at a time (a graph partition, a matmul panel pair) and
        # re-sweeps it before moving on.  The window fits in memory at
        # the 50% limit but not at 25% — the locality cliff behind the
        # Figure 11 columns.
        if self.region_fraction is not None:
            region_size = max(32, int((shard_hi - shard_lo) * self.region_fraction))
        else:
            region_size = shard_hi - shard_lo
        region_lo = shard_lo
        region_hi = min(shard_hi, region_lo + region_size)
        dwell_left = self.region_dwell_accesses
        cursor = region_lo
        stride_phase = 0

        def advance_region() -> None:
            nonlocal region_lo, region_hi, cursor, dwell_left
            region_lo = region_lo + region_size
            if region_lo >= shard_hi:
                region_lo = shard_lo
            region_hi = min(shard_hi, region_lo + region_size)
            cursor = region_lo
            dwell_left = self.region_dwell_accesses

        def step_cursor(step: int) -> int:
            nonlocal cursor, stride_phase, dwell_left
            value = cursor
            cursor += step
            if cursor >= region_hi:
                stride_phase = (stride_phase + 1) % max(1, step)
                cursor = region_lo + stride_phase
            dwell_left -= 1
            if dwell_left <= 0 and self.region_fraction is not None:
                advance_region()
            return value

        while True:
            if phase is not None:
                kind, stride = phase[0]
            else:
                kind = weighted_choice(pick, self.segment_weights)
                stride = body.choice(self.strides)
            if kind == "sequential":
                length = body.randint(*self.seq_run_pages)
                if self.shard_cursors:
                    for _ in range(length):
                        yield step_cursor(1)
                else:
                    start = body.randrange(max(1, self.wss_pages - length))
                    yield from sequential_run(start, length)
            elif kind == "stride":
                steps = body.randint(*self.stride_run_steps)
                if self.shard_cursors:
                    for _ in range(steps):
                        yield step_cursor(stride)
                else:
                    reach = abs(stride) * steps
                    start = body.randrange(max(1, self.wss_pages - reach))
                    yield from stride_run(start, stride, steps)
            else:
                steps = body.randint(*self.irregular_run_steps)
                for _ in range(steps):
                    yield self._irregular_target(body, scatter)

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        # The segment and interleave logic is per-draw control flow with
        # no closed array form: run it scalar and batch its output.
        return batched(self._scalar_vpns(rng), batch)

    def _scalar_vpns(self, rng: SimRandom) -> Iterator[int]:
        """The burst-interleaved, phase-switched page stream."""
        phase: list[tuple[str, int]] | None = None
        phase_rng = rng.spawn("phase")
        if self.phase_correlated:
            phase = [self._draw_phase(phase_rng)]
        streams = [
            self._segment_stream(rng.spawn(f"thread-{index}"), phase, index)
            for index in range(self.interleave)
        ]
        if len(streams) == 1:
            merged: Iterator[int] = streams[0]
        else:
            merged = burst_interleave(
                streams, rng.spawn("interleave"), self.burst[0], self.burst[1]
            )
        if phase is None:
            yield from merged
            return
        remaining = phase_rng.randint(*self.phase_accesses)
        for vpn in merged:
            yield vpn
            remaining -= 1
            if remaining <= 0:
                phase[0] = self._draw_phase(phase_rng)
                remaining = phase_rng.randint(*self.phase_accesses)
