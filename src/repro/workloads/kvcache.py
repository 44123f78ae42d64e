"""KV-cache paging: an LLM-inference-shaped access trace.

Serving a language model from a paged KV cache produces a distinctive
memory pattern that mixes all three regimes the paper's prefetcher must
tell apart.  Each request cycle:

1. **Hot prefix** — the shared system-prompt / prefix-cache pages are
   re-read sequentially (perfectly prefetchable, high reuse);
2. **Sequential append** — decode writes new KV pages into a ring over
   the remaining working set (a pure sequential *write* stream, the
   readahead-friendly case with dirty-page pressure);
3. **Recency-biased lookups** — attention reads back previously
   written cache pages, skewed toward recent tokens
   (``offset = ⌊avail · u^recency_skew⌋`` back from the append head —
   mostly short backward jumps, a tail of long ones).

The lookup draws are the only randomness, taken from one labelled
stream in batches (``SimRandom.random_array``), and everything else is
closed-form arithmetic — so the columns are generated natively
(arange/power/mod, no per-access Python).  The write flags follow the
phase (appends write, everything else reads) instead of being drawn,
which is why this workload builds its own chunks rather than a vpn
array.  This is the flagship trace family for ``repro trace``:
capture it at millions of accesses, replay it zero-copy, and the
analyzer shows the three regimes as distinct regions.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.kernel.columnar import Columns
from repro.sim.rng import SimRandom
from repro.workloads.base import Workload

__all__ = ["KVCacheWorkload"]


class KVCacheWorkload(Workload):
    """Hot-prefix + sequential-append + recency-lookup paging trace."""

    name = "kvcache"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        seed: int = 42,
        hot_fraction: float = 0.125,
        append_pages: int = 16,
        lookups_per_append: int = 48,
        recency_skew: float = 2.0,
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, seed=seed, **kwargs)
        if not 0.0 < hot_fraction < 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1), got {hot_fraction}")
        if append_pages <= 0:
            raise ValueError(f"append_pages must be positive, got {append_pages}")
        if lookups_per_append < 0:
            raise ValueError("lookups_per_append must be >= 0")
        if recency_skew <= 0:
            raise ValueError(f"recency_skew must be positive, got {recency_skew}")
        hot_pages = max(1, int(wss_pages * hot_fraction))
        ring_pages = wss_pages - hot_pages
        if ring_pages < 1:
            raise ValueError(
                f"wss_pages={wss_pages} too small for hot_fraction={hot_fraction}"
            )
        self.hot_pages = hot_pages
        self.ring_pages = ring_pages
        self.append_pages = append_pages
        self.lookups_per_append = lookups_per_append
        self.recency_skew = recency_skew

    def _chunks(self, block_size: int) -> Iterator[Columns]:
        """Request cycles, one chunk per run: the hot prefix re-read,
        the append run(s) wrapping around the ring ``[hot_pages,
        wss_pages)``, and the recency-biased lookups."""
        rng = SimRandom(self.seed, f"workload/{self.name}")
        draw = rng.spawn("lookups")
        hot = self.hot_pages
        ring = self.ring_pages
        skew = self.recency_skew
        lookups = self.lookups_per_append
        think = self.think_ns
        prefix = (
            np.arange(hot, dtype=np.int64),
            np.zeros(hot, dtype=np.bool_),
            np.full(hot, think, dtype=np.int64),
        )
        written = 0
        while True:
            yield prefix
            remaining = self.append_pages
            while remaining:
                head = written % ring
                run = min(remaining, ring - head)
                yield (
                    np.arange(hot + head, hot + head + run, dtype=np.int64),
                    np.ones(run, dtype=np.bool_),
                    np.full(run, think, dtype=np.int64),
                )
                written += run
                remaining -= run
            if lookups:
                avail = min(written, ring)
                offsets = np.minimum(
                    (avail * draw.random_array(lookups) ** skew).astype(np.int64),
                    avail - 1,
                )
                yield (
                    hot + (written - 1 - offsets) % ring,
                    np.zeros(lookups, dtype=np.bool_),
                    np.full(lookups, think, dtype=np.int64),
                )
