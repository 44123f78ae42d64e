"""Workload interface and trace utilities.

A workload is a reproducible page-access trace over a working set of
``wss_pages`` virtual pages, produced in one form only: columnar
:class:`~repro.kernel.AccessBlock` values from
:meth:`Workload.columnar_blocks`.  The per-access
:class:`~repro.sim.process.PageAccess` stream of :meth:`Workload.accesses`
is a view over those blocks, so the two engines read one trace by
construction.  Workloads carry the
metadata the benchmarks need: how many accesses they will emit, how
many application-level *operations* those accesses represent (for the
throughput figures), and the think time separating accesses (the
compute/memory-touch ratio that turns fault latency into application
slowdown).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from repro.kernel.columnar import DEFAULT_BLOCK_SIZE, AccessBlock, Columns, reblock
from repro.sim.process import PageAccess
from repro.sim.rng import SimRandom

__all__ = ["Workload", "materialize_columns"]


class Workload:
    """A finite, reproducible page-access trace."""

    name: str

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        seed: int = 42,
        think_ns: int = 1_000,
        write_fraction: float = 0.0,
    ) -> None:
        if wss_pages <= 0:
            raise ValueError(f"wss_pages must be positive, got {wss_pages}")
        if total_accesses <= 0:
            raise ValueError(f"total_accesses must be positive, got {total_accesses}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
        self.wss_pages = wss_pages
        self.total_accesses = total_accesses
        self.seed = seed
        self.think_ns = think_ns
        self.write_fraction = write_fraction

    #: Page accesses per application-level operation (1 = every access
    #: is its own op); throughput workloads override this.
    accesses_per_op: int = 1

    @property
    def total_ops(self) -> int:
        return self.total_accesses // self.accesses_per_op

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        """The synthetic-pattern hook: int64 vpn arrays (may be infinite).

        The arrays concatenate to the pattern's page sequence; *rng* is
        the workload's ``vpns`` stream and *batch* a sizing hint for
        arrays of per-draw randomness.  :meth:`_chunks` cuts the arrays
        to ``total_accesses`` in blocks, clamps the vpns into the
        working set, draws the write flags and fills the think times.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _vpn_arrays nor _chunks"
        )

    def _chunks(self, block_size: int) -> Iterator[Columns]:
        """The raw trace as ``(vpn, is_write, think_ns)`` column chunks.

        Chunks may have any lengths and the stream may be infinite.  The
        default builds it from :meth:`_vpn_arrays`, cut into
        *block_size* pieces first so that each write-flag batch is one
        block: the labelled ``writes`` stream is spawned before
        ``vpns``, write flags are one uniform draw per access exactly
        when ``write_fraction > 0``, and every access thinks
        ``think_ns``.  Workloads whose write flags or think times are
        not drawn this way override this.
        """
        rng = SimRandom(self.seed, f"workload/{self.name}")
        write_rng = rng.spawn("writes")
        wss = self.wss_pages
        think = self.think_ns
        wf = self.write_fraction
        total = self.total_accesses
        arrays = self._vpn_arrays(rng.spawn("vpns"), min(block_size, total))
        for (vpn,) in reblock(((array,) for array in arrays), block_size, total):
            n = len(vpn)
            if wf > 0.0:
                writes = write_rng.random_array(n) < wf
            else:
                writes = np.zeros(n, dtype=np.bool_)
            yield vpn % wss, writes, np.full(n, think, dtype=np.int64)

    def columnar_blocks(self, block_size: int | None = None) -> Iterator[AccessBlock]:
        """The trace: ``total_accesses`` accesses as columnar blocks.

        Blocks are *block_size* long (default
        :data:`~repro.kernel.DEFAULT_BLOCK_SIZE`) except the last; the
        concatenated stream does not depend on *block_size*.  A
        non-positive *block_size* raises :class:`ValueError`.
        """
        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        blocks = reblock(self._chunks(block_size), block_size, self.total_accesses)
        return (AccessBlock(*columns) for columns in blocks)

    def accesses(self) -> Iterator[PageAccess]:
        """The trace as one :class:`PageAccess` per touch.

        A view over :meth:`columnar_blocks` (the object engine's input).
        """
        return chain.from_iterable(
            block.accesses() for block in self.columnar_blocks()
        )


def materialize_columns(workload: Workload):
    """The workload's full trace as ``(vpn, is_write, think_ns)`` arrays.

    Fully expands a workload for analysis (Figure 3, ``repro trace
    analyze``) and capture: concatenates the workload's
    :meth:`~Workload.columnar_blocks` stream into three int64/bool
    arrays without a per-access object detour.  Workloads that already
    hold their columns (``ColumnarTraceWorkload``) are returned
    zero-copy via their ``columns()`` fast path.
    """
    columns = getattr(workload, "columns", None)
    if columns is not None:
        return columns()
    vpn_parts = []
    write_parts = []
    think_parts = []
    for block in workload.columnar_blocks():
        vpn_parts.append(block.vpn)
        write_parts.append(block.is_write)
        think_parts.append(block.think_ns)
    return (
        np.concatenate(vpn_parts),
        np.concatenate(write_parts),
        np.concatenate(think_parts),
    )
