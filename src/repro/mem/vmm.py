"""The virtual memory manager: memory mechanics under the fault pipeline.

This is where the substrates compose into the paper's Figure 1 / 6
flow.  For every page access:

1. **Resident?** Page-table hit; no kernel work (the MMU handles it).
2. **First touch?** Minor fault — allocate and zero-fill; no backing
   store involved.  (Warmup phases materialize working sets this way,
   and first evictions then give pages their backing-store placement
   in eviction order, reproducing the swap-layout contiguity both
   Read-Ahead and Leap rely on.)
3. **Page cache hit?** Pay the path's hit cost (ready) or coalesce
   onto the in-flight prefetch's completion-queue entry (partial
   stall — the read is never issued twice).  Consume the entry —
   instantly freed under Leap's eager policy — and feed the
   prefetcher's accuracy loop.
4. **Full miss** — pay allocation wait (pressure-dependent, §4.3),
   walk the data path to the backing store, then consult the
   prefetcher and issue its candidates asynchronously.

The fault *flow* itself — classify → cache-lookup → issue → complete →
map — lives in :class:`repro.datapath.pipeline.FaultPipeline`;
:meth:`VirtualMemoryManager.access` is a thin adapter over it and
:meth:`VirtualMemoryManager.access_batch` is the batched entry point
that drains completions once per batch.  This module keeps the
memory-management mechanics the pipeline calls back into: mapping,
eviction, cgroup charging, and the cache-pressure policy that makes
over-aggressive prefetching expensive.

Eviction is cgroup-driven: mapping past the process's limit unmaps its
coldest resident page; dirty or never-placed victims are written back
asynchronously through the same data path (sharing, and congesting,
the dispatch queues).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.datapath.base import DataPath
from repro.datapath.pipeline import (
    FAULT_KINDS,
    MAP_COST_NS,
    PREFETCH_HIT_KINDS,
    AccessKind,
    AccessOutcome,
    FaultPipeline,
)
from repro.mem.cgroup import MemoryCgroup
from repro.mem.lru import ActiveInactiveLRU
from repro.mem.page import PageKey
from repro.mem.page_cache import PageCache
from repro.mem.page_table import PageTable
from repro.mem.reclaim import KswapdReclaimer
from repro.metrics.counters import PrefetchMetrics
from repro.metrics.latency import LatencyRecorder
from repro.obs.trace import NULL_TRACER
from repro.prefetchers.base import Prefetcher
from repro.rdma.completion import CompletionQueue

__all__ = [
    "AccessKind",
    "AccessOutcome",
    "FAULT_KINDS",
    "MAP_COST_NS",
    "PREFETCH_HIT_KINDS",
    "ProcessMemory",
    "VirtualMemoryManager",
]


@dataclass(slots=True)
class ProcessMemory:
    """Per-process memory state (page table, cgroup, residency LRU)."""

    pid: int
    page_table: PageTable
    cgroup: MemoryCgroup
    address_space_pages: int
    core: int = 0
    resident_lru: ActiveInactiveLRU = field(default_factory=ActiveInactiveLRU)
    materialized: set[int] = field(default_factory=set)
    evictions: int = 0
    writebacks: int = 0
    #: Cgroup charges currently held by page-cache entries of this pid.
    cache_charged: int = 0
    #: Backing-store slots reclaimed when this pid's pages faulted back
    #: in (swap slots on disk, slab slots in remote memory).
    slot_releases: int = 0
    #: Insertion-ordered keys of this pid's cache entries (reclaim scan).
    cache_fifo: deque = field(default_factory=deque)


class VirtualMemoryManager:
    """Demand paging over a pluggable data path and prefetcher."""

    def __init__(
        self,
        data_path: DataPath,
        cache: PageCache,
        reclaimer: KswapdReclaimer,
        prefetcher: Prefetcher,
        metrics: PrefetchMetrics | None = None,
        recorder: LatencyRecorder | None = None,
        batch_prefetch: bool = True,
        completion_queue: CompletionQueue | None = None,
        tracer=None,
    ) -> None:
        self.data_path = data_path
        self.cache = cache
        self.reclaimer = reclaimer
        self.prefetcher = prefetcher
        self.metrics = metrics if metrics is not None else PrefetchMetrics()
        self.recorder = recorder
        #: Trace sink the fault pipeline and burst engines emit into
        #: (the machine's collector; NULL_TRACER for bare VMMs).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Submit a prefetch window through the data path as one sweep
        #: (one software-stage traversal for the whole window) instead
        #: of one full traversal per page.
        self.batch_prefetch = batch_prefetch
        self._processes: dict[int, ProcessMemory] = {}
        self._next_frame = 0
        self.cache.on_free = self._on_cache_free
        self.pipeline = FaultPipeline(self, completion_queue)

    @property
    def completion_queue(self) -> CompletionQueue:
        """The pipeline's shared in-flight read queue."""
        return self.pipeline.cq

    # -- process management -------------------------------------------------
    def register_process(
        self,
        pid: int,
        limit_pages: int,
        address_space_pages: int,
        core: int = 0,
    ) -> ProcessMemory:
        if pid in self._processes:
            raise ValueError(f"pid {pid} is already registered")
        if address_space_pages <= 0:
            raise ValueError(
                f"address space must be positive, got {address_space_pages}"
            )
        process = ProcessMemory(
            pid=pid,
            page_table=PageTable(pid),
            cgroup=MemoryCgroup(f"pid-{pid}", limit_pages),
            address_space_pages=address_space_pages,
            core=core,
        )
        self._processes[pid] = process
        return process

    def process(self, pid: int) -> ProcessMemory:
        return self._processes[pid]

    def resize_limit(self, pid: int, limit_pages: int, now: int) -> int:
        """Change *pid*'s cgroup limit mid-run (a limit schedule step).

        Shrinking evicts the process's coldest pages — cache entries
        first, then resident mappings — until it fits under the new
        limit, exactly as writing ``memory.max`` triggers reclaim in
        the kernel.  Returns the number of pages reclaimed.
        """
        process = self._processes[pid]
        process.cgroup.resize(limit_pages)
        reclaimed = 0
        while process.cgroup.charged_pages > limit_pages:
            if self._drop_own_cache_page(process, now, include_inflight=True):
                reclaimed += 1
                continue
            resident = (
                process.resident_lru.inactive_count
                + process.resident_lru.active_count
            )
            if not resident:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"pid {pid}: over limit {limit_pages} with nothing reclaimable"
                )
            self._evict_one(process, now)
            reclaimed += 1
        return reclaimed

    @property
    def processes(self) -> list[ProcessMemory]:
        return list(self._processes.values())

    # -- internals -------------------------------------------------------
    def _on_cache_free(self, entry, now: int) -> None:
        """Cache entry died: return its charge, settle prefetch metrics.

        A *consumed* entry's charge was already transferred to the
        resident mapping when it was consumed, so only unconsumed
        entries give memory back here.
        """
        if entry.consumed:
            return
        process = self._processes.get(entry.key[0])
        if process is not None:
            process.cgroup.uncharge(1)
            process.cache_charged = max(0, process.cache_charged - 1)
        if entry.page.prefetched:
            self.metrics.record_evicted_unused(entry.key)

    def _drop_own_cache_page(
        self, process: ProcessMemory, now: int, include_inflight: bool = False
    ) -> bool:
        """Reclaim the oldest unconsumed cache entry of *process*.

        Ready entries are preferred; with ``include_inflight`` an entry
        whose read has not landed yet may be dropped too (the kernel
        equivalent: the page is freed as soon as the I/O completes,
        without ever serving a hit — its completion-queue entry stays
        on the wire until its arrival deadline).
        """
        skipped: list = []
        dropped = False
        while process.cache_fifo:
            key = process.cache_fifo.popleft()
            entry = self.cache.lookup(key, now)
            if entry is None or entry.consumed:
                continue
            if not entry.page.is_ready(now) and not include_inflight:
                skipped.append(key)
                continue
            self.cache.drop(key, now)
            dropped = True
            break
        # Preserve FIFO order of in-flight entries we stepped over.
        for key in reversed(skipped):
            process.cache_fifo.appendleft(key)
        return dropped

    #: Cache entries may hold at most this share of a cgroup's limit
    #: before reclaim starts eating the cache instead of residency —
    #: the swap cache cannot grow without bound in a real kernel, and
    #: under memory pressure its share of a cgroup is small.
    CACHE_SHARE_LIMIT = 0.08

    def _reserve_cache_page(self, process: ProcessMemory, now: int) -> bool:
        """Charge one cache page to *process*, reclaiming to make room.

        This is the mechanism that makes over-aggressive prefetching
        expensive (§2.3, Figure 9a's thrashing): cache pages and mapped
        pages share the cgroup budget, so pollution steals residency
        from the application — and once the cache's share passes
        :data:`CACHE_SHARE_LIMIT`, a polluter starts churning its own
        unconsumed prefetches, losing the coverage it paid for.
        Returns False when no room can be made.
        """
        over_share = (
            process.cache_charged + 1
            > process.cgroup.limit_pages * self.CACHE_SHARE_LIMIT
        )
        if over_share and not self._drop_own_cache_page(process, now):
            # The cache is over its share and entirely in flight:
            # refuse further prefetching rather than strip residency.
            return False
        resident_floor = max(4, process.cgroup.limit_pages // 8)
        while not process.cgroup.can_charge(1):
            if len(process.resident_lru) > resident_floor:
                self._evict_one(process, now)
            elif not self._drop_own_cache_page(process, now):
                return False
        process.cgroup.charge(1)
        process.cache_charged += 1
        return True

    def _evict_one(self, process: ProcessMemory, now: int) -> None:
        victims = process.resident_lru.scan_inactive(1)
        if not victims:
            raise RuntimeError(
                f"pid {process.pid}: cgroup full but no resident page to evict"
            )
        vpn = victims[0][0]
        entry = process.page_table.unmap_page(vpn)
        process.cgroup.uncharge(1)
        process.evictions += 1
        key = (process.pid, vpn)
        # Reclaiming the page also removes it from the swap cache (the
        # kernel frees the cache reference with the page); a lingering
        # consumed entry must not serve a phantom hit after eviction.
        if key in self.cache:
            self.cache.drop(key, now)
        data_path = self.data_path
        if entry.dirty or not data_path.backend.is_placed(key):
            data_path.async_write(key, now, process.core)
            process.writebacks += 1

    def _map_page(self, process: ProcessMemory, vpn: int, now: int, dirty: bool) -> None:
        cgroup = process.cgroup
        while not cgroup.can_charge(1):
            if len(process.resident_lru):
                self._evict_one(process, now)
            elif not self._drop_own_cache_page(process, now, include_inflight=True):
                raise RuntimeError(
                    f"pid {process.pid}: cgroup full with nothing reclaimable"
                )
        cgroup.charge(1)
        self._next_frame += 1
        process.page_table.map_page(vpn, frame=self._next_frame, now=now, dirty=dirty)
        process.resident_lru.add(vpn, None)

    # -- the fault path -------------------------------------------------------
    def access(self, pid: int, vpn: int, now: int, is_write: bool = False) -> AccessOutcome:
        """Serve one page access at simulated time *now*.

        A thin adapter over the staged
        :class:`~repro.datapath.pipeline.FaultPipeline` — every run
        path (``simulate``, ``run_concurrent``, ``run_cluster``) faults
        through the same five stages.
        """
        return self.pipeline.access(pid, vpn, now, is_write)

    def access_batch(
        self,
        pid: int,
        vpns,
        now: int,
        is_write: bool = False,
        think_ns: int = 0,
    ) -> list[AccessOutcome]:
        """Serve a sequence of accesses of one process, batched.

        The batched fault entry point: completions are drained and the
        background-reclaim check run **once** at the batch boundary,
        then each access runs back to back — the i-th at the (i-1)-th's
        finish time plus *think_ns*.  Semantically identical to calling
        :meth:`access` in a loop with the same timing; the per-access
        overhead is what disappears.
        """
        pipeline = self.pipeline
        pipeline.begin_batch(now)
        outcomes: list[AccessOutcome] = []
        append = outcomes.append
        access = pipeline.access
        t = now
        for vpn in vpns:
            outcome = access(pid, vpn, t, is_write)
            append(outcome)
            t += outcome.latency_ns + think_ns
        return outcomes
