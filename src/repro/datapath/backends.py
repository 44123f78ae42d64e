"""I/O backends: where a page miss ultimately goes.

A backend accepts a read or write for one page and returns queue-aware
completion timing.  Two implementations:

* :class:`DiskBackend` — a single-device queue in front of an HDD/SSD
  medium.  The device serializes transfers, so fault storms saturate it
  and completion times blow up; this is what makes the paper's
  25%-memory disk runs "never finish" (Figure 11).
* :class:`RemoteBackend` — delegates to the :class:`HostAgent`'s
  per-core RDMA dispatch queues (already queue-aware).
"""

from __future__ import annotations

import abc

from repro.datapath.swap import SwapSlotAllocator
from repro.rdma.agent import HostAgent
from repro.rdma.qp import DispatchQueue, Submission
from repro.storage.backends import StorageMedium

__all__ = ["IOBackend", "DiskBackend", "RemoteBackend"]


class IOBackend(abc.ABC):
    """Sink for page reads/writes with queue-aware timing."""

    name: str

    @abc.abstractmethod
    def submit_read(self, key: object, now: int, core: int) -> Submission:
        """Submit a one-page read; returns its queue/completion timing."""

    @abc.abstractmethod
    def submit_write(self, key: object, now: int, core: int) -> Submission:
        """Submit a one-page write-out; returns its timing."""

    @abc.abstractmethod
    def placement_of(self, key: object) -> int | None:
        """Backing-store offset of *key* in page units, if placed."""

    def is_placed(self, key: object) -> bool:
        """Whether *key* has a backing-store copy (``placement_of`` is set)."""
        return self.placement_of(key) is not None

    @abc.abstractmethod
    def key_at_offset(self, offset: int) -> object | None:
        """Reverse lookup: which page occupies *offset*, if any.

        Readahead-style prefetchers need this: they pick *offsets* near
        the faulting page and fetch whatever pages own those offsets.
        """

    def release(self, key: object) -> bool:
        """The page faulted back in; its backing slot may be freed.

        Disk swap frees slots at swap-in under paging pressure, so the
        next eviction rewrites the page at the allocation frontier and
        device layout keeps tracking eviction order.  Remote-memory
        slabs reclaim the slot into the slab's free list so steady
        churn reuses capacity instead of leaking it slab by slab.
        Returns True when a backing slot was actually freed.
        """
        return False


class DiskBackend(IOBackend):
    """Swap partition on a single HDD or SSD."""

    def __init__(self, medium: StorageMedium, swap_map: SwapSlotAllocator | None = None) -> None:
        self.medium = medium
        self.name = f"disk:{medium.name}"
        self.swap_map = swap_map if swap_map is not None else SwapSlotAllocator()
        self._device_queue = DispatchQueue(core=0)

    def submit_read(self, key: object, now: int, core: int) -> Submission:
        slot = self.swap_map.assign(key)
        service = self.medium.read_page(slot)
        # The whole transfer occupies the device; nothing is pipelined.
        return self._device_queue.submit(now, service_ns=service, fabric_ns=0)

    def submit_write(self, key: object, now: int, core: int) -> Submission:
        # Swap clustering: every write-out lands at the allocation
        # frontier, so reclaim batches hit the device sequentially.
        slot = self.swap_map.reassign_at_frontier(key)
        service = self.medium.write_page(slot)
        return self._device_queue.submit(now, service_ns=service, fabric_ns=0)

    def placement_of(self, key: object) -> int | None:
        return self.swap_map.slot_of(key)

    def key_at_offset(self, offset: int) -> object | None:
        return self.swap_map.key_at(offset)

    def release(self, key: object) -> bool:
        return self.swap_map.release(key)

    @property
    def queue(self) -> DispatchQueue:
        return self._device_queue


class RemoteBackend(IOBackend):
    """Disaggregated memory behind a host agent."""

    def __init__(self, agent: HostAgent) -> None:
        self.agent = agent
        self.name = "remote"

    def submit_read(self, key: object, now: int, core: int) -> Submission:
        return self.agent.read_page(key, now, core)

    def submit_write(self, key: object, now: int, core: int) -> Submission:
        return self.agent.write_page(key, now, core)

    def release(self, key: object) -> bool:
        return self.agent.release_page(key)

    def placement_of(self, key: object) -> int | None:
        location = self.agent.allocator.location_of(key)
        if location is None:
            return None
        return location.global_offset(self.agent.allocator.slab_capacity_pages)

    def is_placed(self, key: object) -> bool:
        return self.agent.allocator.location_of(key) is not None

    def key_at_offset(self, offset: int) -> object | None:
        return self.agent.allocator.key_at(offset)
