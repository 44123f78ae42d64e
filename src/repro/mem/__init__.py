"""Kernel memory-management substrate: VMM, page cache, reclaim."""

from repro.mem.cgroup import CgroupOverLimitError, MemoryCgroup
from repro.mem.lru import ActiveInactiveLRU, LRUList
from repro.mem.page import PAGE_SIZE, Page, PageFlags, PageKey, page_key
from repro.mem.page_cache import (
    CacheEntry,
    CacheStats,
    EagerFifoPolicy,
    EvictionPolicy,
    LazyLRUPolicy,
    PageCache,
)
from repro.mem.page_table import PageTable, PageTableEntry
from repro.mem.reclaim import AllocationWaitModel, KswapdReclaimer
from repro.mem.vmm import AccessKind, AccessOutcome, ProcessMemory, VirtualMemoryManager

__all__ = [
    "AccessKind",
    "AccessOutcome",
    "ActiveInactiveLRU",
    "AllocationWaitModel",
    "CacheEntry",
    "CacheStats",
    "CgroupOverLimitError",
    "EagerFifoPolicy",
    "EvictionPolicy",
    "KswapdReclaimer",
    "LRUList",
    "LazyLRUPolicy",
    "MemoryCgroup",
    "PAGE_SIZE",
    "Page",
    "PageCache",
    "PageFlags",
    "PageKey",
    "PageTable",
    "PageTableEntry",
    "ProcessMemory",
    "VirtualMemoryManager",
    "page_key",
]
