"""Page identity and metadata.

The simulator tracks memory at 4 KB page granularity, like the paper.
A page is identified by ``(pid, vpn)`` — the owning process and the
virtual page number inside that process's address space.  The paper's
swap layout observation (§3.2.1: pages that are evicted together land
at contiguous or nearby *remote* addresses) is modelled by the slab
mapper in :mod:`repro.rdma.slab`, which assigns remote offsets in
eviction order; here we only carry the identity and bookkeeping bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.units import PAGE_SIZE

__all__ = ["PAGE_SIZE", "PageKey", "PageFlags", "Page", "page_key"]

#: Identity of a page: (process id, virtual page number).
PageKey = tuple[int, int]


def page_key(pid: int, vpn: int) -> PageKey:
    """Build a :data:`PageKey`, validating both components."""
    if pid < 0:
        raise ValueError(f"pid must be non-negative, got {pid}")
    if vpn < 0:
        raise ValueError(f"vpn must be non-negative, got {vpn}")
    return (pid, vpn)


class PageFlags(enum.Flag):
    """Status bits mirroring the kernel page flags the simulator needs."""

    NONE = 0
    #: Contents differ from the backing store; eviction must write back.
    DIRTY = enum.auto()
    #: Page was brought in by a prefetcher, not by a demand fault.
    PREFETCHED = enum.auto()
    #: Page is mapped into the owning process's page table.
    MAPPED = enum.auto()
    #: Page content has been consumed at least once after arrival.
    REFERENCED = enum.auto()


#: Plain-int bits of the flags the hot paths test (a Page stores its
#: flags as an int, so no ``enum.Flag`` arithmetic runs per fault).
_DIRTY = PageFlags.DIRTY.value
_PREFETCHED = PageFlags.PREFETCHED.value


@dataclass(slots=True)
class Page:
    """Bookkeeping record for one in-memory (or in-flight) page.

    ``arrival_time`` is when the page's contents became (or will
    become) available in local memory; a prefetched page that has been
    *issued* but not yet *arrived* has ``arrival_time`` in the future.
    ``flags`` holds the :class:`PageFlags` bits as a plain int.
    """

    key: PageKey
    flags: int = 0
    arrival_time: int = 0
    issued_time: int = 0
    last_access_time: int = 0

    @property
    def pid(self) -> int:
        return self.key[0]

    @property
    def vpn(self) -> int:
        return self.key[1]

    def set_flag(self, flag: PageFlags) -> None:
        self.flags |= flag._value_

    def clear_flag(self, flag: PageFlags) -> None:
        self.flags &= ~flag._value_

    def has_flag(self, flag: PageFlags) -> bool:
        return bool(self.flags & flag._value_)

    @property
    def dirty(self) -> bool:
        return bool(self.flags & _DIRTY)

    @property
    def prefetched(self) -> bool:
        return bool(self.flags & _PREFETCHED)

    def is_ready(self, now: int) -> bool:
        """True when the page's contents have landed in local memory."""
        return self.arrival_time <= now
