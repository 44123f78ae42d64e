"""Per-process page table.

Tracks, for each virtual page number, whether the page is resident in
local memory (and in which frame) or has been paged out to the backing
store.  Hardware details (multi-level radix walks, TLBs) are out of
scope: the paper's data path work starts at the page-fault handler, so
"present or not, dirty or not" is the full contract the simulator needs.

For the vectorized burst kernel (:mod:`repro.kernel`) the table can
additionally maintain a numpy *residency mask* — a ``uint8`` array with
one cell per virtual page, kept in lockstep by :meth:`map_page` /
:meth:`unmap_page` — so a whole burst of accesses can be classified
with one array gather instead of one dict probe per access.  The mask
is attached lazily (:meth:`ensure_resident_mask`); tables without one
behave exactly as before, and the object engine never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = ["PageTableEntry", "PageTable"]


@dataclass(slots=True)
class PageTableEntry:
    """State of one mapped virtual page."""

    vpn: int
    frame: int
    dirty: bool = False
    mapped_at: int = 0


class PageTable:
    """Mapping of virtual page numbers to resident frames for one process."""

    def __init__(self, pid: int) -> None:
        if pid < 0:
            raise ValueError(f"pid must be non-negative, got {pid}")
        self.pid = pid
        self._entries: dict[int, PageTableEntry] = {}
        #: Optional numpy uint8 residency mask (1 cell per vpn in
        #: ``[0, len(mask))``), attached by :meth:`ensure_resident_mask`
        #: and maintained by map/unmap below.  ``None`` until the
        #: vectorized engine asks for it.
        self.resident_mask = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def is_resident(self, vpn: int) -> bool:
        return vpn in self._entries

    def lookup(self, vpn: int) -> PageTableEntry | None:
        return self._entries.get(vpn)

    def map_page(self, vpn: int, frame: int, now: int, dirty: bool = False) -> PageTableEntry:
        """Install a mapping for *vpn*; the page must not be resident."""
        if vpn in self._entries:
            raise ValueError(f"vpn {vpn} is already resident (pid {self.pid})")
        entry = PageTableEntry(vpn=vpn, frame=frame, dirty=dirty, mapped_at=now)
        self._entries[vpn] = entry
        mask = self.resident_mask
        if mask is not None and 0 <= vpn < len(mask):
            mask[vpn] = 1
        return entry

    def unmap_page(self, vpn: int) -> PageTableEntry:
        """Remove the mapping for *vpn*, returning the old entry."""
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise KeyError(f"vpn {vpn} is not resident (pid {self.pid})")
        mask = self.resident_mask
        if mask is not None and 0 <= vpn < len(mask):
            mask[vpn] = 0
        return entry

    def mark_dirty(self, vpn: int) -> None:
        entry = self._entries.get(vpn)
        if entry is None:
            raise KeyError(f"vpn {vpn} is not resident (pid {self.pid})")
        entry.dirty = True

    def mark_dirty_bulk(self, vpns: Iterable[int]) -> None:
        """Set the dirty bit on every page in *vpns* (all must be resident).

        Dirty marking is idempotent and order-free, so a deduplicated
        batch is exactly equivalent to per-access :meth:`mark_dirty`
        calls — this is the write side of the vectorized burst kernel.
        """
        entries = self._entries
        for vpn in vpns:
            entry = entries.get(vpn)
            if entry is None:
                raise KeyError(f"vpn {vpn} is not resident (pid {self.pid})")
            entry.dirty = True

    def ensure_resident_mask(self, address_space_pages: int):
        """Attach (or return) the numpy residency mask for this table.

        The mask covers vpns ``[0, address_space_pages)``; cell ``v`` is
        1 iff ``is_resident(v)``.  Once attached it is kept in lockstep
        by :meth:`map_page`/:meth:`unmap_page`, so the vectorized engine
        can classify a whole burst with one fancy-indexed gather.  The
        dict of entries remains the source of truth; the mask is a
        derived index and is rebuilt from it here.
        """
        mask = self.resident_mask
        if mask is None or len(mask) != address_space_pages:
            mask = np.zeros(address_space_pages, dtype=np.uint8)
            for vpn in self._entries:
                if 0 <= vpn < address_space_pages:
                    mask[vpn] = 1
            self.resident_mask = mask
        return mask

    @property
    def resident_count(self) -> int:
        return len(self._entries)

    def resident_vpns(self) -> Iterator[int]:
        return iter(self._entries)
