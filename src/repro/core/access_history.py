"""The per-process ``AccessHistory`` queue (§4.1).

A fixed-size FIFO circular buffer of Δ values — differences between
consecutive remote page accesses — exactly as the paper stores it: for
faults at addresses ``0x2, 0x5, 0x4, 0x6, 0x1, 0x9`` the buffer holds
``0, +3, -1, +2, -5, +8``.  Storing deltas instead of addresses keeps
the memory footprint constant and makes trend detection a pure
majority question.

The head always points at the most recently written slot, and windows
are read *backwards* from the head (newest first), matching the
``Hhead .. Hhead-w-1`` notation of Algorithm 1 and the Figure 5
walkthrough (time rolls over at ``t8``: the buffer wraps and old
entries are overwritten in place).
"""

from __future__ import annotations

__all__ = ["AccessHistory", "DEFAULT_HISTORY_SIZE"]

#: The paper's evaluation default (§5 methodology): Hsize = 32.
DEFAULT_HISTORY_SIZE = 32


class AccessHistory:
    """Fixed-capacity circular buffer of access deltas."""

    def __init__(self, capacity: int = DEFAULT_HISTORY_SIZE) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be at least 2, got {capacity}")
        self.capacity = capacity
        self._slots: list[int] = [0] * capacity
        self._head = -1  # index of the most recent entry; -1 = empty
        self._count = 0
        self._last_address: int | None = None

    def __len__(self) -> int:
        """Number of recorded deltas (≤ capacity)."""
        return self._count

    @property
    def last_address(self) -> int | None:
        """The most recently recorded page address (for delta math)."""
        return self._last_address

    def record_access(self, address: int) -> int:
        """Record a page access, storing its delta from the previous one.

        Returns the delta that was stored.  The very first access has no
        predecessor, so its delta is recorded as 0 — matching the worked
        example in §4.1.
        """
        if self._last_address is None:
            delta = 0
        else:
            delta = address - self._last_address
        self._last_address = address
        self.push_delta(delta)
        return delta

    def push_delta(self, delta: int) -> None:
        """Append a raw delta (used directly by tests and replays)."""
        self._head = (self._head + 1) % self.capacity
        self._slots[self._head] = delta
        self._count = min(self._count + 1, self.capacity)

    def window(self, size: int) -> list[int]:
        """The *size* most recent deltas, newest first.

        Asking for more entries than recorded returns what exists; the
        detection loop in Algorithm 1 relies on this when the process
        has just started.
        """
        if size <= 0:
            return []
        size = min(size, self._count)
        if size == 0:
            return []
        head = self._head
        start = head - size + 1
        if start >= 0:
            result = self._slots[start : head + 1]
            result.reverse()
            return result
        # Wrapped: head..0, then capacity-1 .. capacity+start.
        result = self._slots[head::-1]
        result += self._slots[: self.capacity + start - 1 : -1]
        return result

    def snapshot(self) -> list[int]:
        """All recorded deltas, newest first (diagnostics / examples)."""
        return self.window(self._count)

    def adopt(self, other: "AccessHistory") -> None:
        """Merge *other*'s recorded stream into this buffer.

        Replays the source's deltas oldest-first (so relative recency is
        preserved, bounded by this buffer's capacity) and carries the
        source's last address so the next recorded access produces a
        correct delta.  This is the merge half of the split-merge path a
        per-core shard takes when its process migrates cores.
        """
        for delta in reversed(other.snapshot()):
            self.push_delta(delta)
        if other.last_address is not None:
            self._last_address = other.last_address

    def clear(self) -> None:
        self._slots = [0] * self.capacity
        self._head = -1
        self._count = 0
        self._last_address = None
