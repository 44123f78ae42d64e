"""Columnar access streams: the data layout of the vectorized engine.

A trace is represented as a sequence of :class:`AccessBlock` values —
struct-of-arrays blocks holding ``vpn`` (int64), ``is_write`` (bool)
and ``think_ns`` (int64) columns — instead of one
:class:`~repro.sim.process.PageAccess` object per touch.  Every trace
is produced as blocks: :meth:`~repro.workloads.base.Workload.columnar_blocks`
cuts a workload's raw chunks into fixed-size blocks with
:func:`reblock`, and the per-access
:meth:`~repro.workloads.base.Workload.accesses` stream is a view over
those blocks.  :class:`ColumnarCursor` is the consuming side: a read
head over the block stream that the vectorized burst kernel slices
whole resident runs from and that can still pop one scalar access at
a time for the fault path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.sim.process import PageAccess

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "AccessBlock",
    "ColumnarCursor",
    "Columns",
    "reblock",
]

#: Default accesses per block.  Big enough that per-block Python
#: overhead amortizes to noise, small enough that a block of three
#: int64/bool columns stays comfortably inside L2.
DEFAULT_BLOCK_SIZE = 8192

#: Accesses :meth:`AccessBlock.accesses` decodes into Python objects at
#: a time.  The object engine keeps one block per tenant in flight;
#: decoding whole 8192-access blocks raised the four paper-application
#: tenants' peak RSS by ~3 MiB.
DECODE_SLICE = 1024


@dataclass(frozen=True, slots=True)
class AccessBlock:
    """A struct-of-arrays slab of consecutive page accesses.

    Columns are parallel numpy arrays of one common length: ``vpn``
    (int64 virtual page numbers), ``is_write`` (bool), and ``think_ns``
    (int64 compute time preceding each touch).  Blocks are immutable
    value objects; the kernel only ever reads slices of them.
    """

    vpn: np.ndarray
    is_write: np.ndarray
    think_ns: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.vpn) == len(self.is_write) == len(self.think_ns)):
            raise ValueError(
                "AccessBlock columns must share one length, got "
                f"{len(self.vpn)}/{len(self.is_write)}/{len(self.think_ns)}"
            )

    def __len__(self) -> int:
        return len(self.vpn)

    def accesses(self) -> Iterator[PageAccess]:
        """Unpack into per-access objects (the object engine's input).

        Decodes :data:`DECODE_SLICE` accesses at a time, so a consumer
        holds at most that many decoded values per block.
        """
        vpn, is_write, think_ns = self.vpn, self.is_write, self.think_ns
        return chain.from_iterable(
            map(
                PageAccess,
                vpn[start : start + DECODE_SLICE].tolist(),
                is_write[start : start + DECODE_SLICE].tolist(),
                think_ns[start : start + DECODE_SLICE].tolist(),
            )
            for start in range(0, len(vpn), DECODE_SLICE)
        )


#: A chunk of a trace as parallel column arrays of one common length.
Columns = tuple[np.ndarray, ...]


def _cut(chunk: Columns, start: int, stop: int) -> Columns:
    return tuple([column[start:stop] for column in chunk])


def _concat(parts: list[Columns]) -> Columns:
    if len(parts) == 1:
        return parts[0]
    return tuple([np.concatenate(columns) for columns in zip(*parts)])


def reblock(chunks: Iterable[Columns], block_size: int, count: int) -> Iterator[Columns]:
    """Cut a stream of column chunks into blocks of *block_size*.

    Each chunk is a tuple of equal-length column arrays; chunks may have
    any lengths and the stream may be infinite.  The result is its first
    *count* accesses as column tuples of exactly *block_size* (except
    the last).  A chunk that already spans whole blocks is sliced into
    views, not copied.  Raises :class:`ValueError` now for a
    non-positive *block_size*, and :class:`RuntimeError` on consumption
    if the chunks run out before *count*.
    """
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    return _reblock(iter(chunks), block_size, count)


def _reblock(chunks: Iterator[Columns], block_size: int, count: int) -> Iterator[Columns]:
    pending: list[Columns] = []
    pending_len = 0
    remaining = count
    for chunk in chunks:
        size = len(chunk[0])
        if size > remaining:
            chunk = _cut(chunk, 0, remaining)
            size = remaining
        remaining -= size
        start = 0
        if pending_len:
            start = block_size - pending_len
            if size < start:
                pending.append(chunk)
                pending_len += size
                if remaining == 0:
                    break
                continue
            pending.append(_cut(chunk, 0, start))
            yield _concat(pending)
            pending, pending_len = [], 0
        while size - start >= block_size:
            yield _cut(chunk, start, start + block_size)
            start += block_size
        if start < size:
            pending.append(_cut(chunk, start, size))
            pending_len = size - start
        if remaining == 0:
            break
    if pending_len:
        yield _concat(pending)
    if remaining:
        raise RuntimeError(
            f"access stream exhausted after {count - remaining} accesses, "
            f"expected {count}"
        )


class ColumnarCursor:
    """A consuming read head over a stream of :class:`AccessBlock`.

    One cursor backs one :class:`~repro.sim.process.ProcessDriver` in
    the vectorized engine.  The kernel reads the *tail* of the current
    block (``tail()``) to classify a run in one gather, then commits
    consumption with :meth:`advance`; :meth:`pop` serves the scalar
    fault path one access at a time.  Exhaustion (``ensure() ==
    False``) is the columnar equivalent of the object trace iterator
    returning ``None``.
    """

    __slots__ = ("_blocks", "_vpn", "_write", "_think", "_offset", "_exhausted")

    def __init__(self, blocks: Iterable[AccessBlock]) -> None:
        self._blocks = iter(blocks)
        self._vpn: np.ndarray | None = None
        self._write: np.ndarray | None = None
        self._think: np.ndarray | None = None
        self._offset = 0
        self._exhausted = False

    def ensure(self) -> bool:
        """Make at least one unconsumed access available.

        Returns False exactly once the underlying block stream is
        fully consumed (empty blocks are skipped transparently).
        """
        if self._exhausted:
            return False
        vpn = self._vpn
        while vpn is None or self._offset >= len(vpn):
            block = next(self._blocks, None)
            if block is None:
                self._exhausted = True
                self._vpn = self._write = self._think = None
                return False
            if len(block) == 0:
                continue
            self._vpn = vpn = block.vpn
            self._write = block.is_write
            self._think = block.think_ns
            self._offset = 0
        return True

    def tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the unconsumed remainder of the current block.

        Call :meth:`ensure` first; the views are (vpn, is_write,
        think_ns) and stay valid until the next :meth:`ensure` that
        crosses a block boundary.
        """
        offset = self._offset
        return (
            self._vpn[offset:],
            self._write[offset:],
            self._think[offset:],
        )

    def advance(self, count: int) -> None:
        """Commit consumption of the first *count* accesses of the tail."""
        self._offset += count

    def pop(self) -> PageAccess | None:
        """Consume and return one access as an object (None when done)."""
        if not self.ensure():
            return None
        offset = self._offset
        self._offset = offset + 1
        return PageAccess(
            vpn=int(self._vpn[offset]),
            is_write=bool(self._write[offset]),
            think_ns=int(self._think[offset]),
        )
