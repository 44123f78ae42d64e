"""Trace persistence: the replay workload and the v1 text format.

Real reproduction work often wants to freeze a trace — to diff two
prefetchers on *exactly* the same fault stream, to ship a regression
trace with a bug report, to replay recorded traffic inside a scenario
(:mod:`repro.scenarios`), or to import an externally captured access
log.  Every recorded trace replays through one class,
:class:`ColumnarTraceWorkload`, which holds the trace as three columns
(memory-mapped for a binary v2 file, see :mod:`repro.trace.format`).

The v1 text format is the import/export converter::

    # repro-trace v1
    # wss_pages=4096 think_ns=1000 count=30000 name=recorded
    vpn[,w][,t<ns>]

One access per line; a trailing ``,w`` marks a write and ``,t<ns>``
records a think time that differs from the header default, so a
save/load round trip reproduces every access *exactly* — vpn, write
flag, and per-access think time included.  The format is deliberately
trivial so external tools (awk, pandas) can produce it.
:func:`load_trace` parses it straight into columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.kernel.columnar import Columns
from repro.sim.process import PageAccess
from repro.workloads.base import Workload

__all__ = ["ColumnarTraceWorkload", "load_trace", "save_trace"]

_HEADER = "# repro-trace v1"


def save_trace(
    path: str | Path,
    accesses: Iterable[PageAccess],
    wss_pages: int,
    think_ns: int = 0,
    name: str = "recorded",
) -> int:
    """Write a trace file; returns the number of accesses written.

    *think_ns* is the default think time recorded in the header; an
    access whose ``think_ns`` differs is written with an explicit
    ``,t<ns>`` suffix so nothing is lost in the round trip.  The header
    records the access ``count``, which :func:`load_trace` checks — a
    truncated or padded file fails loudly instead of replaying short.
    """
    path = Path(path)
    if any(c.isspace() for c in name) or "=" in name or not name:
        raise ValueError(f"trace name must be a single token, got {name!r}")
    # Buffered (v1 is the small-trace interchange format; production
    # scale lives in v2) so the header can carry the count up front.
    items = list(accesses)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{_HEADER}\n")
        handle.write(
            f"# wss_pages={wss_pages} think_ns={think_ns} "
            f"count={len(items)} name={name}\n"
        )
        for access in items:
            parts = [str(access.vpn)]
            if access.is_write:
                parts.append("w")
            if access.think_ns != think_ns:
                parts.append(f"t{access.think_ns}")
            handle.write(",".join(parts) + "\n")
    return len(items)


#: Header keys that carry integers; everything else stays a string
#: (int() would mangle e.g. a digit-and-underscore trace *name*).
_INT_METADATA_KEYS = ("wss_pages", "think_ns", "count")


def _parse_metadata(path: Path, line: str) -> dict[str, object]:
    """The ``key=value`` fields of a v1 metadata line (``wss_pages`` required)."""
    fields: dict[str, object] = {}
    for token in line.lstrip("# ").split():
        key, _, value = token.partition("=")
        if key in _INT_METADATA_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"{path}: bad header field {token!r}") from None
        else:
            fields[key] = value
    if "wss_pages" not in fields:
        raise ValueError(f"{path}: trace header has no wss_pages field")
    return fields


def load_trace(path: str | Path) -> "ColumnarTraceWorkload":
    """Parse a v1 trace file into a replayable columnar workload."""
    path = Path(path)
    vpns: list[int] = []
    writes: list[bool] = []
    thinks: list[int] = []
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != _HEADER:
            raise ValueError(f"{path}: not a repro trace (header {header!r})")
        metadata = _parse_metadata(path, handle.readline())
        think_ns = int(metadata.get("think_ns", 0))
        for line_number, line in enumerate(handle, start=3):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vpn_text, _, rest = line.partition(",")
            try:
                vpns.append(int(vpn_text))
            except ValueError:
                raise ValueError(f"{path}:{line_number}: bad vpn {vpn_text!r}") from None
            is_write = False
            think = think_ns
            for flag in rest.split(",") if rest else ():
                if flag == "w":
                    is_write = True
                elif flag.startswith("t"):
                    try:
                        think = int(flag[1:])
                    except ValueError:
                        raise ValueError(
                            f"{path}:{line_number}: bad think flag {flag!r}"
                        ) from None
                else:
                    raise ValueError(f"{path}:{line_number}: unknown flag {flag!r}")
            writes.append(is_write)
            thinks.append(think)
    if not vpns:
        raise ValueError(f"{path}: trace holds no accesses")
    declared = metadata.get("count")
    if declared is not None and len(vpns) != declared:
        kind = "truncated" if len(vpns) < declared else "padded"
        raise ValueError(
            f"{path}: {kind} trace — header declares count={declared} "
            f"but the file holds {len(vpns)} accesses"
        )
    try:
        return ColumnarTraceWorkload(
            np.array(vpns, dtype=np.int64),
            np.array(writes, dtype=np.bool_),
            np.array(thinks, dtype=np.int64),
            wss_pages=int(metadata["wss_pages"]),
            think_ns=think_ns,
            name=str(metadata.get("name", "recorded")),
        )
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


class ColumnarTraceWorkload(Workload):
    """A recorded trace replayed straight from columnar arrays.

    The replay class of both trace formats: :func:`load_trace` parses
    v1 text into its columns and :func:`~repro.trace.format.open_trace_v2`
    memory-maps them.  Its blocks are views sliced off the columns, with
    no copies.  *validate* checks every vpn lies in the working set and
    no think time is negative (O(n) scans, skippable for hot reopen
    paths).
    """

    def __init__(
        self,
        vpn,
        is_write,
        think_ns_col,
        *,
        wss_pages: int,
        think_ns: int = 0,
        name: str = "recorded",
        validate: bool = True,
    ) -> None:
        if not (len(vpn) == len(is_write) == len(think_ns_col)):
            raise ValueError(
                "trace columns must share one length, got "
                f"{len(vpn)}/{len(is_write)}/{len(think_ns_col)}"
            )
        super().__init__(
            wss_pages=wss_pages, total_accesses=len(vpn), think_ns=think_ns
        )
        self.name = name
        if validate:
            lo, hi = int(vpn.min()), int(vpn.max())
            if lo < 0 or hi >= wss_pages:
                raise ValueError(
                    f"trace access vpn span [{lo}, {hi}] outside wss {wss_pages}"
                )
            least_think = int(think_ns_col.min())
            if least_think < 0:
                raise ValueError(f"trace holds a negative think time ({least_think} ns)")
        self.vpn = vpn
        self.is_write = is_write
        self.think_ns_col = think_ns_col
        #: Capture provenance from a v2 file header (may be empty).
        self.provenance: dict = {}

    def _chunks(self, block_size: int) -> Iterator[Columns]:
        yield self.vpn, self.is_write, self.think_ns_col

    def columns(self):
        """The raw ``(vpn, is_write, think_ns)`` arrays (analysis input)."""
        return self.vpn, self.is_write, self.think_ns_col
