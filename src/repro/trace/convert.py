"""Sniff, load, and convert between trace formats (v1 text ↔ v2 binary).

The sniffers and metadata readers here read only file headers, so
callers that merely need to *identify* a trace — ``repro trace list``,
the service front door accepting a trace path as a tenant source —
never load its data.
"""

from __future__ import annotations

from pathlib import Path

from repro.provenance import code_revision
from repro.trace.capture import capture_workload
from repro.trace.format import MAGIC, TraceFormatError, open_trace_v2, read_trace_v2_header
from repro.workloads.trace_io import _parse_metadata, load_trace, save_trace

__all__ = [
    "convert_trace",
    "load_any_trace",
    "read_trace_meta",
    "sniff_trace",
    "trace_tenant_scenario",
]

_V1_HEADER = b"# repro-trace v1"


def sniff_trace(path: str | Path) -> str | None:
    """Identify a trace file by magic: ``"v1"``, ``"v2"``, or ``None``."""
    path = Path(path)
    if not path.is_file():
        return None
    with path.open("rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        return "v2"
    if head.startswith(_V1_HEADER):
        return "v1"
    return None


def _read_v1_meta(path: Path) -> dict:
    with path.open("r", encoding="utf-8") as handle:
        handle.readline()
        metadata = _parse_metadata(path, handle.readline())
        count = metadata.get("count")
        if count is None:
            count = sum(
                1
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
    return {
        "format": "repro-trace/1",
        "name": str(metadata.get("name", "recorded")),
        "wss_pages": int(metadata["wss_pages"]),
        "think_ns": int(metadata.get("think_ns", 0)),
        "count": int(count),
        "provenance": {},
    }


def read_trace_meta(path: str | Path) -> dict:
    """Uniform metadata for either format, without loading the data.

    Returns ``format`` (``repro-trace/1`` or ``repro-trace/2``),
    ``name``, ``wss_pages``, ``think_ns``, ``count``, ``provenance``,
    and for v2 the on-disk ``columns`` list.  Reads headers only: a v2
    header parse plus derived-size validation, or the two v1 header
    lines (a v1 file without a ``count`` field is scanned to count it).
    """
    path = Path(path)
    kind = sniff_trace(path)
    if kind == "v2":
        header = read_trace_v2_header(path)
        return {
            "format": header["format"],
            "name": header["name"],
            "wss_pages": header["wss_pages"],
            "think_ns": header["think_ns"],
            "count": header["count"],
            "columns": header["columns"],
            "provenance": dict(header.get("provenance", {})),
        }
    if kind == "v1":
        return _read_v1_meta(path)
    raise TraceFormatError(f"{path}: not a repro trace (v1 or v2)")


def load_any_trace(path: str | Path):
    """Load either trace format into a replayable workload.

    Both formats load into one replay class,
    :class:`~repro.workloads.trace_io.ColumnarTraceWorkload`: v1 text is
    parsed into its columns, v2 is memory-mapped.
    """
    path = Path(path)
    kind = sniff_trace(path)
    if kind == "v2":
        return open_trace_v2(path)
    if kind == "v1":
        return load_trace(path)
    raise TraceFormatError(f"{path}: not a repro trace (v1 or v2)")


def convert_trace(src: str | Path, dst: str | Path) -> dict:
    """Convert a trace between formats; direction follows the source.

    A v1 source writes a v2 file at *dst* (and vice versa); the
    destination's metadata dict is returned.  Conversion is lossless —
    every vpn, write flag, and per-access think time survives the round
    trip, which the tests pin.
    """
    src, dst = Path(src), Path(dst)
    kind = sniff_trace(src)
    if kind == "v1":
        workload = load_trace(src)
        return capture_workload(
            workload,
            dst,
            provenance={
                "converted_from": src.name,
                "source_format": "repro-trace/1",
                "code_rev": code_revision(),
            },
        )
    if kind == "v2":
        workload = open_trace_v2(src)
        count = save_trace(
            dst,
            workload.accesses(),
            wss_pages=workload.wss_pages,
            think_ns=workload.think_ns,
            name=workload.name.replace(" ", "_"),
        )
        return {
            "format": "repro-trace/1",
            "name": workload.name,
            "wss_pages": workload.wss_pages,
            "think_ns": workload.think_ns,
            "count": count,
        }
    raise TraceFormatError(f"{src}: not a repro trace (v1 or v2)")


def trace_tenant_scenario(path: str | Path, *, tenant_name: str | None = None) -> dict:
    """Wrap a trace file as a single-tenant scenario dict.

    This is how ``repro service submit <trace-file>`` turns a bare
    trace path into a job: the dict round-trips through
    :meth:`repro.scenarios.spec.Scenario.from_dict` and replays the
    recording as one ``workload="trace"`` tenant.  Only the header is
    read here — the trace itself is opened later, by the worker that
    runs the job.
    """
    path = Path(path)
    meta = read_trace_meta(path)
    name = tenant_name if tenant_name is not None else meta["name"]
    return {
        "name": f"trace/{name}",
        "description": f"replay of recorded trace {path.name} ({meta['count']} accesses)",
        "tenants": [
            {
                "name": name,
                "workload": "trace",
                # Absolute so service workers (their own cwd) resolve it.
                "params": {"path": str(path.resolve())},
                "wss_pages": meta["wss_pages"],
            }
        ],
        "total_accesses": max(1, int(meta["count"])),
    }
