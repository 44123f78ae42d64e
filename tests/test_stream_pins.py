"""Pinned access streams: one sha256 per workload.

Every simulated number depends on the page-access stream a workload
emits, so each stream is pinned here as the sha256 of its packed
``(vpn <i8, is_write |u1, think_ns <i8)`` records.  The digest must be
the same whatever the block size (7 and 8192 below), and the
per-access :meth:`~repro.workloads.base.Workload.accesses` view must
hash to it too.  A change that alters any trace — a reordered RNG
draw, a different clamp, a lost write flag — fails here by name.

The cases cover every ``WORKLOAD_KINDS`` class, all six phase kinds,
``write_fraction > 0`` variants, a KV-cache parameter grid, open-loop
re-timing, and v1/v2 trace replay.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.scenarios.spec import WORKLOAD_KINDS, ArrivalSpec, OpenLoopWorkload
from repro.trace.capture import capture_workload
from repro.trace.format import open_trace_v2
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.numpy_matmul import NumpyMatmulWorkload
from repro.workloads.patterns import (
    RandomWorkload,
    SequentialWorkload,
    StrideWorkload,
    ZipfianWorkload,
)
from repro.workloads.phased import PHASE_KINDS, PhasedWorkload
from repro.workloads.powergraph import PowerGraphWorkload
from repro.workloads.trace_io import load_trace, save_trace
from repro.workloads.voltdb import VoltDBWorkload

RECORD = np.dtype([("vpn", "<i8"), ("is_write", "|u1"), ("think_ns", "<i8")])


def _records(vpn, is_write, think_ns) -> bytes:
    records = np.empty(len(vpn), dtype=RECORD)
    records["vpn"] = vpn
    records["is_write"] = is_write
    records["think_ns"] = think_ns
    return records.tobytes()


def block_digest(workload, block_size: int) -> tuple[str, int]:
    """sha256 and length of the concatenated block stream."""
    digest = hashlib.sha256()
    count = 0
    for block in workload.columnar_blocks(block_size):
        digest.update(_records(block.vpn, block.is_write, block.think_ns))
        count += len(block)
    return digest.hexdigest(), count


def access_digest(workload) -> tuple[str, int]:
    """sha256 and length of the per-access object stream."""
    accesses = list(workload.accesses())
    digest = hashlib.sha256(
        _records(
            [a.vpn for a in accesses],
            [a.is_write for a in accesses],
            [a.think_ns for a in accesses],
        )
    )
    return digest.hexdigest(), len(accesses)


ALL_PHASES = [
    {"kind": "sequential"},
    {"kind": "noisy-sequential", "noise": 0.25},
    {"kind": "stride", "stride": 7},
    {"kind": "random"},
    {"kind": "zipfian", "skew": 1.1},
    {"kind": "permloop", "loop_pages": 31},
]


def _recorded_source():
    """A source whose think times vary per access (open-loop gaps)."""
    return OpenLoopWorkload(
        ZipfianWorkload(96, 1500, seed=21, skew=1.1, write_fraction=0.25),
        ArrivalSpec(),
        seed=4,
    )


def _v1_replay(tmp_path):
    source = _recorded_source()
    path = tmp_path / "pin.trace"
    save_trace(path, source.accesses(), wss_pages=96, think_ns=1_000, name="pin")
    return load_trace(path)


def _v2_replay(tmp_path):
    path = tmp_path / "pin.rtrace"
    capture_workload(_recorded_source(), path, name="pin")
    return open_trace_v2(path)


def _phase(kind: str, **params):
    return lambda _: PhasedWorkload(
        97, 700, phases=[{"kind": kind, **params}], seed=11
    )


#: id -> factory taking ``tmp_path``.
CASES = {
    "sequential": lambda _: SequentialWorkload(64, 2000, seed=1),
    "sequential-wf": lambda _: SequentialWorkload(
        64, 2000, seed=1, write_fraction=0.3
    ),
    "stride": lambda _: StrideWorkload(64, 2000, seed=2, stride=10),
    "stride-wider-than-wss": lambda _: StrideWorkload(6, 500, seed=2, stride=9),
    "stride-wf": lambda _: StrideWorkload(
        50, 1200, seed=2, stride=3, write_fraction=0.5
    ),
    "random": lambda _: RandomWorkload(64, 2000, seed=3),
    "random-wf": lambda _: RandomWorkload(64, 2000, seed=3, write_fraction=0.2),
    "zipfian": lambda _: ZipfianWorkload(64, 2000, seed=4, skew=1.2),
    "zipfian-wf": lambda _: ZipfianWorkload(
        64, 2000, seed=5, write_fraction=0.4
    ),
    "powergraph": lambda _: PowerGraphWorkload(512, 3000, seed=5),
    "numpy": lambda _: NumpyMatmulWorkload(512, 3000, seed=5),
    "voltdb": lambda _: VoltDBWorkload(512, 3000, seed=5),
    "memcached": lambda _: MemcachedWorkload(512, 3000, seed=5),
    "phase-sequential": _phase("sequential"),
    "phase-noisy-sequential": _phase("noisy-sequential", noise=0.4),
    "phase-stride": _phase("stride", stride=5),
    "phase-random": _phase("random"),
    "phase-zipfian": _phase("zipfian", skew=0.8),
    "phase-permloop": _phase("permloop", loop_pages=40),
    "phased-all-wf": lambda _: PhasedWorkload(
        97, 900, phases=ALL_PHASES, seed=9, write_fraction=0.3
    ),
    "phased-weighted": lambda _: PhasedWorkload(
        80,
        1000,
        phases=[
            {"kind": "permloop", "fraction": 3.0},
            {"kind": "stride", "stride": 11, "fraction": 1.0},
            {"kind": "noisy-sequential", "fraction": 2.0},
        ],
        seed=13,
    ),
    "kvcache-defaults": lambda _: KVCacheWorkload(256, 3000, seed=17),
    "kvcache-small-ring": lambda _: KVCacheWorkload(
        256, 3000, seed=17, hot_fraction=0.25, append_pages=4, lookups_per_append=12
    ),
    "kvcache-deep-skew": lambda _: KVCacheWorkload(
        256, 3000, seed=17, recency_skew=3.5
    ),
    "kvcache-no-lookups": lambda _: KVCacheWorkload(
        64, 1000, seed=3, append_pages=7, lookups_per_append=0
    ),
    "kvcache-wrapping-appends": lambda _: KVCacheWorkload(
        40, 1500, seed=8, hot_fraction=0.5, append_pages=30, lookups_per_append=5
    ),
    "open-loop": lambda _: _recorded_source(),
    "open-loop-fixed-gaps": lambda _: OpenLoopWorkload(
        PowerGraphWorkload(256, 1200, seed=2), ArrivalSpec(jitter=False), seed=3
    ),
    "trace-v1": _v1_replay,
    "trace-v2": _v2_replay,
}

#: id -> sha256 of the packed record stream.
PINS = {
    "sequential": "c8883a6335143b05a141e10d73b47c80dfc72b640ffaa35587d4c71df527e6e9",
    "sequential-wf": "4250211c633930f6bed4bb1a8d95390982ed72a8c0037c55d873f2ad43d4c239",
    "stride": "8a1686ca470232abc635da74a857258421910baa31b47d5cc18c23a801d55ebf",
    "stride-wider-than-wss": "f7c38551dfa89d4f995883ae2e8969fcd7652a3bedc63073713378789be73959",
    "stride-wf": "316eb13de7b0453ab3ef62092db129fdfa4d576d4037b0379f89e3b3e24d2587",
    "random": "c870395684fa72db4927dcf8217c9dc4eca96d0adc4c0074258d2de5c39350f1",
    "random-wf": "81a81d66f2283210b297ce4da5ae37fdadf138de85eb0f8d9e0764951dd64d1c",
    "zipfian": "cb7594a15557abeaeebf6c4b76ae7850f0363c253e6be5fcc38775d8750f338b",
    "zipfian-wf": "dfd085268019f65de09d57ffb8d98f7b4cd0f0bfdb1587647aa450862f760fd1",
    "powergraph": "d0962a4500b3a643c17d88b4a9ac5eaa2a510bf2f0560d7c16dc99759d3b4fba",
    "numpy": "1f21332b82ba504d801b209412f453f80e98f1f4c19584d84aa1d83515c423d7",
    "voltdb": "0dbb4b9010c70c53f759db6b3f0bd61ec67c4a5021395e5a5bcaf73fbdcebb52",
    "memcached": "6636e42470b475da2826e7ddd4dd3fe62eed80e5c8482abe50320617a8934cc7",
    "phase-sequential": "2b182f90039fb6ff5b760e3f1734d35a48d88e757a1322ff29e2bf84f3372f69",
    "phase-noisy-sequential": "daa91bec64265c56856d14f3a152ad784aef585c3eacf758c16b6ffb9fd1f95d",
    "phase-stride": "e40e675826afbf15484ff81166afa6d236e4de75ab9de499a2ea7236e6c168bc",
    "phase-random": "46b34a1c52c82a101fb4613a896d217d4af6a0c8088f357e1b2e94a638cc944e",
    "phase-zipfian": "ae688c63274dac549e1fb720eb12daa8bb6a4bf12cebd52a94e24b60787e0875",
    "phase-permloop": "1368aa162e75cd1407dd1d345c1e95ae67baed1f5249a9c0e172dc46671c717f",
    "phased-all-wf": "afbe02bc58a19605128461be814e9eb8170bbbf75959115886af19932c20dc17",
    "phased-weighted": "d1a2824cf5d006bdcdbe2bdb0c6419c7daf5e0ec6058856dd00c67470acc42c0",
    "kvcache-defaults": "4fd611eb2e7abf0b63cc5745591afd008710e0cd84cda968989afea83024b858",
    "kvcache-small-ring": "90bfc2cad13692de925abe9e2afa0be6c5620df0a305fc904b43ba8534820f41",
    "kvcache-deep-skew": "84006fef1707810f1f1671eb7a2e59a437b54060223022b8d453a0222bbff8ed",
    "kvcache-no-lookups": "aabe90195c91f738620c41906e47a4f4ba2ae9a61faec4e9aeed90f2fdf977d8",
    "kvcache-wrapping-appends": "98c31e559f6a50e05ee0f5ab52dcda7d312607435837c7ad1e07c2abd5142e67",
    "open-loop": "dceb12ebb2fea1294e04199e922f10eaee1caf9acf47b29375e004e20f1ed1e0",
    "open-loop-fixed-gaps": "252812c80d570f748bad8c7ed247743d11e4e7460fb5c856f12f24f10e22c388",
    "trace-v1": "dceb12ebb2fea1294e04199e922f10eaee1caf9acf47b29375e004e20f1ed1e0",
    "trace-v2": "dceb12ebb2fea1294e04199e922f10eaee1caf9acf47b29375e004e20f1ed1e0",
}


def test_every_workload_kind_is_covered():
    classes = {
        type(factory(None))
        for key, factory in CASES.items()
        if not key.startswith("trace-")
    }
    assert set(WORKLOAD_KINDS.values()) <= classes
    phase_kinds = {key.removeprefix("phase-") for key in CASES}
    assert set(PHASE_KINDS) <= phase_kinds


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_is_pinned(case, tmp_path):
    workload = CASES[case](tmp_path)
    pinned = PINS[case]
    small = block_digest(workload, 7)
    large = block_digest(workload, 8192)
    assert small == large == (pinned, workload.total_accesses)
    assert access_digest(workload) == (pinned, workload.total_accesses)
