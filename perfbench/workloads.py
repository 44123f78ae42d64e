"""The benchmark's four workloads and the checks on their simulated results.

Each workload is a fixed shape (sizes, engine, entry point) whose inputs
are generated from the benchmark seed.  :func:`prepare` builds one run
of it -- machine, workloads, and for ``kvcache-replay`` the captured and
memory-mapped trace -- and returns a :class:`Prepared` whose ``run``
executes the measured simulation (warmup included, as every repro entry
point does it).  The rest of this module reduces a finished run to the
simulated numbers the benchmark reports and to a digest that must not
change between runs of one seed, between the traced and untraced run,
or between the object and vectorized engines.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.bench.prefetch import application_workloads
from repro.bench.runner import BenchScale
from repro.datapath.pipeline import FAULT_KINDS, AccessKind
from repro.metrics.latency import percentile
from repro.sim.machine import Machine, leap_config
from repro.sim.run import RunResult
from repro.sim.simulate import simulate
from repro.trace.capture import capture_workload
from repro.trace.format import open_trace_v2
from repro.workloads.kvcache import KVCacheWorkload
from repro.workloads.patterns import ZipfianWorkload
from repro.workloads.phased import PhasedWorkload

__all__ = [
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "SHAPES",
    "Prepared",
    "Shape",
    "check_run",
    "prepare",
    "sim_digest",
    "sim_summary",
]

#: Seed used when none is given on the command line.
DEFAULT_SEED = 1
#: Seed kept out of tuning: the benchmark's own tests run it, and a
#: claim made on other seeds is re-checked on it.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Shape:
    """One workload: its sizes, engine and entry point."""

    name: str
    why: str
    entry: str  # "simulate" (one tenant, min-clock loop) or "run_concurrent"
    engine: str
    memory_fraction: float
    cores: int | None
    wss_pages: int
    accesses: int  # per tenant


SHAPES: dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="fault-dense",
            why=(
                "one tenant, sequential->stride->random at 25% memory: the fault "
                "path does nearly all the work, the kernel almost none"
            ),
            entry="simulate",
            engine="vectorized",
            memory_fraction=0.25,
            cores=None,
            wss_pages=8192,
            accesses=20_000,
        ),
        Shape(
            name="resident-hot",
            why=(
                "four hot-set tenants at 95% memory on the vectorized engine: the "
                "kernel's resident window and the scheduler dominate, faults are rare"
            ),
            entry="run_concurrent",
            engine="vectorized",
            memory_fraction=0.95,
            cores=4,
            wss_pages=4096,
            accesses=240_000,
        ),
        Shape(
            name="paper-apps",
            why=(
                "the paper's four applications (Figure 13) at 25% memory on the "
                "object engine, which never enters the kernel"
            ),
            entry="run_concurrent",
            engine="object",
            # Not Figure 13's 50%: there the pooled hit ratio straddles 0.5
            # across seeds, so the median fault latency flips between the
            # hit and the miss latency (README.md, "Workloads").
            memory_fraction=0.25,
            cores=4,
            wss_pages=4096,
            accesses=32_000,
        ),
        Shape(
            name="kvcache-replay",
            why=(
                "a KV-cache paging trace captured to repro-trace v2 and replayed "
                "memory-mapped: long resident runs mixed with faulting appends"
            ),
            entry="simulate",
            engine="vectorized",
            memory_fraction=0.9,
            cores=None,
            wss_pages=16_384,
            accesses=400_000,
        ),
    )
}


@dataclass
class Prepared:
    """One built run: call :attr:`run` once to execute it."""

    machine: Machine
    run: Callable[[], RunResult]
    #: Accesses the run must execute, summed over its tenants.
    requested: int
    #: Host seconds spent capturing / opening the trace (kvcache-replay).
    capture_s: float = 0.0
    open_s: float = 0.0


def _tenants(shape: Shape, seed: int, accesses: int) -> dict:
    """Generated inputs of *shape*: pid -> workload."""
    wss = shape.wss_pages
    if shape.name == "fault-dense":
        phases = [
            {"kind": "sequential"},
            {"kind": "stride", "stride": 7},
            {"kind": "random"},
        ]
        return {
            1: PhasedWorkload(wss, accesses, phases=phases, seed=seed, write_fraction=0.3)
        }
    if shape.name == "resident-hot":
        # The fig13 scale-tier mix (repro.perf.profile.fig13_scale_profile).
        loop = {"kind": "permloop", "loop_pages": int(wss * 0.8)}
        return {
            1: ZipfianWorkload(wss, accesses, skew=1.3, seed=seed),
            2: ZipfianWorkload(wss, accesses, skew=1.15, seed=seed + 1),
            3: PhasedWorkload(wss, accesses, phases=[loop], seed=seed + 2),
            4: PhasedWorkload(
                wss, accesses, phases=[{"kind": "zipfian", "skew": 1.2}, loop], seed=seed + 3
            ),
        }
    if shape.name == "paper-apps":
        scale = BenchScale(wss_pages=wss, accesses=accesses, seed=seed)
        return dict(enumerate(application_workloads(scale).values(), start=1))
    if shape.name == "kvcache-replay":
        # TRACE_PROFILE_TIER's mix (repro.perf.profile), at this size.
        return {
            1: KVCacheWorkload(
                wss,
                accesses,
                seed=seed,
                hot_fraction=0.125,
                append_pages=64,
                lookups_per_append=192,
            )
        }
    raise ValueError(f"unknown workload {shape.name!r}")


def prepare(
    name: str,
    seed: int,
    *,
    workdir: Path,
    scale: float = 1.0,
    engine: str | None = None,
) -> Prepared:
    """Build one run of workload *name* from *seed*.

    *scale* shrinks every tenant's access count (the untimed warm-up run
    and the tests use it); *engine* overrides the shape's engine (the
    engine-oracle test runs every shape on both).  ``kvcache-replay``
    writes its trace file under *workdir*.
    """
    shape = SHAPES[name]
    accesses = max(1, int(shape.accesses * scale))
    # The seed also drives the simulated host's draws (fabric and data-path
    # latency samples, slab placement): on kvcache-replay every seed's
    # lookups hit resident pages, so a fixed host seed would simulate the
    # same numbers for every seed.
    machine = Machine(leap_config(seed=seed, engine=engine or shape.engine))
    tenants = _tenants(shape, seed, accesses)
    capture_s = open_s = 0.0
    if name == "kvcache-replay":
        path = workdir / f"{name}.rtrace"
        started = time.perf_counter()
        capture_workload(tenants[1], path)
        captured = time.perf_counter()
        tenants = {1: open_trace_v2(path)}
        capture_s, open_s = captured - started, time.perf_counter() - captured
    if shape.entry == "simulate":

        def run() -> RunResult:
            return simulate(machine, tenants, memory_fraction=shape.memory_fraction)

    else:

        def run() -> RunResult:
            return machine.run_concurrent(
                tenants, cores=shape.cores, memory_fraction=shape.memory_fraction
            )

    requested = sum(w.total_accesses for w in tenants.values())
    return Prepared(machine, run, requested, capture_s=capture_s, open_s=open_s)


def _kind_totals(result: RunResult) -> dict[AccessKind, int]:
    totals = {kind: 0 for kind in AccessKind}
    for summary in result.processes.values():
        for kind, count in summary.kind_counts.items():
            totals[kind] += count
    return totals


def check_run(result: RunResult, requested: int) -> list[str]:
    """Correctness checks on one finished run; returns the failures."""
    failures = []
    executed = sum(p.accesses for p in result.processes.values())
    if executed != requested:
        failures.append(f"executed {executed} accesses, requested {requested}")
    for pid, summary in sorted(result.processes.items()):
        by_kind = sum(summary.kind_counts.values())
        if by_kind != summary.accesses:
            failures.append(f"pid {pid}: kind counts sum to {by_kind}, not {summary.accesses}")
        faults = sum(summary.kind_counts[kind] for kind in FAULT_KINDS)
        if len(summary.fault_latencies) != faults:
            failures.append(
                f"pid {pid}: {len(summary.fault_latencies)} fault latencies for {faults} faults"
            )
    return failures


def sim_summary(result: RunResult) -> dict:
    """The simulated end-to-end numbers of one run, plus their bases."""
    latencies = [lat for p in result.processes.values() for lat in p.fault_latencies]
    kinds = _kind_totals(result)
    executed = sum(kinds.values())
    faults = sum(kinds[kind] for kind in FAULT_KINDS)
    return {
        "sim_fault_p50_us": percentile(latencies, 50) / 1e3 if latencies else 0.0,
        "sim_fault_p99_us": percentile(latencies, 99) / 1e3 if latencies else 0.0,
        "sim_completion_s": result.makespan_ns / 1e9,
        "sim_cache_miss_ratio": kinds[AccessKind.MAJOR_FAULT] / faults if faults else 0.0,
        "fault_samples": len(latencies),
        "accesses": executed,
        "nonresident": executed - kinds[AccessKind.RESIDENT],
        "core_wait_ns": sum(p.core_wait_ns for p in result.processes.values()),
    }


def sim_digest(result: RunResult) -> str:
    """sha256 over every simulated number a run produces.

    Covers each process's outcome (access and kind counts, completion,
    every fault latency, core wait, migrations), the machine's prefetch
    counters, page-cache statistics, completion-queue statistics and,
    for concurrent runs, the per-core occupancy.  Host time is excluded,
    so two runs of one seed must agree on it exactly.
    """
    machine = result.machine
    processes = {}
    for pid, p in sorted(result.processes.items()):
        processes[str(pid)] = {
            "accesses": p.accesses,
            "completion_ns": p.completion_ns,
            "kinds": {kind.value: count for kind, count in p.kind_counts.items()},
            "fault_latency_ns": p.total_fault_latency_ns,
            "fault_latencies": hashlib.sha256(array("q", p.fault_latencies).tobytes()).hexdigest(),
            "core_wait_ns": p.core_wait_ns,
            "migrations": p.migrations,
        }
    stats = machine.cache.stats
    doc = {
        "processes": processes,
        "metrics": machine.metrics.as_dict(),
        "cache": {
            "demand_adds": stats.demand_adds,
            "prefetch_adds": stats.prefetch_adds,
            "ready_hits": stats.ready_hits,
            "inflight_hits": stats.inflight_hits,
            "misses": stats.misses,
            "evicted_unused": stats.evicted_unused,
            "evicted_consumed": stats.evicted_consumed,
            "stale_wait_ns": hashlib.sha256(array("q", stats.stale_wait_ns).tobytes()).hexdigest(),
        },
        "completion_queue": machine.vmm.completion_queue.stats(),
        "cores": {
            str(core_id): [core.busy_ns, core.accesses]
            for core_id, core in sorted(getattr(result, "cores", {}).items())
        },
        "migrations": getattr(result, "migrations", 0),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
