"""Run setup and results shared by every simulation entry point.

``setup_processes`` is the one placement and warmup step behind
:func:`~repro.sim.simulate.simulate`,
:func:`~repro.sim.scheduler.simulate_concurrent` and
:func:`~repro.sim.scheduler.simulate_cluster`: it gives each process a
cgroup limit of ``memory_fraction`` of its working set and a home core,
materializes the working sets, and resets measurements.  The measured
phase then runs through the one event loop,
:class:`~repro.sim.scheduler.ConcurrentScheduler`.

``warmup_process`` performs the materialization pass: touching the
whole working set once populates the page tables, pushes the overflow
past the cgroup limit, and thereby lays pages out in the backing store
in eviction order — the layout both Read-Ahead and the slab mapper
depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.mem.vmm import AccessKind
from repro.sim.machine import Machine
from repro.sim.process import PageAccess, ProcessDriver
from repro.sim.units import NS_PER_SEC, to_seconds

__all__ = [
    "ProcessSummary",
    "RunResult",
    "setup_processes",
    "summarize_driver",
    "warmup_process",
    "sequential_touch",
]


@dataclass(slots=True)
class ProcessSummary:
    """Outcome of one process's trace."""

    pid: int
    accesses: int
    completion_ns: int
    kind_counts: dict[AccessKind, int]
    total_fault_latency_ns: int
    #: Per-fault latency samples (ns), for per-process percentiles.
    fault_latencies: list[int] = field(default_factory=list, repr=False)
    #: Time spent waiting for a busy core (concurrent engine only).
    core_wait_ns: int = 0
    #: Core migrations performed on this process.
    migrations: int = 0

    @property
    def completion_seconds(self) -> float:
        return to_seconds(self.completion_ns)

    def throughput_per_second(self, total_ops: int) -> float:
        """Operations per (virtual) second, for throughput workloads."""
        if self.completion_ns <= 0:
            return 0.0
        return total_ops * NS_PER_SEC / self.completion_ns


@dataclass(slots=True)
class RunResult:
    """Everything a benchmark needs from one run."""

    machine: Machine
    processes: dict[int, ProcessSummary]

    @property
    def recorder(self):
        return self.machine.recorder

    @property
    def metrics(self):
        return self.machine.metrics

    @property
    def cache_stats(self):
        return self.machine.cache.stats

    def completion_seconds(self, pid: int) -> float:
        return self.processes[pid].completion_seconds

    @property
    def makespan_ns(self) -> int:
        return max(summary.completion_ns for summary in self.processes.values())


def sequential_touch(wss_pages: int, think_ns: int = 200) -> Iterator[PageAccess]:
    """A one-pass sequential touch of every page (write, like loading)."""
    for vpn in range(wss_pages):
        yield PageAccess(vpn=vpn, is_write=True, think_ns=think_ns)


def warmup_process(machine: Machine, pid: int, start_ns: int = 0) -> int:
    """Materialize a process's working set; returns the finish time."""
    process = machine.vmm.process(pid)
    driver = ProcessDriver(
        pid, sequential_touch(process.address_space_pages), start_ns=start_ns
    )
    while driver.step_burst(machine.vmm):
        pass
    assert driver.finished_ns is not None
    return driver.finished_ns


def setup_processes(
    machine: Machine,
    workloads: Mapping[int, object],
    memory_fraction: float,
    warmup: bool,
    cores: int | None = None,
) -> int:
    """Place *workloads* (pid → workload) on *machine* and warm them up.

    Every process gets a cgroup limit of ``memory_fraction`` of its
    working set (the paper's 1.0 / 0.5 / 0.25 settings) and a home core
    assigned round-robin over ``cores`` (default: the machine's core
    count).  With *warmup*, working sets are materialized one process
    after another and measurements reset, so warmup activity is
    excluded from all metrics.  Returns the simulated time the measured
    phase starts at.
    """
    if not workloads:
        raise ValueError("need at least one workload")
    if not 0.0 < memory_fraction <= 1.0:
        raise ValueError(f"memory_fraction must be in (0, 1], got {memory_fraction}")
    n_cores = cores if cores is not None else machine.config.n_cores
    if not 1 <= n_cores <= machine.config.n_cores:
        raise ValueError(f"cores must be in [1, {machine.config.n_cores}], got {n_cores}")
    for slot, (pid, workload) in enumerate(workloads.items()):
        limit = max(2, int(workload.wss_pages * memory_fraction))
        machine.add_process(
            pid, wss_pages=workload.wss_pages, limit_pages=limit, core=slot % n_cores
        )
    start_ns = 0
    if warmup:
        for pid in workloads:
            start_ns = max(start_ns, warmup_process(machine, pid, start_ns=start_ns))
        machine.reset_measurements()
    return start_ns


def summarize_driver(driver: ProcessDriver) -> ProcessSummary:
    """Reduce a finished driver to its :class:`ProcessSummary`."""
    return ProcessSummary(
        pid=driver.pid,
        accesses=driver.accesses,
        completion_ns=driver.completion_ns,
        kind_counts=dict(driver.kind_counts),
        total_fault_latency_ns=driver.total_fault_latency_ns,
        fault_latencies=driver.fault_latencies,
        core_wait_ns=driver.core_wait_ns,
        migrations=driver.migrations,
    )
