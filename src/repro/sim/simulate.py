"""One-call simulation entry point.

``simulate`` wires workloads onto a machine the way the paper's
evaluation does: each process gets a cgroup limit expressed as a
fraction of its peak (working set) memory — the 100% / 50% / 25%
columns of Figure 11 — the working set is materialized by a warmup
pass and measurements are reset (:func:`repro.sim.run.setup_processes`,
shared with the concurrent and cluster entry points).

The measured run is the one scheduler loop,
:class:`~repro.sim.scheduler.ConcurrentScheduler`, with migration off
(:func:`~repro.sim.scheduler.run_processes`): each process stays on its
round-robin home core and the min-clock driver steps next.  Every access
faults through the one staged
:class:`~repro.datapath.pipeline.FaultPipeline` via the batched driver
path (:meth:`~repro.sim.process.ProcessDriver.step_burst`), so
completions are drained and background reclaim checked at batch
boundaries instead of once per access.
"""

from __future__ import annotations

from typing import Mapping

from repro.sim.machine import Machine
from repro.sim.process import make_driver
from repro.sim.run import RunResult, setup_processes
from repro.sim.scheduler import run_processes
from repro.workloads.base import Workload

__all__ = ["simulate"]


def simulate(
    machine: Machine,
    workloads: Mapping[int, Workload],
    memory_fraction: float = 0.5,
    warmup: bool = True,
    max_total_accesses: int | None = None,
) -> RunResult:
    """Run *workloads* (pid → workload) on *machine*.

    ``memory_fraction`` sets every process's cgroup limit to that
    fraction of its working set (the paper's 1.0 / 0.5 / 0.25 settings).
    Returns the measured :class:`RunResult`; warmup activity is excluded
    from all metrics.  Processes that share a core (more workloads than
    ``MachineConfig.n_cores``) contend for it.
    """
    start_ns = setup_processes(machine, workloads, memory_fraction, warmup)
    drivers = [
        make_driver(pid, workload, start_ns=start_ns, engine=machine.config.driver_engine)
        for pid, workload in workloads.items()
    ]
    return run_processes(machine, drivers, max_total_accesses=max_total_accesses)
