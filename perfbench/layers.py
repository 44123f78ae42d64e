"""Per-layer host time, measured from outside the simulator.

:class:`LayerTimer` replaces public entry points of each layer -- on the
machine's component instances, on classes, or on module attributes the
callers look up at call time -- with timing wrappers, and puts every
original back in :meth:`LayerTimer.remove`.  The wrappers keep a stack,
so a call's *self* time is its duration minus the wrapped calls it made;
summing self time over every wrapped entry point gives the host time
the wrappers account for, and the rest of the measured run is reported
as ``unattributed_s``.

Wrappers are installed when the run's warmup ends (the machine's
``reset_measurements``), so the numbers cover exactly the measured run.
Nothing here changes a simulated value: the wrappers pass arguments and
results through untouched, which the benchmark checks by comparing the
traced run's digest with the untraced runs'.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.kernel.vectorized as kernel_vectorized
import repro.sim.scheduler as sim_scheduler
import repro.sim.simulate as sim_simulate
from repro.kernel.vectorized import ConcurrentResidentWindow
from repro.sim.process import ProcessDriver
from repro.sim.scheduler import ConcurrentScheduler

__all__ = ["LayerTimer", "PER_LAYER_METRICS"]

_MISSING = object()

#: Per-layer metric names and units, in report order (see README.md).
PER_LAYER_METRICS = {
    "workloads.gen_s": "s",
    "trace.capture_s": "s",
    "trace.open_s": "s",
    "sim.loop_self_s": "s",
    "sim.driver_self_s": "s",
    "sim.bursts": "count",
    "sim.accesses_per_burst": "count",
    "sim.core_wait_ms": "sim_ms",
    "sim.fault_samples": "count",
    "kernel.burst_self_s": "s",
    "kernel.gather_s": "s",
    "kernel.window_s": "s",
    "kernel.window_hit_ratio": "ratio",
    "kernel.gathers": "count",
    "kernel.gather_useful_ratio": "ratio",
    "pipeline.calls": "count",
    "pipeline.self_s": "s",
    "pipeline.host_us_per_call": "us",
    "pipeline.batch_s": "s",
    "mem.cache_s": "s",
    "mem.reclaim_s": "s",
    "mem.lru_bulk_s": "s",
    "mem.evictions": "count",
    "mem.writebacks": "count",
    "prefetch.self_s": "s",
    "prefetch.issued": "count",
    "prefetch.useful": "count",
    "prefetch.accuracy": "ratio",
    "prefetch.coverage": "ratio",
    "prefetch.pollution_ratio": "ratio",
    "datapath.read_s": "s",
    "datapath.write_s": "s",
    "datapath.reads": "count",
    "datapath.writes": "count",
    "rdma.agent_s": "s",
    "rdma.cq_s": "s",
    "rdma.qp_submits": "count",
    "rdma.coalesced": "count",
    "rdma.inflight_peak": "count",
    "rdma.qp_queue_delay_us": "sim_us",
    "tracing.wall_s": "s",
    "tracing.overhead_ratio": "ratio",
    "unattributed_s": "s",
}


class _Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.child = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class _TimedIterator:
    """Times each ``next()`` of a workload's access stream."""

    __slots__ = ("_inner", "_stat", "_stack")

    def __init__(self, inner, stat: _Stat, stack: list) -> None:
        self._inner = iter(inner)
        self._stat = stat
        self._stack = stack

    def __iter__(self):
        return self

    def __next__(self):
        started = time.perf_counter()
        try:
            return next(self._inner)
        finally:
            elapsed = time.perf_counter() - started
            self._stat.calls += 1
            self._stat.total += elapsed
            if self._stack:
                self._stack[-1] += elapsed


class _TimedWorkload:
    """A workload whose access streams are timed as ``workloads.gen``."""

    def __init__(self, inner, stat: _Stat, stack: list) -> None:
        self._inner = inner
        self._stat = stat
        self._stack = stack
        self.wss_pages = inner.wss_pages

    def accesses(self):
        return _TimedIterator(self._inner.accesses(), self._stat, self._stack)

    def columnar_blocks(self, block_size=None):
        return _TimedIterator(self._inner.columnar_blocks(block_size), self._stat, self._stack)


class LayerTimer:
    """Timing wrappers over every measured layer of one machine."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        #: Counts taken from wrapped calls' arguments and results.
        self.counts: dict[str, float] = defaultdict(float)
        self._baseline: dict[str, int] = {}
        self.machine = None

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner, attr: str, key: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recorded as *key*.

        *on_result(args, result)* is called after each call, for counts
        that live in arguments or results.
        """
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _MISSING)
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stat.calls += 1
                stat.total += elapsed
                stat.child += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, saved))

    def remove(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def install(self, machine) -> None:
        """Wrap the layers of *machine* (call when its warmup has ended)."""
        self.machine = machine
        vmm = machine.vmm
        counts = self.counts

        # sim: run loops, the per-driver burst, driver construction.
        self.wrap(sim_simulate, "run_processes", "sim.loop")
        self.wrap(ConcurrentScheduler, "run", "sim.loop")

        def on_burst(args, ran):
            counts["sim.accesses"] += ran

        self.wrap(ProcessDriver, "step_burst", "sim.driver", on_burst)
        for module in (sim_simulate, sim_scheduler):
            self._wrap_make_driver(module)

        # kernel: solo bursts, residency gathers, the concurrent window.
        self.wrap(kernel_vectorized, "step_burst_columnar", "kernel.burst")

        def on_gather(args, run):
            counts["kernel.gathered"] += len(args[1])
            counts["kernel.useful"] += run

        self.wrap(kernel_vectorized, "leading_resident", "kernel.gather", on_gather)

        def on_window(args, ran):
            counts["kernel.window_hits"] += 1 if ran else 0

        self.wrap(ConcurrentResidentWindow, "try_run", "kernel.window", on_window)

        # datapath.pipeline: the staged fault path and its batch boundary.
        self.wrap(vmm.pipeline, "access", "pipeline.access")
        self.wrap(vmm.pipeline, "begin_batch", "pipeline.batch")

        # mem: swap cache, reclaim and eviction, bulk LRU updates.
        for attr in ("lookup", "insert", "consume", "drop"):
            self.wrap(machine.cache, attr, "mem.cache")
        self.wrap(machine.reclaimer, "maybe_scan", "mem.reclaim")
        self.wrap(machine.reclaimer, "allocation_wait_ns", "mem.reclaim")
        self.wrap(vmm, "_evict_one", "mem.reclaim")
        for process in vmm.processes:
            self.wrap(process.resident_lru, "reference_bulk", "mem.lru_bulk")

        # prefetchers / core: the prefetcher behind the machine.
        for attr in ("on_fault", "candidates", "on_prefetch_hit"):
            self.wrap(machine.prefetcher, attr, "prefetch")

        # datapath: demand and prefetch reads, write-backs.
        for attr in ("demand_read", "async_read", "async_read_batch"):
            self.wrap(machine.data_path, attr, "datapath.read")
        self.wrap(machine.data_path, "async_write", "datapath.write")

        # rdma: host agent, per-core dispatch queues, completion queue.
        agent = machine.host_agent
        self.wrap(agent, "read_page", "rdma.agent")
        self.wrap(agent, "write_page", "rdma.agent")

        def on_submit(args, submission):
            counts["rdma.queue_delay_ns"] += submission.queueing_delay

        for queue in agent.queues:
            self.wrap(queue, "submit", "rdma.qp", on_submit)
        for attr in ("issue", "attach", "drain"):
            self.wrap(vmm.completion_queue, attr, "rdma.cq")

        self._baseline = {
            "reads": machine.data_path.demand_reads + machine.data_path.async_reads,
            "writes": machine.data_path.async_writes,
            "evictions": sum(p.evictions for p in vmm.processes),
            "writebacks": sum(p.writebacks for p in vmm.processes),
        }

    def _wrap_make_driver(self, module) -> None:
        original = module.make_driver
        stat = self.stats["workloads.gen"]
        stack = self._stack

        def make_driver(pid, workload, *args, **kwargs):
            return original(pid, _TimedWorkload(workload, stat, stack), *args, **kwargs)

        module.make_driver = make_driver
        self._undo.append((module, "make_driver", original))

    # -- reduction -----------------------------------------------------------
    def _self(self, *keys: str) -> float:
        return sum(self.stats[key].self_time for key in keys)

    def _total(self, *keys: str) -> float:
        return sum(self.stats[key].total for key in keys)

    def attributed_s(self) -> float:
        """Host seconds spent inside any wrapped entry point."""
        return sum(stat.self_time for stat in self.stats.values())

    def metrics(self, sim: dict, capture_s: float, open_s: float) -> dict[str, float]:
        """Every per-layer metric except the ``tracing.*`` / unattributed
        ones, which need the traced wall time (see run.py)."""
        machine = self.machine
        vmm = machine.vmm
        stats = self.stats
        counts = self.counts
        base = self._baseline
        bursts = stats["sim.driver"].calls
        gathered = counts["kernel.gathered"]
        windows = stats["kernel.window"].calls
        calls = stats["pipeline.access"].calls
        metrics = machine.metrics
        qp_submits = stats["rdma.qp"].calls
        return {
            "workloads.gen_s": self._total("workloads.gen"),
            "trace.capture_s": capture_s,
            "trace.open_s": open_s,
            "sim.loop_self_s": self._self("sim.loop"),
            "sim.driver_self_s": self._self("sim.driver"),
            "sim.bursts": bursts,
            "sim.accesses_per_burst": counts["sim.accesses"] / bursts if bursts else 0.0,
            "sim.core_wait_ms": sim["core_wait_ns"] / 1e6,
            "sim.fault_samples": sim["fault_samples"],
            "kernel.burst_self_s": self._self("kernel.burst"),
            "kernel.gather_s": self._self("kernel.gather"),
            "kernel.window_s": self._total("kernel.window"),
            "kernel.window_hit_ratio": counts["kernel.window_hits"] / windows if windows else 0.0,
            "kernel.gathers": stats["kernel.gather"].calls,
            "kernel.gather_useful_ratio": counts["kernel.useful"] / gathered if gathered else 0.0,
            "pipeline.calls": calls,
            "pipeline.self_s": self._self("pipeline.access"),
            "pipeline.host_us_per_call": (
                stats["pipeline.access"].total / calls * 1e6 if calls else 0.0
            ),
            "pipeline.batch_s": self._total("pipeline.batch"),
            "mem.cache_s": self._self("mem.cache"),
            "mem.reclaim_s": self._self("mem.reclaim"),
            "mem.lru_bulk_s": self._self("mem.lru_bulk"),
            "mem.evictions": sum(p.evictions for p in vmm.processes) - base["evictions"],
            "mem.writebacks": sum(p.writebacks for p in vmm.processes) - base["writebacks"],
            "prefetch.self_s": self._self("prefetch"),
            "prefetch.issued": metrics.prefetch_issued,
            "prefetch.useful": metrics.prefetch_hits,
            "prefetch.accuracy": metrics.accuracy,
            "prefetch.coverage": metrics.coverage,
            "prefetch.pollution_ratio": metrics.pollution_ratio,
            "datapath.read_s": self._self("datapath.read"),
            "datapath.write_s": self._self("datapath.write"),
            "datapath.reads": (
                machine.data_path.demand_reads + machine.data_path.async_reads - base["reads"]
            ),
            "datapath.writes": machine.data_path.async_writes - base["writes"],
            "rdma.agent_s": self._self("rdma.agent", "rdma.qp"),
            "rdma.cq_s": self._self("rdma.cq"),
            "rdma.qp_submits": qp_submits,
            "rdma.coalesced": vmm.completion_queue.stats()["coalesced"],
            "rdma.inflight_peak": metrics.inflight_peak,
            "rdma.qp_queue_delay_us": (
                counts["rdma.queue_delay_ns"] / qp_submits / 1e3 if qp_submits else 0.0
            ),
        }
