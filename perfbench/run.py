"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fault-dense --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed``.  One untimed
warm-up run at reduced size pays for imports and numpy start-up; then
full-size runs repeat, one at a time in this process, until
``--seconds`` of host time are spent (at least three runs).  Each run
builds a fresh machine, so set-up is measured every time.  ``--trace 1``
adds one run with per-layer timing wrappers (perfbench/layers.py) and
reports the per-layer metrics instead of the end-to-end ones.

Every run is checked: executed accesses must equal requested accesses,
per-kind counts must sum to them, and the simulated digest must be the
same in every run of the seed, traced or not.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it records the host and provenance.  A
failed check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from perfbench.layers import PER_LAYER_METRICS, LayerTimer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    SHAPES,
    check_run,
    prepare,
    sim_digest,
    sim_summary,
)
from repro.provenance import code_revision  # noqa: E402

#: End-to-end metric names and units, in report order (see README.md).
END_TO_END_METRICS = {
    "wall_s": "s",
    "accesses_per_s": "1/s",
    "faults_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_fault_p50_us": "sim_us",
    "sim_fault_p99_us": "sim_us",
    "sim_completion_s": "sim_s",
    "sim_cache_miss_ratio": "ratio",
    "completed_frac": "ratio",
}
#: Share of each tenant's accesses run by the untimed warm-up run.
WARMUP_SCALE = 0.1
#: Fewest measured runs, however short ``--seconds`` is.
MIN_RUNS = 3


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mib() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Sample:
    """One measured run."""

    requested: int = 0
    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: str | None = None
    sim: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.setup_s + self.wall_s


def measure(
    name: str,
    seed: int,
    workdir: Path,
    timer: LayerTimer | None = None,
    scale: float = 1.0,
) -> Sample:
    """Set up and run *name* once; with *timer*, time every layer.

    *scale* shrinks the workload (see :func:`prepare`); the benchmark
    measures full size, its tests a small one.
    """
    sample = Sample()
    gc.collect()
    reset_peak_rss()
    started = time.perf_counter()
    warm_end: list[float] = []
    try:
        prepared = prepare(name, seed, workdir=workdir, scale=scale)
        sample.requested = prepared.requested
        machine = prepared.machine
        reset_measurements = machine.reset_measurements

        def end_of_warmup() -> None:
            reset_measurements()
            if timer is not None:
                timer.install(machine)
            warm_end.append(time.perf_counter())

        machine.reset_measurements = end_of_warmup
        try:
            result = prepared.run()
        finally:
            if timer is not None:
                timer.remove()
        finished = time.perf_counter()
        sample.setup_s = warm_end[0] - started
        sample.wall_s = finished - warm_end[0]
        sample.peak_rss_mb = peak_rss_mib()
        sample.failures = check_run(result, prepared.requested)
        sample.digest = sim_digest(result)
        sample.sim = sim_summary(result)
        if timer is not None:
            sample.layers = timer.metrics(sample.sim, prepared.capture_s, prepared.open_s)
            sample.layers["tracing.wall_s"] = sample.wall_s
            sample.layers["unattributed_s"] = sample.wall_s - timer.attributed_s()
            if sample.layers["pipeline.calls"] != sample.sim["nonresident"]:
                sample.failures.append(
                    f"traced pipeline.access calls {sample.layers['pipeline.calls']} "
                    f"!= non-resident accesses {sample.sim['nonresident']}"
                )
    except Exception:  # a crashed run is a failed run; the others go on
        traceback.print_exc()
        sample.failures.append("run raised")
    return sample


def environment(args, shape, samples: list[Sample]) -> dict:
    """Host, provenance and every run's raw samples, recorded with each result."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "code_rev": code_revision(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(samples),
        "run_wall_s": [s.wall_s for s in samples],
        "run_setup_s": [s.setup_s for s in samples],
        "run_peak_rss_mb": [s.peak_rss_mb for s in samples],
        "workload": {
            "name": shape.name,
            "entry": shape.entry,
            "engine": shape.engine,
            "memory_fraction": shape.memory_fraction,
            "cores": shape.cores,
            "wss_pages": shape.wss_pages,
            "accesses_per_tenant": shape.accesses,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    shape = SHAPES[args.workload]

    # A terminated run still removes its scratch directory (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # Untimed: imports, numpy start-up and first-call costs.
        prepare(args.workload, args.seed, workdir=workdir, scale=WARMUP_SCALE).run()
        samples: list[Sample] = []
        started = time.perf_counter()
        while len(samples) < MIN_RUNS or (
            time.perf_counter()
            - started
            + statistics.median(s.duration_s for s in samples)
            <= args.seconds
        ):
            samples.append(measure(args.workload, args.seed, workdir))
        traced = measure(args.workload, args.seed, workdir, LayerTimer()) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = samples + ([traced] if traced else [])
    reference = next((s.digest for s in samples if s.digest is not None), None)
    for sample in measured:
        if sample.digest != reference:
            sample.failures.append(f"simulated digest {sample.digest} != first run's {reference}")
    # A run that raised before its inputs were built counts as one access.
    attempted = sum(s.requested or 1 for s in measured)
    failed = sum(s.requested or 1 for s in measured if s.failures)
    good = [s for s in samples if not s.failures]

    if args.trace:
        metrics = dict(traced.layers) if traced and not traced.failures else {}
        if metrics and good:
            untraced = statistics.median(s.wall_s for s in good)
            metrics["tracing.overhead_ratio"] = traced.wall_s / untraced
        units = PER_LAYER_METRICS
    else:
        metrics = {}
        if good:
            first = good[0].sim
            metrics = {
                "wall_s": statistics.median(s.wall_s for s in good),
                "accesses_per_s": statistics.median(s.sim["accesses"] / s.wall_s for s in good),
                "faults_per_s": statistics.median(s.sim["nonresident"] / s.wall_s for s in good),
                "setup_s": statistics.median(s.setup_s for s in good),
                "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
                **{key: first[key] for key in END_TO_END_METRICS if key.startswith("sim_")},
            }
        metrics["completed_frac"] = 1.0 - failed / attempted
        units = END_TO_END_METRICS
    correct = not failed and all(key in metrics for key in units)

    for sample in measured:
        for failure in sample.failures:
            print(f"check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(samples)} runs" + (" + 1 traced" if traced else ""))
    if good:
        print(f"  fault samples: {good[0].sim['fault_samples']}")
    for key, unit in units.items():
        if key in metrics:
            print(f"  {key:28s} {metrics[key]:>16.6g} {unit}")
    print(json.dumps({"meta": environment(args, shape, samples)}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": metrics[key], "unit": unit}
                    for key, unit in units.items()
                    if key in metrics
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
