"""Workloads whose access pattern changes mid-trace.

Production traffic is not stationary: a service warms its cache with a
scan, then settles into an iteration loop; a batch job alternates
between streaming and pointer chasing.  A static prefetcher choice is
tuned to *one* regime — a phase shift is exactly the situation the
control plane's :class:`~repro.control.governor.PolicyGovernor` exists
for, because whichever policy the run started with is wrong for the
other half of the trace.

:class:`PhasedWorkload` declares such a trace as data: an ordered list
of phases, each a pattern kind plus parameters and an optional share of
the access budget.  Patterns:

``sequential``
    Front-to-back scan, repeated.
``noisy-sequential``
    Sequential with a ``noise`` fraction of uniform-random jumps —
    majority-trend detection shrugs the noise off, delta-correlation
    (GHB) and strict detectors do not.
``stride``
    Fixed ``stride`` sweep (the Figure 2b pattern).
``random`` / ``zipfian``
    The irregular extremes (``skew`` for zipfian).
``permloop``
    A fixed random permutation of ``loop_pages`` pages (default: the
    whole working set) replayed in a loop: no spatial trend at all, so
    Leap and Read-Ahead collapse, while the repeat distance makes it
    the ideal temporal-correlation (GHB) pattern.

Phase dicts are JSON-shaped, so a phased tenant round-trips through
:class:`~repro.scenarios.spec.TenantSpec` params unchanged.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.sim.rng import SimRandom
from repro.workloads.base import Workload
from repro.workloads.patterns import (
    batched,
    permloop_arrays,
    sequential_arrays,
    stride_arrays,
    take,
    uniform_arrays,
    zipfian_arrays,
)

__all__ = ["PhasedWorkload", "PHASE_KINDS"]

PHASE_KINDS = (
    "sequential",
    "noisy-sequential",
    "stride",
    "random",
    "zipfian",
    "permloop",
)


def _noisy_sequential(rng: SimRandom, wss_pages: int, noise: float) -> Iterator[int]:
    position = 0
    while True:
        if rng.random() < noise:
            yield rng.randrange(wss_pages)
        else:
            yield position
            position = (position + 1) % wss_pages


def _phase_arrays(
    phase: Mapping, wss_pages: int, rng: SimRandom, batch: int
) -> Iterator[np.ndarray]:
    """Infinite vpn arrays for one phase spec."""
    kind = phase["kind"]
    if kind == "sequential":
        return sequential_arrays(wss_pages)
    if kind == "noisy-sequential":
        noise = float(phase.get("noise", 0.3))
        if not 0.0 <= noise < 1.0:
            raise ValueError(f"noise must be in [0, 1), got {noise}")
        return batched(_noisy_sequential(rng, wss_pages, noise), batch)
    if kind == "stride":
        return stride_arrays(wss_pages, int(phase.get("stride", 10)))
    if kind == "random":
        return uniform_arrays(rng, wss_pages, batch)
    if kind == "zipfian":
        return zipfian_arrays(rng, wss_pages, float(phase.get("skew", 0.99)), batch)
    if kind == "permloop":
        loop_pages = int(phase.get("loop_pages", wss_pages))
        if not 2 <= loop_pages <= wss_pages:
            raise ValueError(
                f"loop_pages must be in [2, wss_pages={wss_pages}], got {loop_pages}"
            )
        return permloop_arrays(rng, loop_pages)
    raise ValueError(f"unknown phase kind {kind!r} (choose from {PHASE_KINDS})")


class PhasedWorkload(Workload):
    """Concatenate pattern phases over one working set.

    *phases* is a sequence of JSON-shaped dicts (see module docstring);
    ``fraction`` weights a phase's share of ``total_accesses`` (default:
    equal shares — weights are normalized, so they need not sum to 1).
    """

    name = "phased"

    def __init__(
        self,
        wss_pages: int,
        total_accesses: int,
        phases: Sequence[Mapping] = (),
        **kwargs,
    ) -> None:
        super().__init__(wss_pages, total_accesses, **kwargs)
        if not phases:
            raise ValueError("PhasedWorkload needs at least one phase")
        weights = []
        for phase in phases:
            if "kind" not in phase:
                raise ValueError(f"phase {phase!r} is missing its 'kind'")
            if phase["kind"] not in PHASE_KINDS:
                raise ValueError(
                    f"unknown phase kind {phase['kind']!r} (choose from {PHASE_KINDS})"
                )
            fraction = float(phase.get("fraction", 1.0))
            if fraction <= 0:
                raise ValueError(f"phase fraction must be positive, got {fraction}")
            weights.append(fraction)
        self.phases = [dict(phase) for phase in phases]
        total_weight = sum(weights)
        #: Accesses per phase; the final phase absorbs rounding so the
        #: counts always sum to ``total_accesses``.
        self.phase_accesses = [
            int(total_accesses * weight / total_weight) for weight in weights
        ]
        self.phase_accesses[-1] += total_accesses - sum(self.phase_accesses)
        self.name = "phased/" + "+".join(phase["kind"] for phase in self.phases)

    def _vpn_arrays(self, rng: SimRandom, batch: int) -> Iterator[np.ndarray]:
        for index, (phase, count) in enumerate(zip(self.phases, self.phase_accesses)):
            phase_rng = rng.spawn(f"phase{index}")
            arrays = _phase_arrays(phase, self.wss_pages, phase_rng, min(batch, count))
            yield from take(arrays, count)
