"""The ``Leap`` facade: one object bundling the paper's full stack.

Most users want "give me Leap" without assembling the tracker,
prefetcher, eviction policy, and lean data path by hand.  This module
provides that — a façade over :class:`~repro.sim.machine.Machine`
construction exposing the three tunables the paper names (``Hsize``,
``Nsplit``, ``PWsize_max``) and per-component switches for ablations:

>>> from repro.core.leap import Leap
>>> leap = Leap(history_size=32, max_prefetch_window=8)
>>> machine = leap.build_machine(seed=42)
>>> machine.data_path.name
'leap-lean'

Each component can be disabled to reproduce the Figure 8a breakdown::

    Leap(prefetching=False, eager_eviction=False)   # lean path only
    Leap(eager_eviction=False)                      # + prefetcher
    Leap()                                          # the full system
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.access_history import DEFAULT_HISTORY_SIZE
from repro.core.prefetch_window import DEFAULT_MAX_WINDOW
from repro.core.trend import DEFAULT_NSPLIT
from repro.sim.machine import Machine, MachineConfig, leap_config

__all__ = ["Leap"]


@dataclass(frozen=True, slots=True)
class Leap:
    """Configuration façade for the complete Leap system."""

    #: AccessHistory capacity (paper default: 32).
    history_size: int = DEFAULT_HISTORY_SIZE
    #: Initial detection window divisor (paper default: 2).
    n_split: int = DEFAULT_NSPLIT
    #: Maximum prefetch window (paper default: 8).
    max_prefetch_window: int = DEFAULT_MAX_WINDOW
    #: Disable to fall back to no prefetching (Figure 8a, bottom line).
    prefetching: bool = True
    #: Disable to fall back to the kernel's lazy LRU cache eviction.
    eager_eviction: bool = True
    #: Disable to route misses through the legacy block layer instead
    #: of the lean path (isolates the prefetching algorithm, as the
    #: Figure 8b / 9 / 10 experiments do).
    lean_data_path: bool = True

    def to_config(self, seed: int = 42, **overrides) -> MachineConfig:
        """Produce a :class:`MachineConfig` for this Leap variant."""
        config = leap_config(
            seed=seed,
            history_size=self.history_size,
            n_split=self.n_split,
            max_prefetch_window=self.max_prefetch_window,
        )
        changes: dict = {}
        if not self.prefetching:
            changes["prefetcher"] = "none"
        if not self.eager_eviction:
            changes["eviction"] = "lazy"
        if not self.lean_data_path:
            changes["data_path"] = "legacy"
        if changes:
            config = config.with_overrides(**changes)
        if overrides:
            config = config.with_overrides(**overrides)
        return config

    def build_machine(self, seed: int = 42, **overrides) -> Machine:
        """Build a ready-to-run host machine with this Leap variant."""
        return Machine(self.to_config(seed=seed, **overrides))

    @classmethod
    def prefetcher_only(cls) -> "Leap":
        """Leap's algorithm on the stock kernel data path (Fig. 8b)."""
        return cls(lean_data_path=False, eager_eviction=False)
