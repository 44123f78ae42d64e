"""Prefetch-quality accounting: accuracy, coverage, timeliness (§3.1).

Definitions follow the paper exactly:

* **Accuracy** — prefetched pages that were eventually consumed,
  divided by all pages added to the cache via prefetching.
* **Coverage** — faults served from prefetched pages, divided by all
  page faults.
* **Timeliness** — for each consumed prefetched page, the gap between
  when it was prefetched and when it was first hit.  (Smaller is
  better: a page that sits in cache for seconds before use wastes
  cache space even though it was "accurate".)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.page import PageKey

__all__ = ["PrefetchMetrics"]


@dataclass(slots=True)
class _IssueRecord:
    issued_at: int
    arrival_at: int


@dataclass(slots=True)
class PrefetchMetrics:
    """Counters for one simulation run."""

    faults: int = 0
    minor_faults: int = 0
    misses: int = 0
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    inflight_hits: int = 0
    #: Hits on pages prefetched before this metrics window opened
    #: (e.g. during warmup); excluded from accuracy/coverage so both
    #: stay well-defined ratios over the measured window.
    carryover_hits: int = 0
    #: Prefetched pages that left the cache without ever serving a hit
    #: — the pollution the eager eviction policy exists to bound, and
    #: the signal the control plane's governor scores policies on.
    evicted_unused: int = 0
    #: Demand faults that coalesced onto an in-flight read's
    #: completion-queue entry instead of re-issuing it (every
    #: ``CACHE_HIT_INFLIGHT`` is one of these).
    coalesced_faults: int = 0
    #: Prefetch rounds clipped because the issuing core's QP hit its
    #: completion-queue depth limit (0 when no limit is configured).
    prefetch_backpressured: int = 0
    #: Peak reads in flight at once (demand + prefetch) — the
    #: queue-depth high-water mark of the fault pipeline.
    inflight_peak: int = 0
    timeliness_ns: list[int] = field(default_factory=list)
    _outstanding: dict[PageKey, _IssueRecord] = field(default_factory=dict)

    # -- recording hooks ---------------------------------------------------
    def record_fault(self) -> None:
        self.faults += 1

    def record_minor_fault(self) -> None:
        self.minor_faults += 1

    def record_miss(self) -> None:
        self.misses += 1

    def record_coalesced(self) -> None:
        self.coalesced_faults += 1

    def record_backpressure(self) -> None:
        self.prefetch_backpressured += 1

    def note_inflight_depth(self, depth: int) -> None:
        if depth > self.inflight_peak:
            self.inflight_peak = depth

    def record_issue(self, key: PageKey, issued_at: int, arrival_at: int) -> None:
        self.prefetch_issued += 1
        self._outstanding[key] = _IssueRecord(issued_at, arrival_at)

    def record_hit(self, key: PageKey, now: int) -> None:
        """A prefetched page was consumed for the first time."""
        record = self._outstanding.pop(key, None)
        if record is None:
            self.carryover_hits += 1
            return
        self.prefetch_hits += 1
        if now < record.arrival_at:
            # Consumed while still in flight: the fault blocked for the
            # remainder, so the effective gap runs to the arrival.
            self.inflight_hits += 1
            self.timeliness_ns.append(record.arrival_at - record.issued_at)
        else:
            self.timeliness_ns.append(now - record.issued_at)

    def record_evicted_unused(self, key: PageKey) -> None:
        """A prefetched page left the cache without ever being hit.

        Pages issued before this metrics window opened (warmup
        carryover) are excluded, mirroring :meth:`record_hit`'s
        carryover handling, so ``pollution_ratio`` stays a
        well-defined ratio over the measured window.
        """
        if self._outstanding.pop(key, None) is not None:
            self.evicted_unused += 1

    # -- derived metrics -----------------------------------------------------
    @property
    def accuracy(self) -> float:
        """Prefetched-and-consumed over prefetched (0 when none issued)."""
        if self.prefetch_issued == 0:
            return 0.0
        return self.prefetch_hits / self.prefetch_issued

    @property
    def coverage(self) -> float:
        """Prefetch-served faults over all (major-path) faults."""
        if self.faults == 0:
            return 0.0
        return self.prefetch_hits / self.faults

    @property
    def miss_ratio(self) -> float:
        if self.faults == 0:
            return 0.0
        return self.misses / self.faults

    @property
    def pollution_ratio(self) -> float:
        """Evicted-unused over issued: the wasted share of prefetching.

        The single definition shared by reports and the control plane's
        governor (0 when nothing was issued).
        """
        if self.prefetch_issued == 0:
            return 0.0
        return self.evicted_unused / self.prefetch_issued

    def as_dict(self) -> dict[str, float]:
        return {
            "faults": self.faults,
            "minor_faults": self.minor_faults,
            "misses": self.misses,
            "prefetch_issued": self.prefetch_issued,
            "prefetch_hits": self.prefetch_hits,
            "inflight_hits": self.inflight_hits,
            "carryover_hits": self.carryover_hits,
            "evicted_unused": self.evicted_unused,
            "coalesced_faults": self.coalesced_faults,
            "prefetch_backpressured": self.prefetch_backpressured,
            "inflight_peak": self.inflight_peak,
            "accuracy": self.accuracy,
            "coverage": self.coverage,
            "miss_ratio": self.miss_ratio,
            "pollution_ratio": self.pollution_ratio,
        }
