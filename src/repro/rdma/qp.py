"""Per-core RDMA dispatch queues.

Leap's remote I/O interface (§4.4) stages remote reads and writes on a
per-CPU-core dispatch queue in front of the RDMA NIC.  The simulator
models each queue as a single server: an operation submitted at time
``t`` starts at ``max(t, busy_until)``, occupies the queue for its
*service time* (wire occupancy plus per-op driver work), and completes
after the additional end-to-end *fabric latency*.  Queueing delay under
load — the effect that makes tail latency blow up when many processes
or write-backs share a queue — falls out of ``busy_until``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DispatchQueue", "QueueStats", "Submission"]


@dataclass(frozen=True, slots=True)
class Submission:
    """Timing of one operation through a dispatch queue."""

    submitted: int
    started: int
    completed: int

    @property
    def queueing_delay(self) -> int:
        return self.started - self.submitted

    @property
    def total_latency(self) -> int:
        return self.completed - self.submitted


class QueueStats:
    """Aggregate counters for one dispatch queue."""

    def __init__(self) -> None:
        self.operations = 0
        self.total_queueing_delay = 0
        self.max_queueing_delay = 0
        #: Largest backlog (ns of queued service time) any submission
        #: found in front of it — the queue-depth signal the fault
        #: pipeline's completion queues summarize per core.
        self.peak_backlog_ns = 0

    def record(self, submission: Submission) -> None:
        self.operations += 1
        self.total_queueing_delay += submission.queueing_delay
        self.max_queueing_delay = max(
            self.max_queueing_delay, submission.queueing_delay
        )

    @property
    def mean_queueing_delay(self) -> float:
        if self.operations == 0:
            return 0.0
        return self.total_queueing_delay / self.operations


class DispatchQueue:
    """Single-server queue with deterministic service order."""

    def __init__(self, core: int) -> None:
        self.core = core
        self.busy_until = 0
        self.stats = QueueStats()

    def submit(self, now: int, service_ns: int, fabric_ns: int) -> Submission:
        """Run one operation through the queue.

        ``service_ns`` is how long the op occupies the queue (serialized
        with other ops); ``fabric_ns`` is the pipelined remainder of the
        end-to-end latency (flight time, remote DMA) that does *not*
        block the next submission.
        """
        if service_ns < 0 or fabric_ns < 0:
            raise ValueError("service and fabric times must be non-negative")
        backlog = self.busy_until - now
        if backlog > self.stats.peak_backlog_ns:
            self.stats.peak_backlog_ns = backlog
        started = max(now, self.busy_until)
        self.busy_until = started + service_ns
        submission = Submission(
            submitted=now,
            started=started,
            completed=started + service_ns + fabric_ns,
        )
        self.stats.record(submission)
        return submission
