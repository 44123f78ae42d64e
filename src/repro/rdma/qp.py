"""Per-core RDMA dispatch queues.

Leap's remote I/O interface (§4.4) stages remote reads and writes on a
per-CPU-core dispatch queue in front of the RDMA NIC.  The simulator
models each queue as a single server: an operation submitted at time
``t`` starts at ``max(t, busy_until)``, occupies the queue for its
*service time* (wire occupancy plus per-op driver work), and completes
after the additional end-to-end *fabric latency*.  Queueing delay under
load — the effect that makes tail latency blow up when many processes
or write-backs share a queue — falls out of ``busy_until``.

Every remote page read and write-back passes through
:meth:`DispatchQueue.submit` (a fault-dense run submits about three
times per access), so it is kept flat: the queue's statistics are
updated inline and :class:`Submission` is a named tuple built straight
from a plain tuple.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

__all__ = ["DispatchQueue", "QueueStats", "Submission"]


class Submission(NamedTuple):
    """Timing of one operation through a dispatch queue (immutable)."""

    submitted: int
    started: int
    completed: int

    @property
    def queueing_delay(self) -> int:
        return self.started - self.submitted

    @property
    def total_latency(self) -> int:
        return self.completed - self.submitted


#: ``_submission((submitted, started, completed))`` builds a
#: :class:`Submission` without the named tuple's generated, Python-level
#: ``__new__`` (several times the cost of this C-level call).
_submission = partial(tuple.__new__, Submission)


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
        stats = self.stats
        stats.operations += 1
        backlog = self.busy_until - now
        if backlog > 0:
            # Queued behind earlier work: the backlog is the delay.
            if backlog > stats.peak_backlog_ns:
                stats.peak_backlog_ns = backlog
            if backlog > stats.max_queueing_delay:
                stats.max_queueing_delay = backlog
            stats.total_queueing_delay += backlog
            started = self.busy_until
        else:
            started = now
        self.busy_until = started + service_ns
        return _submission((now, started, started + service_ns + fabric_ns))
