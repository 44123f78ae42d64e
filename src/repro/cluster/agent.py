"""The cluster host agent: slab placement over real memory servers.

Extends the flat :class:`repro.rdma.agent.HostAgent` in four ways:

* **Two-stage dispatch** — an op first occupies the host's per-core
  dispatch queue (local NIC wire time), then the *target server's*
  queue pair with that server's own service and fabric latency.  A hot
  server backs up its own QPs without slowing reads to its neighbours.
* **Placement feedback** — power-of-two choices compares *live* server
  load (:meth:`MemoryServer.load_score`: utilization + QP backlog)
  instead of reserved capacity alone, so placement steers around both
  full and hot servers.
* **Contents** — every write stores a page fingerprint on the primary
  and replica and writes it through to the cluster's disk archive
  (Infiniswap's asynchronous disk backup), so recovery can prove pages
  survived a crash bit-identically.
* **Recovery** — when a server dies, its slabs are remapped: replica
  promotion where a live replica exists, re-fetch from the disk
  archive otherwise, then re-replication — all through the seeded
  placement stream, so a fixed seed reproduces the exact remap.
"""

from __future__ import annotations

from repro.cluster.server import MemoryServer, page_fingerprint
from repro.obs.names import CLUSTER_DISPATCH, core_track
from repro.rdma.agent import HostAgent, RemotePageLostError
from repro.rdma.network import RdmaFabric
from repro.rdma.qp import Submission
from repro.rdma.slab import Slab
from repro.sim.rng import SimRandom

__all__ = ["ClusterHostAgent"]


class ClusterHostAgent(HostAgent):
    """Host-side gateway to a cluster of :class:`MemoryServer` nodes."""

    def __init__(
        self,
        cluster,
        rng: SimRandom,
        n_cores: int = 8,
        slab_capacity_pages: int = 4096,
        replication: bool = True,
        host_fabric: RdmaFabric | None = None,
    ) -> None:
        servers = list(cluster.servers.values())
        fabric = host_fabric if host_fabric is not None else servers[0].fabric
        super().__init__(
            fabric,
            servers,
            rng,
            n_cores=n_cores,
            slab_capacity_pages=slab_capacity_pages,
            replication=replication,
        )
        self.cluster = cluster
        #: Latest content version per page, bumped on every write; the
        #: fingerprint of (key, version) is what recovery must preserve.
        self._versions: dict[object, int] = {}
        #: Simulated time of the last dispatched op — the load signal
        #: placement reads (placement itself carries no timestamp).
        self._now_hint = 0
        self.remapped_slabs = 0
        self.promoted_slabs = 0
        self.refetched_pages = 0
        self.recovered_pages = 0
        self.lost_pages = 0

    # -- placement feedback ------------------------------------------------
    def _placement_load(self, agent: MemoryServer) -> float:
        return agent.load_score(self._now_hint)

    # -- data movement -----------------------------------------------------
    def read_page(self, key: object, now: int, core: int = 0) -> Submission:
        """Host dispatch, then the serving server's QP and fabric."""
        self._now_hint = now
        location = self.place_page(key)
        slab = self.allocator.slab_of(location)
        target = self._readable_machine(slab)
        self.reads += 1
        target.reads += 1
        if self.tracer.enabled:
            self.tracer.instant(
                CLUSTER_DISPATCH, core_track(core), now, target.machine_id
            )
        host = self._queue_for(core).submit(
            now, service_ns=self.fabric.service_time_ns(), fabric_ns=0
        )
        remote = target.submit(host.completed, core)
        submission = Submission(
            submitted=now, started=host.started, completed=remote.completed
        )
        target.read_latencies.append(submission.total_latency)
        return submission

    def _write_to(self, server: MemoryServer, now: int, core: int) -> Submission:
        host = self._queue_for(core).submit(
            now, service_ns=self.fabric.service_time_ns(), fabric_ns=0
        )
        server.writes += 1
        return server.submit(host.completed, core)

    def write_page(self, key: object, now: int, core: int = 0) -> Submission:
        """Write to the primary (and replica), record contents."""
        self._now_hint = now
        location = self.place_page(key)
        slab = self.allocator.slab_of(location)
        primary = self.remote_agents[slab.machine_id]
        if not primary.alive:
            # The slab escaped recovery (e.g. the crash callback has
            # not run); repair it on the spot with full accounting.
            self._repair_slab(slab, slab.machine_id)
            primary = self.remote_agents[slab.machine_id]
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        fingerprint = page_fingerprint(key, version)
        self.writes += 1
        submission = self._write_to(primary, now, core)
        primary.store(key, fingerprint)
        completed = submission.completed
        replica_id = slab.replica_machine_id
        if self.replication and replica_id is not None:
            replica = self.remote_agents[replica_id]
            if replica.alive:
                replica_sub = self._write_to(replica, now, core)
                replica.store(key, fingerprint)
                completed = max(completed, replica_sub.completed)
        # Infiniswap's asynchronous disk backup: always durable, never
        # on the critical path — the re-fetch source when both in-memory
        # copies are gone.
        self.cluster.archive[key] = fingerprint
        return Submission(
            submitted=now, started=submission.started, completed=completed
        )

    def release_page(self, key: object) -> bool:
        """Reclaim the slot *and* the content copies it pinned."""
        location = self.allocator.location_of(key)
        if location is None:
            return False
        slab = self.allocator.slab_of(location)
        self.allocator.release(key)
        for machine_id in (slab.machine_id, slab.replica_machine_id):
            if machine_id is not None:
                self.remote_agents[machine_id].discard(key)
        self.cluster.archive.pop(key, None)
        return True

    # -- failure recovery --------------------------------------------------
    def _clone_contents(
        self, keys: list[object], source: MemoryServer, target: MemoryServer
    ) -> int:
        copied = 0
        for key in keys:
            fingerprint = source.load(key)
            if fingerprint is not None:
                target.store(key, fingerprint)
                copied += 1
        return copied

    def _refetch_from_archive(
        self, keys: list[object], target: MemoryServer
    ) -> None:
        for key in keys:
            fingerprint = self.cluster.archive.get(key)
            if fingerprint is None:
                self.lost_pages += 1
            else:
                target.store(key, fingerprint)
                self.refetched_pages += 1

    def _remap_slab(self, slab: Slab, dead_id: int) -> None:
        """Give *slab* a live primary after *dead_id* crashed."""
        keys = self.allocator.keys_in_slab(slab.slab_id)
        replica_id = slab.replica_machine_id
        if replica_id is not None and self.remote_agents[replica_id].alive:
            # Promote the replica: its copy is already in memory.
            slab.machine_id = replica_id
            slab.replica_machine_id = None
            self.promoted_slabs += 1
            self.recovered_pages += len(keys)
        else:
            new_primary = self._pick_machine(exclude={dead_id})
            new_primary.reserve_slab(self.allocator.slab_capacity_pages)
            slab.machine_id = new_primary.machine_id
            slab.replica_machine_id = None
            self._refetch_from_archive(keys, new_primary)

    def _replace_replica(self, slab: Slab, exclude: set[int]) -> None:
        """Restore one in-memory replica for *slab*, capacity permitting."""
        try:
            new_replica = self._pick_machine(exclude=exclude | {slab.machine_id})
        except RemotePageLostError:
            return  # degrade to unreplicated rather than fail recovery
        new_replica.reserve_slab(self.allocator.slab_capacity_pages)
        slab.replica_machine_id = new_replica.machine_id
        keys = self.allocator.keys_in_slab(slab.slab_id)
        self._clone_contents(keys, self.remote_agents[slab.machine_id], new_replica)

    def _repair_slab(self, slab: Slab, dead_id: int) -> None:
        """Full repair of a slab whose primary died on *dead_id*.

        Remaps the primary (replica promotion or archive re-fetch),
        restores replication, releases the dead server's reservation,
        and counts the remap — the single path shared by bulk recovery
        and the defensive in-line repair on a write to a dead primary.
        """
        self._remap_slab(slab, dead_id)
        if self.replication and slab.replica_machine_id is None:
            self._replace_replica(slab, exclude={dead_id})
        dead = self.remote_agents[dead_id]
        dead.release_slab(
            min(self.allocator.slab_capacity_pages, dead.reserved_pages)
        )
        self.remapped_slabs += 1

    def recover_from_failure(self, dead_id: int) -> int:
        """Remap every slab that lost a copy on *dead_id*.

        Slabs are visited in slab-id order and new homes come from the
        seeded placement stream, so the remap is deterministic for a
        fixed seed.  Returns the number of slabs touched.
        """
        dead = self.remote_agents[dead_id]
        slab_pages = self.allocator.slab_capacity_pages
        touched = 0
        for slab in self.allocator.slabs.values():
            if slab.machine_id == dead_id:
                self._repair_slab(slab, dead_id)
                touched += 1
            elif slab.replica_machine_id == dead_id:
                slab.replica_machine_id = None
                if self.replication:
                    self._replace_replica(slab, exclude={dead_id})
                dead.release_slab(min(slab_pages, dead.reserved_pages))
                self.remapped_slabs += 1
                touched += 1
        return touched

    # -- verification ------------------------------------------------------
    def verify_contents(self) -> tuple[int, int]:
        """Check every placed page against its expected fingerprint.

        Returns ``(checked, mismatched)``; a recovery is lossless when
        no checked page mismatches.  Pages whose slot was reclaimed
        (resident again, no remote copy) are skipped — their contents
        live in host RAM.
        """
        checked = 0
        mismatched = 0
        for key, version in self._versions.items():
            location = self.allocator.location_of(key)
            if location is None:
                continue
            slab = self.allocator.slab_of(location)
            checked += 1
            expected = page_fingerprint(key, version)
            stored = None
            primary = self.remote_agents[slab.machine_id]
            if primary.alive:
                stored = primary.load(key)
            if stored is None and slab.replica_machine_id is not None:
                replica = self.remote_agents[slab.replica_machine_id]
                if replica.alive:
                    stored = replica.load(key)
            if stored != expected:
                mismatched += 1
        return checked, mismatched

    # -- introspection -----------------------------------------------------
    def recovery_stats(self) -> dict:
        return {
            "remapped_slabs": self.remapped_slabs,
            "promoted_slabs": self.promoted_slabs,
            "recovered_pages": self.recovered_pages,
            "refetched_pages": self.refetched_pages,
            "lost_pages": self.lost_pages,
            "failovers": self.failovers,
            "slot_releases": self.allocator.released_slots,
            "slot_reuses": self.allocator.reused_slots,
        }
