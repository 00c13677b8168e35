"""Tests for MPT-style protection checking (§2.2's security-check role)."""

import pytest

from repro.cluster import Cluster
from repro.memory import MemoryBlade
from repro.rnic import verbs
from repro.rnic.config import RnicConfig
from repro.rnic.policies import connect
from repro.rnic.qp import WorkRequest, cas_wr, read_wr, write_wr


def make_cluster(enforce=True):
    cluster = Cluster(RnicConfig(enforce_protection=enforce))
    compute = cluster.add_node()
    compute.add_threads(1)
    (remote,) = cluster.add_nodes(1)
    connect(compute, [remote], "per-thread-qp")
    return cluster, compute, remote


def run_one(cluster, compute, remote, wr):
    thread = compute.threads[0]

    def proc():
        qp = thread.qp_for(remote.node_id)
        yield from verbs.post_and_wait(thread, qp, [wr])

    cluster.sim.spawn(proc())
    cluster.sim.run()
    return wr


class TestFindRegion:
    def test_finds_containing_region(self):
        blade = MemoryBlade(0, capacity=1 << 16)
        region = blade.alloc_region("r", 128)
        assert blade.find_region(region.base, 128) is region
        assert blade.find_region(region.base + 127, 1) is region

    def test_straddling_access_not_found(self):
        blade = MemoryBlade(0, capacity=1 << 16)
        region = blade.alloc_region("r", 128)
        assert blade.find_region(region.base + 120, 16) is None

    def test_unregistered_offset_not_found(self):
        blade = MemoryBlade(0, capacity=1 << 16)
        blade.alloc_region("r", 128)
        assert blade.find_region(0, 8) is None


class TestEnforcement:
    def test_access_within_region_succeeds(self):
        cluster, compute, remote = make_cluster()
        region = remote.storage.alloc_region("data", 4096)
        remote.storage.bulk_write(region.base, b"REGISTER")
        wr = run_one(cluster, compute, remote,
                     read_wr(remote.storage.global_addr(region.base), 8))
        assert wr.status == WorkRequest.STATUS_OK
        assert wr.result == b"REGISTER"

    def test_unregistered_access_faults(self):
        cluster, compute, remote = make_cluster()
        remote.storage.alloc_region("data", 4096)
        # Offset 0 precedes every region (regions start cacheline-aligned
        # after the reserved null word).
        wr = run_one(cluster, compute, remote,
                     read_wr(remote.storage.global_addr(0), 8))
        assert wr.status == WorkRequest.STATUS_ACCESS_ERROR
        assert wr.result is None
        assert remote.device.counters.protection_faults == 1

    def test_write_fault_does_not_modify_memory(self):
        cluster, compute, remote = make_cluster()
        region = remote.storage.alloc_region("data", 64)
        bad_addr = remote.storage.global_addr(region.end + 64)
        before = remote.storage.read(region.end + 64, 8)
        wr = run_one(cluster, compute, remote, write_wr(bad_addr, b"EVILDATA"))
        assert wr.status == WorkRequest.STATUS_ACCESS_ERROR
        assert remote.storage.read(region.end + 64, 8) == before

    def test_region_without_remote_access_faults(self):
        cluster, compute, remote = make_cluster()
        private = remote.storage.alloc_region("private", 64, remote_access=False)
        wr = run_one(cluster, compute, remote,
                     cas_wr(remote.storage.global_addr(private.base), 0, 1))
        assert wr.status == WorkRequest.STATUS_ACCESS_ERROR
        assert remote.storage.read_u64(private.base) == 0

    def test_straddling_region_boundary_faults(self):
        cluster, compute, remote = make_cluster()
        region = remote.storage.alloc_region("data", 64)
        wr = run_one(cluster, compute, remote,
                     read_wr(remote.storage.global_addr(region.base + 60), 8))
        assert wr.status == WorkRequest.STATUS_ACCESS_ERROR

    def test_disabled_enforcement_allows_raw_offsets(self):
        cluster, compute, remote = make_cluster(enforce=False)
        wr = run_one(cluster, compute, remote,
                     read_wr(remote.storage.global_addr(0), 8))
        assert wr.status == WorkRequest.STATUS_OK

    def test_mixed_batch_faults_only_bad_wrs(self):
        cluster, compute, remote = make_cluster()
        region = remote.storage.alloc_region("data", 4096)
        good = read_wr(remote.storage.global_addr(region.base), 8)
        bad = read_wr(remote.storage.global_addr(0), 8)
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            yield from verbs.post_and_wait(thread, qp, [good, bad])

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert good.status == WorkRequest.STATUS_OK
        assert bad.status == WorkRequest.STATUS_ACCESS_ERROR
