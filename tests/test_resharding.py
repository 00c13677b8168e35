"""Tests for online shard migration under live traffic."""

import hashlib
import json

import pytest

from repro.apps.sharded import (
    ShardMigrator,
    ShardedHashTableClient,
    ShardedHashTableService,
)
from repro.bench.runner import HashTableApp, build_deployment
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.resharding import MODES, PHASES, run_resharding
from repro.traffic.tenant import Slo, TenantSpec


class TestMigrationIntegrity:
    def test_no_keys_lost_under_concurrent_writes(self):
        """Migrate every shard onto a new blade while a writer mutates the
        table; afterwards every key must read back its latest value."""
        features = HashTableApp.systems["smart-ht"]()
        deployment = build_deployment(features, 2, 1, 2, None, seed=0)
        cluster = deployment.cluster
        sim = cluster.sim

        service = ShardedHashTableService(deployment.memory_nodes, num_shards=16)
        expected = {k: k * 10 for k in range(300)}
        service.bulk_load(expected.items())

        migrator = ShardMigrator(
            service, deployment.smart_threads[0].handle(), sim, grace_ns=10_000.0
        )
        writer = ShardedHashTableClient(
            service, deployment.smart_threads[1].handle()
        )

        def mutate():
            for k in range(200):
                yield from writer.update(k, k * 10 + 1)
                expected[k] = k * 10 + 1

        def migration():
            node = cluster.add_node()
            for compute in deployment.compute_nodes:
                compute.smart_context.connect_node(node)
            moves = service.add_blade(node)
            assert moves, "the new blade must steal at least one shard"
            yield from migrator.migrate_all(moves)

        writes = sim.spawn(mutate())
        moved = sim.spawn(migration())
        sim.run(until=5e9)
        assert not writes.alive and not moved.alive

        reader = ShardedHashTableClient(
            service, deployment.smart_threads[0].handle()
        )

        def verify():
            for k, want in sorted(expected.items()):
                got = yield from reader.search(k)
                assert got == want, f"key {k}: got {got}, want {want}"

        check = sim.spawn(verify())
        sim.run(until=1e10)
        assert not check.alive
        assert migrator.keys_copied > 0
        assert service.bytes_freed > 0  # source regions went back to allocators


@pytest.fixture(scope="module")
def add_blade_result():
    return run_resharding(mode="add_blade", item_count=1000, seed=3)


@pytest.fixture(scope="module")
def autoscale_result():
    slo = Slo(target_p99_ns=20_000.0, policy="shed")
    spec = TenantSpec("t0", PoissonArrivals(1.2), slo=slo, workers=4)
    return run_resharding(mode="autoscale", tenants=[spec], seed=0)


def _digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class TestPhases:
    def test_three_phases_per_tenant_with_traffic(self, add_blade_result):
        result = add_blade_result
        table = result.phase_table()
        assert set(table) == set(PHASES)
        for phase in PHASES:
            assert len(table[phase]) == 1  # one tenant
            assert table[phase][0].completed > 0
            assert table[phase][0].queue_p99_ns is not None

    def test_add_blade_grows_the_ring(self, add_blade_result):
        result = add_blade_result
        assert (result.blades_before, result.blades_after) == (2, 3)
        assert result.moves
        new_blade = max(dst for _, _, dst in result.moves)
        assert all(dst == new_blade for _, _, dst in result.moves)

    def test_migration_completes_under_live_traffic(self, add_blade_result):
        result = add_blade_result
        assert result.migration_ns is not None
        assert result.migration_ns > 0
        # The during window stretched (or not) to cover the migration.
        assert result.during_ns >= result.phase_ns
        assert result.keys_copied > 0
        assert result.bytes_freed > 0

    def test_allocation_latency_metric_recorded(self, add_blade_result):
        result = add_blade_result
        assert result.alloc_count > 0
        assert result.alloc_p50_ns is not None
        assert result.alloc_p99_ns >= result.alloc_p50_ns
        # Every memory blade reports allocator stats, new one included.
        assert len(result.allocator_stats) == 3
        assert all("fragmentation" in s for s in result.allocator_stats.values())

    def test_unfinished_migration_is_reported_as_unfinished(self):
        """The during window caps at 8 extra phases: a migration still
        running then has a start and no end, and the sweep's note says
        so instead of "no migration triggered"."""
        from repro.bench.experiments import resharding

        table = resharding(modes=("add_blade",), workers=2, threads=2,
                           item_count=4000, phase_ns=0.05e6, jobs=1)
        assert table.observations == [
            "add_blade: 2 shard move(s), 0 keys copied, 0 KiB freed, "
            "migration started at 2050 us and did not finish within the "
            "450 us during window"
        ]

    def test_rejects_unknown_mode(self):
        for mode in ("explode", "drain"):
            with pytest.raises(ValueError, match="mode"):
                run_resharding(mode=mode)
        assert set(MODES) == {"add_blade", "autoscale"}


class TestReplay:
    def test_fixed_seed_replays_bit_identically(self):
        kwargs = dict(mode="add_blade", item_count=1000, seed=3)
        first = json.dumps(run_resharding(**kwargs).to_dict(), sort_keys=True)
        again = json.dumps(run_resharding(**kwargs).to_dict(), sort_keys=True)
        assert first == again

    def test_seed_changes_the_run(self, add_blade_result):
        other = run_resharding(mode="add_blade", item_count=1000, seed=4)
        a = json.dumps(add_blade_result.to_dict(), sort_keys=True)
        b = json.dumps(other.to_dict(), sort_keys=True)
        assert a != b

    def test_same_run_as_before_the_app_adapter(self, add_blade_result,
                                                 autoscale_result):
        """Digests of the whole result, recorded with the runner that
        built its service and executors by hand, slab allocator and
        leases included (minus the two columns that went with them and
        were constant: the slab stats, all zero, and the scale events'
        action, always "scale_out")."""
        assert _digest(add_blade_result) == (
            "647118c65aa1a8d39bc87e5fb6e999d2ad9158ba2ec5976d7fd35672bb996743")
        assert _digest(autoscale_result) == (
            "3f7cb25c7383e55d13c8ecb27a0b5bf540c1e78e40d298f8838889d60f7625d8")


class TestAutoscale:
    def test_shed_pressure_triggers_scale_out(self, autoscale_result):
        result = autoscale_result
        assert result.scale_events
        at_ns, before, after = result.scale_events[0]
        assert (before, after) == (2, 3)
        assert result.migration_ns is not None
        assert result.blades_after == 3
