"""Tests for consistent-hash sharding and the autoscaler."""

import pytest

from repro.memory.elastic import Autoscaler
from repro.memory.shard import HashRing, ShardMap, ShardMove, mix64, shard_of
from repro.sim import Simulator


class TestHashRing:
    def test_lookup_is_deterministic(self):
        a = HashRing(vnodes=16)
        b = HashRing(vnodes=16)
        for blade in (1, 2, 5):
            a.add_node(blade)
            b.add_node(blade)
        assert [a.lookup(mix64(k)) for k in range(100)] == [
            b.lookup(mix64(k)) for k in range(100)
        ]

    def test_adding_a_node_only_steals_keys(self):
        ring = HashRing(vnodes=32)
        for blade in (1, 2):
            ring.add_node(blade)
        before = {k: ring.lookup(mix64(k)) for k in range(1000)}
        ring.add_node(3)
        after = {k: ring.lookup(mix64(k)) for k in range(1000)}
        moved = {k for k in before if before[k] != after[k]}
        # Every remap lands on the new node; no key moves 1 <-> 2.
        assert moved
        assert all(after[k] == 3 for k in moved)

    def test_duplicate_member_and_bad_vnodes_rejected(self):
        ring = HashRing()
        ring.add_node(1)
        with pytest.raises(ValueError):
            ring.add_node(1)
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_empty_ring_lookup_rejected(self):
        with pytest.raises(ValueError):
            HashRing().lookup(0)


class TestShardMap:
    def test_shard_hash_independent_of_ring_hash(self):
        # Keys of one shard must not cluster on the ring: both blades
        # should own shards.
        shard_map = ShardMap([1, 2], num_shards=64)
        assert set(shard_map.placement.values()) == {1, 2}

    def test_shard_of_is_stable(self):
        assert shard_of(12345, 64) == mix64(12345 ^ 0x3C6EF372FE94F82A) % 64
        shard_map = ShardMap([1], num_shards=8)
        assert shard_map.blade_for_shard(shard_map.shard_of(42)) == 1

    def test_plan_add_moves_only_onto_new_blade(self):
        shard_map = ShardMap([1, 2], num_shards=64)
        moves = shard_map.plan_add(3)
        assert moves
        assert all(m.dst == 3 for m in moves)
        # Placement does NOT change until each move commits.
        assert all(shard_map.blade_for_shard(m.shard) == m.src for m in moves)
        for move in moves:
            shard_map.commit(move)
        assert all(shard_map.blade_for_shard(m.shard) == 3 for m in moves)

    def test_commit_validates_current_placement(self):
        shard_map = ShardMap([1, 2], num_shards=8)
        shard = 0
        wrong_src = 1 if shard_map.blade_for_shard(shard) != 1 else 2
        with pytest.raises(ValueError):
            shard_map.commit(ShardMove(shard, wrong_src, 1))

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardMap([1], num_shards=0)


class _FakeTenant:
    def __init__(self):
        self.shed = 0
        self.deferred = 0


class TestAutoscaler:
    def _build(self, sim, tenant, **kwargs):
        blades = [1, 2]
        log = []

        def scale_out():
            blades.append(max(blades) + 1)
            log.append(("out", sim.now))
            yield sim.timeout(10.0)

        scaler = Autoscaler(
            sim, [tenant],
            blade_count_fn=lambda: len(blades),
            scale_out_fn=scale_out,
            period_ns=100.0,
            shed_threshold=1,
            cooldown_periods=2,
            **kwargs,
        )
        return scaler, blades, log

    def test_scales_out_on_shed_pressure(self):
        sim = Simulator()
        tenant = _FakeTenant()
        scaler, blades, log = self._build(sim, tenant)
        sim.spawn(scaler.run())
        sim.run(until=50.0)  # let the loop start and take its baseline
        tenant.shed = 5  # pressure before the first sample
        sim.run(until=150.0)
        assert [(what, pytest.approx(at)) for what, at in log] == [("out", 100.0)]
        assert len(blades) == 3
        event = scaler.events[0]
        assert event.shed_delta == 5
        assert (event.blades_before, event.blades_after) == (2, 3)

    def test_cooldown_blocks_consecutive_scale_outs(self):
        sim = Simulator()
        tenant = _FakeTenant()
        scaler, blades, _ = self._build(sim, tenant)
        sim.spawn(scaler.run())
        sim.run(until=50.0)
        tenant.shed = 100
        sim.run(until=350.0)  # fresh pressure; cooldown gates samples 200/300
        assert len(scaler.events) == 1
        tenant.shed = 200  # keep shedding past the cooldown
        sim.run(until=450.0)  # sample at 400 sees the new delta -> second out
        assert len(scaler.events) == 2

    def test_quiet_fleet_is_left_alone(self):
        sim = Simulator()
        tenant = _FakeTenant()
        scaler, blades, log = self._build(sim, tenant)
        blades.append(3)  # over-provisioned: the policy only ever grows
        loop = sim.spawn(scaler.run())
        sim.run(until=1000.0)
        assert loop.alive
        assert log == [] and scaler.events == []
        assert len(blades) == 3

    def test_never_grows_past_max_blades(self):
        sim = Simulator()
        tenant = _FakeTenant()
        scaler, blades, _ = self._build(sim, tenant, max_blades=3)
        loop = sim.spawn(scaler.run())
        for step in range(1, 11):  # fresh shedding every period
            tenant.shed = 100 * step
            sim.run(until=100.0 * step + 50.0)
        assert loop.alive
        assert len(blades) == 3
        assert [(e.blades_before, e.blades_after) for e in scaler.events] == [(2, 3)]

    def test_stop_halts_the_loop(self):
        sim = Simulator()
        tenant = _FakeTenant()
        scaler, blades, log = self._build(sim, tenant)
        sim.spawn(scaler.run())
        sim.run(until=150.0)
        scaler.stop()
        tenant.shed = 100
        sim.run(until=2000.0)
        assert log == []

    def test_rejects_bad_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Autoscaler(sim, [], lambda: 1, lambda: iter(()), period_ns=0)
        with pytest.raises(ValueError):
            Autoscaler(sim, [], lambda: 1, lambda: iter(()), max_blades=0)
