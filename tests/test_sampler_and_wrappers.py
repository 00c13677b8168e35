"""Tests for the counter sampler and the SMART system configurations."""

import pytest

from repro.bench.runner import SYSTEM_FEATURES
from repro.bench.sampler import CounterSampler
from repro.cluster import Cluster
from repro.rnic import verbs
from repro.rnic.policies import PerThreadQpPolicy
from repro.rnic.qp import read_wr


class TestCounterSampler:
    def _cluster(self):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(2)
        (remote,) = cluster.add_nodes(1)
        PerThreadQpPolicy().connect(compute, [remote])
        return cluster, compute, remote

    def test_samples_track_throughput(self):
        cluster, compute, remote = self._cluster()

        def worker(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            while True:
                yield from verbs.post_and_wait(
                    thread, qp, [read_wr(addr, 8) for _ in range(8)]
                )

        for thread in compute.threads:
            cluster.sim.spawn(worker(thread))
        sampler = CounterSampler(cluster.sim, compute.device, period_ns=0.1e6)
        cluster.sim.run(until=1.0e6)
        sampler.stop()
        assert len(sampler.samples) == 10
        assert sampler.mean_mops() > 1.0
        assert all(m >= 0 for m in sampler.throughputs())

    def test_idle_device_samples_zero(self):
        cluster, compute, _ = self._cluster()
        sampler = CounterSampler(cluster.sim, compute.device, period_ns=0.1e6)
        cluster.sim.run(until=0.5e6)
        sampler.stop()
        assert sampler.mean_mops() == 0.0

    def test_no_samples_returns_none(self):
        cluster, compute, _ = self._cluster()
        sampler = CounterSampler(cluster.sim, compute.device, period_ns=1e6)
        assert sampler.mean_mops() is None

    def test_rejects_bad_period(self):
        cluster, compute, _ = self._cluster()
        with pytest.raises(ValueError):
            CounterSampler(cluster.sim, compute.device, period_ns=0)


class TestWrapperConfigurations:
    """The paper's refactors are configuration diffs; pin them down."""

    def test_ht_wrappers(self):
        race_features = SYSTEM_FEATURES["race"]
        assert not race_features().thread_aware_alloc
        assert not race_features().backoff
        full = SYSTEM_FEATURES["smart-ht"]()
        assert full.thread_aware_alloc and full.work_req_throttling and full.backoff

    def test_dtx_wrappers(self):
        assert not SYSTEM_FEATURES["ford"]().work_req_throttling
        assert SYSTEM_FEATURES["smart-dtx"]().coroutine_throttling

    def test_bt_wrappers(self):
        assert not SYSTEM_FEATURES["sherman"]().thread_aware_alloc
        assert SYSTEM_FEATURES["sherman-sl"]() == SYSTEM_FEATURES["sherman"]()
        assert SYSTEM_FEATURES["smart-bt"]().dynamic_backoff_limit

    def test_smart_systems_run_the_shared_clients(self):
        """A SMART refactor is its baseline's client class on other
        features: one adapter serves both systems of an app."""
        from repro.apps.ford.txn import TxnClient
        from repro.apps.race.client import HashTableClient
        from repro.apps.sherman.client import BTreeClient
        from repro.bench.runner import BTreeApp, DtxApp, HashTableApp, deploy_app

        for app, baseline, client_class in (
            (HashTableApp(2_000), "race", HashTableClient),
            (DtxApp(2_000), "ford", TxnClient),
            (BTreeApp(2_000), "sherman", BTreeClient),
        ):
            for system in (baseline, app.default_system):
                deployment = deploy_app(app, system, 1, 1, 2, None, None, 0)
                client = app.make_client(deployment.smart_threads[0])
                assert type(client) is client_class
