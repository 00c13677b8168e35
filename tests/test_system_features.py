"""Tests for the SMART system configurations."""

from repro.bench.runner import SYSTEM_FEATURES


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
