"""Tests for the SMART system configurations."""

import pytest

from repro.bench.runner import (
    APPS, BTreeApp, DtxApp, HashTableApp, RunArgumentError,
    run_btree, run_dtx, run_hashtable,
)
from repro.traffic import run_open_loop


class TestWrapperConfigurations:
    """The paper's refactors are configuration diffs; pin them down."""

    def test_ht_wrappers(self):
        race_features = HashTableApp.systems["race"]
        assert not race_features().thread_aware_alloc
        assert not race_features().backoff
        full = HashTableApp.systems["smart-ht"]()
        assert full.thread_aware_alloc and full.work_req_throttling and full.backoff

    def test_dtx_wrappers(self):
        assert not DtxApp.systems["ford"]().work_req_throttling
        assert DtxApp.systems["smart-dtx"]().coroutine_throttling

    def test_bt_wrappers(self):
        systems = BTreeApp.systems
        assert not systems["sherman"]().thread_aware_alloc
        assert systems["sherman-sl"]() == systems["sherman"]()
        assert systems["smart-bt"]().dynamic_backoff_limit

    def test_each_app_lists_its_baseline_first(self):
        assert {
            name: (list(app.systems), app.default_system)
            for name, app in APPS.items()
        } == {
            "hashtable": (["race", "smart-ht"], "smart-ht"),
            "dtx": (["ford", "smart-dtx"], "smart-dtx"),
            "btree": (["sherman", "sherman-sl", "smart-bt"], "smart-bt"),
        }

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


class TestSystemFromAnotherApp:
    """A system an app does not list is refused by name, before the
    cluster is built: no point carries a system it did not deploy."""

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("a deployment was built")

        monkeypatch.setattr("repro.bench.runner.build_deployment", build)

    @pytest.mark.parametrize("run,kwargs,systems", [
        (run_hashtable, {"system": "smart-dtx"}, "['race', 'smart-ht']"),
        (run_dtx, {"system": "race"}, "['ford', 'smart-dtx']"),
        (run_btree, {"system": "smart-ht"}, "['sherman', 'sherman-sl', 'smart-bt']"),
        (run_open_loop, {"app": "btree", "system": "ford"},
         "['sherman', 'sherman-sl', 'smart-bt']"),
    ], ids=["hashtable", "dtx", "btree", "open-loop"])
    def test_refused_by_name(self, run, kwargs, systems):
        with pytest.raises(RunArgumentError, match="system must be one of") as error:
            run(**kwargs)
        assert systems in str(error.value)

    def test_unknown_app_is_refused_by_name(self):
        with pytest.raises(RunArgumentError, match="app must be one of"):
            run_open_loop(app="graph")
