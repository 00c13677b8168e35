"""Tests for the benchmark harness: report tables, microbench tool,
experiment runners and the common apps helper."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import RemoteAllocator
from repro.bench.microbench import (
    OPS,
    MicrobenchResult,
    _make_wrs,
    run_dynamic_microbench,
    run_microbench,
)
from repro.bench.report import format_table, ratio, result_slug
from repro.bench.runner import (
    RunArgumentError,
    bench_features,
    build_deployment,
    run_btree,
    run_dtx,
    run_hashtable,
)
from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import baseline, full
from repro.rnic.config import RnicConfig
from repro.traffic import run_open_loop
from repro.workloads.ycsb import READ_ONLY, WRITE_HEAVY


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "4.25" in lines[-1]

    def test_ratio_handles_zero(self):
        assert ratio(10, 2) == 5.0
        assert ratio(10, 0) == 0.0

    def test_result_slug_basic(self):
        assert result_slug("Figure 3 (read): IOPS") == "figure-3-read-iops"

    def test_result_slug_never_empty(self):
        """Regression: names with no alphanumerics used to slug to "",
        producing hidden artifact files like ".txt"."""
        assert result_slug("") == "experiment"
        assert result_slug("!!! ???") == "experiment"
        assert result_slug("---") == "experiment"


class TestMicrobench:
    def test_result_str_mentions_iops(self):
        result = MicrobenchResult("smart", 8, 8, 8, "read", 12.5, 93.0)
        assert "IOPS=12.5" in str(result)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_microbench(policy="bogus", threads=1)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            run_microbench(policy="per-thread-db", threads=1, op="cas")

    @pytest.mark.parametrize("bad, match", [
        (dict(op="cas"), "op must be one of"),
    ])
    def test_bad_op_or_access_rejected_before_the_cluster_is_built(
        self, monkeypatch, bad, match
    ):
        import repro.bench.microbench as microbench

        def no_cluster(*args, **kwargs):
            raise AssertionError("the cluster was built")

        monkeypatch.setattr(microbench, "Cluster", no_cluster)
        with pytest.raises(RunArgumentError, match=match):
            run_microbench(policy="per-thread-db", threads=1, **bad)

    @pytest.mark.parametrize("policy", ["smart", "per-thread-qp"])
    def test_empty_batches_rejected_before_the_run(self, policy):
        """A SMART worker with no WR to post never yields, so ``depth=0``
        would spin forever inside one generator step."""
        with pytest.raises(ValueError, match="depth"):
            run_microbench(policy=policy, threads=1, depth=0)

    #: a blade stand-in: _make_wrs only asks it for the region's address
    BLADE = types.SimpleNamespace(global_addr=lambda offset: (3 << 48) | offset)

    @given(
        seed=st.integers(0, 2**64 - 1),
        depth=st.integers(1, 16),
        slots=st.one_of(
            st.integers(1, 10_000),
            # exact powers of two and their neighbours: at slots = 2^j the
            # draw takes j + 1 bits and is redrawn about half the time
            st.builds(lambda e, d: max(1, (1 << e) + d),
                      st.integers(0, 30), st.sampled_from((-1, 0, 1))),
        ),
        payload=st.sampled_from((1, 8, 64, 1024)),
        slack=st.integers(0, 7),
        op=st.sampled_from(OPS),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_batch_draws_exactly_what_randrange_draws(
        self, seed, depth, slots, payload, slack, op
    ):
        """The inlined draw is ``rng.randrange(slots)``: same addresses,
        and the generator left in the same state."""
        stride = max(payload, 8)
        region_base = 4096
        region_size = slots * stride + slack  # a partial slot is never drawn
        reference = random.Random(seed)
        base = self.BLADE.global_addr(region_base)
        expected = [base + reference.randrange(slots) * stride for _ in range(depth)]
        rng = random.Random(seed)
        wrs = _make_wrs(op, payload, depth, region_base, region_size, rng, self.BLADE)
        assert [wr.remote_addr for wr in wrs] == expected
        assert rng.getstate() == reference.getstate()

    def test_a_region_with_no_slot_is_an_empty_range(self):
        with pytest.raises(ValueError, match="empty range"):
            random.Random(0).randrange(0)
        with pytest.raises(ValueError, match="empty range"):
            _make_wrs("read", 64, 4, 0, 63, random.Random(0), self.BLADE)

    def test_small_run_reports_throughput(self):
        result = run_microbench(
            policy="per-thread-db", threads=4, depth=8,
            warmup_ns=0.1e6, measure_ns=0.4e6,
        )
        assert result.throughput_mops > 1.0
        assert result.measured_wrs > 100
        assert result.dram_bytes_per_wr == pytest.approx(93.0)

    def test_latency_sampling(self):
        result = run_microbench(
            policy="per-thread-db", threads=2, depth=4,
            warmup_ns=0.1e6, measure_ns=0.4e6, latency_samples=True,
        )
        assert result.batch_latency_p50_ns is not None
        assert result.batch_latency_p99_ns >= result.batch_latency_p50_ns
        # A batch takes at least one RTT.
        assert result.batch_latency_p50_ns >= 2000

    def test_write_op_supported(self):
        result = run_microbench(
            policy="per-thread-db", threads=2, depth=4, op="write",
            warmup_ns=0.1e6, measure_ns=0.3e6,
        )
        assert result.throughput_mops > 0


class TestBenchFeatures:
    def test_scales_epochs_for_full(self):
        scaled = bench_features(full())
        assert scaled.update_delta_ns < full().update_delta_ns
        assert scaled.retry_window_ns < full().retry_window_ns

    def test_baseline_untouched(self):
        assert bench_features(baseline()) == baseline()


class TestBuildDeployment:
    def test_topology(self):
        deployment = build_deployment(full(), threads=4, compute_blades=2,
                                      memory_blades=3)
        assert len(deployment.compute_nodes) == 2
        assert len(deployment.memory_nodes) == 3
        assert len(deployment.smart_threads) == 8
        # Every thread is connected to every memory node.
        for thread in deployment.compute_nodes[0].threads:
            assert len(thread.qps) == 3


class TestRunners:
    """Tiny end-to-end runs: the point is wiring, not shapes."""

    def test_run_hashtable_returns_sane_result(self):
        result = run_hashtable(
            "smart-ht", WRITE_HEAVY, threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 10
        assert result.throughput_mops > 0
        assert result.p50_latency_ns > 0
        assert result.system == "smart-ht"

    def test_small_tables_get_a_segment_per_blade(self):
        """A table small enough for one segment crashed on two blades."""
        closed = run_hashtable(
            "smart-ht", READ_ONLY, threads=1, coroutines=2,
            item_count=1_000, warmup_ns=0.05e6, measure_ns=0.1e6,
        )
        assert closed.ops > 0
        open_loop = run_open_loop(
            app="hashtable", rate_mops=0.5, threads=1, workers=2,
            item_count=1_000, warmup_ns=0.05e6, measure_ns=0.1e6,
        )
        assert open_loop.completed > 0

    @pytest.mark.parametrize("runner,bad,name", [
        (lambda **kw: run_hashtable(item_count=1_000, **kw),
         {"measure_ns": -1e5}, "measure_ns"),
        (lambda **kw: run_hashtable(item_count=1_000, **kw),
         {"measure_ns": 0}, "measure_ns"),
        (lambda **kw: run_hashtable(item_count=1_000, **kw),
         {"warmup_ns": -1.0}, "warmup_ns"),
        (lambda **kw: run_hashtable(item_count=1_000, **kw),
         {"coroutines": 0}, "coroutines"),
        (lambda **kw: run_microbench(threads=1, **kw),
         {"memory_nodes": 0}, "memory_nodes"),
        (lambda **kw: run_open_loop(item_count=1_000, **kw),
         {"measure_ns": 0}, "measure_ns"),
        (lambda **kw: run_open_loop(app="btree", item_count=1_000, **kw),
         {"servers": 0}, "servers"),
        (lambda **kw: run_open_loop(item_count=1_000, **kw),
         {"rate_mops": 0}, "rate_mops"),
        (lambda **kw: run_open_loop(item_count=1_000, **kw),
         {"workers": 0}, "workers"),
    ], ids=["negative-window", "empty-window", "negative-warmup",
            "no-coroutines", "no-blades", "open-loop", "open-loop-no-servers",
            "open-loop-no-rate", "open-loop-no-workers"])
    def test_bad_windows_fail_before_the_build(self, runner, bad, name,
                                               monkeypatch):
        import repro.bench.runner as runner_module

        def no_build(*args, **kwargs):
            raise AssertionError("the cluster was built")

        monkeypatch.setattr(runner_module, "deploy_app", no_build)
        monkeypatch.setattr("repro.bench.microbench.Cluster", no_build)
        with pytest.raises(RunArgumentError, match=f"^{name} must be"):
            runner(**bad)

    def test_run_hashtable_race_baseline(self):
        result = run_hashtable(
            "race", READ_ONLY, threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 10

    def test_run_dtx_smallbank(self):
        result = run_dtx(
            "smart-dtx", "smallbank", threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 5

    def test_run_dtx_tatp(self):
        result = run_dtx(
            "ford", "tatp", threads=2, coroutines=2,
            item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
        )
        assert result.ops > 5

    def test_run_dtx_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError):
            run_dtx("ford", "tpcc", threads=1, item_count=100)

    def test_run_btree_all_systems(self):
        for system in ("sherman", "sherman-sl", "smart-bt"):
            result = run_btree(
                system, READ_ONLY, threads=2, coroutines=2,
                item_count=2_000, warmup_ns=0.3e6, measure_ns=0.7e6,
            )
            assert result.ops > 10, system


#: One tiny point of every runner a ``CLAIMS`` key sweeps (fig3/4/13,
#: fig5/7/8/9/14, fig10/11, fig12, table1, latency_throughput).
_CLAIMS_RUNNERS = {
    "run_microbench": lambda **kw: run_microbench(
        policy="per-thread-db", threads=2, depth=4, warmup_ns=0.05e6,
        measure_ns=0.1e6, **kw),
    "run_hashtable": lambda **kw: run_hashtable(
        "race", READ_ONLY, threads=1, coroutines=2, item_count=2_000,
        warmup_ns=0.05e6, measure_ns=0.1e6, **kw),
    "run_dtx": lambda **kw: run_dtx(
        "ford", "smallbank", threads=1, coroutines=2, item_count=2_000,
        warmup_ns=0.05e6, measure_ns=0.1e6, **kw),
    "run_btree": lambda **kw: run_btree(
        "sherman", READ_ONLY, threads=1, coroutines=2, item_count=2_000,
        warmup_ns=0.05e6, measure_ns=0.1e6, **kw),
    "run_dynamic_microbench": lambda **kw: run_dynamic_microbench(
        changing_interval_ns=0.1e6, throttled=False,
        features=bench_features(baseline().with_overrides(thread_aware_alloc=True)),
        total_ns=1.0e6, **kw),
    "run_open_loop": lambda **kw: run_open_loop(
        app="hashtable", system="race", rate_mops=0.5, threads=1, workers=2,
        item_count=2_000, warmup_ns=0.05e6, measure_ns=0.1e6, **kw),
}


@pytest.mark.parametrize("runner", sorted(_CLAIMS_RUNNERS))
def test_claims_runners_honour_config(runner):
    """``config=`` reaches the simulated RNIC of every runner behind a
    claim: the sensitivity sweep of the model's constants relies on it."""
    point = _CLAIMS_RUNNERS[runner]
    default = dataclasses.asdict(point())
    slower_wire = dataclasses.asdict(
        point(config=RnicConfig(one_way_latency_ns=2000.0)))
    assert slower_wire != default


class TestRemoteAllocator:
    def _setup(self):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(1)
        (remote,) = cluster.add_nodes(1)
        head = remote.storage.alloc_region("head", 8)
        heap = remote.storage.alloc_region("heap", 1 << 16)
        remote.storage.write_u64(head.base, heap.base)
        SmartContext(compute, [remote], full())
        smart = SmartThread(compute.threads[0], full())
        allocator = RemoteAllocator(
            smart.handle(), remote.node_id,
            remote.storage.global_addr(head.base), heap.base, heap.end,
            chunk_bytes=256,
        )
        return cluster, allocator, remote, heap

    def test_allocations_unique_and_aligned(self):
        cluster, allocator, _, heap = self._setup()
        offsets = []

        def proc():
            for _ in range(40):
                offsets.append((yield from allocator.alloc(24)))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e8)
        assert len(offsets) == 40
        assert len(set(offsets)) == 40
        assert all(o % 8 == 0 for o in offsets)
        assert all(heap.base <= o < heap.end for o in offsets)

    def test_oversized_alloc_rejected(self):
        cluster, allocator, _, _ = self._setup()

        def proc():
            yield from allocator.alloc(512)

        proc_handle = cluster.sim.spawn(proc())
        with pytest.raises(ValueError):
            cluster.sim.run(until=1e8)

    def test_alloc_large_bypasses_chunking(self):
        cluster, allocator, _, heap = self._setup()
        out = []

        def proc():
            out.append((yield from allocator.alloc_large(4096)))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e8)
        assert heap.base <= out[0] < heap.end

    def test_exhaustion_raises(self):
        cluster, allocator, _, _ = self._setup()

        def proc():
            while True:
                yield from allocator.alloc_large(16384)

        cluster.sim.spawn(proc())
        with pytest.raises(MemoryError):
            cluster.sim.run(until=1e9)
