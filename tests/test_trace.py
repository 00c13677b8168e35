"""Tests for batch lifecycle tracing."""

import pytest

from repro.cluster import Cluster
from repro.obs.tracing import STAGES, SpanTracer as Tracer
from repro.rnic import verbs
from repro.rnic.policies import PerThreadQpPolicy
from repro.rnic.qp import read_wr


def traced_cluster(threads=2):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    (remote,) = cluster.add_nodes(1)
    PerThreadQpPolicy().connect(compute, [remote])
    compute.device.tracer = Tracer()
    return cluster, compute, remote


class TestTracerUnit:
    def test_rejects_bad_stage(self):
        with pytest.raises(ValueError):
            Tracer().record(1, "nope", 0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_eviction_beyond_capacity(self):
        tracer = Tracer(capacity=2)
        for batch_id in range(5):
            tracer.record(batch_id, "posted", batch_id)
        assert tracer.dropped == 3

    def test_tail_of_unknown_batch_ignored(self):
        tracer = Tracer()
        tracer.record(77, "completed", 5)
        assert tracer.complete_batches() == []

    def test_summary_none_when_empty(self):
        assert Tracer().summary() is None

    def test_eviction_drops_oldest_batch(self):
        tracer = Tracer(capacity=2)
        for batch_id in (1, 2, 3):
            for offset, stage in enumerate(STAGES):
                tracer.record(batch_id, stage, batch_id * 100 + offset)
        assert tracer.dropped == 1
        kept = [t["posted"] for t in tracer.complete_batches()]
        assert kept == [200, 300]

    def test_summary_exact_segment_math(self):
        tracer = Tracer()
        # Two batches with known per-segment gaps.
        for batch_id, base, step in ((1, 0, 10), (2, 1000, 30)):
            for offset, stage in enumerate(STAGES):
                tracer.record(batch_id, stage, base + offset * step)
        summary = tracer.summary()
        assert summary["batches"] == 2.0
        # Mean of 10 and 30 per segment; total = 4 segments.
        for segment in ("post_to_issue", "issue_to_remote",
                        "remote_queue_and_exec", "return_flight"):
            assert summary[segment] == 20.0
        assert summary["total"] == 80.0

    def test_incomplete_batches_excluded_from_summary(self):
        tracer = Tracer()
        for offset, stage in enumerate(STAGES):
            tracer.record(1, stage, offset * 10)
        tracer.record(2, "posted", 500)  # never completes
        summary = tracer.summary()
        assert summary["batches"] == 1.0
        assert len(tracer.complete_batches()) == 1

    def test_pre_tracer_batch_tail_stages_all_ignored(self):
        tracer = Tracer()
        # Every non-"posted" stage of an unknown batch is dropped.
        for stage in STAGES[1:]:
            tracer.record(9, stage, 100)
        assert tracer.complete_batches() == []
        assert 9 not in tracer._batches


class TestEndToEndTracing:
    def test_full_lifecycle_recorded(self):
        cluster, compute, remote = traced_cluster()
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])

        cluster.sim.spawn(proc())
        cluster.sim.run()
        complete = compute.device.tracer.complete_batches()
        assert len(complete) == 1
        timestamps = complete[0]
        ordered = [timestamps[s] for s in STAGES]
        assert ordered == sorted(ordered)

    def test_summary_segments_add_up(self):
        cluster, compute, remote = traced_cluster()

        def proc(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            for _ in range(10):
                yield from verbs.post_and_wait(
                    thread, qp, [read_wr(addr, 8) for _ in range(4)]
                )

        for thread in compute.threads:
            cluster.sim.spawn(proc(thread))
        cluster.sim.run()
        summary = compute.device.tracer.summary()
        assert summary["batches"] == 20
        parts = (
            summary["post_to_issue"]
            + summary["issue_to_remote"]
            + summary["remote_queue_and_exec"]
            + summary["return_flight"]
        )
        assert parts == pytest.approx(summary["total"], rel=1e-6)
        # Flight segments each carry one propagation delay.
        assert summary["issue_to_remote"] >= cluster.config.one_way_latency_ns
        assert summary["return_flight"] >= cluster.config.one_way_latency_ns

    def test_tracer_attached_mid_run_ignores_inflight_batches(self):
        cluster, compute, remote = traced_cluster(threads=1)
        compute.device.tracer = None
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            for _ in range(6):
                yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])

        cluster.sim.spawn(proc())
        # Run a slice, then attach: batches in flight at attach time have
        # no "posted" record, so their tail stages must be dropped.
        cluster.sim.run(until=2500)
        compute.device.tracer = Tracer()
        cluster.sim.run()
        complete = compute.device.tracer.complete_batches()
        assert 0 < len(complete) < 6
        for timestamps in complete:
            ordered = [timestamps[s] for s in STAGES]
            assert ordered == sorted(ordered)
