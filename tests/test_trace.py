"""Tests for batch lifecycle tracing."""

from types import SimpleNamespace

import pytest

from repro.cluster import Cluster
from repro.obs.tracing import STAGES, SpanTracer as Tracer
from repro.rnic import verbs
from repro.rnic.policies import connect
from repro.rnic.qp import read_wr


def traced_cluster(threads=2):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    (remote,) = cluster.add_nodes(1)
    connect(compute, [remote], "per-thread-qp")
    tracer = Tracer()
    compute.device.observers = (tracer,)
    return cluster, compute, remote, tracer


def stamped(batch_id, base=0, step=10, **stamps):
    """A completed batch as the tracer sees it: an id and the five stamps
    (``base + k * step`` for stage ``k`` unless given)."""
    fields = {stamp: base + k * step for k, stamp in enumerate(STAGES.values())}
    fields.update(stamps)
    return SimpleNamespace(batch_id=batch_id, **fields)


class TestTracerUnit:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_eviction_beyond_capacity(self):
        tracer = Tracer(capacity=2)
        for batch_id in range(5):
            tracer.on_complete(stamped(batch_id))
        assert tracer.dropped == 3

    def test_batch_missing_a_stage_ignored(self):
        # flushed / aborted / bounced / lost: the stage never stamped it
        tracer = Tracer(capacity=1)
        for stamp in list(STAGES.values())[:-1]:
            tracer.on_complete(stamped(77, **{stamp: None}))
        assert tracer.complete_batches() == []
        assert tracer.dropped == 0

    def test_summary_none_when_empty(self):
        assert Tracer().summary() is None

    def test_eviction_drops_oldest_batch(self):
        tracer = Tracer(capacity=2)
        for batch_id in (1, 2, 3):
            tracer.on_complete(stamped(batch_id, base=batch_id * 100, step=1))
        assert tracer.dropped == 1
        kept = [t["posted"] for t in tracer.complete_batches()]
        assert kept == [200, 300]

    def test_summary_exact_segment_math(self):
        tracer = Tracer()
        # Two batches with known per-segment gaps.
        for batch_id, base, step in ((1, 0, 10), (2, 1000, 30)):
            tracer.on_complete(stamped(batch_id, base, step))
        summary = tracer.summary()
        assert summary["batches"] == 2.0
        # Mean of 10 and 30 per segment; total = 4 segments.
        for segment in ("post_to_issue", "issue_to_remote",
                        "remote_queue_and_exec", "return_flight"):
            assert summary[segment] == 20.0
        assert summary["total"] == 80.0

    def test_incomplete_batches_excluded_from_summary(self):
        tracer = Tracer()
        tracer.on_complete(stamped(1))
        tracer.on_complete(stamped(2, base=500, executed_at=None))
        summary = tracer.summary()
        assert summary["batches"] == 1.0
        assert len(tracer.complete_batches()) == 1

    def test_issue_instant_is_rounded_not_truncated(self):
        # the requester's finish is the one float stamp
        tracer = Tracer()
        tracer.on_complete(stamped(1, issued_at=10.6))
        assert tracer.complete_batches()[0]["issued"] == 11


class TestEndToEndTracing:
    def test_full_lifecycle_recorded(self):
        cluster, compute, remote, tracer = traced_cluster()
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])

        cluster.sim.spawn(proc())
        cluster.sim.run()
        complete = tracer.complete_batches()
        assert len(complete) == 1
        timestamps = complete[0]
        ordered = [timestamps[s] for s in STAGES]
        assert ordered == sorted(ordered)

    def test_summary_segments_add_up(self):
        cluster, compute, remote, tracer = traced_cluster()

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
        summary = tracer.summary()
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

    def test_tracer_attached_mid_run_reports_inflight_batches(self):
        cluster, compute, remote, _ = traced_cluster(threads=1)
        compute.device.observers = ()
        thread = compute.threads[0]
        batches = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            for _ in range(6):
                batches.append((yield from verbs.post_send(thread, qp, [read_wr(addr, 8)])))
                yield from verbs.wait_completion(thread, batches[-1])

        cluster.sim.spawn(proc())
        # Run a slice, then attach: the batch in flight at attach time
        # carries its own earlier stamps, so its timeline is whole.
        cluster.sim.run(until=2500)
        (inflight,) = [b for b in batches if b.completed_at is None]
        assert inflight.rung_at is not None
        tracer = Tracer()
        compute.device.observers = (tracer,)
        cluster.sim.run()
        complete = tracer.complete_batches()
        assert [t["posted"] for t in complete] == [
            b.rung_at for b in batches if b.completed_at > 2500
        ]
        assert complete[0]["posted"] == inflight.rung_at < 2500
        assert 0 < len(complete) < 6
        for timestamps in complete:
            ordered = [timestamps[s] for s in STAGES]
            assert ordered == sorted(ordered)
