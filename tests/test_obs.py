"""Tests for the unified observability layer (repro.obs)."""

import json

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.microbench import run_microbench
from repro.cluster import Cluster
from repro.obs import Observability
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import LogHistogram
from repro.obs.tracing import (
    SEGMENT_LANES,
    SEGMENTS,
    STAGES,
    SpanTracer,
    TraceRecorder,
    merge_summaries,
)
from repro.obs.validate import main as validate_main, validate_chrome_trace
from repro.rnic import verbs
from repro.rnic.policies import connect
from repro.rnic.qp import read_wr
from tests.test_trace import stamped


class TestLogHistogram:
    def test_percentile_accuracy(self):
        hist = LogHistogram()
        for value in range(1, 10_001):
            hist.record(float(value))
        # Log-bucketed: within the documented ~2.2% relative error.
        assert hist.percentile(0.50) == pytest.approx(5000, rel=0.03)
        assert hist.percentile(0.99) == pytest.approx(9900, rel=0.03)
        assert hist.count == 10_000
        assert hist.min == 1.0 and hist.max == 10_000.0

    def test_extrema_not_quantized(self):
        hist = LogHistogram()
        hist.record(1000.0)
        assert hist.percentile(0.0) == 1000.0
        assert hist.percentile(1.0) == 1000.0

    def test_empty(self):
        assert LogHistogram().percentile(0.5) is None
        assert LogHistogram().mean == 0.0

    def test_merge_is_exact(self):
        a, b = LogHistogram(), LogHistogram()
        for v in (10.0, 20.0, 30.0):
            a.record(v)
        for v in (40.0, 50.0):
            b.record(v)
            b.record(v)
        a.merge(b)
        assert a.count == 7
        assert a.total == 60.0 + 180.0
        assert a.min == 10.0 and a.max == 50.0
        combined = LogHistogram()
        for v in (10.0, 20.0, 30.0, 40.0, 40.0, 50.0, 50.0):
            combined.record(v)
        assert a.buckets == combined.buckets

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            LogHistogram().record(-1.0)
        with pytest.raises(ValueError):
            LogHistogram().percentile(1.5)


class TestMetricsRegistry:
    """The metrics an Observability builds at collect time: name ->
    (value, unit) dicts and name -> LogHistogram, rendered by metrics()."""

    def test_write_json(self, tmp_path):
        obs = Observability()
        obs.counters["ops"] = (5.0, "1")
        obs.counters["a.first"] = (1.0, "")
        obs.gauges["depth"] = (8, "")
        obs.histograms["lat"] = LogHistogram()
        obs.histograms["lat"].record(100.0)
        obs.write(metrics_path=tmp_path / "out" / "metrics.json")
        data = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert data == obs.metrics()
        assert list(data["counters"]) == ["a.first", "ops"]
        assert data["counters"]["ops"] == {"value": 5.0, "unit": "1"}
        assert data["gauges"]["depth"]["value"] == 8
        assert data["histograms"]["lat"]["count"] == 1


class TestTraceRecorder:
    def test_span_and_instant(self):
        rec = TraceRecorder()
        rec.span("dev", "lane", "work", 100, 250, {"k": 1})
        rec.instant("dev", "lane", "blip", 300)
        assert len(rec) == 2
        (span,) = rec.spans("work")
        assert span.ts == 100 and span.dur == 150 and span.args == {"k": 1}
        (inst,) = rec.instants("blip")
        assert inst.ts == 300
        assert rec.tracks() == [("dev", "lane")]

    def test_negative_span_raises(self):
        with pytest.raises(ValueError):
            TraceRecorder().span("d", "l", "n", 100, 50)
        with pytest.raises(ValueError):
            TraceRecorder(0)

    def test_ring_eviction_counts_drops(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.instant("d", "l", "e", i)
        assert len(rec) == 3
        assert rec.dropped == 2
        # Oldest evicted first.
        assert [e.ts for e in rec.events()] == [2, 3, 4]


class TestSpanTracer:
    def test_emits_segments_and_batch_span(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, "rnic0")
        tracer.on_complete(stamped(7, base=100))
        for name, start_stage, end_stage in SEGMENTS:
            (span,) = rec.spans(name)
            assert span.track == "rnic0"
            assert span.lane == SEGMENT_LANES[name]
            assert span.dur == 10
            assert span.args["batch"] == 7
        (batch_span,) = rec.spans("batch")
        assert batch_span.dur == 40
        # Every stage timestamp rides in the batch span's args.
        for stage in STAGES:
            assert stage in batch_span.args

    def test_incomplete_batch_emits_nothing(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, "rnic0")
        # lost on the wire after issue: never reached the responder
        tracer.on_complete(stamped(1, remote_start_at=None, executed_at=None))
        # flushed on an ERROR QP: rung in, nothing else
        tracer.on_complete(stamped(99, issued_at=None, remote_start_at=None,
                                    executed_at=None))
        assert len(rec) == 0

    def test_keeps_base_tracer_behaviour(self):
        rec = TraceRecorder()
        tracer = SpanTracer(rec, "rnic0", capacity=2)
        for batch_id in range(4):
            tracer.on_complete(stamped(batch_id))
        assert tracer.dropped == 2
        summary = SpanTracer(rec, "y").summary()
        assert summary is None


class TestMergeSummaries:
    def test_batch_weighted_mean(self):
        a = {"batches": 1.0, "post_to_issue": 10.0, "issue_to_remote": 0.0,
             "remote_queue_and_exec": 0.0, "return_flight": 0.0, "total": 10.0}
        b = {"batches": 3.0, "post_to_issue": 30.0, "issue_to_remote": 0.0,
             "remote_queue_and_exec": 0.0, "return_flight": 0.0, "total": 30.0}
        merged = merge_summaries([a, b])
        assert merged["batches"] == 4.0
        assert merged["post_to_issue"] == pytest.approx(25.0)
        assert merged["total"] == pytest.approx(25.0)

    def test_skips_empty(self):
        assert merge_summaries([None, None]) is None


class TestChromeExport:
    def test_event_shape(self):
        rec = TraceRecorder()
        rec.span("dev", "lane", "work", 1000, 3000, {"k": 1})
        rec.instant("dev", "other", "blip", 2000)
        trace = chrome_trace(rec, metadata={"run": "t"})
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        span = next(e for e in events if e.get("ph") == "X")
        assert span["ts"] == 1.0 and span["dur"] == 2.0  # ns -> us
        inst = next(e for e in events if e.get("ph") == "i")
        assert inst["s"] == "t"
        names = [e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"]
        assert names == ["dev"]
        lanes = [e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "thread_name"]
        assert sorted(lanes) == ["lane", "other"]
        assert trace["otherData"]["run"] == "t"

    def test_write_and_validate_cli(self, tmp_path):
        rec = TraceRecorder()
        rec.span("dev", "lane", "work", 0, 10)
        rec.instant("dev", "lane", "blip", 5)
        path = write_chrome_trace(rec, tmp_path / "trace.json")
        assert validate_main([str(path), "--expect-spans", "work",
                              "--expect-instants", "blip"]) == 0
        assert validate_main([str(path), "--expect-spans", "missing"]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert validate_main([str(bad)]) == 1
        bad.write_text("not json")
        assert validate_main([str(bad)]) == 1

    def test_validator_catches_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "x"}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "?", "name": "n", "pid": 1, "tid": 1}]}
        ) != []
        assert validate_chrome_trace(
            {"traceEvents": [
                {"ph": "X", "name": "n", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
            ]}
        ) != []


def _traced_read_cluster(obs, threads=2, reads=5):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    (remote,) = cluster.add_nodes(1)
    connect(compute, [remote], "per-thread-qp")
    obs.attach_cluster(cluster)

    def proc(thread):
        qp = thread.qp_for(remote.node_id)
        addr = remote.storage.global_addr(0)
        for _ in range(reads):
            yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])

    for thread in compute.threads:
        cluster.sim.spawn(proc(thread))
    cluster.sim.run()
    return cluster


class TestObservability:
    def test_attach_traces_all_lifecycle_stages(self):
        obs = Observability()
        _traced_read_cluster(obs)
        span_names = {e.name for e in obs.recorder.spans()}
        for segment, _, _ in SEGMENTS:
            assert segment in span_names
        assert "batch" in span_names
        batch_span = obs.recorder.spans("batch")[0]
        for stage in STAGES:
            assert stage in batch_span.args

    def test_collect_cluster_metrics(self):
        obs = Observability()
        cluster = _traced_read_cluster(obs)
        obs.collect_cluster(cluster, window_ns=cluster.sim.now)
        data = obs.metrics()
        assert data["counters"]["rnic0.wqe_processed"]["value"] == 10.0
        assert data["counters"]["fabric.messages"]["value"] > 0
        assert data["counters"]["sim.events_executed"]["value"] > 0
        assert "rnic0.requester_utilization" in data["gauges"]

    def test_phase_and_breakdown(self, tmp_path):
        obs = Observability()
        cluster = _traced_read_cluster(obs)
        obs.phase("measure", 0, cluster.sim.now)
        breakdown = obs.phase_breakdown(cluster)
        assert breakdown["batches"] == 10.0
        parts = sum(breakdown[name] for name, _, _ in SEGMENTS)
        assert parts == pytest.approx(breakdown["total"], rel=1e-6)
        obs.write(trace_path=tmp_path / "t.json", metrics_path=tmp_path / "m.json")
        trace = json.loads((tmp_path / "t.json").read_text())
        assert validate_chrome_trace(trace, expect_spans=["measure", "batch"]) == []

    def test_existing_tracer_kept(self):
        cluster = Cluster()
        node = cluster.add_node()
        mine = SpanTracer()
        node.device.observers = (mine,)
        Observability().attach_cluster(cluster)
        assert node.device.observers == (mine,)


class TestBenchIntegration:
    POINT = dict(policy="per-thread-qp", threads=4, depth=2,
                 warmup_ns=0.1e6, measure_ns=0.2e6)

    def test_results_identical_with_and_without_obs(self):
        plain = run_microbench(**self.POINT)
        obs = Observability()
        traced = run_microbench(**self.POINT, obs=obs)
        assert traced.throughput_mops == plain.throughput_mops
        assert traced.measured_wrs == plain.measured_wrs
        assert traced.dram_bytes_per_wr == plain.dram_bytes_per_wr
        assert plain.phase_breakdown is None
        assert traced.phase_breakdown is not None
        assert len(obs.recorder) > 0

    def test_faulted_run_emits_instants(self):
        obs = Observability()
        run_microbench(
            policy="per-thread-qp", threads=4, depth=2,
            warmup_ns=0.1e6, measure_ns=0.4e6,
            faults="loss=0.2@0.1ms+0.3ms", fault_seed=3, obs=obs,
        )
        assert len(obs.recorder.instants("retransmit")) > 0
        assert len(obs.recorder.instants("message_dropped")) > 0

    def test_cli_writes_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = cli_main([
            "4", "2", "--policy", "per-thread-qp", "--measure-us", "200",
            "--trace", str(trace_path), "--metrics-out", str(metrics_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batch lifecycle breakdown" in out
        assert "post_to_issue" in out
        trace = json.loads(trace_path.read_text())
        expected = [name for name, _, _ in SEGMENTS] + ["batch"]
        assert validate_chrome_trace(trace, expect_spans=expected) == []
        metrics = json.loads(metrics_path.read_text())
        assert "rnic0.wqe_processed" in metrics["counters"]

    def test_cli_rejects_trace_with_figure(self, capsys):
        assert cli_main(["--figure", "fig3", "--trace", "t.json"]) == 2
