"""The batch timeline law and the device observer seam.

A :class:`~repro.rnic.qp.WorkBatch` is stamped by every pipeline stage it
reaches; observers (``RnicDevice.observers``) are handed the batch itself.
These tests seat a recording observer — neither tracer nor sanitizer —
beside the other two and check, on every batch of small fixed-seed runs,
that the stamps are a monotone prefix of the pipeline and that the tracer
reports exactly the batches whose timeline is whole.
"""

import pytest

from repro.analysis.rdmasan import RdmaSanitizer
from repro.bench.microbench import run_microbench
from repro.bench.runner import run_btree, run_dtx, run_hashtable
from repro.cluster import Cluster
from repro.obs import Observability
from repro.obs.tracing import SEGMENTS, STAGES
from repro.rnic.device import BatchObserver
from repro.rnic.qp import WorkRequest

#: every stamp of a batch, in pipeline order
STAMPS = ("posted_at",) + tuple(STAGES.values())


class Witness(BatchObserver):
    """Keeps every batch it is told about."""

    def __init__(self):
        self.posted = []
        self.completed = []

    def on_post(self, thread, qp, batch):
        self.posted.append(batch)

    def on_complete(self, batch):
        self.completed.append(batch)


class WitnessedObs(Observability):
    """An ``Observability`` whose attachment also seats one
    :class:`Witness` on every device (so the runners, which build their
    cluster themselves, carry it in through ``obs=``)."""

    def __init__(self):
        super().__init__()
        self.witness = Witness()

    def attach_node(self, node):
        super().attach_node(node)
        if self.witness not in node.device.observers:
            node.device.observers += (self.witness,)


def check_timeline_law(obs):
    """Assert the law on every completed batch; returns the completion
    statuses seen."""
    witness = obs.witness
    assert witness.completed, "the run completed no batch"
    assert obs.recorder.dropped == 0
    reported = {span.args["batch"]: span for span in obs.recorder.spans("batch")}
    whole = set()
    statuses = set()
    for batch in witness.completed:
        stamps = [getattr(batch, stamp) for stamp in STAMPS]
        reached = [t for t in stamps if t is not None]
        # a stage never reached leaves None, and so does every later one
        # but the completion itself
        assert stamps[: len(reached) - 1] + [stamps[-1]] == reached, (batch.batch_id, stamps)
        assert reached == sorted(reached), (batch.batch_id, stamps)
        statuses.add(batch.status)
        if batch.ok:
            assert len(reached) == len(STAMPS), (batch.batch_id, stamps)
        if len(reached) == len(STAMPS):
            whole.add(batch.batch_id)
            span = reported[batch.batch_id]
            parts = sum(span.args[end] - span.args[start] for _, start, end in SEGMENTS)
            assert parts == batch.completed_at - batch.rung_at == span.dur
    # the tracer reports a batch iff every stage stamped it
    assert set(reported) == whole
    # posts and completions pair up: nothing completes unposted or twice
    posted = [batch.batch_id for batch in witness.posted]
    completed = [batch.batch_id for batch in witness.completed]
    assert len(set(completed)) == len(completed)
    assert set(completed) <= set(posted)
    return statuses


APP_KW = dict(threads=2, coroutines=2, item_count=2000,
              warmup_ns=1e5, measure_ns=2e5, seed=1)
MICRO_KW = dict(threads=4, depth=2, warmup_ns=0.1e6, measure_ns=0.2e6)

RUNS = {
    "microbench-raw": lambda obs: run_microbench(
        policy="per-thread-qp", obs=obs, **MICRO_KW),
    "microbench-smart": lambda obs: run_microbench(
        policy="smart", obs=obs, **MICRO_KW),
    "hashtable": lambda obs: run_hashtable(obs=obs, **APP_KW),
    "dtx": lambda obs: run_dtx(obs=obs, **APP_KW),
    "btree": lambda obs: run_btree(obs=obs, **APP_KW),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_timeline_law_holds_on_every_batch(name):
    obs = WitnessedObs()
    RUNS[name](obs)
    assert check_timeline_law(obs) == {WorkRequest.STATUS_OK}


def test_timeline_law_holds_under_loss():
    obs = WitnessedObs()
    result = run_microbench(
        policy="per-thread-qp", threads=4, depth=2,
        warmup_ns=0.1e6, measure_ns=0.4e6,
        faults="loss=0.9@0.1ms+0.3ms", fault_seed=3, obs=obs,
    )
    assert result.retransmissions > 0
    # at 90 % loss some batch exhausts its retries: it was issued, and
    # either never reached the responder or lost every ack
    statuses = check_timeline_law(obs)
    assert WorkRequest.STATUS_RETRY_EXCEEDED in statuses
    lost = [b for b in obs.witness.completed
            if b.status == WorkRequest.STATUS_RETRY_EXCEEDED]
    assert all(b.issued_at is not None for b in lost)
    assert any(b.remote_start_at is None for b in lost)
    # ... and leaves its QP in ERROR, where the driver flushes every later
    # post on the spot: rung in, never issued
    flushed = [b for b in obs.witness.completed
               if b.status == WorkRequest.STATUS_FLUSH]
    assert flushed
    assert all(b.rung_at == b.completed_at and b.issued_at is None for b in flushed)


def test_timeline_law_holds_across_a_blade_crash():
    obs = WitnessedObs()
    result = run_dtx(
        system="ford", threads=2, coroutines=2, item_count=2000,
        warmup_ns=1e5, measure_ns=6e5, seed=1,
        faults="crash=1@0.3ms+0.2ms", fault_seed=9, obs=obs,
    )
    assert result.crashes == 1
    assert WorkRequest.STATUS_REMOTE_ABORT in check_timeline_law(obs)
    for batch in obs.witness.completed:
        if batch.status == WorkRequest.STATUS_REMOTE_ABORT:
            assert batch.executed_at is None


# -- observers compose ---------------------------------------------------------


def _hashtable(obs=None, sanitize=False):
    return run_hashtable(obs=obs, sanitize=sanitize, **APP_KW)


def test_tracer_and_sanitizer_compose_in_either_order():
    """They were independent device fields; as members of one tuple their
    order could matter and must not."""
    tracer_alone = _hashtable(obs=Observability()).phase_breakdown
    sanitizer_alone = _hashtable(sanitize=True).sanitizer
    both = _hashtable(obs=Observability(), sanitize=True)
    assert both.phase_breakdown == tracer_alone
    assert both.sanitizer == sanitizer_alone
    assert sanitizer_alone["ops_checked"] > 1000

    class SanitizerFirst(Observability):
        """Seats RDMASan ahead of the tracer on every device."""

        def __init__(self):
            super().__init__()
            self.sanitizer = RdmaSanitizer()

        def attach_node(self, node):
            self.sanitizer.attach_node(node)
            super().attach_node(node)
            assert node.device.observers[0] is self.sanitizer

    obs = SanitizerFirst()
    swapped = _hashtable(obs=obs, sanitize=obs.sanitizer)
    assert swapped.phase_breakdown == tracer_alone
    assert swapped.sanitizer == sanitizer_alone


# -- attachment covers every node ----------------------------------------------


def test_attach_gives_every_node_its_own_tracer_and_the_sanitizer():
    """Attached once every node is added, each device gets a tracer of
    its own on its own track and the one sanitizer, which knows each
    blade's storage; attaching again changes nothing."""
    cluster = Cluster()
    nodes = cluster.add_nodes(3)
    obs = Observability().attach_cluster(cluster)
    sanitizer = RdmaSanitizer().attach_cluster(cluster)
    assert cluster.sim.recorder is obs.recorder
    tracers = [node.device.observers[0] for node in nodes]
    assert len({id(tracer) for tracer in tracers}) == len(nodes)
    assert [tracer.track for tracer in tracers] == [node.device.name for node in nodes]
    for node in nodes:
        assert node.device.observers[1] is sanitizer
        assert sanitizer._storages[node.node_id] is node.storage
    obs.attach_cluster(cluster)
    sanitizer.attach_cluster(cluster)
    assert [len(node.device.observers) for node in nodes] == [2, 2, 2]


class ClusterKeepingObs(WitnessedObs):
    """A ``WitnessedObs`` that keeps the cluster it was attached to."""

    def attach_cluster(self, cluster):
        self.cluster = cluster
        return super().attach_cluster(cluster)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_runner_instruments_after_its_last_node(name):
    """Attachment reaches only the nodes present, so each runner must add
    every blade before it instruments: at the end of the run each node it
    built carries the witness."""
    obs = ClusterKeepingObs()
    RUNS[name](obs)
    nodes = obs.cluster.nodes
    assert nodes
    assert all(obs.witness in node.device.observers for node in nodes)
