"""End-to-end tests of the RDMA data path (post -> remote exec -> CQE)."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.rnic import verbs
from repro.rnic.policies import POLICIES, connect
from repro.rnic.qp import (
    WorkBatch, WorkRequest, cas_wr, faa_wr, read_wr, write_wr,
)


def make_cluster(threads=2, memory_nodes=1, policy="per-thread-qp"):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    remotes = cluster.add_nodes(memory_nodes)
    connect(compute, remotes, policy)
    return cluster, compute, remotes


_STATUSES = sorted(
    value for name, value in vars(WorkRequest).items() if name.startswith("STATUS_")
)


#: every field of a WorkRequest, with the value a factory leaves in it
#: when its verb does not use the field
_WR_DEFAULTS = dict(
    opcode=None, remote_addr=None, size=None, payload=None, compare=0,
    swap=0, delta=0, wr_id=None, result=None, status=WorkRequest.STATUS_OK,
)

_u64 = st.integers(0, (1 << 64) - 1)
_wr_ids = st.one_of(st.none(), st.integers(), st.tuples(st.just("batch"), st.integers(1, 64)))


def _fields(wr):
    return {name: getattr(wr, name) for name in _WR_DEFAULTS}


class TestFactories:
    """Each verb factory builds its WorkRequest directly: all ten
    fields are pinned against a reference table, so no factory can drift
    from the others' defaults."""

    def test_the_reference_table_names_every_field(self):
        assert set(WorkRequest.__slots__) == set(_WR_DEFAULTS)

    def test_there_is_no_generic_constructor(self):
        with pytest.raises(TypeError):
            WorkRequest("read", 0, size=8)

    @given(addr=_u64, size=st.integers(1, 1 << 20), wr_id=_wr_ids)
    @settings(max_examples=50, deadline=None)
    def test_read_wr(self, addr, size, wr_id):
        assert _fields(read_wr(addr, size, wr_id)) == dict(
            _WR_DEFAULTS, opcode="read", remote_addr=addr, size=size, wr_id=wr_id)

    @given(addr=_u64, payload=st.binary(min_size=1, max_size=256), wr_id=_wr_ids)
    @settings(max_examples=50, deadline=None)
    def test_write_wr(self, addr, payload, wr_id):
        assert _fields(write_wr(addr, payload, wr_id)) == dict(
            _WR_DEFAULTS, opcode="write", remote_addr=addr, size=len(payload),
            payload=payload, wr_id=wr_id)

    @given(addr=_u64, compare=_u64, swap=_u64, wr_id=_wr_ids)
    @settings(max_examples=50, deadline=None)
    def test_cas_wr(self, addr, compare, swap, wr_id):
        assert _fields(cas_wr(addr, compare, swap, wr_id)) == dict(
            _WR_DEFAULTS, opcode="cas", remote_addr=addr, size=8,
            compare=compare, swap=swap, wr_id=wr_id)

    @given(addr=_u64, delta=st.integers(-(1 << 70), 1 << 70), wr_id=_wr_ids)
    @settings(max_examples=50, deadline=None)
    def test_faa_wr(self, addr, delta, wr_id):
        assert _fields(faa_wr(addr, delta, wr_id)) == dict(
            _WR_DEFAULTS, opcode="faa", remote_addr=addr, size=8, delta=delta,
            wr_id=wr_id)

    @given(bad=st.one_of(
        st.integers(max_value=0).map(lambda size: (read_wr, (0, size), "size must be positive")),
        st.just((write_wr, (0, None), "WRITE requires a payload")),
        st.just((write_wr, (0, b""), "size must be positive")),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=1 << 64)).flatmap(
            lambda out: st.sampled_from([
                (cas_wr, (0, out, 0), "CAS compare operand"),
                (cas_wr, (0, 0, out), "CAS swap operand"),
            ])),
    ))
    @settings(max_examples=100, deadline=None)
    def test_invalid_input_is_a_value_error_naming_it(self, bad):
        factory, args, message = bad
        with pytest.raises(ValueError, match=message):
            factory(*args)

    @pytest.mark.parametrize("operand", ["compare", "swap"])
    @pytest.mark.parametrize("value", [-1, 1 << 64])
    def test_cas_rejects_an_operand_outside_u64(self, operand, value):
        """A CAS whose expected value the blade's u64 can never hold would
        fail every attempt (backoff_cas_sync retries it MAX_ATTEMPTS
        times); an oversized swap would be silently masked."""
        operands = {"compare": 0, "swap": 0, operand: value}
        with pytest.raises(ValueError, match=f"CAS {operand} operand {value}"):
            cas_wr(0, **operands)


class TestWorkBatch:
    def test_a_yielded_batch_resumes_with_its_cqe_count(self):
        """The batch is its own completion event: ``yield batch`` resumes
        with the CQE count, which ``batch.value`` keeps."""
        cluster, compute, (remote,) = make_cluster(threads=1)
        thread = compute.threads[0]
        qp = thread.qp_for(remote.node_id)
        addr = remote.storage.global_addr(64)
        got = []

        def proc():
            batch = yield from verbs.post_send(
                thread, qp, [read_wr(addr + 8 * i, 8) for i in range(3)])
            assert not batch.triggered
            count = yield batch
            got.append((count, batch.value, batch.n))

        process = cluster.sim.spawn(proc())
        cluster.sim.run()
        assert not process.alive and process.error is None
        assert got == [(3, 3, 3)]

    @given(st.lists(st.sampled_from(_STATUSES), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_size_and_ok_are_what_the_wrs_say(self, statuses):
        """``n`` is ``len(wrs)`` stored once; ``ok`` is the ``all(...)``
        form, under every completion status in every position."""
        cluster, compute, (remote,) = make_cluster()
        qp = compute.threads[0].qp_for(remote.node_id)
        addr = remote.storage.global_addr(64)
        batch = WorkBatch(cluster.sim, qp, [read_wr(addr, 8) for _ in statuses])
        assert len(batch) == batch.n == len(batch.wrs) == len(statuses)
        assert batch.ok
        for wr, status in zip(batch.wrs, statuses):
            wr.status = status
        assert batch.ok == all(
            wr.status == WorkRequest.STATUS_OK for wr in batch.wrs
        )
        assert batch.ok == (batch.status == WorkRequest.STATUS_OK)
        assert batch.ok == (not batch.errors())

    def test_each_wr_is_its_own_wire_message(self):
        cluster, compute, (remote,) = make_cluster()
        qp = compute.threads[0].qp_for(remote.node_id)
        addr = remote.storage.global_addr(0)
        wrs = [read_wr(addr + i * 64, 64) for i in range(4)]
        batch = WorkBatch(cluster.sim, qp, wrs)
        # one header per WR, both directions
        assert batch.wire_bytes == 4 * (64 + 30)
        assert batch.response_bytes == 4 * (64 + 30)


class TestDataPath:
    def test_read_returns_remote_bytes(self):
        cluster, compute, (remote,) = make_cluster()
        remote.storage.bulk_write(4096, b"ABCDEFGH")
        thread = compute.threads[0]
        results = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(4096)
            batch = yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])
            results.append(batch.wrs[0].result)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert results == [b"ABCDEFGH"]

    def test_write_lands_in_remote_memory(self):
        cluster, compute, (remote,) = make_cluster()
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(128)
            yield from verbs.post_and_wait(thread, qp, [write_wr(addr, b"hi there")])

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert remote.storage.read(128, 8) == b"hi there"

    def test_cas_and_faa(self):
        cluster, compute, (remote,) = make_cluster()
        remote.storage.write_u64(256, 7)
        thread = compute.threads[0]
        observed = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(256)
            batch = yield from verbs.post_and_wait(thread, qp, [cas_wr(addr, 7, 9)])
            observed.append(batch.wrs[0].result)
            batch = yield from verbs.post_and_wait(thread, qp, [faa_wr(addr, 5)])
            observed.append(batch.wrs[0].result)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert observed == [7, 9]
        assert remote.storage.read_u64(256) == 14

    def test_concurrent_cas_only_one_wins(self):
        cluster, compute, (remote,) = make_cluster(threads=8)
        remote.storage.write_u64(512, 0)
        addr = remote.storage.global_addr(512)
        wins = []

        def proc(thread, new_value):
            qp = thread.qp_for(remote.node_id)
            batch = yield from verbs.post_and_wait(
                thread, qp, [cas_wr(addr, 0, new_value)]
            )
            if batch.wrs[0].result == 0:
                wins.append(new_value)

        for i, thread in enumerate(compute.threads):
            cluster.sim.spawn(proc(thread, i + 1))
        cluster.sim.run()
        assert len(wins) == 1
        assert remote.storage.read_u64(512) == wins[0]

    def test_completion_latency_at_least_rtt(self):
        cluster, compute, (remote,) = make_cluster()
        thread = compute.threads[0]
        latency = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            start = cluster.sim.now
            yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])
            latency.append(cluster.sim.now - start)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        rtt = 2 * cluster.config.one_way_latency_ns
        assert latency[0] >= rtt
        assert latency[0] < rtt + 2000  # small-op overheads only

    def test_outstanding_counter_returns_to_zero(self):
        cluster, compute, (remote,) = make_cluster(threads=4)

        def proc(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            wrs = [read_wr(addr, 8) for _ in range(8)]
            yield from verbs.post_and_wait(thread, qp, wrs)

        for thread in compute.threads:
            cluster.sim.spawn(proc(thread))
        cluster.sim.run()
        assert compute.device.outstanding == 0
        assert compute.device.counters.wqe_processed == 32
        assert compute.device.counters.cqe_delivered == 32
        assert remote.device.counters.responder_ops == 32

    def test_completed_batches_need_no_cyclic_collector(self):
        # A batch fires with its CQE count; were it to hold itself, every
        # completed batch would be a cycle only the collector frees.
        cluster, compute, (remote,) = make_cluster(threads=1)
        thread = compute.threads[0]
        fired = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            for _ in range(50):
                batch = yield from verbs.post_and_wait(
                    thread, qp, [read_wr(addr, 8), read_wr(addr + 8, 8)])
                fired.append(batch.value)

        gc.collect()
        gc.disable()
        try:
            cluster.sim.spawn(proc())
            cluster.sim.run()
            live = sum(isinstance(o, WorkBatch) for o in gc.get_objects())
        finally:
            gc.enable()
        assert fired == [2] * 50
        assert live == 0

    def test_wrong_blade_routing_raises(self):
        cluster, compute, remotes = make_cluster(memory_nodes=2)
        thread = compute.threads[0]
        bad_addr = remotes[1].storage.global_addr(0)

        def proc():
            qp = thread.qp_for(remotes[0].node_id)  # wrong QP for that addr
            yield from verbs.post_and_wait(thread, qp, [read_wr(bad_addr, 8)])

        cluster.sim.spawn(proc())
        with pytest.raises(RuntimeError, match="routed"):
            cluster.sim.run()

    def test_read_past_the_blade_end_raises_the_blades_index_error(self):
        cluster, compute, (remote,) = make_cluster()
        thread = compute.threads[0]
        blade = remote.storage
        addr = blade.global_addr(blade.capacity - 4)

        def proc():
            qp = thread.qp_for(remote.node_id)
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(addr - 8, 8), read_wr(addr, 8)])

        process = cluster.sim.spawn(proc())
        with pytest.raises(IndexError, match=(
            rf"blade {blade.blade_id}: access \[{blade.capacity - 4}, {blade.capacity + 4}\) "
            rf"outside capacity {blade.capacity}"
        )):
            cluster.sim.run()
        # raised in the responder, not the poster: its batch never completes
        assert process.alive and not process.error
        assert blade.reads == 1

    def test_nvm_write_slower_than_dram_write(self):
        def write_latency(persistent):
            cluster, compute, (remote,) = make_cluster()
            region = remote.storage.alloc_region("r", 4096, persistent=persistent)
            thread = compute.threads[0]
            out = []

            def proc():
                qp = thread.qp_for(remote.node_id)
                addr = remote.storage.global_addr(region.base)
                start = cluster.sim.now
                yield from verbs.post_and_wait(thread, qp, [write_wr(addr, b"x" * 64)])
                out.append(cluster.sim.now - start)

            cluster.sim.spawn(proc())
            cluster.sim.run()
            return out[0]

        assert write_latency(True) > write_latency(False)

    def test_nvm_penalty_applies_to_any_overlap_of_the_span(self):
        cluster, compute, (remote,) = make_cluster()
        vol = remote.storage.alloc_region("vol", 4096)
        nvm = remote.storage.alloc_region("nvm", 4096, persistent=True)
        storage = remote.storage
        assert not storage.is_persistent(vol.base, 64)
        assert storage.is_persistent(nvm.base, 64)
        # A span merely *overlapping* NVM is persistent even though it
        # starts before the region (partial landing still pays the media).
        assert storage.is_persistent(nvm.base - 32, 64)
        assert storage.is_persistent(nvm.end - 32, 64)
        assert not storage.is_persistent(nvm.end, 64)

    def test_nvm_straddling_write_pays_media_penalty(self):
        def write_latency(straddle):
            cluster, compute, (remote,) = make_cluster()
            vol = remote.storage.alloc_region("vol", 4096)
            nvm = remote.storage.alloc_region("nvm", 4096, persistent=True)
            # either fully inside DRAM, or 32 B DRAM + 32 B into NVM
            offset = nvm.base - 32 if straddle else vol.base
            thread = compute.threads[0]
            out = []

            def proc():
                qp = thread.qp_for(remote.node_id)
                addr = remote.storage.global_addr(offset)
                start = cluster.sim.now
                yield from verbs.post_and_wait(
                    thread, qp, [write_wr(addr, b"x" * 64)]
                )
                out.append(cluster.sim.now - start)

            cluster.sim.spawn(proc())
            cluster.sim.run()
            return out[0]

        assert write_latency(True) > write_latency(False)


class TestPolicies:
    def test_shared_qp_single_qp_for_all_threads(self):
        cluster, compute, (remote,) = make_cluster(threads=8, policy="shared-qp")
        qps = {t.qp_for(remote.node_id) for t in compute.threads}
        assert len(qps) == 1
        assert next(iter(qps)).share_lock is not None

    def test_multiplexed_groups(self):
        cluster, compute, (remote,) = make_cluster(
            threads=16, policy="multiplexed-qp"
        )
        qps = [t.qp_for(remote.node_id) for t in compute.threads]
        assert len(set(qps)) == 2
        assert qps[0] is qps[7] and qps[8] is qps[15]
        assert qps[0] is not qps[8]

    def test_per_thread_qp_distinct_qps_shared_doorbells(self):
        cluster, compute, (remote,) = make_cluster(threads=20)
        qps = [t.qp_for(remote.node_id) for t in compute.threads]
        assert len(set(qps)) == 20
        assert all(qp.share_lock is None for qp in qps)
        doorbells = {qp.doorbell.index for qp in qps}
        assert len(doorbells) == 16  # 4 LL + 12 medium, so sharing occurs

    def test_per_thread_context_many_contexts(self):
        cluster, compute, (remote,) = make_cluster(
            threads=8, policy="per-thread-context"
        )
        assert len(compute.device.contexts) == 8
        doorbells = {
            (t.qp_for(remote.node_id).context, t.qp_for(remote.node_id).doorbell.index)
            for t in compute.threads
        }
        assert len(doorbells) == 8  # no cross-thread doorbell sharing

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_cluster(policy="multiplexed-qp(q=0)")

    @given(
        policy=st.sampled_from(POLICIES),
        threads=st.integers(1, 100),
        blades=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_connect_follows_the_policy_table(self, policy, threads, blades):
        _, compute, remotes = make_cluster(threads, blades, policy)
        per_qp = {"shared-qp": threads, "multiplexed-qp": 8}.get(policy, 1)
        for remote in remotes:
            qps = {t.qp_for(remote.node_id) for t in compute.threads}
            assert len(qps) == -(-threads // per_qp)
            assert all(qp.remote_node is remote for qp in qps)
        contexts = compute.device.contexts
        assert len(contexts) == (threads if policy == "per-thread-context" else 1)
        if policy == "per-thread-db":
            own = [{qp.doorbell for qp in t.qps.values()} for t in compute.threads]
            assert all(len(doorbells) == 1 for doorbells in own)
            assert len(set().union(*own)) == threads
        elif policy != "per-thread-context":
            assert len(contexts[0].uar.doorbells) == 16
