"""Requester and responder processing pipelines.

Both pipelines are deterministic single-server queues tracked by a
``busy_until`` watermark: a submitted batch starts when the pipeline frees
up and occupies it for ``max(iops-limited, bandwidth-limited)`` time.
This reproduces the two ceilings the paper reports: 110 MOPS for 8-byte
ops (IOPS-bound) and the PCIe-3.0 bandwidth wall for ~1 KB Sherman leaf
reads (bandwidth-bound).
"""

from __future__ import annotations

import struct

from repro.memory.address import BLADE_SHIFT, OFFSET_MASK, blade_of, offset_of
from repro.rnic import qp as qpmod
from repro.rnic.qp import READ, QueuePair, WorkBatch

_U64 = struct.Struct("<Q")
_STATE_ERROR = QueuePair.STATE_ERROR


class RequesterEngine:
    """WQE fetch/issue pipeline of a compute blade's RNIC."""

    def __init__(self, device):
        self.device = device
        self.busy_until = 0.0
        config = device.config
        #: the bandwidth ceiling of an issued batch: its bytes cross PCIe
        #: and the wire, so the slower of the two (fixed by the config)
        self.bytes_per_ns = min(
            config.network_bytes_per_ns, config.pcie_bytes_per_ns
        )

    def submit(self, batch: WorkBatch) -> None:
        """Accept a rung-in batch; schedules remote handling and completion."""
        device = self.device
        sim = device.sim
        config = device.config
        n = batch.n

        device.outstanding += n
        outstanding = device.outstanding
        context_count = len(device.contexts)
        batch.rung_at = sim.now

        qp = batch.qp
        if qp.state == _STATE_ERROR:
            # Driver-level flush: WRs posted on an ERROR QP never reach
            # the wire; they complete immediately with a flush status.
            device.fail_batch(batch, qpmod.WorkRequest.STATUS_FLUSH)
            return
        if not qp.remote_node.device.online:
            device.abort_remote(batch)
            return

        # One memoized evaluation per cache model: service multiplier,
        # miss rate and DMA cost all derive from the same miss curve.
        wqe_miss, wqe_multiplier, wqe_dma_per_wr = device.wqe_cache.lookup(outstanding)
        mtt_hit, mtt_multiplier = device.mtt_cache.lookup(context_count)
        per_wr_ns = config.iops_service_ns * (wqe_multiplier * mtt_multiplier)
        bandwidth_ns = batch.wire_bytes / self.bytes_per_ns
        # max(now, busy_until) + max(issue, bandwidth), as conditionals:
        # ties keep the first operand, exactly as max() does.
        now = sim.now
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        issue_ns = n * per_wr_ns
        finish = start + (bandwidth_ns if bandwidth_ns > issue_ns else issue_ns)
        self.busy_until = finish

        counters = device.counters
        counters.requester_busy_ns += finish - start
        counters.wqe_processed += n
        counters.mtt_lookups += n
        counters.wqe_cache_miss_wrs += n * wqe_miss
        counters.mtt_miss_wrs += n * (1.0 - mtt_hit)
        # WRITE payloads are DMA-read from host DRAM before transmission.
        counters.dram_bytes += n * wqe_dma_per_wr + batch.write_bytes

        if sim.recorder is not None and wqe_miss > 0.0:
            sim.recorder.instant(
                device.name, "requester", "wqe_cache_miss", sim.now,
                {"batch": batch.batch_id, "miss_rate": round(wqe_miss, 4),
                 "outstanding": outstanding},
            )
        batch.issued_at = finish
        self._transmit(batch, finish, 0)

    def _transmit(self, batch: WorkBatch, ready_ns: float, attempt: int) -> None:
        """Put a batch on the wire at ``ready_ns``; handles loss/retransmit.

        With a perfect fabric this reduces to the original single
        ``call_at`` of the responder.  Under injected loss the RC
        transport retransmits after the ack timeout, up to
        ``transport_retry_limit`` times, then completes with error and
        moves the QP to ERROR.  Duplicated messages are filtered by PSN
        at the receiver and only waste wire bytes.
        """
        device = self.device
        sim = device.sim
        config = device.config
        remote = batch.qp.remote_node.device
        if not remote.online:
            device.abort_remote(batch, ready_ns - sim.now)
            return
        delay, dropped, duplicated = device.fabric.transit(
            batch.wire_bytes, ready_ns, device.node_id, remote.node_id
        )
        counters = device.counters
        if duplicated:
            counters.wasted_wire_bytes += batch.wire_bytes
        if dropped:
            counters.wasted_wire_bytes += batch.wire_bytes
            if attempt >= config.transport_retry_limit:
                device.fail_batch(
                    batch,
                    qpmod.WorkRequest.STATUS_RETRY_EXCEEDED,
                    delay_ns=(ready_ns - sim.now) + config.retransmit_timeout_ns,
                )
                return
            counters.retransmissions += batch.n
            if sim.recorder is not None:
                sim.recorder.instant(
                    device.name, "wire-out", "retransmit", ready_ns,
                    {"batch": batch.batch_id, "attempt": attempt + 1},
                )
            sim.call_at(
                ready_ns + config.retransmit_timeout_ns,
                self._retransmit,
                (batch, attempt + 1),
            )
            return
        sim.call_at(ready_ns + delay, remote.responder.handle, batch)

    def _retransmit(self, pair) -> None:
        batch, attempt = pair
        self._transmit(batch, self.device.sim.now, attempt)


class ResponderEngine:
    """Inbound execution pipeline of a (memory) blade's RNIC.

    The paper confirms the outbound/responder path does not degrade with
    QP count (§4.1 "Resource Allocation in Memory Blades"), so this engine
    has no cache model — just a flat rate and the bandwidth ceiling, plus
    the Optane write penalty for persistent regions.
    """

    def __init__(self, device):
        self.device = device
        self.busy_until = 0.0

    def handle(self, batch: WorkBatch) -> None:
        device = self.device
        sim = device.sim
        config = device.config

        if not device.online:
            # The blade died while the request was in flight: blackhole.
            batch.qp.device.abort_remote(batch)
            return

        per_wr_ns = config.responder_service_ns
        bandwidth_ns = batch.wire_bytes / config.network_bytes_per_ns
        nvm_penalty = 0.0
        storage = device.storage
        if storage is not None and batch.write_bytes:
            for wr in batch.wrs:
                # The penalty applies when any part of the written span
                # lands in NVM, not just the first byte.
                if wr.opcode == qpmod.WRITE and storage.is_persistent(
                    offset_of(wr.remote_addr), wr.size
                ):
                    nvm_penalty += config.nvm_write_extra_ns

        now = batch.remote_start_at = sim.now
        busy_until = self.busy_until
        start = busy_until if busy_until > now else now
        issue_ns = batch.n * per_wr_ns
        finish = (
            start + (bandwidth_ns if bandwidth_ns > issue_ns else issue_ns)
            + nvm_penalty
        )
        self.busy_until = finish
        device.counters.responder_busy_ns += finish - start
        sim.call_at(finish, self._execute_and_reply, batch)

    def _execute_and_reply(self, batch: WorkBatch) -> None:
        device = self.device
        if not device.online:
            # Crash landed between queueing and execution: nothing ran.
            batch.qp.device.abort_remote(batch)
            return
        storage = device.storage
        if storage is None:
            raise RuntimeError(f"{device.name}: one-sided op targets a blade without memory")
        enforce = device.config.enforce_protection
        blade_tag = storage.blade_id + 1
        # MemoryBlade.read, inlined for the common verb: the blade's bytes
        # (power_fail replaces them, so fetched per batch) and its bound.
        memory = storage._memory
        capacity = storage.capacity
        # In-place READs are counted here and added to the blade's tally
        # once per batch — also when a WR below raises.
        reads = 0
        try:
            for wr in batch.wrs:
                if enforce and not self._access_allowed(storage, wr):
                    wr.status = wr.STATUS_ACCESS_ERROR
                    device.counters.protection_faults += 1
                    continue
                addr = wr.remote_addr
                if wr.opcode == READ and addr >> BLADE_SHIFT == blade_tag:
                    # In place; a READ addressed to another blade (or to
                    # null) gets its error from _execute.  read_wr made
                    # size > 0.
                    offset = addr & OFFSET_MASK
                    end = offset + wr.size
                    if end > capacity:
                        storage._check(offset, wr.size)  # raises the IndexError
                    reads += 1
                    wr.result = memory[offset:end]
                else:
                    self._execute(storage, wr)
        finally:
            storage.reads += reads
        device.counters.responder_ops += batch.n
        batch.executed_at = device.sim.now
        self.send_response(batch)

    def send_response(self, batch: WorkBatch) -> None:
        """Send a handled batch's response back to its origin."""
        device = self.device
        origin = batch.qp.device
        sim = device.sim
        # The return direction carries the *response* payload (READ data /
        # atomic results, or just an ack for WRITEs) — not the
        # request-side wire bytes.
        send_ns = sim.now
        attempt = 0
        while True:
            delay, dropped, duplicated = device.fabric.transit(
                batch.response_bytes, send_ns, device.node_id, origin.node_id
            )
            if duplicated:
                origin.counters.wasted_wire_bytes += batch.response_bytes
            if not dropped:
                break
            # A lost ack/completion is recovered by a PSN-coordinated
            # retransmit: the operation is NOT re-executed (duplicate
            # requests are filtered by sequence number); the requester
            # pays the ack timeout plus the resent message's transit and
            # wire bytes.  Like the request direction, the transport
            # gives up after transport_retry_limit resends.
            origin.counters.wasted_wire_bytes += batch.response_bytes
            if attempt >= origin.config.transport_retry_limit:
                origin.fail_batch(
                    batch,
                    qpmod.WorkRequest.STATUS_RETRY_EXCEEDED,
                    delay_ns=(send_ns - sim.now)
                    + origin.config.retransmit_timeout_ns,
                )
                return
            origin.counters.retransmissions += batch.n
            if sim.recorder is not None:
                sim.recorder.instant(
                    origin.name, "wire-back", "retransmit", send_ns,
                    {"batch": batch.batch_id, "lost": "ack",
                     "attempt": attempt + 1},
                )
            send_ns += origin.config.retransmit_timeout_ns
            attempt += 1
        sim.call_at(send_ns + delay, origin.complete, batch)

    @staticmethod
    def _access_allowed(storage, wr) -> bool:
        """The MPT security check: the access must land inside one
        registered remote-access region."""
        region = storage.find_region(offset_of(wr.remote_addr), wr.size)
        return region is not None and region.remote_access

    @staticmethod
    def _execute(storage, wr) -> None:
        """Check the address, then run the verb — every verb but a READ
        addressed to this blade, which ``_execute_and_reply`` runs in its loop."""
        offset = offset_of(wr.remote_addr)
        if blade_of(wr.remote_addr) != storage.blade_id:
            raise RuntimeError(
                f"WR routed to blade {storage.blade_id} but addressed to "
                f"blade {blade_of(wr.remote_addr)}"
            )
        if wr.opcode == qpmod.WRITE:
            storage.write(offset, wr.payload)
            wr.result = len(wr.payload)
        elif wr.opcode == qpmod.CAS:
            wr.result = storage.compare_and_swap(offset, wr.compare, wr.swap)
        elif wr.opcode == qpmod.FAA:
            wr.result = storage.fetch_and_add(offset, wr.delta)
        else:  # pragma: no cover - guarded in WorkRequest
            raise ValueError(wr.opcode)
