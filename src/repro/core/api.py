"""§5.1 — SMART's coroutine-based programming interface.

The API mirrors the paper's (connect / read / write / faa / cas /
post_send / sync / backoff_cas_sync).  A :class:`SmartThread` wraps one
worker thread and owns the throttler and conflict avoider; each
application coroutine obtains a :class:`SmartHandle`, buffers verbs on it
and drives them with generator calls::

    value_wr = handle.read(addr, 8)
    yield from handle.post_send()
    yield from handle.sync()
    data = value_wr.result
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.core.backoff import ConflictAvoider
from repro.core.features import SmartFeatures
from repro.core.stats import OperationStats
from repro.core.throttle import WorkRequestThrottler
from repro.cluster import ComputeThread
from repro.memory.address import BLADE_SHIFT, blade_of
from repro.rnic import verbs
from repro.rnic.qp import (
    WorkBatch,
    WorkRequest,
    cas_wr,
    faa_wr,
    read_wr,
    write_wr,
)
from repro.sim import Timeout


class SmartThread:
    """Per-thread SMART state: credits, backoff controller, statistics."""

    def __init__(
        self,
        thread: ComputeThread,
        features: Optional[SmartFeatures] = None,
        seed: int = 0,
    ):
        self.thread = thread
        self.features = features or SmartFeatures()
        self.sim = thread.sim
        self.rng = random.Random((seed << 16) ^ thread.thread_id)
        name = f"t{thread.thread_id}"
        self.throttler = WorkRequestThrottler(self.sim, self.features, name=name)
        self.avoider = ConflictAvoider(
            self.sim, self.features, self.rng, thread.config.cpu_ghz, name=name
        )
        self.stats = OperationStats()

    def handle(self) -> "SmartHandle":
        """A fresh per-coroutine handle sharing this thread's resources."""
        return SmartHandle(self)

    def stop(self) -> None:
        """Stop background controller processes (lets short sims drain)."""
        self.throttler.stop()
        self.avoider.stop()


class SmartHandle:
    """The verbs-like facade used by one application coroutine."""

    #: process-global handle sequence; the ordinal is allocation-order
    #: stable for a fixed seed, so RDMASan findings replay identically
    _next_handle_seq = 0

    def __init__(self, smart_thread: SmartThread):
        self.smart = smart_thread
        self.thread = smart_thread.thread
        self.sim = smart_thread.sim
        SmartHandle._next_handle_seq += 1
        #: identity RDMASan attributes this coroutine's ops to
        self.actor = (
            self.thread.node.node_id,
            self.thread.thread_id,
            SmartHandle._next_handle_seq,
        )
        self._buffer: List[WorkRequest] = []
        self._pending: List[WorkBatch] = []
        self._attempts = 0  # consecutive failed CAS attempts (backoff index)
        self._op_started_at: Optional[int] = None
        self._op_retries = 0
        #: batches from the most recent :meth:`sync` that completed with a
        #: non-OK status (empty after a clean sync)
        self.last_errors: List[WorkBatch] = []

    # -- verb buffering (paper API: read/write/cas/faa) ------------------------

    def read(self, remote_addr: int, size: int) -> WorkRequest:
        wr = read_wr(remote_addr, size)
        self._buffer.append(wr)
        return wr

    def write(self, remote_addr: int, payload: bytes) -> WorkRequest:
        wr = write_wr(remote_addr, payload)
        self._buffer.append(wr)
        return wr

    def cas(self, remote_addr: int, compare: int, swap: int) -> WorkRequest:
        wr = cas_wr(remote_addr, compare, swap)
        self._buffer.append(wr)
        return wr

    def faa(self, remote_addr: int, delta: int) -> WorkRequest:
        wr = faa_wr(remote_addr, delta)
        self._buffer.append(wr)
        return wr

    # -- posting and synchronization ---------------------------------------------

    def post_send(self):
        """Post buffered WRs (SmartPostSend: waits for credits first).

        Lists longer than the current C_max are posted in C_max-sized
        chunks, each gated on credits — otherwise Algorithm 1's
        ``while credit - size < 0: wait`` could never be satisfied.
        """
        if not self._buffer:
            return
        wrs, self._buffer = self._buffer, []
        # One destination is the common case: route it by the blade tag
        # alone.  The first WR whose tag differs (a null address has none)
        # falls back to grouping, where blade_of rejects a null address.
        tag = wrs[0].remote_addr >> BLADE_SHIFT
        groups = ((tag - 1, wrs),)
        for wr in wrs:
            if wr.remote_addr >> BLADE_SHIFT != tag or not tag:
                by_node: Dict[int, List[WorkRequest]] = {}
                for each in wrs:
                    by_node.setdefault(blade_of(each.remote_addr), []).append(each)
                groups = by_node.items()
                break
        throttler = self.smart.throttler
        for node_id, group in groups:
            qp = self.thread.qp_for(node_id)
            total = len(group)
            cursor = 0
            while cursor < total:
                chunk_len = total - cursor
                if throttler.enabled:
                    chunk_len = min(chunk_len, max(1, throttler.cmax))
                # The whole group in one chunk is the list itself: nothing
                # else holds it (self._buffer was replaced above).
                chunk = (
                    group if chunk_len == total
                    else group[cursor : cursor + chunk_len]
                )
                cursor += chunk_len
                # Algorithm 1 line 4: batch size rides in the last wr_id.
                chunk[-1].wr_id = ("batch", chunk_len)
                if not throttler.try_take(chunk_len):
                    yield throttler.take(chunk_len)
                batch = yield from verbs.post_send(
                    self.thread, qp, chunk, actor=self.actor
                )
                batch._subscribe(throttler.on_complete)
                self._pending.append(batch)

    def sync(self):
        """Wait for every batch this coroutine has posted (SmartPollCq).

        Returns the batches that completed with an error status (empty
        list on a clean sync) and keeps them on :attr:`last_errors`, so
        callers that care about faults can check either — and callers
        that predate fault injection keep working unchanged.
        """
        pending, self._pending = self._pending, []
        failed: List[WorkBatch] = []
        for batch in pending:
            yield from verbs.wait_completion(self.thread, batch)
            if not batch.ok:
                failed.append(batch)
        self.last_errors = failed
        return failed

    def reconnect(self, node_id: int):
        """Recover the connection to ``node_id`` after a fault completion.

        Models destroy-and-reconnect: probe the remote blade every
        ``reconnect_probe_ns`` with a jittered truncated-exponential gap
        on top (the :class:`ConflictAvoider`'s schedule, active even when
        SMART's optional backoff feature is off) until it answers or
        ``reconnect_retry_limit`` probes fail.  Returns True when the QP
        is back in RTS; recovery latency lands in the thread's stats.
        """
        qp = self.thread.qp_for(node_id)
        config = self.thread.config
        avoider = self.smart.avoider
        remote = qp.remote_node.device
        started = self.sim.now
        for attempt in range(config.reconnect_retry_limit):
            delay = config.reconnect_probe_ns + avoider.reconnect_backoff_ns(attempt)
            yield Timeout(self.sim, delay)
            if remote.online:
                qp.reset()
                self.smart.stats.record_recovery(self.sim.now - started)
                return True
        self.smart.stats.record_recovery(self.sim.now - started, failed=True)
        return False

    def note_fault_abort(self) -> None:
        """Count an op attempt wasted by an error completion."""
        self.smart.stats.record_fault_abort()
        recorder = self.sim.recorder
        if recorder is not None:
            recorder.instant(
                f"client-n{self.thread.node.node_id}",
                f"t{self.thread.thread_id}", "fault_abort", self.sim.now,
            )

    # -- synchronous conveniences -----------------------------------------------------

    def read_sync(self, remote_addr: int, size: int):
        wr = self.read(remote_addr, size)
        yield from self.post_send()
        yield from self.sync()
        return wr.result

    def write_sync(self, remote_addr: int, payload: bytes):
        self.write(remote_addr, payload)
        yield from self.post_send()
        yield from self.sync()

    def faa_sync(self, remote_addr: int, delta: int):
        wr = self.faa(remote_addr, delta)
        yield from self.post_send()
        yield from self.sync()
        return wr.result

    def cas_sync(self, remote_addr: int, compare: int, swap: int):
        """Plain CAS; returns the old value (success iff old == compare)."""
        wr = self.cas(remote_addr, compare, swap)
        yield from self.post_send()
        yield from self.sync()
        return wr.result

    def backoff_cas_sync(self, remote_addr: int, compare: int, swap: int):
        """CAS with conflict avoidance (§4.3).

        Same semantics as ``cas`` + ``sync``; on failure it additionally
        sleeps the truncated-exponential delay before returning, so the
        caller may recompute the expected value and try again.
        """
        old = yield from self.cas_sync(remote_addr, compare, swap)
        avoider = self.smart.avoider
        if old == compare:
            self._attempts = 0
            return old
        self._op_retries += 1
        avoider.record_retry()
        delay = avoider.backoff_ns(self._attempts)
        self._attempts += 1
        if delay > 0:
            yield Timeout(self.sim, delay)
        return old

    # -- operation boundaries (latency, retry stats, c_max credits) ----------------------

    def begin_op(self):
        """Mark the start of one application-level operation."""
        avoider = self.smart.avoider
        if not avoider.try_begin_op():
            yield avoider.begin_op()
        self._op_started_at = self.sim.now
        self._op_retries = 0
        self._attempts = 0

    def end_op(self, failed: bool = False) -> None:
        """Mark the end of the operation started by :meth:`begin_op`."""
        if self._op_started_at is None:
            raise RuntimeError("end_op without begin_op")
        latency = self.sim.now - self._op_started_at
        self.smart.stats.record_op(latency, retries=self._op_retries, failed=failed)
        recorder = self.sim.recorder
        if recorder is not None:
            args = {"retries": self._op_retries}
            if failed:
                args["failed"] = True
            recorder.span(
                f"client-n{self.thread.node.node_id}",
                f"t{self.thread.thread_id}", "op",
                self._op_started_at, self.sim.now, args,
            )
        self.smart.avoider.end_op()
        self._op_started_at = None

    def note_retry(self) -> None:
        """Count an application-level retry that did not go through
        ``backoff_cas_sync`` (e.g. a transaction abort)."""
        self._op_retries += 1
        self.smart.avoider.record_retry()

    def backoff_delay(self):
        """Sleep the current backoff delay (for non-CAS retry loops)."""
        delay = self.smart.avoider.backoff_ns(self._attempts)
        self._attempts += 1
        if delay > 0:
            yield Timeout(self.sim, delay)
