"""Queue pairs and work requests."""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sim import Event, Simulator
from repro.sim.resources import SpinLock

# One-sided verb opcodes (the only ones disaggregated apps use).
READ = "read"
WRITE = "write"
CAS = "cas"
FAA = "faa"

#: Wire overhead per one-sided message (IB transport + RETH headers).
MESSAGE_OVERHEAD_BYTES = 30


class WorkRequest:
    """One one-sided RDMA operation.

    ``wr_id`` is free for application metadata, exactly like the verbs API
    (SMART packs the batch size into it, Algorithm 1 line 4).

    Built only by the verb factories below (:func:`read_wr`,
    :func:`write_wr`, :func:`cas_wr`, :func:`faa_wr`).
    """

    __slots__ = (
        "opcode",
        "remote_addr",
        "size",
        "payload",
        "compare",
        "swap",
        "delta",
        "wr_id",
        "result",
        "status",
    )

    STATUS_OK = "ok"
    STATUS_ACCESS_ERROR = "access-error"
    #: the remote blade died while the WR was in flight (IBV_WC_REM_OP_ERR)
    STATUS_REMOTE_ABORT = "remote-abort"
    #: RC transport exhausted its retransmissions (IBV_WC_RETRY_EXC_ERR)
    STATUS_RETRY_EXCEEDED = "retry-exceeded"
    #: posted on a QP already in the ERROR state (IBV_WC_WR_FLUSH_ERR)
    STATUS_FLUSH = "flush-error"

    #: statuses that indicate a fabric/blade fault (vs. an application-level
    #: protection error); these put the QP into the ERROR state
    FAULT_STATUSES = frozenset(
        {STATUS_REMOTE_ABORT, STATUS_RETRY_EXCEEDED, STATUS_FLUSH}
    )

    def __repr__(self) -> str:
        return f"WR({self.opcode}, addr={self.remote_addr:#x}, size={self.size})"


# Each factory builds its WR in place — a bare ``WorkRequest()`` and its
# ten fields — and checks only what its own opcode can get wrong.
# A field the verb does not use gets the same default in every factory:
# payload / result None, compare / swap / delta 0.

_STATUS_OK = WorkRequest.STATUS_OK


def read_wr(remote_addr: int, size: int, wr_id: Any = None) -> WorkRequest:
    if size <= 0:
        raise ValueError("size must be positive")
    wr = WorkRequest()
    wr.opcode = READ
    wr.remote_addr = remote_addr
    wr.size = size
    wr.wr_id = wr_id
    wr.payload = wr.result = None
    wr.compare = wr.swap = wr.delta = 0
    wr.status = _STATUS_OK
    return wr


def write_wr(remote_addr: int, payload: bytes, wr_id: Any = None) -> WorkRequest:
    if payload is None:
        raise ValueError("WRITE requires a payload")
    size = len(payload)
    if size <= 0:
        raise ValueError("size must be positive")
    wr = WorkRequest()
    wr.opcode = WRITE
    wr.remote_addr = remote_addr
    wr.size = size
    wr.wr_id = wr_id
    wr.payload = payload
    wr.result = None
    wr.compare = wr.swap = wr.delta = 0
    wr.status = _STATUS_OK
    return wr


def cas_wr(remote_addr: int, compare: int, swap: int, wr_id: Any = None) -> WorkRequest:
    # The blade compares the raw operand with the stored u64 and masks
    # the swap on store: out of range, the one never matches and the
    # other is silently truncated.
    if not 0 <= compare < 1 << 64:
        raise ValueError(f"CAS compare operand {compare} outside [0, 2**64)")
    if not 0 <= swap < 1 << 64:
        raise ValueError(f"CAS swap operand {swap} outside [0, 2**64)")
    wr = WorkRequest()
    wr.opcode = CAS
    wr.remote_addr = remote_addr
    wr.size = 8
    wr.wr_id = wr_id
    wr.payload = wr.result = None
    wr.compare = compare
    wr.swap = swap
    wr.delta = 0
    wr.status = _STATUS_OK
    return wr


def faa_wr(remote_addr: int, delta: int, wr_id: Any = None) -> WorkRequest:
    wr = WorkRequest()
    wr.opcode = FAA
    wr.remote_addr = remote_addr
    wr.size = 8
    wr.wr_id = wr_id
    wr.payload = wr.result = None
    wr.compare = wr.swap = 0
    wr.delta = delta
    wr.status = _STATUS_OK
    return wr


class WorkBatch(Event):
    """A group of WRs posted by one ``post_send`` (one doorbell ring).

    The batch is its own completion event: it fires with the number of
    CQEs once the batch completes, so a poster waits with ``yield batch``
    and reads the count back as ``batch.value``.  It fires with the
    count, never with itself — a batch holding itself would be a
    reference cycle only the cyclic collector could free.

    ``wire_bytes`` and ``write_bytes`` are hoisted out of the engines:
    each is needed several times along a batch's lifecycle (requester
    bandwidth ceiling, fabric transit, responder bandwidth ceiling), so
    they are summed once at construction instead of per consumer.

    The batch is also its own lifecycle record.  Each pipeline stage
    stamps the simulated instant it reached the batch — unconditionally,
    whoever is or is not observing:

    ``posted_at`` (built) ≤ ``rung_at`` (doorbell rung, handed to the
    requester) ≤ ``issued_at`` (requester pipeline done; a float, the
    only stamp that is not an event-loop instant) ≤ ``remote_start_at``
    (reached the responder) ≤ ``executed_at`` (verbs ran) ≤
    ``completed_at`` (CQEs delivered).

    A stage the batch never reached — it was flushed, aborted or lost —
    leaves its stamp ``None``.
    """

    __slots__ = (
        "wrs",
        "n",
        "qp",
        "posted_at",
        "rung_at",
        "issued_at",
        "remote_start_at",
        "executed_at",
        "completed_at",
        "batch_id",
        "wire_bytes",
        "write_bytes",
        "response_bytes",
        "actor",
    )

    def __init__(self, sim: Simulator, qp: "QueuePair", wrs: List[WorkRequest]):
        if not wrs:
            raise ValueError("empty work batch")
        # Inlined Waitable.__init__: one per posted batch.
        self._sim = sim
        self._callbacks = []
        self._triggered = False
        self._value = None
        sim.next_batch_id += 1
        self.batch_id = sim.next_batch_id
        self.wrs = wrs
        #: ``len(wrs)``, fixed at construction: every stage of the batch's
        #: life prices by it
        self.n = n = len(wrs)
        self.qp = qp
        self.posted_at = sim.now
        self.rung_at = self.issued_at = self.remote_start_at = None
        self.executed_at = self.completed_at = None
        #: stable identity of the logical issuer (RDMASan attribution);
        #: set by ``post_send`` when the caller supplies one
        self.actor: Any = None
        wire = 0
        write_payload = 0
        response = 0
        for wr in wrs:
            wire += wr.size + MESSAGE_OVERHEAD_BYTES
            if wr.opcode == WRITE:
                write_payload += wr.size
                # a WRITE's return direction is just the transport ack
                response += MESSAGE_OVERHEAD_BYTES
            else:
                # READ response carries the data; atomics return 8 bytes
                response += wr.size + MESSAGE_OVERHEAD_BYTES
        #: bytes moved on the wire in the batch's dominant direction
        self.wire_bytes = wire
        #: WRITE payload bytes (DMA-read from host DRAM before transmit)
        self.write_bytes = write_payload
        #: bytes moved in the return direction (READ data / atomic result
        #: payloads, plus one ack header per wire message)
        self.response_bytes = response

    def __len__(self) -> int:
        return self.n

    @property
    def status(self) -> str:
        """Aggregate completion status: OK, or the first failed WR's."""
        for wr in self.wrs:
            if wr.status != WorkRequest.STATUS_OK:
                return wr.status
        return WorkRequest.STATUS_OK

    @property
    def ok(self) -> bool:
        for wr in self.wrs:
            if wr.status != WorkRequest.STATUS_OK:
                return False
        return True

    def errors(self) -> List[WorkRequest]:
        """The WRs that completed with a non-OK status."""
        return [wr for wr in self.wrs if wr.status != WorkRequest.STATUS_OK]


class QueuePair:
    """A reliable-connection QP between a local device and a remote blade.

    The state machine is collapsed to the two states that matter for the
    fault model: ``RTS`` (operational) and ``ERROR``.  A transport failure
    (retry exhaustion, remote blade crash) moves the QP to ``ERROR``;
    while there, every posted WR is flushed with
    :data:`WorkRequest.STATUS_FLUSH` instead of executing.  ``reset()``
    models destroy-and-reconnect (the CM round) back to ``RTS``.
    """

    STATE_RTS = "rts"
    STATE_ERROR = "error"

    _next_id = 0

    def __init__(
        self,
        context,
        doorbell,
        remote_node,
        share_lock: Optional[SpinLock] = None,
    ):
        QueuePair._next_id += 1
        self.qp_id = QueuePair._next_id
        self.context = context
        #: the local RNIC (``context.device``, read several times per batch)
        self.device = context.device
        self.doorbell = doorbell
        self.remote_node = remote_node
        #: set when several threads share this QP (shared / multiplexed
        #: policies); the driver serializes them on this lock.
        self.share_lock = share_lock
        #: threads that post on this QP (contend on its driver lock)
        self.users = set()
        self.state = QueuePair.STATE_RTS
        #: completion status that moved the QP to ERROR (None while RTS)
        self.error_cause: Optional[str] = None
        #: completed destroy-and-reconnect rounds
        self.reconnects = 0

    def to_error(self, cause: str) -> None:
        """Transition to the ERROR state (idempotent)."""
        if self.state == QueuePair.STATE_ERROR:
            return
        self.state = QueuePair.STATE_ERROR
        self.error_cause = cause
        device = self.device
        device.counters.qp_errors += 1
        if device.sim.recorder is not None:
            device.sim.recorder.instant(
                device.name, "faults", "qp_error", device.sim.now,
                {"qp": self.qp_id, "cause": cause},
            )

    def reset(self) -> None:
        """Reconnect an ERROR QP (destroy + re-create, back to RTS)."""
        if self.state != QueuePair.STATE_ERROR:
            return
        self.state = QueuePair.STATE_RTS
        self.error_cause = None
        self.reconnects += 1

    def note_user(self, thread_id: int) -> None:
        self.users.add(thread_id)

    def sharing_penalty_ns(self, config) -> float:
        if self.share_lock is None:
            return 0.0
        sharers = min(max(len(self.users) - 1, 0), config.doorbell_bounce_cap)
        return config.doorbell_share_ns * sharers

    def __repr__(self) -> str:
        return f"QP({self.qp_id}, db={self.doorbell.index}, remote={self.remote_node.node_id})"
