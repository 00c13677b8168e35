"""The RNIC device: contexts, engines, caches and counters."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim import Simulator
from repro.rnic.caches import MttCacheModel, WqeCacheModel
from repro.rnic.config import RnicConfig
from repro.rnic.counters import PerfCounters
from repro.rnic.doorbell import Doorbell, DoorbellAllocator
from repro.rnic.engine import RequesterEngine, ResponderEngine
from repro.rnic.qp import QueuePair, WorkBatch, WorkRequest


class BatchObserver:
    """The device's one notification seam: two calls, no-ops here.

    An observer is passive — it may read the batch (every pipeline stage
    has stamped it by the time ``on_complete`` runs, see
    :class:`~repro.rnic.qp.WorkBatch`) but schedules no event and draws no
    randomness, so any tuple of observers, in any order, leaves every
    simulated number alone.
    """

    def on_post(self, thread, qp, batch) -> None:
        """``batch`` was rung in on ``qp`` by ``thread`` (``verbs.post_send``)."""

    def on_complete(self, batch) -> None:
        """``batch``'s CQEs were delivered, OK or not (``RnicDevice.complete``)."""


class DeviceContext:
    """An opened device context (``ibv_open_device`` + PD + MRs).

    Sharing one context across threads keeps the MTT/MPT small (memory is
    registered once); opening one context per thread multiplies MRs and
    thrashes the translation cache (§2.2, §4.1) — the MTT model prices
    that by ``len(device.contexts)``.
    """

    def __init__(self, device: "RnicDevice", total_uuars: int):
        self.device = device
        self.uar = DoorbellAllocator(device.sim, device.config, total_uuars)
        self.qps: List[QueuePair] = []

    def create_qp(
        self,
        remote_node,
        doorbell: Optional[Doorbell] = None,
        share_lock=None,
    ) -> QueuePair:
        """Create an RC QP to ``remote_node``.

        Without an explicit ``doorbell`` the driver's round-robin mapping
        applies; passing one emulates SMART's thread-aware binding.
        """
        if doorbell is None:
            doorbell = self.uar.bind_next()
        else:
            self.uar.bind_doorbell(doorbell)
        qp = QueuePair(self, doorbell, remote_node, share_lock)
        self.qps.append(qp)
        return qp


class RnicDevice:
    """One physical RNIC (one per blade)."""

    def __init__(
        self,
        sim: Simulator,
        config: RnicConfig,
        fabric,
        name: str,
        storage=None,
        node_id: Optional[int] = None,
    ):
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.name = name
        #: hosting blade's node id (None for devices built outside a Node)
        self.node_id = node_id
        #: False while the hosting blade is crashed; messages to an
        #: offline device are blackholed and surface as error completions
        self.online = True
        #: blade memory served by the responder (None on pure compute blades)
        self.storage = storage
        self.contexts: List[DeviceContext] = []
        self.counters = PerfCounters()
        self.wqe_cache = WqeCacheModel(config)
        self.mtt_cache = MttCacheModel(config)
        self.requester = RequesterEngine(self)
        self.responder = ResponderEngine(self)
        #: WRs posted but not yet completed, device-wide (drives the WQE
        #: cache model)
        self.outstanding = 0
        #: :class:`BatchObserver` objects told of every post and completion
        #: at this device (wiring: appended by ``Observability`` /
        #: ``RdmaSanitizer`` attachment, empty otherwise)
        self.observers: Tuple[BatchObserver, ...] = ()

    def open_context(self, total_uuars: Optional[int] = None) -> DeviceContext:
        """Open a device context with ``total_uuars`` doorbells.

        The default mirrors the mlx5 driver (16); SMART raises it via the
        MLX5_TOTAL_UUARS mechanism so each thread can own a doorbell.
        """
        if total_uuars is None:
            total_uuars = self.config.low_latency_uars + self.config.medium_latency_uars
        context = DeviceContext(self, total_uuars)
        self.contexts.append(context)
        return context

    def fail(self) -> None:
        """The hosting blade crashed: stop serving (idempotent)."""
        self.online = False

    def restore(self) -> None:
        """The hosting blade restarted: resume serving.

        The engine pipelines restart empty: whatever backlog the crashed
        NIC had accumulated died with it, so the pre-crash ``busy_until``
        watermarks must not delay the first post-restart operation (they
        could sit arbitrarily far in the future after a long outage).
        """
        if self.online:
            return
        self.online = True
        self.requester.busy_until = 0.0
        self.responder.busy_until = 0.0

    def fail_batch(self, batch: WorkBatch, status: str, delay_ns: float = 0.0) -> None:
        """Complete ``batch`` with error CQEs after ``delay_ns``.

        Marks every still-OK WR with ``status``, moves the QP to ERROR and
        routes the batch through the normal completion path (so credit
        replenishment and outstanding-WR accounting stay balanced).
        """
        for wr in batch.wrs:
            if wr.status == WorkRequest.STATUS_OK:
                wr.status = status
        if status == WorkRequest.STATUS_FLUSH:
            self.counters.flushed_wrs += batch.n
        else:
            self.counters.error_completions += batch.n
        if self.sim.recorder is not None:
            self.sim.recorder.instant(
                self.name, "faults", "batch_failed", self.sim.now,
                {"batch": batch.batch_id, "status": status, "wrs": batch.n},
            )
        # The QP transitions to ERROR when the error CQE is *delivered*,
        # not when the fault is scheduled: nothing observable (neither the
        # app nor later posts) may learn of the failure before the
        # detection delay has elapsed.
        self.sim.call_after(delay_ns, self._deliver_failure, (batch, status))

    def abort_remote(self, batch: WorkBatch, after_ns: float = 0.0) -> None:
        """``batch``'s remote blade is down and no ack will ever arrive:
        this (origin) device surfaces completion-with-error once the
        crash-detection timeout has run, ``after_ns`` from now (what was
        left of the request's own path when the blade was found dead)."""
        self.fail_batch(
            batch, WorkRequest.STATUS_REMOTE_ABORT,
            delay_ns=after_ns + self.config.crash_detect_ns,
        )

    def _deliver_failure(self, pair) -> None:
        batch, status = pair
        qp = batch.qp
        qp.to_error(status)
        # A crash detected after its blade came back found no later
        # restart to reconnect the QP: it gets the restart's reset now.
        if status == WorkRequest.STATUS_REMOTE_ABORT and qp.remote_node.online:
            qp.reset()
        self.counters.cqe_failed += batch.n
        self.complete(batch)

    def complete(self, batch: WorkBatch) -> None:
        """Response arrived: DMA the CQEs and wake the poster."""
        n = batch.n
        self.outstanding -= n
        if self.outstanding < 0:  # pragma: no cover - invariant guard
            raise RuntimeError(f"{self.name}: negative outstanding WR count")
        self.counters.cqe_delivered += n
        batch.completed_at = self.sim.now
        for observer in self.observers:
            observer.on_complete(batch)
        # The CQE count, not the batch: a batch holding itself is a
        # reference cycle, and only the cyclic collector could then free a
        # completed batch and its WRs.
        batch.fire(n)

    def __repr__(self) -> str:
        return f"RnicDevice({self.name}, contexts={len(self.contexts)})"
