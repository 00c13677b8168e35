"""The posting path: ibv_post_send / completion waiting as DES generators.

The cost structure mirrors the mlx5 driver:

1. build WQEs in the send queue (CPU, per WR);
2. if the QP is shared between threads, take the QP lock;
3. take the doorbell spinlock, copy WQEs to the write-combining buffer and
   ring the doorbell (MMIO), release;
4. the RNIC's requester engine takes over; a completion event fires when
   the CQEs have been DMA-ed back;
5. polling the CQ costs CPU per CQE.

Threads are duck-typed: anything with ``charge(ns)`` (books serialized
CPU time and returns how long from now it ends; the poster sleeps that
when positive), ``mark_busy_until_now()`` and ``sim`` works — see
:class:`repro.cluster.ComputeThread`.
"""

from __future__ import annotations

from typing import Generator, List

from repro.rnic.qp import QueuePair, WorkBatch, WorkRequest
from repro.sim import Timeout


def post_send(thread, qp: QueuePair, wrs: List[WorkRequest], actor=None) -> Generator:
    """Post ``wrs`` on ``qp``; returns the :class:`WorkBatch` once rung in.

    Usage: ``batch = yield from post_send(thread, qp, wrs)``.

    ``actor`` is an optional stable identity token for the logical issuer
    (RDMASan attributes findings to it); raw posts without one are
    attributed to the posting thread.
    """
    device = qp.device
    config = device.config
    sim = device.sim
    batch = WorkBatch(sim, qp, wrs)
    n = batch.n
    if actor is not None:
        batch.actor = actor

    delay = thread.charge(config.wqe_build_ns * n)
    if delay > 0:
        yield Timeout(sim, delay)

    # Posting on an ERROR QP skips the locks and the doorbell: the driver
    # flushes the WRs straight to the CQ with IBV_WC_WR_FLUSH_ERR
    # (``submit`` does, below).  CPU for WQE building is still charged (the
    # check happens at ring time), which also keeps retry loops from
    # spinning at t=0.
    if qp.state != QueuePair.STATE_ERROR:
        thread_id = getattr(thread, "thread_id", 0)
        if qp.share_lock is not None:
            qp.note_user(thread_id)
            if not qp.share_lock.try_acquire(owner=thread_id):
                yield qp.share_lock.acquire(owner=thread_id)
        try:
            if qp.share_lock is not None:
                thread.mark_busy_until_now()
                # Contended lock word: every acquisition fights the sharers'
                # spinning reads (cache-line bouncing).
                delay = thread.charge(qp.sharing_penalty_ns(config))
                if delay > 0:
                    yield Timeout(sim, delay)
            doorbell = qp.doorbell
            doorbell.note_user(thread_id)
            wait_start = sim.now
            if not doorbell.lock.try_acquire(owner=thread_id):
                yield doorbell.lock.acquire(owner=thread_id)
            try:
                # The wait above was a spin: the thread's CPU was burning
                # the whole time, so bring its watermark up to now before
                # the locked section.
                thread.mark_busy_until_now()
                if sim.recorder is not None and sim.now > wait_start:
                    sim.recorder.instant(
                        device.name, "requester", "doorbell_stall", sim.now,
                        {"doorbell": doorbell.index, "thread": thread_id,
                         "stall_ns": sim.now - wait_start},
                    )
                delay = thread.charge(doorbell.held_cost_ns(config, n))
                if delay > 0:
                    yield Timeout(sim, delay)
            finally:
                doorbell.lock.release(owner=thread_id)
        finally:
            if qp.share_lock is not None:
                qp.share_lock.release(owner=thread_id)
        device.counters.doorbell_rings += 1

    for observer in device.observers:
        observer.on_post(thread, qp, batch)
    device.requester.submit(batch)
    return batch


def wait_completion(thread, batch: WorkBatch) -> Generator:
    """Wait until ``batch`` completes, then charge the CQ-poll CPU cost:
    ``cqe_poll_ns`` per CQE."""
    if not batch.triggered:
        yield batch
    delay = thread.charge(thread.config.cqe_poll_ns * batch.n)
    if delay > 0:
        yield Timeout(thread.sim, delay)
    return batch


def post_and_wait(thread, qp: QueuePair, wrs: List[WorkRequest]) -> Generator:
    """Convenience: post a batch and wait for all its completions."""
    batch = yield from post_send(thread, qp, wrs)
    yield from wait_completion(thread, batch)
    return batch
