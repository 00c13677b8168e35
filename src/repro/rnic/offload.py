"""Near-memory compute offload: active-message handlers at the blade.

The paper's world is pure one-sided verbs; this module adds the
execution model the roadmap's frontier asks for — clients post active
messages (``AM_SEND`` work requests carrying a handler id + arguments)
that run *at the responder*, next to the data, on the blade's wimpy
core / SmartNIC datapath processor.

Cost model (all knobs on :class:`repro.rnic.config.RnicConfig`):

* the AM request pays the normal responder reception pipeline (flat
  rate + bandwidth ceiling), exactly like a one-sided op;
* each message then pays ``offload_dispatch_ns`` (parse + handler-table
  lookup) plus its handler's compute estimate multiplied by
  ``offload_slowdown`` (the wimpy-core tradeoff), serialized on the
  blade's single handler core;
* the handler queue is bounded at ``offload_queue_depth`` admitted but
  unexecuted messages; beyond that, arrivals bounce straight back with
  :data:`~repro.rnic.qp.WorkRequest.STATUS_HANDLER_BUSY` (an
  RNR-NAK-style backpressure completion the client retries);
* the result rides home in a single response message of the WR's
  declared ``resp_size``.

Crash semantics mirror the one-sided pipeline: the handler body runs
atomically at its scheduled finish instant, so a blade crash landing
before that instant aborts the message with ``STATUS_REMOTE_ABORT`` and
*nothing* has executed — the client's retry after reconnect observes
exactly-once-visible effects.

Handlers are registered process-globally (so forked sweep workers
inherit them at import time) and must be deterministic pure functions of
``(storage, args)``; their optional ``regions`` callback declares the
blade-local byte ranges they touch, which RDMASan indexes in place of
the per-WR address a one-sided op would carry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.rnic.qp import WorkBatch, WorkRequest

#: declared blade-local access: (offset, size, access class "R"/"W"/"A")
Region = Tuple[int, int, str]


class AmHandler:
    """One registered active-message handler.

    ``fn(storage, args)`` executes the handler body against the blade's
    :class:`~repro.memory.blade.MemoryBlade` and returns the response
    value.  ``cost`` is the handler's compute time on a *full-speed host
    core* in ns — a float, or a callable ``(storage, args, config) ->
    ns`` evaluated at admission (it must not mutate) so data-dependent
    handlers (edge scans) can charge proportionally.  ``regions`` maps
    ``(storage, args)`` to the declared blade-local accesses RDMASan
    observes for this message.
    """

    __slots__ = ("name", "fn", "cost", "regions")

    def __init__(
        self,
        name: str,
        fn: Callable[[Any, tuple], Any],
        cost: "float | Callable[[Any, tuple, Any], float]" = 0.0,
        regions: Optional[Callable[[Any, tuple], Iterable[Region]]] = None,
    ):
        self.name = name
        self.fn = fn
        self.cost = cost
        self.regions = regions

    def estimate_ns(self, storage, args: tuple, config) -> float:
        """Host-core compute estimate for one invocation (pre-slowdown)."""
        if callable(self.cost):
            return self.cost(storage, args, config)
        return self.cost

    def declared_regions(self, storage, args: tuple) -> Iterable[Region]:
        if self.regions is None:
            return ()
        return self.regions(storage, args)


_HANDLERS: Dict[str, AmHandler] = {}


def register_handler(
    name: str,
    fn: Callable[[Any, tuple], Any],
    cost: "float | Callable[[Any, tuple, Any], float]" = 0.0,
    regions: Optional[Callable[[Any, tuple], Iterable[Region]]] = None,
) -> AmHandler:
    """Register (or re-register, e.g. on module reload) a handler."""
    spec = AmHandler(name, fn, cost, regions)
    _HANDLERS[name] = spec
    return spec


def get_handler(name: str) -> AmHandler:
    spec = _HANDLERS.get(name)
    if spec is None:
        raise KeyError(
            f"no active-message handler {name!r} registered "
            f"(known: {sorted(_HANDLERS)})"
        )
    return spec


def declared_am_regions(wr: WorkRequest, storage) -> Iterable[Region]:
    """The blade-local accesses RDMASan should index for one AM WR.

    Unknown handlers yield nothing: the sanitizer is a passive observer
    and must not crash a run the runtime itself would reject later.
    """
    spec = _HANDLERS.get(wr.handler)
    if spec is None or storage is None:
        return ()
    return spec.declared_regions(storage, wr.am_args)


class OffloadRuntime:
    """Blade-side handler runtime: one serialized wimpy core plus a
    bounded admission queue, attached lazily to an
    :class:`~repro.rnic.device.RnicDevice` (same pattern as ODP: the
    attribute stays ``None`` until the first AM arrives, so one-sided
    runs never pay more than one ``is None`` check)."""

    def __init__(self, device):
        self.device = device
        #: single-server watermark of the handler core
        self.busy_until = 0.0
        #: messages admitted but not yet executed (the handler queue);
        #: RDMASan's teardown leak check requires this to drain to zero
        self.pending = 0

    def admit(self, batch: WorkBatch, ready_ns: float) -> None:
        """One received AM batch leaves the NIC pipeline at ``ready_ns``:
        bounce it if the queue is full, else schedule its execution."""
        device = self.device
        sim = device.sim
        config = device.config
        counters = device.counters
        storage = device.storage
        if storage is None:
            raise RuntimeError(
                f"{device.name}: active message targets a blade without memory"
            )
        if self.pending >= config.offload_queue_depth:
            for wr in batch.wrs:
                wr.status = WorkRequest.STATUS_HANDLER_BUSY
            counters.am_rejected += batch.n
            if sim.recorder is not None:
                sim.recorder.instant(
                    device.name, "offload", "am_rejected", ready_ns,
                    {"batch": batch.batch_id, "queued": self.pending},
                )
            # the bounce rides the normal response path, unexecuted
            sim.call_at(ready_ns, device.responder.send_response, batch)
            return
        self.pending += 1
        if self.pending > counters.am_queue_peak:
            counters.am_queue_peak = self.pending
        compute = 0.0
        for wr in batch.wrs:
            spec = get_handler(wr.handler)
            compute += config.offload_dispatch_ns
            compute += spec.estimate_ns(storage, wr.am_args, config) * config.offload_slowdown
        start = max(ready_ns, self.busy_until)
        finish = start + compute
        self.busy_until = finish
        counters.handler_busy_ns += finish - start
        sim.call_at(finish, self._execute, (batch, start))

    def _execute(self, entry) -> None:
        """The handler core reaches this batch: run it (or abort it, if
        the blade crashed while it sat in the queue)."""
        batch, start = entry
        device = self.device
        self.pending -= 1
        if not device.online:
            # Crash mid-handler: the body never ran, so nothing is
            # visible.  The requester sees a remote abort after its
            # detection timeout and replays through the retry path —
            # exactly-once-visible semantics.
            device.counters.am_aborted += batch.n
            batch.qp.device.abort_remote(batch)
            return
        storage = device.storage
        for wr in batch.wrs:
            wr.result = get_handler(wr.handler).fn(storage, wr.am_args)
        counters = device.counters
        counters.am_handled += batch.n
        counters.responder_ops += batch.n
        batch.executed_at = device.sim.now
        if device.sim.recorder is not None:
            device.sim.recorder.span(
                device.name, "offload", batch.wrs[0].handler,
                start, device.sim.now,
                {"batch": batch.batch_id, "wrs": batch.n},
            )
        device.responder.send_response(batch)
