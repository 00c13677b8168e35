"""Event loop, processes and primitive waitables.

Time is measured in integer nanoseconds (floats are accepted and rounded).
The loop is deterministic: events scheduled for the same instant run in
scheduling order, so a fixed RNG seed reproduces a run exactly.

Scheduler internals (see docs/MODEL.md §12 for the full story): pending
events live in per-tick *buckets* — flat ``[what, value, what, value,
...]`` lists — held in one calendar ``{tick: bucket}``.  A min-heap orders
the calendar's *distinct pending ticks* (one heap push/pop per tick, not
per event).  Executing a tick drains its whole bucket in insertion order,
which preserves a per-event heap's ``(when, seq)`` total order exactly
while replacing its O(log n) churn with list appends.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse (bad yields, double fires, ...)."""


#: Sentinel distinguishing "no value given" from an explicit ``None``.
_NO_VALUE = object()


def _invoke_noarg(callback: Callable[[], None]) -> None:
    """Trampoline for zero-argument ``call_at`` callbacks.

    Reusing this one module-level function keeps ``call_at`` free of
    per-call closure allocations while the bucket entry format stays a
    uniform ``(what, value)`` pair.
    """
    callback()


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Waitable:
    """Base class for things a process may yield.

    A waitable accepts any number of subscribers; when it triggers, each
    subscriber is invoked with the waitable's value.  A subscriber is
    either a plain callable or a :class:`Process` instance — the kernel
    resumes processes directly (the fused fast path) instead of going
    through a bound-method trampoline.
    """

    __slots__ = ("_sim", "_callbacks", "_triggered", "_value")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._callbacks: List[Any] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def _subscribe(self, callback: Any) -> None:
        if self._triggered:
            # Deliver later in the *same* tick, behind everything already
            # queued at this instant, to preserve run-to-completion
            # semantics of the subscribing process.
            self._sim._schedule_at(self._sim.now, callback, self._value)
        else:
            self._callbacks.append(callback)

    def _trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError("waitable triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        sim = self._sim
        bucket = sim._active
        if bucket is not None:
            # The active bucket is exactly "deliver at sim.now, after
            # everything already queued" — append without a scheduler call.
            for callback in callbacks:
                bucket.append(callback)
                bucket.append(value)
        else:
            schedule = sim._schedule_at
            now = sim.now
            for callback in callbacks:
                schedule(now, callback, value)


class Timeout:
    """A sleep token: resumes the yielding process ``delay`` ns after creation.

    Not a waitable: creation records the deadline and schedules nothing.
    Yielding queues one wake entry ``(token, process)`` at ``max(deadline,
    now)``; the drain resumes the process in place when nothing is queued
    behind that entry, else at the back of the tick, where a waitable fired
    at the deadline would put it (docs/MODEL.md §7).
    """

    __slots__ = ("deadline",)

    def __init__(self, sim: "Simulator", delay: float):
        # Round first so Timeout and Delay agree on which durations are
        # negative: -0.4 rounds to 0 and is accepted by both.
        delay = int(round(delay))
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.deadline = sim.now + delay


class Delay:
    """A reusable pure-delay yield: the own-slot cousin of :class:`Timeout`.

    Yielding a ``Delay`` resumes the process ``ns`` nanoseconds later with
    value ``None``, from its own slot in the destination tick: it always
    costs one bucket entry, where a :class:`Timeout` costs two when
    something is queued behind its wake entry.  Being stateless, one
    instance can be yielded any number of times, by any number of
    processes.  Idle waits that fire millions of times per run (Table 1's
    parked workers) use it; the drain loop in :meth:`Simulator.run`
    reschedules the resume inline, as it queues a Timeout's wake entry.
    """

    __slots__ = ("ns",)

    def __init__(self, ns: float):
        ns = int(round(ns))
        if ns < 0:
            raise SimulationError(f"negative delay: {ns}")
        self.ns = ns

    def retime(self, ns: float) -> "Delay":
        """Re-arm this instance for a different gap and return it.

        The kernel reads ``ns`` once, at the instant the delay is
        yielded, so a loop with a varying gap (open-loop arrival
        processes) can recycle one instance instead of allocating a
        ``Delay`` per sleep::

            nap = sim.delay(0)
            for gap in gaps:
                yield nap.retime(gap)
        """
        ns = int(round(ns))
        if ns < 0:
            raise SimulationError(f"negative delay: {ns}")
        self.ns = ns
        return self

    def __repr__(self) -> str:
        return f"Delay({self.ns})"


class Event(Waitable):
    """A one-shot event fired explicitly via :meth:`fire`."""

    __slots__ = ()

    #: ``fire(value=None)`` *is* the trigger, not a method wrapping it:
    #: batch completions, lock hand-offs and credit tickets pay one
    #: frame per fire, and a second fire still raises.
    fire = Waitable._trigger


class Process(Waitable):
    """A running generator; also waitable (triggers with the return value).

    A process that *raises* (rather than returning) still fires its
    completion event, with the exception instance as the value and kept
    on :attr:`error` — waiters parked on the process wake up instead of
    sleeping forever, and the exception then propagates to the caller of
    :meth:`Simulator.run` as before.
    """

    __slots__ = ("generator", "name", "_alive", "error")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._alive = True
        #: the exception that terminated the process, if any
        self.error: Optional[BaseException] = None
        sim._schedule_at(sim.now, self, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        self._sim._schedule_at(self._sim.now, self._resume_throw, Interrupt(cause))

    def _resume_throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            # Process let the interrupt propagate: treat as termination.
            self._finish(None)
            return
        except BaseException as error:
            self.error = error
            self._finish(error)
            raise
        self._wait_on(target)

    def _resume(self, value: Any) -> None:
        # Reference implementation of one process step.  The drain loop
        # in Simulator.run() inlines exactly this sequence (plus the
        # sleep reschedules) — keep the two in lockstep.
        if not self._alive:
            return
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as error:
            self.error = error
            self._finish(error)
            raise
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        sim = self._sim
        cls = type(target)
        if cls is Delay:
            sim._schedule_at(sim.now + target.ns, self, None)
        elif cls is Timeout:
            sim._schedule_at(max(target.deadline, sim.now), target, self)
        elif isinstance(target, Waitable):
            target._subscribe(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )

    def _finish(self, value: Any) -> None:
        self._alive = False
        self._trigger(value)


class Simulator:
    """The event loop.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5)
    ...     return sim.now
    >>> proc = sim.spawn(hello())
    >>> sim.run()
    >>> proc.value
    5
    """

    def __init__(self):
        #: pending tick -> its bucket (the tick being drained is not here)
        self._calendar: Dict[int, list] = {}
        #: minheap of the calendar's ticks, one entry per tick
        self._times: List[int] = []
        #: drained bucket lists recycled here instead of reallocated
        self._free: List[list] = []
        #: bucket currently being drained (events scheduled for ``now``
        #: append here so same-tick cascades stay FIFO) and its cursor,
        #: which every drain path keeps one entry past the event being
        #: executed (see :meth:`rest_of_tick_empty`)
        self._active: Optional[list] = None
        self._active_pos = 0
        self.now = 0
        #: total events executed by :meth:`step`/:meth:`run` (drives the
        #: events/sec figure reported by the perf harness)
        self.events_executed = 0
        #: when set to a list (RDMASan's leak checker does), :meth:`spawn`
        #: appends every process to it; ``None`` keeps spawn allocation-free
        self.process_registry: Optional[List[Process]] = None
        #: the one trace-recorder slot every instant / span site reads; set
        #: by :meth:`repro.obs.Observability.attach_cluster`, ``None`` keeps
        #: each site to one ``is not None`` test
        self.recorder = None
        #: per-simulation WorkBatch numbering (see repro.rnic.qp).  Scoped
        #: here rather than a process-global so batch ids — and with them
        #: traces and sanitizer reports — replay identically run-to-run.
        self.next_batch_id = 0

    # -- scheduling -------------------------------------------------------

    def _schedule_at(self, when: int, what: Any, value: Any) -> None:
        """Append ``(what, value)`` to the bucket for tick ``when``.

        ``what`` is either a plain callable or a :class:`Process` (the
        drain loop dispatches on type).  Events for the tick currently
        being drained join the active bucket, which keeps same-instant
        cascades in strict scheduling order.
        """
        now = self.now
        if when <= now:
            if when < now:
                raise SimulationError(
                    f"scheduling into the past: {when} < {now}"
                )
            bucket = self._active
            if bucket is not None:
                bucket.append(what)
                bucket.append(value)
                return
        bucket = self._calendar.get(when)
        if bucket is None:
            free = self._free
            bucket = self._calendar[when] = free.pop() if free else []
            heapq.heappush(self._times, when)
        bucket.append(what)
        bucket.append(value)

    def rest_of_tick_empty(self) -> bool:
        """Is the running step the last thing queued at this instant?

        This is the kernel's one rule for skipping a suspension: a step
        that finds its resource free while nothing else is pending at
        ``now`` may continue in place, because yielding an already-fired
        ticket would re-queue it at the back of this tick — which is the
        head, the tick being otherwise empty — and resume it next, at the
        same instant, with nothing in between.  Same-tick FIFO order is
        therefore untouched and only :attr:`events_executed` can tell the
        difference.  False while no tick is being drained (set-up code
        before ``run``) and whenever anything else is queued at ``now``;
        callers then take the ordinary ticket-and-yield path.
        """
        bucket = self._active
        return bucket is not None and self._active_pos >= len(bucket)

    def call_at(self, when: float, callback: Callable, value: Any = _NO_VALUE) -> None:
        """Run ``callback()`` — or ``callback(value)`` if ``value`` is
        given — at absolute time ``when``.

        Passing the argument through ``value`` schedules the callback
        directly, without the closure a ``lambda: callback(arg)`` wrapper
        would allocate on every call.
        """
        if value is _NO_VALUE:
            self._schedule_at(int(round(when)), _invoke_noarg, callback)
        else:
            self._schedule_at(int(round(when)), callback, value)

    def call_after(self, delay: float, callback: Callable, value: Any = _NO_VALUE) -> None:
        """Run ``callback()`` (or ``callback(value)``) after ``delay`` ns."""
        self.call_at(self.now + delay, callback, value)

    # -- factories --------------------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        """A sleep of ``delay`` ns (see :class:`Timeout`)."""
        return Timeout(self, delay)

    def delay(self, ns: float) -> Delay:
        """A reusable pure delay (see :class:`Delay`)."""
        return Delay(ns)

    def event(self) -> Event:
        return Event(self)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        process = Process(self, generator, name)
        if self.process_registry is not None:
            self.process_registry.append(process)
        return process

    # -- execution --------------------------------------------------------

    def _next_bucket(self, until: Optional[int]) -> Optional[list]:
        """Advance to the earliest pending tick and return its bucket.

        Recycles an exhausted active bucket, honours ``until``, and sets
        ``self.now``/``self._active`` for the drain.  Returns ``None``
        when nothing (eligible) is pending.
        """
        bucket = self._active
        if bucket is not None:
            if self._active_pos < len(bucket):
                if until is not None and self.now > until:
                    return None
                return bucket
            del bucket[:]
            free = self._free
            if len(free) < 1024:
                free.append(bucket)
            self._active = None
            self._active_pos = 0
        times = self._times
        if not times:
            return None
        when = times[0]
        if until is not None and when > until:
            return None
        heapq.heappop(times)
        bucket = self._calendar.pop(when)
        self.now = when
        self._active = bucket
        self._active_pos = 0
        return bucket

    def _execute(self, bucket: list) -> None:
        """Run the active bucket's next entry (``run`` inlines this)."""
        i = self._active_pos
        what = bucket[i]
        value = bucket[i + 1]
        self._active_pos = i + 2
        self.events_executed += 1
        cls = what.__class__
        if cls is Process:
            what._resume(value)
        elif cls is Timeout:
            # A wake entry (token, process): resume in place when it is
            # last in its tick, else join the back of the tick.
            if self.rest_of_tick_empty():
                value._resume(None)
            else:
                bucket.append(value)
                bucket.append(None)
        elif cls is Event:
            what._trigger(value)
        else:
            what(value)

    def step(self) -> bool:
        """Run a single event; return False when nothing is pending."""
        bucket = self._next_bucket(None)
        if bucket is None:
            return False
        self._execute(bucket)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or event budget ends."""
        if max_events is not None:
            self._run_budget(until, max_events)
            return
        if until is not None:
            until = int(round(until))
        calendar = self._calendar
        free = self._free
        times = self._times
        heappush = heapq.heappush
        while True:
            bucket = self._next_bucket(until)
            if bucket is None:
                break
            now = self.now
            i = self._active_pos
            start = i
            # Drain the whole tick.  The outer loop rechecks the length —
            # entries appended mid-drain (same-tick cascades) extend the
            # bucket past the hoisted bound, while the inner loop runs
            # free of len() calls.  The cursor is published before each
            # event runs, so when a callback raises the remaining entries
            # survive for a rerun; the finally clause settles the count.
            try:
              while True:
                n = len(bucket)
                if i >= n:
                    break
                while i < n:
                    what = bucket[i]
                    value = bucket[i + 1]
                    i += 2
                    # Publish the cursor: the step about to run may ask
                    # rest_of_tick_empty().
                    self._active_pos = i
                    cls = what.__class__
                    if cls is not Process:
                        if cls is Timeout:
                            # A wake entry (token, process): resume in
                            # place when nothing is queued behind it at
                            # this instant, else join the back of the tick.
                            if i < len(bucket):
                                bucket.append(value)
                                bucket.append(None)
                                continue
                            what, value = value, None
                        elif cls is Event:
                            # Events scheduled as themselves (no bound
                            # method per hand-off).
                            what._trigger(value)
                            continue
                        else:
                            what(value)
                            continue
                    # Fused process resume (mirrors Process._resume).
                    if not what._alive:
                        continue
                    try:
                        target = what.generator.send(value)
                    except StopIteration as stop:
                        what._finish(stop.value)
                        continue
                    except BaseException as error:
                        what.error = error
                        what._finish(error)
                        raise
                    cls = target.__class__
                    if cls is Delay or cls is Timeout:
                        # Fused sleep: one entry straight into the
                        # destination bucket, no scheduler frames — the
                        # process itself for a Delay, a wake entry at
                        # max(deadline, now) for a Timeout.
                        if cls is Delay:
                            when2 = now + target.ns
                            head, tail = what, None
                        else:
                            when2 = target.deadline
                            head, tail = target, what
                        if when2 <= now:
                            bucket.append(head)
                            bucket.append(tail)
                        else:
                            dest = calendar.get(when2)
                            if dest is None:
                                dest = calendar[when2] = (
                                    free.pop() if free else []
                                )
                                heappush(times, when2)
                            dest.append(head)
                            dest.append(tail)
                    elif isinstance(target, Waitable):
                        # Waitable._subscribe, inlined (no subclass
                        # overrides it): every waitable (Event, Process,
                        # WorkBatch) pays the same one isinstance().
                        if target._triggered:
                            # Next-tick delivery at the current time:
                            # the active bucket is exactly that.
                            bucket.append(what)
                            bucket.append(target._value)
                        else:
                            target._callbacks.append(what)
                    else:
                        raise SimulationError(
                            f"process {what.name!r} yielded "
                            f"non-waitable {target!r}"
                        )
            finally:
                self.events_executed += (i - start) >> 1
        if until is not None and until > self.now:
            self.now = until

    def _run_budget(self, until: Optional[float], max_events: int) -> None:
        """The ``max_events``-bounded variant of :meth:`run` (slow path)."""
        if until is not None:
            until = int(round(until))
        events = 0
        while events < max_events:
            bucket = self._next_bucket(until)
            if bucket is None:
                if until is not None and until > self.now:
                    self.now = until
                return
            events += 1
            self._execute(bucket)

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if idle."""
        bucket = self._active
        if bucket is not None and self._active_pos < len(bucket):
            return self.now
        times = self._times
        return times[0] if times else None
