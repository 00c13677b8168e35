"""Contended resources: FIFO locks, spinlocks with cache-line bouncing,
and token buckets.

The :class:`SpinLock` is the load-bearing model of this reproduction: mlx5
doorbell registers are protected by pthread spinlocks, and under high
thread counts the lock hand-off itself costs time that grows with the
number of spinning waiters (cache-line bouncing between cores).  That is
what makes the per-thread-QP policy collapse past 32 threads in the paper's
Figure 3, and the model below reproduces it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Event, SimulationError, Simulator, Waitable


class FifoLock:
    """A fair (FIFO) mutual-exclusion lock.

    Usage from a process::

        yield lock.acquire()
        ...  # critical section (may yield timeouts)
        lock.release()

    ``acquire``/``release`` optionally carry an *owner* token (any
    comparable object — verbs passes the posting thread id).  When both
    sides provide one, a release by anything other than the current
    holder raises :class:`SimulationError`; RDMASan's lock-discipline
    checker relies on this being a trustworthy oracle.  Callers that
    pass no owner keep the old unchecked behaviour.

    A hot path that expects the lock to be free skips the ticket::

        if not lock.try_acquire():
            yield lock.acquire()
    """

    def __init__(self, sim: Simulator, name: str = "lock"):
        self._sim = sim
        self.name = name
        self._locked = False
        #: owner token of the current holder (None when unlocked or when
        #: the holder did not identify itself)
        self.owner: Any = None
        self._waiters: Deque = deque()  # (Event, enqueue time, owner token)
        # Statistics
        self.acquisitions = 0
        self.total_wait_ns = 0
        self.max_queue_len = 0

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self, owner: Any = None) -> Waitable:
        ticket = self._sim.event()
        if not self._locked and not self._waiters:
            self._locked = True
            self.owner = owner
            self.acquisitions += 1
            ticket.fire(self)
        else:
            self._waiters.append((ticket, self._sim.now, owner))
            self.max_queue_len = max(self.max_queue_len, len(self._waiters))
        return ticket

    def try_acquire(self, owner: Any = None) -> bool:
        """Take the lock on the spot, or return False and change nothing.

        Succeeds exactly when :meth:`acquire` would grant at once *and*
        the caller, had it yielded that ticket, would have been resumed
        next (:meth:`Simulator.rest_of_tick_empty`) — so continuing in
        place preserves the order of everything else at this instant.
        The grant is the same grant: ``owner``, ``acquisitions`` and a
        zero wait are recorded as ``acquire`` records them.
        """
        if self._locked or self._waiters or not self._sim.rest_of_tick_empty():
            return False
        self._locked = True
        self.owner = owner
        self.acquisitions += 1
        return True

    def release(self, owner: Any = None) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name}")
        if owner is not None and self.owner is not None and owner != self.owner:
            raise SimulationError(
                f"{self.name}: release by non-owner {owner!r} "
                f"(held by {self.owner!r})"
            )
        if self._waiters:
            ticket, enqueued_at, next_owner = self._waiters.popleft()
            # The next owner is committed now even though its ticket may
            # fire after the hand-off delay: the lock is spoken for.
            self.owner = next_owner
            self.acquisitions += 1
            delay = self._handoff_delay_ns()
            # Stamp the wait at the instant the ticket actually fires: the
            # hand-off (cache-line bounce) delay is part of what the next
            # owner waits for — excluding it underestimated exactly the
            # contention the SpinLock model exists to measure.
            self.total_wait_ns += self._sim.now + delay - enqueued_at
            if delay > 0:
                # Schedule the Event object itself: the kernel dispatches
                # Events natively, so no per-hand-off bound method
                # (``ticket.fire``) is allocated on this hot path.
                self._sim._schedule_at(self._sim.now + delay, ticket, self)
            else:
                ticket.fire(self)
        else:
            self._locked = False
            self.owner = None

    def _handoff_delay_ns(self) -> int:
        return 0


class SpinLock(FifoLock):
    """A lock whose hand-off cost grows with the number of spinning waiters.

    ``bounce_ns`` models one cache-line transfer between cores; when *w*
    other threads are spinning on the lock word, the releasing store plus
    the winning CAS contend with ~*w* concurrent readers, so the hand-off
    costs ``bounce_ns * min(w, bounce_cap)`` extra nanoseconds.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "spinlock",
        bounce_ns: float = 40.0,
        bounce_cap: int = 64,
    ):
        super().__init__(sim, name)
        self.bounce_ns = bounce_ns
        self.bounce_cap = bounce_cap

    def _handoff_delay_ns(self) -> int:
        # +1: the winning thread was itself spinning on the line.
        spinners = min(len(self._waiters) + 1, self.bounce_cap)
        return int(round(self.bounce_ns * spinners))


class TokenBucket:
    """Integer token pool with blocking acquisition (credit accounting).

    SMART's work-request credits (Algorithm 1) are built on this: ``take``
    blocks the calling process until the pool holds enough tokens, ``put``
    replenishes, and ``resize`` applies UpdateCMax's delta (which may drive
    the pool transiently negative, exactly like the paper's
    ``credit += target - C_max``).
    """

    def __init__(self, sim: Simulator, tokens: int, name: str = "tokens"):
        self._sim = sim
        self.name = name
        self._tokens = tokens
        self._waiters: Deque[Any] = deque()  # (amount, Event)

    @property
    def tokens(self) -> int:
        return self._tokens

    def take(self, amount: int = 1) -> Waitable:
        """Waitable that fires once ``amount`` tokens have been debited."""
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ticket = self._sim.event()
        if not self._waiters and self._tokens - amount >= 0:
            self._tokens -= amount
            ticket.fire(amount)
        else:
            self._waiters.append((amount, ticket))
        return ticket

    def try_take(self, amount: int = 1) -> bool:
        """Debit ``amount`` on the spot, or return False and change nothing.

        Succeeds exactly when :meth:`take` would fire its ticket at once
        (enough tokens, no one queued before us) *and* the caller, had it
        yielded that ticket, would have been resumed next
        (:meth:`Simulator.rest_of_tick_empty`)::

            if not bucket.try_take(n):
                yield bucket.take(n)
        """
        if (
            self._waiters
            or self._tokens - amount < 0
            or not self._sim.rest_of_tick_empty()
        ):
            return False
        self._tokens -= amount
        return True

    def put(self, amount: int = 1) -> None:
        self._tokens += amount
        self._drain()

    def adjust(self, delta: int) -> None:
        """Add ``delta`` (possibly negative) to the pool."""
        self._tokens += delta
        if delta > 0:
            self._drain()

    def _drain(self) -> None:
        while self._waiters:
            amount, ticket = self._waiters[0]
            if self._tokens - amount < 0:
                break
            self._waiters.popleft()
            self._tokens -= amount
            ticket.fire(amount)
