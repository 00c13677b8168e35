"""Unit tests for locks and token buckets (repro.sim.resources)."""

import pytest

from repro.sim import FifoLock, Simulator, SpinLock, TokenBucket
from repro.sim.core import SimulationError
from tests.test_sim_core import DRIVERS


def test_fifo_lock_mutual_exclusion():
    sim = Simulator()
    lock = FifoLock(sim)
    trace = []

    def worker(tag, hold):
        yield lock.acquire()
        trace.append(("in", tag, sim.now))
        yield sim.timeout(hold)
        trace.append(("out", tag, sim.now))
        lock.release()

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 10))
    sim.run()
    assert trace == [
        ("in", "a", 0),
        ("out", "a", 10),
        ("in", "b", 10),
        ("out", "b", 20),
    ]


def test_fifo_lock_is_fair():
    sim = Simulator()
    lock = FifoLock(sim)
    order = []

    def worker(tag):
        yield lock.acquire()
        order.append(tag)
        yield sim.timeout(1)
        lock.release()

    for tag in range(8):
        sim.spawn(worker(tag))
    sim.run()
    assert order == list(range(8))


def test_release_unlocked_raises():
    sim = Simulator()
    lock = FifoLock(sim)
    with pytest.raises(RuntimeError):
        lock.release()


def test_fifo_lock_wait_statistics():
    sim = Simulator()
    lock = FifoLock(sim)

    def worker():
        yield lock.acquire()
        yield sim.timeout(10)
        lock.release()

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert lock.acquisitions == 3
    # Second waits 10, third waits 20.
    assert lock.total_wait_ns == 30
    assert lock.max_queue_len == 2


def test_spinlock_handoff_penalty_grows_with_waiters():
    def run(n_threads):
        sim = Simulator()
        lock = SpinLock(sim, bounce_ns=50)

        def worker():
            yield lock.acquire()
            yield sim.timeout(10)
            lock.release()

        for _ in range(n_threads):
            sim.spawn(worker())
        sim.run()
        return sim.now

    # With one waiter at each handoff the penalty is constant; with many
    # waiters the early handoffs are much more expensive.
    serial_2 = run(2)
    serial_8 = run(8)
    assert serial_2 == 10 + 50 * 1 + 10
    # 8 threads: handoffs see 7,6,...,1 spinners (pending waiters + winner).
    assert serial_8 == 8 * 10 + 50 * sum(range(1, 8))


def test_spinlock_bounce_cap():
    sim = Simulator()
    lock = SpinLock(sim, bounce_ns=50, bounce_cap=2)

    def worker():
        yield lock.acquire()
        yield sim.timeout(1)
        lock.release()

    for _ in range(10):
        sim.spawn(worker())
    sim.run()
    # Every handoff penalty capped at 2 * 50.
    assert sim.now <= 10 * 1 + 9 * 100


def test_token_bucket_blocks_until_replenished():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=2)
    log = []

    def taker():
        yield bucket.take(2)
        log.append(("took2", sim.now))
        yield bucket.take(3)
        log.append(("took3", sim.now))

    def putter():
        yield sim.timeout(10)
        bucket.put(1)
        yield sim.timeout(10)
        bucket.put(2)

    sim.spawn(taker())
    sim.spawn(putter())
    sim.run()
    assert log == [("took2", 0), ("took3", 20)]
    assert bucket.tokens == 0


def test_token_bucket_fifo_no_starvation():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    sim.spawn(taker("big", 5))
    sim.spawn(taker("small", 1))
    sim.run()
    bucket.put(1)  # not enough for "big"; "small" must still wait behind it
    sim.run()
    assert order == []
    bucket.put(4)
    sim.run()
    assert order == ["big"]
    bucket.put(1)
    sim.run()
    assert order == ["big", "small"]


def test_token_bucket_try_take():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=3)
    assert not bucket.try_take(2)  # no tick is being drained: take() it
    taken = []

    def taker():
        taken.append(bucket.try_take(2))
        taken.append(bucket.try_take(2))  # one token left: not enough
        yield sim.timeout(1)

    sim.spawn(taker())
    sim.run()
    assert taken == [True, False]
    assert bucket.tokens == 1


def test_token_bucket_adjust_negative_then_positive():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=1)
    bucket.adjust(-5)
    assert bucket.tokens == -4
    fired = []
    ticket = bucket.take(1)
    ticket._subscribe(lambda v: fired.append(v))
    sim.run()
    assert fired == []
    bucket.adjust(6)
    sim.run()
    assert fired == [1]
    assert bucket.tokens == 1


def test_token_bucket_rejects_negative_take():
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=1)
    with pytest.raises(ValueError):
        bucket.take(-1)


def test_spinlock_wait_includes_handoff_delay():
    """The hand-off bounce is part of the next owner's wait time."""
    sim = Simulator()
    lock = SpinLock(sim, bounce_ns=50)

    def worker():
        yield lock.acquire()
        yield sim.timeout(10)
        lock.release()

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    # Second worker waits the 10 ns hold plus the 50 ns cache-line bounce.
    assert lock.total_wait_ns == 60


def test_token_bucket_shrunk_pool_keeps_fifo_order():
    """A big head-of-line take must not be overtaken after adjust(-n)."""
    sim = Simulator()
    bucket = TokenBucket(sim, tokens=0)
    order = []

    def taker(tag, amount):
        yield bucket.take(amount)
        order.append(tag)

    sim.spawn(taker("big", 10))
    sim.spawn(taker("small", 1))
    sim.run()
    bucket.adjust(-5)
    bucket.put(6)  # pool back to 1: enough for "small", but "big" is first
    sim.run()
    assert order == []
    bucket.put(9)
    sim.run()
    assert order == ["big"]
    bucket.put(1)
    sim.run()
    assert order == ["big", "small"]


# -- grants on the spot (Simulator.rest_of_tick_empty) -------------------------
#
# A step that finds the resource free while nothing else is queued at its
# instant continues in place.  The expected trace below was recorded from
# the commit before try_acquire existed, with every acquisition spelled
# ``yield lock.acquire(owner=tag)`` / ``yield bucket.take(1)``: order and
# timestamps must not move, only the number of kernel events may.

#: what the parent commit executed for the same scenario (host cost only)
PARENT_EVENTS = 107

PARENT_TRACE = [
    ("want", "a", 0), ("want", "b", 0), ("lock", "a", 0), ("token", "a", 0),
    ("after-token", "a", 0), ("want", "c", 5), ("tick", 5),
    ("release", "a", 10), ("tick", 10), ("tick", 15), ("lock", "b", 18),
    ("token", "b", 18), ("after-token", "b", 18), ("tick", 20), ("tick", 25),
    ("release", "b", 28), ("tick", 30), ("lock", "c", 32), ("token", "c", 32),
    ("after-token", "c", 32), ("release", "c", 34), ("tick", 35),
    ("tick", 40), ("want", "d", 41), ("lock", "d", 41), ("token", "d", 41),
    ("after-token", "d", 41), ("release", "d", 42), ("tick", 45),
    ("tick", 50), ("tick", 55), ("tick", 60), ("want", "e", 61),
    ("want", "f", 61), ("lock", "e", 61), ("token", "e", 61),
    ("after-token", "e", 61), ("release", "e", 62), ("want", "g", 63),
    ("tick", 65), ("lock", "f", 66), ("token", "f", 66),
    ("after-token", "f", 66), ("release", "f", 67), ("tick", 70),
    ("lock", "g", 71), ("token", "g", 71), ("after-token", "g", 71),
    ("tick", 75), ("release", "g", 75), ("tick", 80),
]


def _contended_scenario(sim, trace):
    """Seven workers over one SpinLock and one 2-token bucket, some
    runnable at the same instant as each other or as the bystander."""
    lock = SpinLock(sim, "l", bounce_ns=4)
    bucket = TokenBucket(sim, 2, "b")

    def worker(tag, start, hold):
        yield sim.timeout(start)
        trace.append(("want", tag, sim.now))
        if not lock.try_acquire(owner=tag):
            yield lock.acquire(owner=tag)
        trace.append(("lock", tag, sim.now))
        if not bucket.try_take(1):
            yield bucket.take(1)
        trace.append(("token", tag, sim.now))
        sim.call_at(sim.now, trace.append, ("after-token", tag, sim.now))
        yield sim.timeout(hold)
        lock.release(owner=tag)
        trace.append(("release", tag, sim.now))
        yield sim.timeout(3)
        bucket.put(1)

    def bystander():
        for _ in range(16):
            yield sim.timeout(5)
            trace.append(("tick", sim.now))

    procs = [
        sim.spawn(worker(*args))
        for args in (("a", 0, 10), ("b", 0, 10), ("c", 5, 2), ("d", 41, 1),
                     ("e", 61, 1), ("f", 61, 1), ("g", 63, 4))
    ]
    procs.append(sim.spawn(bystander()))
    return lock, bucket, procs


@pytest.mark.parametrize("drive", DRIVERS)
def test_grants_on_the_spot_keep_the_parents_order(drive):
    sim = Simulator()
    trace = []
    lock, bucket, procs = _contended_scenario(sim, trace)
    drive(sim)
    assert trace == PARENT_TRACE
    assert not any(proc.alive for proc in procs)
    # Same grants, same waits: only the suspensions went.
    assert (lock.acquisitions, lock.total_wait_ns, lock.max_queue_len) == (7, 58, 2)
    assert not lock.locked and lock.owner is None
    assert bucket.tokens == 2
    # 99 while a Timeout was a waitable (trigger entry + resume entry)
    assert sim.events_executed == 78 < PARENT_EVENTS


def test_try_acquire_is_the_same_grant_as_acquire():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    assert not lock.try_acquire(owner="setup")  # no tick is being drained
    assert not lock.locked and lock.acquisitions == 0
    seen = []

    def alone():
        yield sim.timeout(5)
        seen.append(lock.try_acquire(owner="me"))
        seen.append((lock.locked, lock.owner, lock.acquisitions,
                     lock.total_wait_ns, lock.max_queue_len))
        seen.append(lock.try_acquire(owner="me"))  # taken: never re-entrant
        with pytest.raises(SimulationError, match="non-owner"):
            lock.release(owner="someone-else")
        lock.release(owner="me")
        seen.append((lock.locked, lock.owner))

    sim.spawn(alone())
    sim.run()
    assert seen == [True, (True, "me", 1, 0, 0), False, (False, None)]


def test_try_acquire_declines_when_the_tick_has_other_events():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    seen = []

    def first():
        yield sim.timeout(5)
        # ``second`` wakes at the same instant and is queued behind us:
        # continuing in place would run our critical section ahead of it.
        seen.append(("first", lock.try_acquire()))
        assert not lock.locked and lock.acquisitions == 0

    def second():
        yield sim.timeout(5)
        seen.append(("second", lock.try_acquire()))

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    assert seen == [("first", False), ("second", True)]
