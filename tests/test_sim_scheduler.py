"""Calendar scheduler edge cases (repro.sim.core.Simulator).

The kernel replaced a per-event binary heap with a calendar of per-tick
buckets ordered by a heap of distinct pending ticks.  These tests pin the
properties the swap must not change:

* same-tick FIFO — events at one instant run in scheduling order, even
  when they were inserted through different paths (calendar bucket
  before the tick, active-bucket append mid-drain) or the tick crosses a
  bucket recycle boundary;
* far-future events, chains of them and near-term events scheduled after
  a bounded ``run(until=...)`` run in correct global time order;
* ``peek()``/``step()``/``run(until=...)`` agree with the old heap
  semantics, checked against a reference ``(when, seq)`` heap scheduler
  on randomized event schedules that include same-tick cascades, near,
  mid and far offsets, and schedules made between sliced runs;
* a ``Timeout`` (a sleep token, not a waitable) wakes processes in the
  order the waitable ``Timeout`` it replaced did, under every drain
  path — a Hypothesis differential against that old class.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import SimulationError, Simulator, Timeout, Waitable

#: the scale of a "far" offset: the oracles draw near (< 64 ns), mid
#: (< _HORIZON) and far (>= _HORIZON) timers
_HORIZON = 8192


class TestSameTickFifo:
    def test_schedule_order_is_execution_order(self):
        sim = Simulator()
        trace = []
        for i in range(100):
            sim.call_at(50, trace.append, i)
        sim.run()
        assert trace == list(range(100))
        assert sim.now == 50

    def test_mid_drain_appends_run_after_preexisting_entries(self):
        """A same-tick event scheduled *while the tick drains* joins the
        end of the bucket — after everything scheduled before the tick
        began, exactly like the old heap's (when, seq) order."""
        sim = Simulator()
        trace = []

        def cascade(_):
            trace.append("cascade")
            sim.call_at(sim.now, trace.append, "late")

        sim.call_at(10, cascade, None)
        for i in range(3):
            sim.call_at(10, trace.append, i)
        sim.run()
        assert trace == ["cascade", 0, 1, 2, "late"]

    def test_fifo_across_bucket_recycle_boundary(self):
        """Ticks reuse recycled bucket lists; leftover state from a
        drained tick must never leak into a later one."""
        sim = Simulator()
        trace = []
        for tick in (5, 6, 7):
            for i in range(4):
                sim.call_at(tick, trace.append, (tick, i))
        sim.run()
        assert trace == [(t, i) for t in (5, 6, 7) for i in range(4)]

    def test_ticks_far_apart_do_not_collide(self):
        """Ticks whole horizons apart each run alone, in time order."""
        sim = Simulator()
        trace = []
        sim.call_at(100, trace.append, "near")
        sim.call_at(100 + _HORIZON, trace.append, "far")
        sim.call_at(100 + 3 * _HORIZON, trace.append, "farther")
        sim.run()
        assert trace == ["near", "far", "farther"]
        assert sim.now == 100 + 3 * _HORIZON

    def test_process_and_callback_interleave_fifo(self):
        sim = Simulator()
        trace = []

        def proc(tag):
            yield sim.timeout(20)
            trace.append(tag)

        sim.spawn(proc("p0"))
        sim.call_at(20, trace.append, "cb0")
        sim.spawn(proc("p1"))
        sim.call_at(20, trace.append, "cb1")
        sim.run()
        # Timeouts for p0/p1 were scheduled (at t=0) before the bare
        # callbacks... no: spawn schedules the first resume at t=0; the
        # timeout is created when the process first runs, i.e. *after*
        # both call_at(20) entries.  FIFO at t=20 is cb0, cb1, p0, p1.
        assert trace == ["cb0", "cb1", "p0", "p1"]


class TestFarFuture:
    def test_overflow_preserves_same_tick_fifo(self):
        sim = Simulator()
        trace = []
        far = 2 * _HORIZON + 123
        for i in range(10):
            sim.call_at(far, trace.append, i)
        sim.run()
        assert trace == list(range(10))

    def test_cascading_far_future_chains(self):
        """Events that schedule further far-future events run in time
        order, hop after hop."""
        sim = Simulator()
        trace = []

        def hop(n):
            trace.append((sim.now, n))
            if n < 20:
                sim.call_at(sim.now + _HORIZON + 1, hop, n + 1)

        sim.call_at(5, hop, 0)
        sim.run()
        assert [n for _, n in trace] == list(range(21))
        whens = [t for t, _ in trace]
        assert whens == sorted(whens)
        assert whens[-1] == 5 + 20 * (_HORIZON + 1)

    def test_stale_window_straggler_served_in_order(self):
        """An ``until``-bounded run that stops short of a far event; a
        near-term event scheduled afterwards must still run first."""
        sim = Simulator()
        trace = []
        far = 3 * _HORIZON
        sim.call_at(far, trace.append, "late")
        sim.run(until=10)
        assert sim.now == 10
        sim.call_at(50, trace.append, "early")
        assert sim.peek() == 50
        sim.run()
        assert trace == ["early", "late"]

    def test_scheduling_into_the_past_raises(self):
        sim = Simulator()
        sim.call_at(100, lambda _: None, None)
        sim.run()
        with pytest.raises(SimulationError, match="into the past"):
            sim.call_at(99, lambda _: None, None)


class TestDelayRetime:
    def test_recycled_delay_matches_fresh_delays(self):
        """One re-armed Delay instance sleeps exactly like a fresh
        Delay per gap (the open-loop arrival-loop pattern)."""
        gaps = [3, 0, 17, 8192 * 2, 1]

        def run(use_retime):
            sim = Simulator()
            ticks = []
            if use_retime:
                nap = sim.delay(0)

                def proc():
                    for gap in gaps:
                        yield nap.retime(gap)
                        ticks.append(sim.now)
            else:
                def proc():
                    for gap in gaps:
                        yield sim.delay(gap)
                        ticks.append(sim.now)
            sim.spawn(proc())
            sim.run()
            return ticks, sim.events_executed

        assert run(True) == run(False)

    def test_retime_rounds_and_validates(self):
        sim = Simulator()
        nap = sim.delay(0)
        assert nap.retime(4.6).ns == 5
        with pytest.raises(SimulationError, match="negative delay"):
            nap.retime(-1)


# ---------------------------------------------------------------------------
# Randomized oracle: the kernel vs a reference (when, seq) heap scheduler.
# ---------------------------------------------------------------------------


class HeapScheduler:
    """The old kernel's scheduling semantics, small enough to audit.

    A binary heap of ``(when, seq, callback, value)`` with a global
    sequence counter: strict time order, FIFO within a tick.  Only the
    surface the oracle drives (``call_at``/``run``/``step``/``peek``).
    """

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap = []

    def call_at(self, when, callback, value=None):
        when = int(round(when))
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when}")
        heapq.heappush(self._heap, (when, self._seq, callback, value))
        self._seq += 1

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def step(self):
        if not self._heap:
            return False
        when, _, callback, value = heapq.heappop(self._heap)
        self.now = when
        callback(value)
        return True

    def run(self, until=None):
        if until is not None:
            until = int(round(until))
        while self._heap and (until is None or self._heap[0][0] <= until):
            when, _, callback, value = heapq.heappop(self._heap)
            self.now = when
            callback(value)
        if until is not None and until > self.now:
            self.now = until


def _load_schedule(sim, trace, seed, initial=40, budget=300):
    """Seed ``sim`` with a randomized, self-extending event schedule.

    Callbacks record ``(now, event_id)`` and may schedule more callbacks
    at offsets drawn from every interesting regime: same tick, next
    tick, near, mid and far past ``_HORIZON``.  All randomness derives
    from ``seed`` and the event id, so two schedulers executing in the
    same order draw identical schedules.  Returns the callback factory,
    so a test can schedule more events of the same kind from outside.
    """
    state = {"next_id": initial, "budget": budget}

    def make_cb(eid):
        def cb(_value):
            trace.append((sim.now, eid))
            rng = random.Random((seed << 24) ^ eid)
            for _ in range(rng.randrange(3)):
                if state["budget"] <= 0:
                    return
                state["budget"] -= 1
                child = state["next_id"]
                state["next_id"] += 1
                offset = rng.choice((
                    0, 0, 1,
                    rng.randrange(1, 64),
                    rng.randrange(1, _HORIZON),
                    rng.randrange(_HORIZON, 20 * _HORIZON),
                ))
                sim.call_at(sim.now + offset, make_cb(child), None)
        return cb

    rng = random.Random(seed)
    for eid in range(initial):
        when = rng.choice((
            rng.randrange(0, 8),                       # dense same-tick
            rng.randrange(0, _HORIZON),                # mid
            rng.randrange(_HORIZON, 30 * _HORIZON),    # far
        ))
        sim.call_at(when, make_cb(eid), None)
    return make_cb


@pytest.mark.parametrize("seed", range(8))
class TestHeapOracle:
    def test_full_run_matches_heap(self, seed):
        sim_trace, heap_trace = [], []
        sim, heap = Simulator(), HeapScheduler()
        _load_schedule(sim, sim_trace, seed)
        _load_schedule(heap, heap_trace, seed)
        sim.run()
        heap.run()
        assert sim_trace == heap_trace
        assert sim.now == heap.now
        assert sim.peek() is None and heap.peek() is None

    def test_chunked_run_until_matches_heap(self, seed):
        """run(until=...) in random increments: identical traces, nows
        and peek() after every chunk."""
        sim_trace, heap_trace = [], []
        sim, heap = Simulator(), HeapScheduler()
        _load_schedule(sim, sim_trace, seed)
        _load_schedule(heap, heap_trace, seed)
        rng = random.Random(seed ^ 0xC0FFEE)
        until = 0
        while sim.peek() is not None or heap.peek() is not None:
            until += rng.choice((
                1, 7, rng.randrange(1, 600),
                rng.randrange(1, 3 * _HORIZON),
            ))
            sim.run(until=until)
            heap.run(until=until)
            assert sim_trace == heap_trace
            assert sim.now == heap.now == until
            assert sim.peek() == heap.peek()
        assert sim_trace == heap_trace

    def test_stepwise_matches_heap(self, seed):
        sim_trace, heap_trace = [], []
        sim, heap = Simulator(), HeapScheduler()
        _load_schedule(sim, sim_trace, seed, initial=20, budget=120)
        _load_schedule(heap, heap_trace, seed, initial=20, budget=120)
        while True:
            assert sim.peek() == heap.peek()
            advanced = sim.step()
            assert advanced == heap.step()
            assert sim_trace == heap_trace
            if not advanced:
                break
            assert sim.now == heap.now

    def test_mixed_step_and_run_matches_heap(self, seed):
        """Interleaving step() with bounded run() calls must not disturb
        the order (the kernel's partially-drained active bucket is the
        tricky state here)."""
        sim_trace, heap_trace = [], []
        sim, heap = Simulator(), HeapScheduler()
        _load_schedule(sim, sim_trace, seed)
        _load_schedule(heap, heap_trace, seed)
        rng = random.Random(seed ^ 0xBEEF)
        while sim.peek() is not None:
            if rng.random() < 0.5:
                for _ in range(rng.randrange(1, 6)):
                    assert sim.step() == heap.step()
            else:
                until = sim.now + rng.randrange(0, 2 * _HORIZON)
                sim.run(until=until)
                heap.run(until=until)
            assert sim_trace == heap_trace
            assert sim.now == heap.now
            assert sim.peek() == heap.peek()
        assert not heap.step()
        assert sim_trace == heap_trace

    def test_schedules_between_slices_match_heap(self, seed):
        """``call_at`` made *outside* the drain, between sliced
        ``run(until=...)`` calls (as ``bench.runner.run_window`` and a
        sliced benchmark run do), at ``now``, ``now + 1`` and far ahead:
        identical traces, clocks and ``peek()`` after every slice."""
        sim_trace, heap_trace = [], []
        sim, heap = Simulator(), HeapScheduler()
        sim_cb = _load_schedule(sim, sim_trace, seed)
        heap_cb = _load_schedule(heap, heap_trace, seed)
        rng = random.Random(seed ^ 0xFACADE)
        eid = first = 1 << 20
        while sim.peek() is not None or heap.peek() is not None:
            for _ in range(rng.randrange(1, 4) if eid < first + 60 else 0):
                offset = rng.choice((
                    0, 1, rng.randrange(_HORIZON, 10 * _HORIZON)))
                sim.call_at(sim.now + offset, sim_cb(eid), None)
                heap.call_at(heap.now + offset, heap_cb(eid), None)
                eid += 1
            until = sim.now + rng.choice((0, 1, rng.randrange(1, 3 * _HORIZON)))
            sim.run(until=until)
            heap.run(until=until)
            assert sim_trace == heap_trace
            assert sim.now == heap.now
            assert sim.peek() == heap.peek()


# ---------------------------------------------------------------------------
# Differential: the Timeout sleep token vs the waitable Timeout it replaced.
# ---------------------------------------------------------------------------


class WaitableTimeout(Waitable):
    """The kernel's Timeout before it became a sleep token (the oracle).

    A waitable that schedules its own trigger at creation; the trigger
    appends each subscriber at the back of the tick.  Every sleep costs a
    trigger entry and a resume entry.
    """

    __slots__ = ()

    def __init__(self, sim, delay):
        super().__init__(sim)
        delay = int(round(delay))
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        sim._schedule_at(sim.now + delay, self._trigger, None)


#: offsets drawn from every regime: same tick, the next few, far
_OFFSETS = st.sampled_from((0, 0, 1, 2, 3, 5, _HORIZON + 2))

_OPS = st.one_of(
    st.tuples(st.just("timeout"), _OFFSETS),
    st.tuples(st.just("delay"), _OFFSETS),
    st.tuples(st.just("call_at"), _OFFSETS),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
)

_DRIVERS = st.one_of(
    st.tuples(st.just("run"), st.just(0)),
    st.tuples(st.just("step"), st.just(0)),
    st.tuples(st.just("budget"), st.integers(1, 5)),
    st.tuples(st.just("until"), st.sampled_from((1, 2, 3, 7, _HORIZON))),
)


def _play(sleep, scripts, calls, driver):
    """Run ``scripts`` (one op list per process) and the top-level
    ``calls`` under ``driver``; return the ``(time, tag)`` trace, the
    ``(now, trace length)`` after every ``until`` slice, the final clock
    and the kernel events executed."""
    sim = Simulator()
    trace = []
    events = [sim.event() for _ in range(3)]

    def fire(index, tag):
        trace.append((sim.now, tag))
        if not events[index].triggered:
            events[index].fire()

    def process(pid, ops):
        for k, (op, arg) in enumerate(ops):
            tag = f"p{pid}.{k}"
            if op == "timeout":
                yield sleep(sim, arg)
            elif op == "delay":
                yield sim.delay(arg)
            elif op == "call_at":
                sim.call_at(sim.now + arg, trace.append, (sim.now + arg, tag + "-cb"))
            elif op == "fire":
                fire(arg, tag + "-fire")
            else:
                yield events[arg]
            trace.append((sim.now, tag))

    for number, (when, index) in enumerate(calls):
        sim.call_at(when, lambda pair: fire(*pair), (index, f"cb{number}"))
    for pid, ops in enumerate(scripts):
        sim.spawn(process(pid, ops))
    kind, arg = driver
    slices = []
    if kind == "run":
        sim.run()
    elif kind == "step":
        while sim.step():
            pass
    elif kind == "budget":
        while sim.peek() is not None:
            sim.run(max_events=arg)
    else:
        while sim.peek() is not None:
            sim.run(until=sim.now + arg)
            slices.append((sim.now, len(trace)))
    return trace, slices, sim.now, sim.events_executed


class TestTimeoutToken:
    @given(
        scripts=st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=4),
        calls=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2)), max_size=4),
        driver=_DRIVERS,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_order_as_the_waitable_timeout(self, scripts, calls, driver):
        trace, slices, now, events = _play(Timeout, scripts, calls, driver)
        old_trace, old_slices, old_now, old_events = _play(
            WaitableTimeout, scripts, calls, driver)
        assert trace == old_trace
        assert now == old_now
        if driver[0] == "until":
            assert slices == old_slices
        # a wake entry is one entry where the old sleep was two, plus
        # one more only when something was queued behind it
        assert events <= old_events

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_timeout_created_before_it_is_yielded(self, drive):
        """The deadline is fixed at creation, the queue position at the
        yield: a token yielded before its deadline sleeps until it, one
        yielded past it wakes at once, at the back of the current tick."""
        sim = Simulator()
        trace = []

        def early():
            token = sim.timeout(10)  # deadline 10
            yield sim.delay(4)
            sim.call_at(10, trace.append, (10, "queued at 4"))
            yield token  # wake entry at 10, behind "queued at 4"
            trace.append((sim.now, "early woke"))

        def late():
            token = sim.timeout(3)  # deadline 3
            yield sim.delay(8)
            sim.call_at(8, trace.append, (8, "queued at 8"))
            yield token  # past its deadline: wake entry at 8, at the back
            trace.append((sim.now, "late woke"))

        sim.call_at(10, trace.append, (10, "queued at 0"))
        sim.spawn(early())
        sim.spawn(late())
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert trace == [
            (8, "queued at 8"), (8, "late woke"),
            (10, "queued at 0"), (10, "queued at 4"), (10, "early woke"),
        ]
        # 2 spawns + 2 delays + 3 callbacks + 2 wake entries, each last in
        # its tick and so resumed in place
        assert sim.events_executed == 9
