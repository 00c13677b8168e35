"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.sim import Delay, Event, Interrupt, Simulator, Timeout
from repro.sim.core import SimulationError, Waitable


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10)
        log.append(sim.now)
        yield sim.timeout(5)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [10, 15]


def test_timeout_resumes_process_with_none():
    """A Timeout is a sleep, not a waitable: it carries no value."""
    sim = Simulator()

    def proc():
        value = yield sim.timeout(3)
        return (value, sim.now)

    p = sim.spawn(proc())
    sim.run()
    assert p.value == (None, 3)
    assert not issubclass(Timeout, Waitable)
    with pytest.raises(TypeError):
        sim.timeout(3, "hello")


def test_zero_delay_timeout_runs_same_instant():
    sim = Simulator()

    def proc():
        yield sim.timeout(0)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.value == 0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_timeout_rounds_before_validating():
    """-0.4 rounds to 0: Timeout and Delay must agree it is acceptable."""
    assert Delay(-0.4).ns == 0
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(-0.4)
        fired.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert fired == [0]


def test_event_fire_wakes_waiters_in_order():
    sim = Simulator()
    done = sim.event()
    order = []

    def waiter(tag):
        value = yield done
        order.append((tag, value, sim.now))

    def firer():
        yield sim.timeout(7)
        done.fire(42)

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.spawn(firer())
    sim.run()
    assert order == [("a", 42, 7), ("b", 42, 7)]


def test_waiting_on_already_fired_event():
    sim = Simulator()
    done = sim.event()
    done.fire("x")

    def proc():
        value = yield done
        return value

    p = sim.spawn(proc())
    sim.run()
    assert p.value == "x"


def test_event_double_fire_raises():
    sim = Simulator()
    done = sim.event()
    done.fire()
    with pytest.raises(SimulationError):
        done.fire()


def test_event_fire_is_the_trigger_itself():
    # one frame per fire: the alias, not a method that calls _trigger
    assert Event.fire is Waitable._trigger
    sim = Simulator()
    done = sim.event()
    done.fire(7)
    assert done.triggered and done.value == 7
    with pytest.raises(SimulationError, match="triggered twice"):
        done.fire(8)
    assert done.value == 7


def test_process_is_waitable_and_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(4)
        return 99

    def parent():
        value = yield sim.spawn(child())
        return (value, sim.now)

    p = sim.spawn(parent())
    sim.run()
    assert p.value == (99, 4)


def test_process_alive_flag():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)

    p = sim.spawn(proc())
    assert p.alive
    sim.run()
    assert not p.alive


def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.spawn(proc())
    sim.run(until=40)
    assert sim.now == 40
    sim.run()
    assert sim.now == 100


def test_run_until_beyond_last_event_sets_clock():
    sim = Simulator()
    sim.run(until=55)
    assert sim.now == 55


def test_interrupt_delivered_as_exception():
    sim = Simulator()
    caught = []

    def victim():
        try:
            yield sim.timeout(1000)
        except Interrupt as exc:
            caught.append((exc.cause, sim.now))

    def attacker(target):
        yield sim.timeout(3)
        target.interrupt("stop")

    v = sim.spawn(victim())
    sim.spawn(attacker(v))
    sim.run()
    assert caught == [("stop", 3)]


def test_yield_non_waitable_raises():
    sim = Simulator()

    def proc():
        yield 42

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_call_after_and_call_at():
    sim = Simulator()
    log = []
    sim.call_after(5, lambda: log.append(("after", sim.now)))
    sim.call_at(3, lambda: log.append(("at", sim.now)))
    sim.run()
    assert log == [("at", 3), ("after", 5)]


def test_determinism_same_instant_fifo():
    sim = Simulator()
    log = []
    for i in range(10):
        sim.call_at(1, lambda i=i: log.append(i))
    sim.run()
    assert log == list(range(10))


def test_peek_and_step():
    sim = Simulator()
    sim.call_at(9, lambda: None)
    assert sim.peek() == 9
    assert sim.step()
    assert sim.now == 9
    assert not sim.step()


def test_call_at_with_value_avoids_wrapper():
    sim = Simulator()
    log = []
    sim.call_at(3, log.append, "x")
    sim.call_after(5, log.append, "y")
    sim.call_at(4, lambda: log.append("noarg"))
    sim.run()
    assert log == ["x", "noarg", "y"]


def test_call_at_explicit_none_value():
    sim = Simulator()
    log = []
    sim.call_at(1, log.append, None)
    sim.run()
    assert log == [None]


def test_delay_resumes_at_right_time():
    sim = Simulator()
    log = []

    def proc():
        value = yield sim.delay(10)
        log.append((sim.now, value))
        yield sim.delay(0)
        log.append((sim.now, "zero"))

    sim.spawn(proc())
    sim.run()
    assert log == [(10, None), (10, "zero")]


def test_delay_is_reusable_across_processes_and_iterations():
    sim = Simulator()
    shared = sim.delay(4)
    log = []

    def proc(tag):
        for _ in range(3):
            yield shared
        log.append((tag, sim.now))

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert log == [("a", 12), ("b", 12)]


def test_delay_rounds_and_rejects_negative():
    assert Delay(2.6).ns == 3
    with pytest.raises(SimulationError):
        Delay(-1)


def test_delay_cheaper_than_timeout():
    """A Delay always costs one bucket entry.  A Timeout costs one when its
    wake entry is last in its tick (the process resumes in place) and two
    when another entry is queued behind it (the process then joins the
    back of the tick, as a waitable's subscriber would)."""

    def sleeper(sim, waiter, log):
        yield waiter
        log.append(("sleeper", sim.now))

    def events(make_sleep, behind):
        sim = Simulator()
        log = []
        sim.spawn(sleeper(sim, make_sleep(sim), log))
        if behind:
            # Runs at t=0 after the sleeper yielded: its entry at t=5 is
            # queued behind the sleep's.
            sim.call_at(0, lambda: sim.call_at(
                5, lambda: log.append(("behind", sim.now))))
        sim.run()
        return sim.events_executed, log

    timeout = lambda sim: sim.timeout(5)  # noqa: E731
    delay = lambda sim: sim.delay(5)  # noqa: E731
    # spawn's first resume + the sleep
    assert events(timeout, behind=False) == (2, [("sleeper", 5)])  # parent: 3
    assert events(delay, behind=False) == (2, [("sleeper", 5)])
    # + the two callbacks; the Timeout's sleeper goes behind the t=5 one
    assert events(timeout, behind=True) == (
        5, [("behind", 5), ("sleeper", 5)])  # parent: 5
    assert events(delay, behind=True) == (4, [("sleeper", 5), ("behind", 5)])


def test_events_executed_counter():
    sim = Simulator()
    for when in (1, 2, 3):
        sim.call_at(when, lambda: None)
    sim.run()
    assert sim.events_executed == 3
    sim.call_at(sim.now + 1, lambda: None)
    assert sim.step()
    assert sim.events_executed == 4


# -- the one rule for skipping a suspension (MODEL.md §12) ---------------------


def _drive_run(sim):
    sim.run()


def _drive_step(sim):
    while sim.step():
        pass


def _drive_budget(sim):
    while sim.peek() is not None:
        sim.run(max_events=3)


def _drive_slices(sim, horizon=80, slices=40):
    for index in range(1, slices + 1):
        sim.run(until=horizon * index / slices)
    sim.run()


#: every way the kernel drains a tick; each must publish the same cursor
DRIVERS = [_drive_run, _drive_step, _drive_budget, _drive_slices]


def test_rest_of_tick_empty_is_false_while_no_tick_is_drained():
    sim = Simulator()
    assert not sim.rest_of_tick_empty()
    sim.call_at(3, lambda: None)
    assert not sim.rest_of_tick_empty()
    sim.run()
    assert not sim.rest_of_tick_empty()


@pytest.mark.parametrize("drive", DRIVERS)
def test_rest_of_tick_empty_only_for_the_last_step_of_an_instant(drive):
    sim = Simulator()
    seen = []

    def ask(tag):
        seen.append((tag, sim.now, sim.rest_of_tick_empty()))

    def asks_then_schedules(tag):
        ask(tag)  # last entry of the tick so far ...
        sim.call_at(sim.now, ask, tag + "-child")
        ask(tag + "-again")  # ... but not once it queued a successor

    def process():
        yield sim.timeout(7)
        ask("proc")  # the Timeout's sole waker: nothing queued behind it
        yield sim.delay(2)
        ask("proc-9")  # shares t=9 with the call_at below, which is later

    sim.call_at(5, ask, "first")
    sim.call_at(5, ask, "second")
    sim.call_at(6, asks_then_schedules, "parent")
    sim.call_at(9, ask, "late")
    sim.spawn(process())
    drive(sim)
    assert seen == [
        ("first", 5, False), ("second", 5, True),
        ("parent", 6, True), ("parent-again", 6, False),
        ("parent-child", 6, True),
        ("proc", 7, True),
        ("late", 9, False), ("proc-9", 9, True),
    ]
    # 5 callbacks + 3 process steps; the Timeout's wake entry is the
    # step at t=7, resumed in place
    assert sim.events_executed == 8  # parent: 9
