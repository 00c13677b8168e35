"""Determinism guarantees of the optimized kernel.

The kernel hot-path rework (direct callback scheduling, the ``Delay``
fast path, the memoized cache models) must not change *what* happens,
only how fast the host executes it.  These tests pin the observable
contract: a composite scenario built from the ``test_sim_core``
primitives replays with an exact, hard-coded event ordering, and two
identically-seeded runs of the RNIC datapath produce identical traces.
"""

import random

from repro.sim import Simulator

#: The exact (time, tag) trace of :func:`_composite_scenario`, fixed by
#: the kernel's ordering rules: events at the same instant run in
#: scheduling order; a subscriber of an already-triggered waitable is
#: delivered on the next tick at the current time.
EXPECTED_TRACE = [
    (0, "spawn-b"),           # spawned first -> resumed first
    (0, "spawn-a"),
    (2, "call_at-2"),
    (3, "call_after-3"),      # scheduled at t=0, before the timeouts fire
    (3, "b-woke"),            # b's timeout was created before a's
    (3, "a-woke"),
    (3, "fired-received"),    # subscription delivered same instant as fire
    (5, "a-delay"),           # Delay resume scheduled before b's timeout
    (5, "b-timeout"),
    (5, "join"),
]


def _composite_scenario():
    sim = Simulator()
    trace = []
    fired = sim.event()

    def proc_a(done):
        trace.append((sim.now, "spawn-a"))
        yield sim.timeout(3)
        trace.append((sim.now, "a-woke"))
        fired.fire("payload")
        yield sim.delay(2)
        trace.append((sim.now, "a-delay"))
        yield done
        trace.append((sim.now, "join"))

    def proc_b():
        trace.append((sim.now, "spawn-b"))
        yield sim.timeout(3)
        trace.append((sim.now, "b-woke"))
        value = yield fired  # already triggered by proc_a at t=3
        trace.append((sim.now, f"fired-{value and 'received'}"))
        yield sim.timeout(2)
        trace.append((sim.now, "b-timeout"))
        return "b-done"

    b = sim.spawn(proc_b())
    sim.spawn(proc_a(b))
    sim.call_at(2, trace.append, (2, "call_at-2"))
    sim.call_after(3, lambda: trace.append((sim.now, "call_after-3")))
    sim.run()
    return trace, sim.events_executed


def test_composite_scenario_exact_ordering():
    trace, _events = _composite_scenario()
    assert trace == EXPECTED_TRACE


def test_composite_scenario_replays_identically():
    first_trace, first_events = _composite_scenario()
    second_trace, second_events = _composite_scenario()
    assert first_trace == second_trace
    assert first_events == second_events


def test_same_instant_fifo_with_mixed_scheduling_apis():
    """call_at with and without a value and Timeouts interleave FIFO."""
    sim = Simulator()
    log = []
    sim.call_at(1, log.append, "value-form")
    sim.call_at(1, lambda: log.append("noarg-form"))

    def proc():
        yield sim.timeout(1)
        log.append("process")

    sim.spawn(proc())
    sim.run()
    assert log == ["value-form", "noarg-form", "process"]


def _seeded_datapath_run(seed):
    """A small seeded microbench; returns every observable outcome."""
    from repro.bench.microbench import run_microbench

    result = run_microbench(
        policy="per-thread-db", threads=8, depth=4,
        warmup_ns=0.2e6, measure_ns=0.4e6, seed=seed,
    )
    return (
        result.throughput_mops,
        result.dram_bytes_per_wr,
        result.measured_wrs,
    )


def test_seeded_datapath_bitwise_replay():
    runs = [_seeded_datapath_run(seed=5) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def _instrumented_chaos_run():
    """A faulty + traced + sanitized run; returns every observable artifact.

    This is the worst-case determinism test: fault injection consumes
    seeded randomness, tracing observes the run passively, and RDMASan
    shadows every remote access.  None of them may perturb the simulated
    outcome, and all of their own outputs must replay exactly.
    """
    from repro.bench.microbench import run_microbench
    from repro.obs import Observability, chrome_trace

    obs = Observability()
    result = run_microbench(
        policy="per-thread-db", threads=8, depth=4,
        warmup_ns=0.2e6, measure_ns=0.6e6, seed=5,
        faults="loss=0.05@0.3ms+0.3ms", fault_seed=11,
        obs=obs, sanitize=True,
    )
    return (
        (result.throughput_mops, result.dram_bytes_per_wr,
         result.messages_dropped, result.retransmissions, result.wasted_wrs),
        result.sanitizer,
        obs.metrics(),
        chrome_trace(obs.recorder),
    )


def test_chaos_traced_sanitized_run_replays_bit_identically():
    first = _instrumented_chaos_run()
    second = _instrumented_chaos_run()
    assert first[0] == second[0]  # simulated outcomes
    assert first[1] == second[1]  # sanitizer report
    assert first[2] == second[2]  # metrics snapshot
    assert first[3] == second[3]  # full chrome trace
    # The faults actually fired (the run exercised the chaos path).
    assert first[0][2] > 0


def test_heap_order_survives_heavy_same_instant_load():
    """Thousands of same-instant events keep strict scheduling order."""
    sim = Simulator()
    log = []
    order = list(range(2000))
    random.Random(3).shuffle(order)  # schedule values in scrambled order
    for value in order:
        sim.call_at(10, log.append, value)
    sim.run()
    assert log == order
