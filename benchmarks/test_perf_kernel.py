"""Kernel perf-regression harness.

Tracks the raw speed of the simulator itself — events/sec through the
event loop, wall-clock of one representative figure point, and the
serial vs parallel wall-clock of a small figure grid — and emits the
measurements as ``benchmarks/results/BENCH_kernel.json`` so the perf
trajectory is visible across PRs.

Assertions here are deliberately loose sanity floors (CI machines vary
wildly); the JSON carries the real numbers.
"""

import json
import os
import pathlib
import time

import pytest

from repro.bench.microbench import run_microbench
from repro.bench.parallel import PointSpec, run_points
from repro.sim.core import Simulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_kernel.json"

#: collected by the tests, flushed by the module fixture
_metrics = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json():
    yield
    RESULTS_DIR.mkdir(exist_ok=True)
    _metrics["cpu_count"] = os.cpu_count()
    BENCH_JSON.write_text(json.dumps(_metrics, indent=2, sort_keys=True) + "\n")


# -- raw event-loop throughput -------------------------------------------------


def _timeout_storm(processes=50, sleeps=2000):
    """The classic two-events-per-sleep workload (Timeout waitables)."""
    sim = Simulator()

    def sleeper():
        for _ in range(sleeps):
            yield sim.timeout(7)

    for _ in range(processes):
        sim.spawn(sleeper())
    sim.run()
    return sim.events_executed


def _delay_storm(processes=50, sleeps=2000):
    """The same sleep workload on the one-event ``Delay`` fast path."""
    sim = Simulator()
    nap = sim.delay(7)

    def sleeper():
        for _ in range(sleeps):
            yield nap

    for _ in range(processes):
        sim.spawn(sleeper())
    sim.run()
    return sim.events_executed


def test_event_throughput_timeout_path(benchmark):
    events = benchmark.pedantic(_timeout_storm, rounds=3, iterations=1)
    per_sec = events / benchmark.stats.stats.min
    _metrics["timeout_path_events_per_sec"] = per_sec
    _metrics["timeout_path_sleeps_per_sec"] = (50 * 2000) / benchmark.stats.stats.min
    assert per_sec > 50_000  # sanity floor only


def test_event_throughput_delay_path(benchmark):
    events = benchmark.pedantic(_delay_storm, rounds=3, iterations=1)
    per_sec = events / benchmark.stats.stats.min
    _metrics["delay_path_events_per_sec"] = per_sec
    _metrics["delay_path_sleeps_per_sec"] = (50 * 2000) / benchmark.stats.stats.min
    assert per_sec > 50_000
    # The whole point of Delay: the same simulated sleeps in fewer host
    # cycles than the two-event Timeout path.
    if "timeout_path_sleeps_per_sec" in _metrics:
        assert (
            _metrics["delay_path_sleeps_per_sec"]
            > _metrics["timeout_path_sleeps_per_sec"]
        )


# -- blade allocator churn -----------------------------------------------------


def _allocator_churn(steps=40_000):
    """Seeded alloc/free churn across the slab and arena layers."""
    import random

    from repro.memory.allocator import BladeAllocator

    rng = random.Random(11)
    blade = BladeAllocator(8, 64 << 20)
    live = []
    for _ in range(steps):
        if live and rng.random() < 0.5:
            blade.free(live.pop(rng.randrange(len(live))))
        else:
            live.append(blade.alloc(rng.choice((64, 100, 256, 1024, 4096, 8192))))
    return steps


def test_allocator_churn_throughput(benchmark):
    ops = benchmark.pedantic(_allocator_churn, rounds=3, iterations=1)
    per_sec = ops / benchmark.stats.stats.min
    _metrics["allocator_ops_per_sec"] = per_sec
    assert per_sec > 10_000  # sanity floor only


# -- representative figure point ----------------------------------------------


def _fig7_point():
    from repro.bench.runner import run_hashtable

    return run_hashtable(
        "smart-ht", threads=8, item_count=20_000,
        warmup_ns=0.5e6, measure_ns=1.0e6,
    )


def test_figure_point_wallclock(benchmark):
    result = benchmark.pedantic(_fig7_point, rounds=1, iterations=1)
    _metrics["fig7_point_wall_s"] = benchmark.stats.stats.min
    _metrics["fig7_point_mops"] = result.throughput_mops
    assert result.throughput_mops > 0


# -- ODP + doorbell-merging microbench point ----------------------------------


def _odp_merge_point():
    from repro.rnic.config import RnicConfig

    return run_microbench(
        policy="per-thread-db", threads=8, depth=16, payload=64,
        op="read", access="seq", warmup_ns=0.2e6, measure_ns=0.6e6,
        config=RnicConfig(pinned_ratio=0.5, merge_wrs=True, adaptive_poll=True),
    )


def test_odp_merge_point_wallclock(benchmark):
    result = benchmark.pedantic(_odp_merge_point, rounds=1, iterations=1)
    _metrics["odp_merge_point_wall_s"] = benchmark.stats.stats.min
    # Simulated throughput is deterministic (machine-independent), so the
    # perf gate can pin it exactly: any drift means the ODP/merge cost
    # model changed, not that the host was slow.
    _metrics["odp_merge_point_mops"] = result.throughput_mops
    assert result.throughput_mops > 0
    assert result.odp_faults > 0, "pinned_ratio=0.5 must fault"
    assert result.merged_wrs > 0, "seq access must merge"


# -- near-memory offload graph point ------------------------------------------


def _offload_point():
    from repro.bench.graph_runner import run_graph

    return run_graph(
        mode="offload", algo="bfs", vertices=128, degree=6, skew=0.6,
        seed=1, chunk=32,
    )


def test_offload_point_wallclock(benchmark):
    result = benchmark.pedantic(_offload_point, rounds=1, iterations=1)
    _metrics["offload_point_wall_s"] = benchmark.stats.stats.min
    # Simulated edge throughput is deterministic (machine-independent),
    # so the gate pins it exactly: drift means the offload cost model or
    # the BFS chunking changed, not that the host was slow.
    _metrics["offload_point_edges_per_us"] = result.edges_per_us
    assert result.edges_per_us > 0
    assert result.am_messages > 0, "offload mode must use active messages"
    assert result.wasted_iops == 0, "offload must not burn CAS retries"


# -- parallel sweep speedup ----------------------------------------------------


def _small_grid():
    return [
        PointSpec(run_microbench, dict(
            policy="per-thread-db", threads=threads, depth=8,
            warmup_ns=0.2e6, measure_ns=0.6e6,
        ))
        for threads in (8, 16, 32, 48, 64, 96)
    ]


def test_parallel_grid_speedup():
    grid = _small_grid()
    started = time.perf_counter()
    serial = run_points(grid, jobs=1)
    serial_s = time.perf_counter() - started
    jobs = min(4, os.cpu_count() or 1)
    # Cold run pays pool construction (fork + import); the warm run is
    # what every sweep after the first costs on the persistent pool, so
    # that is the speedup we pin.
    started = time.perf_counter()
    cold = run_points(grid, jobs=jobs)
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm = run_points(grid, jobs=jobs)
    warm_s = time.perf_counter() - started
    _metrics["grid_points"] = len(grid)
    _metrics["grid_serial_wall_s"] = serial_s
    _metrics["grid_parallel_cold_wall_s"] = cold_s
    _metrics["grid_parallel_wall_s"] = warm_s
    _metrics["grid_parallel_jobs"] = jobs
    # jobs=1 degenerates to a second serial run (single-core runner);
    # a "speedup" there would only measure cache warmth.
    _metrics["grid_speedup"] = serial_s / warm_s if jobs > 1 else None
    # Identical results regardless of executor...
    for a, b in zip(serial, cold):
        assert a.__dict__ == b.__dict__
    for a, b in zip(serial, warm):
        assert a.__dict__ == b.__dict__
    # ...and a real speedup where the hardware can provide one (pool
    # overhead dominates on single-core runners, so only assert there).
    if jobs >= 4:
        assert warm_s < serial_s, (serial_s, warm_s)