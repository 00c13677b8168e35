"""The parallel sweep executor (repro.bench.parallel).

The load-bearing property is equivalence: a grid of seeded simulation
points must produce *identical* results whether it runs serially in
this process or fanned out over a process pool.  The figure suite leans
on this to parallelize with ``--jobs``/``REPRO_JOBS`` without changing
a single reported number.
"""

import os
import pickle

import pytest

from repro.bench.microbench import run_microbench
from repro.bench.parallel import (
    PointFailure,
    PointSpec,
    default_jobs,
    resolve_jobs,
    run_points,
)
from repro.bench.runner import run_hashtable
from tests._parallel_helpers import run_boom, run_exit, run_ok

#: A small Fig-7-style grid: hash-table points across systems/threads,
#: sized to keep the pooled run affordable in CI.
_FIG7_GRID = [
    PointSpec(run_hashtable, dict(
        system=system, threads=threads, item_count=4_000,
        warmup_ns=0.2e6, measure_ns=0.4e6,
    ), seed=seed)
    for system, threads, seed in [
        ("race", 2, 0),
        ("smart-ht", 2, 0),
        ("smart-ht", 4, 7),
    ]
]


class TestPointSpec:
    def test_picklable(self):
        spec = _FIG7_GRID[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_seed_overrides_kwargs(self):
        spec = PointSpec(run_microbench, dict(
            policy="per-thread-db", threads=4, depth=2,
            warmup_ns=0.1e6, measure_ns=0.2e6, seed=1,
        ), seed=9)
        explicit = PointSpec(run_microbench, dict(
            policy="per-thread-db", threads=4, depth=2,
            warmup_ns=0.1e6, measure_ns=0.2e6, seed=9,
        ))
        assert spec.run().throughput_mops == explicit.run().throughput_mops


class TestRunPoints:
    def test_empty(self):
        assert run_points([], jobs=4) == []

    def test_serial_matches_direct_calls(self):
        direct = [
            run_hashtable(**{**spec.kwargs, "seed": spec.seed})
            for spec in _FIG7_GRID
        ]
        pooled = run_points(_FIG7_GRID, jobs=1)
        assert [r.__dict__ for r in pooled] == [r.__dict__ for r in direct]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        # 0 means "all cores", not "clamp to serial".
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError):
            default_jobs()

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestFailurePropagation:
    """A failing point must name its spec; a dead worker must not hang."""

    def test_point_failure_carries_failing_spec(self):
        grid = [
            PointSpec(run_ok, dict(value=1)),
            PointSpec(run_boom, dict(x=3), seed=11),
            PointSpec(run_ok, dict(value=2)),
        ]
        with pytest.raises(PointFailure) as info:
            run_points(grid, jobs=2)
        failure = info.value
        assert failure.spec == grid[1]
        assert failure.spec.fn is run_boom
        assert failure.spec.kwargs == {"x": 3}
        assert failure.spec.seed == 11
        text = str(failure)
        assert "run_boom" in text and "ValueError" in text
        assert "worker traceback" in text
        assert "boom x=3 seed=11" in failure.worker_traceback

    def test_dead_worker_detected_instead_of_hanging(self):
        grid = [PointSpec(run_exit, dict(code=7))] + [
            PointSpec(run_ok, dict(value=i)) for i in range(6)
        ]
        with pytest.raises(PointFailure, match="died"):
            run_points(grid, jobs=2)

    def test_pool_that_breaks_while_submitting_is_a_point_failure(
            self, monkeypatch):
        """A worker that dies before every point is submitted breaks the
        pool at ``submit``: that is a ``PointFailure`` too, the broken
        pool is dropped and the next sweep gets a fresh one."""
        from concurrent.futures.process import BrokenProcessPool

        from repro.bench import parallel

        pool = parallel._get_pool(2)
        submit = pool.submit
        calls = []

        def submit_then_break(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return submit(*args, **kwargs)

        monkeypatch.setattr(pool, "submit", submit_then_break)
        grid = [PointSpec(run_ok, dict(value=i)) for i in range(4)]
        with pytest.raises(PointFailure, match="died"):
            run_points(grid, jobs=2)
        assert parallel._get_pool(2) is not pool
        assert run_points(grid, jobs=2) == [0, 2, 4, 6]

    def test_pool_rebuilt_after_failure(self):
        """The sweep after a failure gets a fresh pool and just works."""
        grid = [PointSpec(run_ok, dict(value=i)) for i in range(8)]
        assert run_points(grid, jobs=2) == [2 * i for i in range(8)]

    def test_serial_failure_propagates_original_exception(self):
        """jobs=1 runs in-process: the original exception (with its real
        traceback) is more useful than a PointFailure wrapper there."""
        with pytest.raises(ValueError, match="boom"):
            run_points([PointSpec(run_boom, dict(x=1))], jobs=1)


class TestSerialParallelEquivalence:
    """Same seeds => identical RunResult fields, serial vs process pool."""

    def test_fig7_grid_equivalent(self):
        serial = run_points(_FIG7_GRID, jobs=1)
        parallel = run_points(_FIG7_GRID, jobs=2)
        assert len(serial) == len(parallel) == len(_FIG7_GRID)
        for spec, a, b in zip(_FIG7_GRID, serial, parallel):
            assert a.__dict__ == b.__dict__, spec

    def test_microbench_points_equivalent(self):
        grid = [
            PointSpec(run_microbench, dict(
                policy=policy, threads=4, depth=4,
                warmup_ns=0.1e6, measure_ns=0.3e6,
            ), seed=seed)
            for policy in ("per-thread-qp", "per-thread-db")
            for seed in (1, 2)
        ]
        serial = run_points(grid, jobs=1)
        parallel = run_points(grid, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.__dict__ == b.__dict__