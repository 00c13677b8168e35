"""Each of the three runners once, through the benchmark's own wrappers.

Run with ``pytest benchmarks/e2e`` (not part of tier-1; the two
application points spend ~10 s each in their pinned warm-up).
"""

import json
import math

import pytest

import run

#: the first workload of each runner
ONE_PER_RUNNER = list({w.runner: w for w in reversed(run.WORKLOADS.values())}.values())


@pytest.mark.parametrize("workload", ONE_PER_RUNNER, ids=lambda w: w.name)
def test_phase_split_and_window_counts(workload):
    (repeat,) = run.run_repeats(workload, seeds=[0], measure_ns=0.1e6)

    phases = repeat.setup_s + repeat.warmup_s + repeat.window_s + repeat.collect_s
    assert phases == pytest.approx(repeat.wall_s, rel=0.02)
    assert min(repeat.setup_s, repeat.warmup_s, repeat.window_s, repeat.collect_s) > 0

    assert repeat.window_sim_ns == 100_000
    assert repeat.ops > 0
    for name in ("events", "wqe_processed", "doorbell_rings", "cqe_delivered",
                 "messages", "bytes_carried", "dram_bytes"):
        assert repeat.counts[name] > 0, name
    assert repeat.counts["reads"] + repeat.counts["atomics"] > 0
    assert 0 < repeat.requester_util <= 1.0 + 1e-9
    assert run.failed_operations(workload, [repeat]) == 0
    assert run.output_errors(workload, [repeat]) == []

    for name, (value, _unit) in {**run.end_to_end([repeat], 1.0),
                                 **run.per_layer_untraced([repeat])}.items():
        assert math.isfinite(value), name


def test_wrappers_are_removed_afterwards():
    import repro.bench.runner as runner
    from repro.cluster import Cluster
    from repro.sim import Simulator

    before = (Simulator.run, runner.measure, Cluster.__init__)
    with run.Probe():
        assert Simulator.run is not before[0]
    assert (Simulator.run, runner.measure, Cluster.__init__) == before


def test_determinism_guard_names_the_differing_field():
    workload = run.WORKLOADS["verbs_micro"]
    first, second = run.run_repeats(workload, seeds=[0, 0], measure_ns=0.05e6)
    assert run.output_errors(workload, [first, second]) == []
    second.sim_digest = "0" * 64
    second.counts["events"] += 1
    errors = run.output_errors(workload, [first, second])
    assert any("sim_digest" in e for e in errors)
    assert any("counts.events" in e for e in errors)


def test_runner_seeds_replay_the_first_and_never_collide():
    assert run.runner_seeds(0, 3) == [0, 1, 0]
    assert run.runner_seeds(7, 4) == [28, 29, 30, 28]
    seen = [s for seed in range(20) for s in run.runner_seeds(seed, 4)[:-1]]
    assert len(seen) == len(set(seen))


def test_pool_sums_counts_and_averages_latencies():
    workload = run.WORKLOADS["verbs_micro"]
    a, b, replay = run.run_repeats(workload, seeds=[0, 1, 0], measure_ns=0.05e6)
    pooled = run.pool(run.distinct([a, b, replay]))
    assert pooled.ops == a.ops + b.ops
    assert pooled.counts["events"] == a.counts["events"] + b.counts["events"]
    assert pooled.sim_p99_ns == (a.sim_p99_ns + b.sim_p99_ns) / 2
    assert run.output_errors(workload, [a, b, replay]) == []


def test_benchmark_json_names_what_run_py_emits():
    """The static half of ``run.py --check``, on a fabricated run."""
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        metrics = {e["name"]: {"value": 1.0, "unit": e["unit"]} for e in spec[section]}
        report = {"trace": trace, "result": {"metrics": metrics},
                  "public_callables": dict.fromkeys(run.TRACED_LAYERS, 3)}
        assert run.check_errors(spec, report) == []
        metrics.pop(next(iter(metrics)))
        report["public_callables"]["ghost"] = 0
        del report["public_callables"]["core"]
        errors = run.check_errors(spec, report)
        assert any("was not emitted" in e for e in errors)
        if trace:
            assert any("'ghost' has a package but no public" in e for e in errors)
            assert any("'core' is reported but" in e for e in errors)
