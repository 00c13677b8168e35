"""The open-loop Poisson queue: offered load, queueing, and end-to-end runs.

The acceptance bar for the open-loop methodology (see docs/MODEL.md):

* at low offered load, open-loop p50 equals the closed-loop service
  latency (no queueing -> the arrival process doesn't matter);
* past the knee, queueing delay and backlog grow with the measurement
  window (the open loop exposes what coordinated omission hides);
* everything replays bit-identically under the same seed.
"""

import dataclasses

import pytest

from repro.bench.report import find_knee
from repro.bench.runner import RunArgumentError
from repro.traffic import run_open_loop
from repro.workloads import ycsb

# -- find_knee -----------------------------------------------------------------


def test_find_knee():
    offered = [0.5, 1.0, 2.0, 4.0]
    assert find_knee(offered, [0.5, 1.0, 1.4, 1.5]) == 2.0
    assert find_knee(offered, offered) is None
    with pytest.raises(ValueError):
        find_knee([1.0], [1.0, 2.0])


# -- end-to-end open-loop runs -------------------------------------------------

RUN_KW = dict(threads=4, workers=8, item_count=20_000,
              warmup_ns=0.5e6, measure_ns=1.0e6, seed=0)


def test_poisson_arrivals_mean_and_replay():
    """The window's arrival count is Poisson with mean rate × window,
    replays under its seed and moves with it."""
    first = run_open_loop(app="hashtable", rate_mops=2.0, **RUN_KW)
    # 2 MOPS over 1 ms: 2 000 expected, standard deviation ≈ 45
    assert first.offered == pytest.approx(2_000, abs=200)
    assert first.offered_mops == first.offered / 1e3
    again = run_open_loop(app="hashtable", rate_mops=2.0, **RUN_KW)
    assert again.offered == first.offered
    other = run_open_loop(app="hashtable", rate_mops=2.0,
                          **{**RUN_KW, "seed": 1})
    assert other.offered != first.offered


def test_low_load_p50_matches_closed_loop():
    """No queueing at low load: open-loop p50 == closed-loop service p50."""
    from repro.bench.runner import run_hashtable

    closed = run_hashtable(system="smart-ht", threads=4, coroutines=1,
                           item_count=20_000, warmup_ns=0.5e6,
                           measure_ns=1.0e6, seed=0)
    result = run_open_loop(app="hashtable", rate_mops=0.2, **RUN_KW)
    assert result.p50_latency_ns == pytest.approx(closed.p50_latency_ns, rel=0.15)
    assert result.queue_p99_ns < 1_000.0  # effectively no queueing
    assert result.achieved_mops == pytest.approx(result.offered_mops, rel=0.05)


def test_overload_queueing_grows_with_window():
    """Past the knee the backlog and queueing delay grow without bound."""
    kw = dict(RUN_KW)
    short = run_open_loop(app="hashtable", rate_mops=10.0,
                          **{**kw, "measure_ns": 0.8e6})
    long = run_open_loop(app="hashtable", rate_mops=10.0,
                         **{**kw, "measure_ns": 1.6e6})
    assert short.backlog > 1_000  # far more offered than served
    assert long.backlog > short.backlog + 3_000
    assert long.queue_p99_ns > short.queue_p99_ns
    # Total latency is dominated by queueing delay the closed loop never sees.
    assert long.p99_latency_ns > 10 * 50_000.0


def test_same_seed_runs_bit_identical():
    first = run_open_loop(app="hashtable", rate_mops=2.0, **RUN_KW)
    second = run_open_loop(app="hashtable", rate_mops=2.0, **RUN_KW)
    assert dataclasses.asdict(first) == dataclasses.asdict(second)


def test_read_only_workload_issues_no_cas(monkeypatch):
    """``workload`` reaches the app: a read-only mix never touches a
    blade's atomics, the default write-heavy one does."""
    import repro.traffic as traffic

    deployments = []
    deploy = traffic.deploy_app

    def keep(*args, **kwargs):
        deployments.append(deploy(*args, **kwargs))
        return deployments[-1]

    monkeypatch.setattr(traffic, "deploy_app", keep)
    reads = run_open_loop(app="hashtable", rate_mops=0.5,
                          workload=ycsb.READ_ONLY, **RUN_KW)
    writes = run_open_loop(app="hashtable", rate_mops=0.5, **RUN_KW)
    assert reads.completed > 100 and writes.completed > 100
    atomics = [sum(node.storage.atomics for node in d.memory_nodes)
               for d in deployments]
    assert atomics[0] == 0 < atomics[1]


def test_dtx_refuses_a_ycsb_workload():
    with pytest.raises(RunArgumentError, match="workload must be None for dtx"):
        run_open_loop(app="dtx", workload=ycsb.READ_ONLY, **RUN_KW)


@pytest.mark.parametrize("app,kwargs", [
    ("dtx", dict(benchmark="smallbank")),
    ("btree", dict(servers=1)),
])
def test_other_apps_low_load(app, kwargs):
    result = run_open_loop(app=app, rate_mops=0.3, **kwargs, **RUN_KW)
    assert result.completed > 100
    assert result.achieved_mops == pytest.approx(result.offered_mops, rel=0.2)
    assert result.p99_latency_ns is not None


def test_obs_exports_tenant_metrics_and_closed_loop_unchanged():
    """The open-loop metrics sit under ``open_loop.``; a closed-loop run
    emits none of them."""
    from repro.obs import Observability

    obs = Observability()
    run_open_loop(app="hashtable", rate_mops=0.5, obs=obs, **RUN_KW)
    names = {name for kind in obs.metrics().values() for name in kind}
    assert {"open_loop.offered", "open_loop.queue_delay_ns",
            "open_loop.latency_ns"} <= names

    from repro.bench.runner import run_hashtable

    closed_obs = Observability()
    run_hashtable(system="race", threads=2, coroutines=2, item_count=10_000,
                  warmup_ns=0.3e6, measure_ns=0.5e6, obs=closed_obs)
    closed_names = {name for kind in closed_obs.metrics().values()
                    for name in kind}
    assert not any(key.startswith("open_loop.") or key.endswith(".offered")
                   or key.endswith("queue_delay_ns") for key in closed_names)


def test_run_open_loop_runs_as_a_sweep_point():
    from repro.bench.parallel import PointSpec, run_points

    specs = [
        PointSpec(run_open_loop, dict(
            app="hashtable", rate_mops=rate, threads=2, workers=4,
            item_count=10_000, warmup_ns=0.3e6, measure_ns=0.5e6,
        ))
        for rate in (0.2, 0.4)
    ]
    serial = run_points(specs, jobs=1)
    assert [r.offered for r in serial] == [spec.run().offered for spec in specs]
