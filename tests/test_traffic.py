"""Open-loop traffic engine: arrivals, admission, and end-to-end runs.

The acceptance bar for the open-loop methodology (see docs/MODEL.md):

* at low offered load, open-loop p50 equals the closed-loop service
  latency (no queueing -> the arrival process doesn't matter);
* past the knee, queueing delay and backlog grow with the measurement
  window (the open loop exposes what coordinated omission hides);
* an SLO with admission control caps p99 near the target and reports
  the load it refused (shed/deferred counters);
* everything replays bit-identically under the same seed.
"""

import dataclasses
import itertools

import pytest

from repro.bench.report import find_knee
from repro.traffic import (
    NO_SLO,
    DeterministicArrivals,
    OnOffArrivals,
    PoissonArrivals,
    RampArrivals,
    Slo,
    TenantSpec,
    run_open_loop,
)
from repro.traffic.admission import ADMIT, DEFER, SHED, AdmissionController


def take_gaps(process, n, seed=7):
    return list(itertools.islice(process.gaps(seed), n))


# -- arrival processes ---------------------------------------------------------


def test_deterministic_arrivals_constant_gap():
    gaps = take_gaps(DeterministicArrivals(2.0), 100)
    assert all(g == 500.0 for g in gaps)  # 2 MOPS -> 500 ns
    assert DeterministicArrivals(2.0).offered_mops == 2.0


def test_poisson_arrivals_mean_and_replay():
    process = PoissonArrivals(1.0)
    gaps = take_gaps(process, 20_000)
    assert all(g >= 0 for g in gaps)
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1000.0, rel=0.05)  # 1 MOPS -> 1000 ns mean
    assert gaps == take_gaps(process, 20_000)
    assert gaps != take_gaps(process, 20_000, seed=8)


def test_onoff_arrivals_rate_between_states():
    process = OnOffArrivals(on_rate_mops=4.0, off_rate_mops=0.0,
                            mean_on_ns=50_000.0, mean_off_ns=50_000.0)
    assert process.offered_mops == pytest.approx(2.0)
    gaps = take_gaps(process, 50_000)
    assert all(g > 0 for g in gaps)
    measured = len(gaps) / sum(gaps) * 1e3  # arrivals per us == MOPS
    assert 0.0 < measured < 4.0
    assert measured == pytest.approx(2.0, rel=0.2)
    assert gaps == take_gaps(process, 50_000)


def test_onoff_bursty_gap_mixture():
    """On-off gaps mix short within-burst gaps with long silences."""
    process = OnOffArrivals(on_rate_mops=10.0, off_rate_mops=0.0,
                            mean_on_ns=20_000.0, mean_off_ns=100_000.0)
    gaps = take_gaps(process, 10_000)
    assert min(gaps) < 1_000.0  # within-burst: mean 100 ns
    assert max(gaps) > 50_000.0  # across a silence


def test_ramp_rate_profile():
    ramp = RampArrivals(1.0, 3.0, period_ns=100_000.0)
    assert ramp.rate_at(0) == pytest.approx(1.0)
    assert ramp.rate_at(50_000.0) == pytest.approx(2.0)
    assert ramp.rate_at(100_000.0) == pytest.approx(3.0)
    assert ramp.rate_at(250_000.0) == pytest.approx(3.0)  # holds at the end

    diurnal = RampArrivals(1.0, 3.0, period_ns=100_000.0, shape="diurnal")
    assert diurnal.rate_at(0) == pytest.approx(1.0)  # trough
    assert diurnal.rate_at(50_000.0) == pytest.approx(3.0)  # crest
    assert diurnal.rate_at(100_000.0) == pytest.approx(1.0)


def test_ramp_thinning_tracks_rate():
    """Arrival counts in early vs late windows follow the ramp."""
    ramp = RampArrivals(0.5, 4.0, period_ns=1.0e6)
    times, now = [], 0.0
    for gap in ramp.gaps(3):
        now += gap
        if now > 1.0e6:
            break
        times.append(now)
    early = sum(1 for t in times if t < 0.25e6)
    late = sum(1 for t in times if t >= 0.75e6)
    assert late > 2 * early
    assert ramp.offered_mops == pytest.approx(2.25)


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        DeterministicArrivals(-1.0)
    with pytest.raises(ValueError):
        OnOffArrivals(on_rate_mops=1.0, mean_on_ns=0.0)
    with pytest.raises(ValueError):
        RampArrivals(1.0, 2.0, period_ns=1000.0, shape="square")


# -- SLO / admission controller ------------------------------------------------


def test_slo_validation():
    with pytest.raises(ValueError):
        Slo(policy="drop")
    with pytest.raises(ValueError):
        Slo(target_p99_ns=-1.0)
    with pytest.raises(ValueError):
        Slo(defer_limit=-1)
    assert NO_SLO.unlimited
    assert Slo(policy="shed").unlimited  # no budget set -> can't bind
    assert not Slo(target_p99_ns=1e4).unlimited


def test_admission_none_always_admits():
    controller = AdmissionController(NO_SLO, workers=4)
    assert controller.decide(10_000) is ADMIT


def test_admission_hard_queue_cap():
    controller = AdmissionController(Slo(max_queue_depth=8), workers=4)
    assert controller.decide(7) is ADMIT
    assert controller.decide(8) is SHED


def test_admission_p99_budget_from_service_ewma():
    controller = AdmissionController(Slo(target_p99_ns=10_000.0), workers=4)
    # No service estimate yet: the p99 budget cannot bind.
    assert controller.decide(1_000) is ADMIT
    controller.observe_service(1_000.0)
    # depth budget = workers * (target/service - 1) = 4 * 9 = 36
    assert controller.budget_depth() == 36
    assert controller.decide(35) is ADMIT
    assert controller.decide(36) is SHED


def test_admission_defer_then_shed():
    slo = Slo(target_p99_ns=10_000.0, policy="defer", defer_limit=2)
    controller = AdmissionController(slo, workers=1)
    controller.observe_service(10_000.0)  # budget = 0: everything over
    assert controller.decide(1, attempt=0) is DEFER
    assert controller.decide(1, attempt=1) is DEFER
    assert controller.decide(1, attempt=2) is SHED
    delays = [AdmissionController(slo, workers=1, seed=3).defer_delay_ns(1)
              for _ in range(2)]
    assert delays[0] == delays[1] > 0


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


def test_low_load_p50_matches_closed_loop():
    """No queueing at low load: open-loop p50 == closed-loop service p50."""
    from repro.bench.runner import run_hashtable

    closed = run_hashtable(system="smart-ht", threads=4, coroutines=1,
                           item_count=20_000, warmup_ns=0.5e6,
                           measure_ns=1.0e6, seed=0)
    result = run_open_loop(app="hashtable", rate_mops=0.2, **RUN_KW)
    tenant = result.tenants[0]
    assert tenant.p50_latency_ns == pytest.approx(closed.p50_latency_ns, rel=0.15)
    assert tenant.queue_p99_ns < 1_000.0  # effectively no queueing
    assert tenant.shed == 0 and tenant.deferred == 0
    assert tenant.achieved_mops == pytest.approx(tenant.offered_mops, rel=0.05)


def test_deterministic_arrivals_offer_exact_count():
    result = run_open_loop(
        app="hashtable", arrivals=DeterministicArrivals(0.5), **RUN_KW
    )
    # 0.5 MOPS over a 1 ms window: one arrival every 2 us, 500 total.
    assert abs(result.tenants[0].offered - 500) <= 1


def test_overload_queueing_grows_with_window():
    """Past the knee the backlog and queueing delay grow without bound."""
    kw = dict(RUN_KW)
    short = run_open_loop(app="hashtable", rate_mops=10.0,
                          **{**kw, "measure_ns": 0.8e6}).tenants[0]
    long = run_open_loop(app="hashtable", rate_mops=10.0,
                         **{**kw, "measure_ns": 1.6e6}).tenants[0]
    assert short.backlog > 1_000  # far more offered than served
    assert long.backlog > short.backlog + 3_000
    assert long.queue_p99_ns > short.queue_p99_ns
    # Total latency is dominated by queueing delay the closed loop never sees.
    assert long.p99_latency_ns > 10 * 50_000.0


def test_admission_caps_p99_and_sheds():
    uncapped = run_open_loop(app="hashtable", rate_mops=10.0, **RUN_KW).tenants[0]
    target_ns = 50_000.0
    capped = run_open_loop(app="hashtable", rate_mops=10.0,
                           slo=Slo(target_p99_ns=target_ns), **RUN_KW).tenants[0]
    assert capped.shed > 0
    assert capped.backlog < 500
    # The EWMA budget lags, so allow headroom over the target — but the
    # capped tail must sit close to it and far under the uncapped tail.
    assert capped.p99_latency_ns < 3 * target_ns
    assert capped.p99_latency_ns < uncapped.p99_latency_ns / 10
    # Shedding keeps goodput: served throughput stays comparable.
    assert capped.achieved_mops == pytest.approx(uncapped.achieved_mops, rel=0.25)


def test_defer_policy_defers_before_shedding():
    slo = Slo(target_p99_ns=50_000.0, policy="defer", defer_limit=3)
    tenant = run_open_loop(app="hashtable", rate_mops=6.0, slo=slo,
                           **RUN_KW).tenants[0]
    assert tenant.deferred > 0
    assert tenant.p99_latency_ns < 3 * 50_000.0


def test_same_seed_runs_bit_identical():
    spec = TenantSpec("t0", PoissonArrivals(2.0),
                      slo=Slo(target_p99_ns=80_000.0, policy="defer"), workers=8)
    first = run_open_loop(app="hashtable", tenants=[spec], **RUN_KW)
    second = run_open_loop(app="hashtable", tenants=[spec], **RUN_KW)
    assert ([dataclasses.asdict(t) for t in first.tenants]
            == [dataclasses.asdict(t) for t in second.tenants])


def test_multi_tenant_isolation_under_slo():
    """A shedding heavy tenant can't starve a light tenant's queue."""
    heavy = TenantSpec("heavy", PoissonArrivals(8.0),
                       slo=Slo(target_p99_ns=50_000.0), workers=8)
    light = TenantSpec("light", PoissonArrivals(0.1), workers=4)
    result = run_open_loop(app="hashtable", tenants=[heavy, light], **RUN_KW)
    by_name = {t.tenant: t for t in result.tenants}
    assert by_name["heavy"].shed > 0
    assert by_name["light"].shed == 0
    assert by_name["light"].backlog < 50
    assert by_name["light"].p99_latency_ns < by_name["heavy"].p99_latency_ns


@pytest.mark.parametrize("app,kwargs", [
    ("dtx", dict(benchmark="smallbank")),
    ("btree", dict(servers=1)),
])
def test_other_apps_low_load(app, kwargs):
    result = run_open_loop(app=app, rate_mops=0.3, **kwargs, **RUN_KW)
    tenant = result.tenants[0]
    assert tenant.completed > 100
    assert tenant.achieved_mops == pytest.approx(tenant.offered_mops, rel=0.2)
    assert tenant.p99_latency_ns is not None


def test_obs_exports_tenant_metrics_and_closed_loop_unchanged():
    from repro.obs import Observability

    obs = Observability()
    run_open_loop(app="hashtable", rate_mops=0.5, obs=obs, **RUN_KW)
    names = {name for kind in obs.metrics().values() for name in kind}
    assert "tenant.t0.offered" in names
    assert "tenant.t0.queue_delay_ns" in names
    assert "tenant.t0.latency_ns" in names

    # Closed-loop runs never emit the open-loop keys.
    from repro.bench.runner import run_hashtable

    closed_obs = Observability()
    run_hashtable(system="race", threads=2, coroutines=2, item_count=10_000,
                  warmup_ns=0.3e6, measure_ns=0.5e6, obs=closed_obs)
    closed_names = {name for kind in closed_obs.metrics().values()
                    for name in kind}
    assert not any(key.endswith(".offered") or key.endswith(".shed")
                   or key.endswith("queue_delay_ns") for key in closed_names)


def test_run_open_loop_runs_as_a_sweep_point():
    from repro.bench.parallel import PointSpec, run_points
    from repro.traffic import run_open_loop

    specs = [
        PointSpec(run_open_loop, dict(
            app="hashtable", rate_mops=rate, threads=2, workers=4,
            item_count=10_000, warmup_ns=0.3e6, measure_ns=0.5e6,
        ))
        for rate in (0.2, 0.4)
    ]
    serial = run_points(specs, jobs=1)
    assert [r.tenants[0].offered for r in serial] == [
        spec.run().tenants[0].offered for spec in specs
    ]
