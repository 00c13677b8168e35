"""Golden-shape regression tests for the EXPERIMENTS.md figure tables.

EXPERIMENTS.md records the reproduced Figure 3/4 numbers the paper
comparison leans on (the 110 MOPS doorbell ceiling, the per-thread-QP
collapse, the cache-thrashing DRAM growth).  The simulator is fully
deterministic, so these values are pinned tightly: any drift means a
model change silently moved the published tables and EXPERIMENTS.md
must be re-validated, not just the test relaxed.

All points use the EXPERIMENTS.md grid settings (measure_ns=1.0e6,
depth 8 unless stated).
"""

import pytest

from repro.bench.microbench import run_microbench


def point(policy, threads, depth=8):
    return run_microbench(
        policy=policy, threads=threads, depth=depth, measure_ns=1.0e6
    )


def test_fig3_per_thread_db_hits_hardware_limit():
    """Per-thread doorbell reaches the 110 MOPS ceiling from 48 threads."""
    at_48 = point("per-thread-db", 48)
    at_96 = point("per-thread-db", 96)
    assert at_48.throughput_mops == pytest.approx(110.0, abs=0.01)
    assert at_96.throughput_mops == pytest.approx(110.0, abs=0.01)


def test_fig3_per_thread_qp_halves_at_96_threads():
    """Per-thread QP: 98.64 @48 -> 51.44 @96 (the paper's 'cut in half')."""
    at_48 = point("per-thread-qp", 48)
    at_96 = point("per-thread-qp", 96)
    assert at_48.throughput_mops == pytest.approx(98.64, abs=0.01)
    assert at_96.throughput_mops == pytest.approx(51.44, abs=0.01)
    assert at_96.throughput_mops / at_48.throughput_mops == pytest.approx(
        0.52, abs=0.02
    )


def test_fig4_dram_traffic_grows_with_owrs():
    """96x8 -> 96x32: DRAM bytes/WR grow 93.0 -> ~178 (WQE cache thrash)."""
    shallow = point("per-thread-db", 96, depth=8)
    deep = point("per-thread-db", 96, depth=32)
    assert shallow.dram_bytes_per_wr == pytest.approx(93.0, abs=0.1)
    assert deep.dram_bytes_per_wr == pytest.approx(178.2, abs=0.5)


def test_fig4_deep_queues_lose_half_the_throughput():
    """96x32 runs at ~51% of the 96x8 peak (EXPERIMENTS.md: 56.2/110.0)."""
    shallow = point("per-thread-db", 96, depth=8)
    deep = point("per-thread-db", 96, depth=32)
    assert deep.throughput_mops == pytest.approx(56.22, abs=0.05)
    assert deep.throughput_mops / shallow.throughput_mops == pytest.approx(
        0.511, abs=0.005
    )


# -- cross-commit byte-identity pins for the app runners -----------------------
#
# Every digest below was recorded at the commit *before* the post path
# stopped suspending (PR 14), after the two host-cost counters were taken
# out of the hashed payload, with
#
#     PYTHONPATH=<parent>/src python tests/test_golden_shapes.py
#
# which prints this table (the 9 digests whose payload carried neither
# counter are still the ones PR 12 recorded).  A digest is the sha256 of the
# runner's whole result dataclass minus ``sim_events`` (with them, the
# ``sim_digest`` of ``benchmarks/e2e``), so any change to a simulated
# number, a fault counter, the phase breakdown or the sanitizer report of
# these points fails here — re-record only when a model change is
# intended, and say so in CHANGES.md.
#
# The fourteen ``+obs`` digests were re-recorded when the five
# active-message counters left the device metrics: each hashes the previous
# payload with those counters (0.0 on every device) dropped.

_HT = dict(threads=2, coroutines=2, item_count=2_000,
           warmup_ns=0.2e6, measure_ns=0.4e6)
_DTX = dict(threads=2, coroutines=2, item_count=2_000,
            warmup_ns=0.2e6, measure_ns=0.6e6)
_BT = dict(threads=2, coroutines=2, item_count=2_000,
           warmup_ns=0.2e6, measure_ns=0.4e6)
_OPEN = dict(threads=2, workers=4, item_count=2_000, rate_mops=0.4,
             warmup_ns=0.2e6, measure_ns=0.4e6)
_MICRO = dict(threads=8, depth=4, warmup_ns=0.1e6, measure_ns=0.3e6)

#: name -> (runner, keyword arguments); the variants below are applied
#: on top of each
_POINTS = {
    "ht-race": ("run_hashtable", dict(system="race", **_HT)),
    "ht-smart": ("run_hashtable", dict(system="smart-ht", **_HT)),
    "dtx-smallbank": ("run_dtx", dict(system="smart-dtx", benchmark="smallbank", **_DTX)),
    "dtx-tatp": ("run_dtx", dict(system="ford", benchmark="tatp", **_DTX)),
    "bt-sherman": ("run_btree", dict(system="sherman", **_BT)),
    "bt-sherman-sl": ("run_btree", dict(system="sherman-sl", **_BT)),
    "bt-smart": ("run_btree", dict(system="smart-bt", **_BT)),
    "bt-smart-nohopl": ("run_btree", dict(system="smart-bt", hopl=False, **_BT)),
    "bt-sherman-nohopl": ("run_btree", dict(system="sherman", hopl=False, **_BT)),
    "open-hashtable": ("run_open_loop", dict(app="hashtable", **_OPEN)),
    "open-dtx": ("run_open_loop", dict(app="dtx", benchmark="tatp", **_OPEN)),
    "open-btree": ("run_open_loop", dict(app="btree", **_OPEN)),
    "micro-smart": ("run_microbench", dict(policy="smart", **_MICRO)),
    "micro-per-thread-qp": ("run_microbench", dict(policy="per-thread-qp", **_MICRO)),
}

_LOSS = dict(faults="loss=0.05@0.25ms+0.2ms", fault_seed=5)
#: adaptive-credit systems measure from 2 ms on (the C_max search)
_LOSS_SMART = dict(faults="loss=0.05@2.05ms+0.2ms", fault_seed=5)

GOLDEN_DIGESTS = {
    "ht-race": "b4d421b047425e674e37d2d5dcf0be94ccc54b14fdbbf3e1a10d17d53eab800f",
    "ht-race+obs": "990aa68e258f98d6fdd4abfb3a6eee307cb797e1bff96989109d35a5e70b15b3",
    "ht-race+sanitize": "671d4ca8ceeb23a06f12ad9059b9341a81b8b846dc2f2093727658901aa2c0e4",
    "ht-race+loss": "7979fd87e593d99232bd2492aa3dddbf84a57b8edb0ae030ccdfbe30afcf9e64",
    "ht-smart": "7a619fdf193199d0edbfc94762e37357bf613963bc84fe69994a2a586127d15f",
    "ht-smart+obs": "b54b134dd5e4782f59ab3c92dd0bd582625d39290e4247776cafbfbc2dd1d02b",
    "ht-smart+sanitize": "65997a0877ab64e6241c132b8ad944432ce9cd1de2f5ac514076a4952b7ec4aa",
    "ht-smart+loss": "18eb8471293ba8f8837afb4216fa11fe55e80b59bf481e0cc1474ca6cacee5ed",
    "dtx-smallbank": "7171b0ebb1b676cca04871aafebd8def9364be5c04945e28035f6a7b51524200",
    "dtx-smallbank+obs": "da0cc18a2c44ecc90ed277dd92366f5d18f039e8b65a217ce818073b70331be9",
    "dtx-smallbank+sanitize": "34e53fa5f28fb54fbee982a7a4ddb90fbbff1b81913852e19254eb69f5ddd196",
    "dtx-smallbank+loss": "0f15d8555521ccedf92661a68a1a03573b3b65c8b67f9363d15aff481f5d4d7d",
    "dtx-tatp": "36216362f8843b0fe65ca2e591b565de7c8dc9b2d5195b1de259d24b5fb3d507",
    "dtx-tatp+obs": "6156268e34fd2f47380367c33e793a16b0ff581db76bf647f42d256c4ae74d1f",
    "dtx-tatp+sanitize": "1ac06340399a78e4379d74866406038eb81b40eb498a4a8af1efe36a79166eb1",
    "dtx-tatp+loss": "12f3b05b58eb9e0ba5a8a2eae2735e1d25a864a926d5a803e32e4a3828c2ef90",
    "bt-sherman": "218468094cde785b99ddb69dfb74b73d33f2300edcd0b6cc333715cf645f0106",
    "bt-sherman+obs": "be7c3f0a4a855ef133f01abee73d2023ba357929a892264ff23ec08e52e27424",
    "bt-sherman+sanitize": "ce6e4fa60dcb2587d5128113e30bf4030cf11a02c461985c0e34a462ce0f42db",
    "bt-sherman-sl": "7f69b9546d2a74bb867eee5463f6eb71712b116412ec86e0539a6359de49a476",
    "bt-sherman-sl+obs": "e3d601431d53d8f205bc32038aabec6ff3ff932f921ff7da1a581ebe37e7e311",
    "bt-sherman-sl+sanitize": "7cf8bdd9c9ec05fc017ad3b35391f7006fa6ea88c43b40759149150360a372dd",
    "bt-smart": "fabc31b2fdfabd9acea68a8232dffe92c6235e89baab75f23e019d53c5e8e540",
    "bt-smart+obs": "4548bec2c1ab0aad824017e4b08df7521f9ce5fd98f4c2ad44e1a9c39d5c6672",
    "bt-smart+sanitize": "b2776af833d3884acaf8035d3580efeae6b6ee2c2fd0bcf2c9d35700b4e6d3c4",
    "bt-smart-nohopl": "c9e46a2feebbdad3d2327850e0d1bd747086386e104e6ea8f67cef04c92d88ba",
    "bt-smart-nohopl+obs": "aced95662637df5e73b9ec1b58d66401217d7180be153cc1b4ec8f46a25e7a59",
    "bt-smart-nohopl+sanitize": "22885ecb19f48a499fc8ed53a4e259d01543ee956ca35d8f85d2824f1bcc77d3",
    "bt-sherman-nohopl": "d451b483e5f45aca0ab70ffe739057a2c0bc77818faa7834f234f93313bf12e9",
    "bt-sherman-nohopl+obs": "fbac3ed50b37588e3d11c092452abb538dcbf03e2c066f3daa0852dca6c24e53",
    "bt-sherman-nohopl+sanitize": "9bdeb79362b26e11ee84d2f386eed07c0b690ceaa8c6943f763c506f531e316b",
    "open-hashtable": "fde3ee6bd5bba089999f63450a3c5fd7fa4699a982726ee9f56d4cbcc16b40aa",
    "open-hashtable+obs": "c99e1aaa48e7bbb56fa674312d172a79ab89cb927b74adc32bb9c7d65d9eeabe",
    "open-dtx": "3ea266cd12f19b47e8f700702bc369777d2adaef8750d0846f1325ac0a16de42",
    "open-dtx+obs": "1dc9a9c7b1410d403da6a6e5953b334515d758661a8080a61c65c9e3c258aa8e",
    "open-btree": "16de8f8a2a5e069bdf739b635b5137f39ac87a947c5c35f7a8938864a520a8a1",
    "open-btree+obs": "b2f978fe408d3022525f40f9e737ef0615fcbef596c4d0a92186079c66be6993",
    "micro-smart": "4da43a6c0d1244f66630375c015f1fb953154b7b783d95fdc7f1bb1af1eb147d",
    "micro-smart+obs": "2bf2fb92002d14d9e7c50c88f733f9599bdeae2a01f2a9909ef2cf8b72ce20ba",
    "micro-smart+sanitize": "114064d70ca8576fbfdea6f5bd4908fe6263e5393bcec3c18e4c15d272c89124",
    "micro-smart+loss": "50283a029708732bb7a153ab529e0a87cba6888e4e301daca5b724822850f396",
    "micro-per-thread-qp": "89dd9a1c77ca6d238bebaf1ab5edf0a00d7ac1c951bc1a3ca3734617e268d946",
    "micro-per-thread-qp+obs": "bc751530e9ff82cbf5214596a1568d197b2020ad94bf64f8cb23d82a5dbec600",
    "micro-per-thread-qp+sanitize": "7960070ede5646e5df588d15408af815ba1f216f43805201d340ef57df40a460",
    "micro-per-thread-qp+loss": "e1f6c40de4b13cb78ebc3e7798faed4c158760300f9ce909a0c54451834a397b",
    "dtx-smallbank+crash": "6a098f6cc1fbd9b3095763074fb8339d4f92f76dfbd945edf955dbf822e38ce4",
    "dtx-tatp+seeded": "9995f374b50078605b243578af583bf196b9188c5428093c80d61fd08c1ced3c",
}

#: Kernel events each point executes — what it costs the host, not what
#: the model computes (the digests above do not hash it).  Pinned, one
#: count per point, so a change that puts a suspension back on the post
#: path fails here; the record mode prints this table too.
GOLDEN_EVENTS = {
    "ht-race": 8625,
    "ht-smart": 34229,
    "dtx-smallbank": 40869,
    "dtx-tatp": 12446,
    "bt-sherman": 6155,
    "bt-sherman-sl": 6109,
    "bt-smart": 24390,
    "bt-smart-nohopl": 24725,
    "bt-sherman-nohopl": 6313,
    "open-hashtable+obs": 21991,
    "open-dtx+obs": 18428,
    "open-btree+obs": 25982,
    "micro-smart+obs": 58975,
    "micro-per-thread-qp+obs": 8970,
}


def _golden_cases():
    """(case id, point name, extra kwargs, wants obs) for every pin."""
    cases = []
    for name, (runner, kwargs) in _POINTS.items():
        cases.append((name, name, {}, False))
        cases.append((f"{name}+obs", name, {}, True))
        if runner == "run_open_loop":  # no faults / sanitize arguments
            continue
        cases.append((f"{name}+sanitize", name, dict(sanitize=True), False))
        if runner == "run_btree":  # gained faults= in PR 12: replay-tested
            continue
        smart = kwargs.get("system", kwargs.get("policy")) in (
            "smart-ht", "smart-dtx", "smart")
        cases.append((f"{name}+loss", name, _LOSS_SMART if smart else _LOSS, False))
    cases.append(("dtx-smallbank+crash", "dtx-smallbank",
                  dict(faults="loss=0.01@2.05ms+0.3ms,crash=2@2.1ms+0.15ms",
                       fault_seed=9), False))
    cases.append(("dtx-tatp+seeded", "dtx-tatp",
                  dict(faults="seeded", fault_seed=4), False))
    return cases


def _golden_run(point, extra, with_obs):
    """``(digest, kernel events)`` of one pinned point.

    The digest covers simulated output only: ``RunResult.sim_events`` and
    the ``sim.events_executed`` counter say what the point cost the host,
    not what the model computed, so they are taken out of the hashed
    payload and returned beside it (``None`` where the result carries
    neither).
    """
    import dataclasses
    import hashlib
    import json

    from repro.bench import microbench, runner
    from repro.obs import Observability
    from repro.traffic import runner as traffic_runner

    runner_name, kwargs = _POINTS[point]
    for module in (runner, microbench, traffic_runner):
        run_point = getattr(module, runner_name, None)
        if run_point is not None:
            break
    obs = Observability() if with_obs else None
    result = run_point(**kwargs, **extra, **({"obs": obs} if with_obs else {}))
    payload = dataclasses.asdict(result)
    events = payload.pop("sim_events", None)
    if with_obs:
        metrics = obs.metrics()
        counted = metrics["counters"].pop("sim.events_executed", None)
        if events is None and counted is not None:
            events = int(counted["value"])
        payload = {"result": payload, "metrics": metrics}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest(), events


@pytest.mark.parametrize(
    "case,point,extra,with_obs", _golden_cases(),
    ids=[case[0] for case in _golden_cases()],
)
def test_runner_results_are_byte_identical_to_the_pinned_commit(
        case, point, extra, with_obs):
    digest, events = _golden_run(point, extra, with_obs)
    assert digest == GOLDEN_DIGESTS[case]
    if case in GOLDEN_EVENTS:
        assert events == GOLDEN_EVENTS[case], (
            f"{case}: kernel events {events} != pinned {GOLDEN_EVENTS[case]} "
            "(host cost, not model: the simulated output above is unchanged; "
            "a rise means a suspension came back on a hot path — re-record "
            "only for an intended change in what the kernel executes)"
        )


if __name__ == "__main__":  # record mode: print both tables for this src tree
    runs = [(case, *_golden_run(point, extra, with_obs))
            for case, point, extra, with_obs in _golden_cases()]
    print("GOLDEN_DIGESTS = {")
    for case, digest, _events in runs:
        print(f'    "{case}": "{digest}",')
    print("}")
    print("GOLDEN_EVENTS = {")
    pinned = set()  # one count per point: the first case that carries one
    for case, _digest, events in runs:
        point = case.split("+")[0]
        if events is not None and point not in pinned:
            pinned.add(point)
            print(f'    "{case}": {events},')
    print("}")
