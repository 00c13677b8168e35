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
# payload with those counters (0.0 on every device) dropped.  They and the
# eight ``micro-*`` digests were re-recorded the same way when on-demand
# paging and request merging went: the payload minus the three device
# counters and three ``MicrobenchResult`` fields they fed (all 0).
#
# The six ``open-*`` digests were re-recorded when the open-loop path
# became one Poisson queue: each hashes the previous payload with its one
# tenant (shed = deferred = 0) flattened into the result, minus the
# ``tenant``, ``shed``, ``deferred`` and ``nominal_mops`` (the
# ``rate_mops`` input) keys, and its ``tenant.t0.*`` metrics renamed
# ``open_loop.*`` without the zero ``.shed`` / ``.deferred`` counters.
#
# They were re-recorded again when open-loop load became a mode of
# ``run_app``: ``OpenLoopResult`` gained the fault / recovery columns,
# ``phase_breakdown`` and ``sanitizer`` it shares with ``RunResult``.  Each
# payload minus those keys (all zero / ``None``, but for the ``+obs``
# points' phase breakdown) hashes to the previous digest, and the kernel
# event counts are unchanged.  The ``open-*+sanitize`` and ``open-*+loss``
# pins were recorded then, since open-loop points took no ``faults`` /
# ``sanitize`` before; each ``+loss`` point retransmits inside the window.

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
    "ht-race+obs": "fb6ece9f36bdff05b31f82ced234e606d392462ad9083509d471edcaf7b8196a",
    "ht-race+sanitize": "671d4ca8ceeb23a06f12ad9059b9341a81b8b846dc2f2093727658901aa2c0e4",
    "ht-race+loss": "7979fd87e593d99232bd2492aa3dddbf84a57b8edb0ae030ccdfbe30afcf9e64",
    "ht-smart": "7a619fdf193199d0edbfc94762e37357bf613963bc84fe69994a2a586127d15f",
    "ht-smart+obs": "a784e43fee94f2a4b031c53df2ad586155f9a2665bc737771fea3519f55f02d0",
    "ht-smart+sanitize": "65997a0877ab64e6241c132b8ad944432ce9cd1de2f5ac514076a4952b7ec4aa",
    "ht-smart+loss": "18eb8471293ba8f8837afb4216fa11fe55e80b59bf481e0cc1474ca6cacee5ed",
    "dtx-smallbank": "7171b0ebb1b676cca04871aafebd8def9364be5c04945e28035f6a7b51524200",
    "dtx-smallbank+obs": "c3a70744b04ca2f7a53d6d3c3a3b2dcdb07968899b55288d40e0bef80c47919e",
    "dtx-smallbank+sanitize": "34e53fa5f28fb54fbee982a7a4ddb90fbbff1b81913852e19254eb69f5ddd196",
    "dtx-smallbank+loss": "0f15d8555521ccedf92661a68a1a03573b3b65c8b67f9363d15aff481f5d4d7d",
    "dtx-tatp": "36216362f8843b0fe65ca2e591b565de7c8dc9b2d5195b1de259d24b5fb3d507",
    "dtx-tatp+obs": "438b29281dfbb468da080a1afa8eaabcb9f80ba71bddae8943b3957e643a5abd",
    "dtx-tatp+sanitize": "1ac06340399a78e4379d74866406038eb81b40eb498a4a8af1efe36a79166eb1",
    "dtx-tatp+loss": "12f3b05b58eb9e0ba5a8a2eae2735e1d25a864a926d5a803e32e4a3828c2ef90",
    "bt-sherman": "218468094cde785b99ddb69dfb74b73d33f2300edcd0b6cc333715cf645f0106",
    "bt-sherman+obs": "6884d336d78c00c04ceef59e7812b26d36153f0206113a67279fd9c6b0223a57",
    "bt-sherman+sanitize": "ce6e4fa60dcb2587d5128113e30bf4030cf11a02c461985c0e34a462ce0f42db",
    "bt-sherman-sl": "7f69b9546d2a74bb867eee5463f6eb71712b116412ec86e0539a6359de49a476",
    "bt-sherman-sl+obs": "23743ab7150c78c3d81dab5f41c1ebed7bdd5c7a008dce3c613af3956681a36e",
    "bt-sherman-sl+sanitize": "7cf8bdd9c9ec05fc017ad3b35391f7006fa6ea88c43b40759149150360a372dd",
    "bt-smart": "fabc31b2fdfabd9acea68a8232dffe92c6235e89baab75f23e019d53c5e8e540",
    "bt-smart+obs": "165a8ef22f1476c9d6b4f58bf61e3856a35ec30911d7678174d358e61bc318fc",
    "bt-smart+sanitize": "b2776af833d3884acaf8035d3580efeae6b6ee2c2fd0bcf2c9d35700b4e6d3c4",
    "bt-smart-nohopl": "c9e46a2feebbdad3d2327850e0d1bd747086386e104e6ea8f67cef04c92d88ba",
    "bt-smart-nohopl+obs": "37a8cf2b77a59d09a8c241e5e95232af1e565dcbc38fd2cf169628047bd28fd2",
    "bt-smart-nohopl+sanitize": "22885ecb19f48a499fc8ed53a4e259d01543ee956ca35d8f85d2824f1bcc77d3",
    "bt-sherman-nohopl": "d451b483e5f45aca0ab70ffe739057a2c0bc77818faa7834f234f93313bf12e9",
    "bt-sherman-nohopl+obs": "71eb6830902228633884ae758568e1f7a709aa6707e7307af060d04fb1df1e7e",
    "bt-sherman-nohopl+sanitize": "9bdeb79362b26e11ee84d2f386eed07c0b690ceaa8c6943f763c506f531e316b",
    "open-hashtable": "aeefde5209722636fc42fc2ae3a84127e83c39d03580d290462b544c77e26dc0",
    "open-hashtable+obs": "fbe7d06c58f2c5d28a8ecf6618e317fc4e906718796fb977cf5f9796b793349e",
    "open-hashtable+sanitize": "08a74424532da002348857213cea9eb556c81de6270f568d73f54c2c3ed69b23",
    "open-hashtable+loss": "35c52400935c5b15ef663ff9f4a7482d80aca0395806ac1c8fd8d95e1aea4e01",
    "open-dtx": "77f90969c668286a39d36506648edd5f7874f5eb6ca047d0dea6b5bdfb411316",
    "open-dtx+obs": "6db7a2a7f0679eacc0bcd4bac92f34255a5fa6d343bb8b7134944c2f283e36ec",
    "open-dtx+sanitize": "eae4f27efc1693f376cb874cbaaa0afc76c4ef2e65ed3c94028a7e679d013988",
    "open-dtx+loss": "54b483054c79e9f61c48175145a75a5570cd0ca79acabb73969156b00c821a8f",
    "open-btree": "80aadd9fb4d8645ce43091147187b0cf88f490ff99b8b54070d4d1b683d70591",
    "open-btree+obs": "4bef7928381a67ea9a086516cfdf8d84e4d027d9354a18a0c2eb47ac34747a5d",
    "open-btree+sanitize": "c2b512cf7b1925de84e96f09209c29252044d6c58488e995d6ff42537db93010",
    "open-btree+loss": "909403ded6d933d884e3f998f900f58d4576bb356a97de6bece927dc9d190fb1",
    "micro-smart": "db0f1984d92cfe628e8d2f3a39ea6a53f21a710f01961f572a5f965d67921ea2",
    "micro-smart+obs": "3a810119cb26847b0fdb816d9747d95fdabc9153611243b1f691ce3bf456ee69",
    "micro-smart+sanitize": "2fe9323a59a1c565b2c2cf7de4884958800a42ba442cb3db83292483b756c2be",
    "micro-smart+loss": "03ebe115eed70fedab37eb987e04702c307bcec623319ab336775b87d3872e55",
    "micro-per-thread-qp": "4de0b99de1c35b20c92494d6ebfe5c80aedad2fec53a4e285ce714230c2b0ab1",
    "micro-per-thread-qp+obs": "9d02f503258c9fbbb33fa94df56a1b891a3e5bb838b36fcee79126e274cfa408",
    "micro-per-thread-qp+sanitize": "2c7f8dd9af56333006e520d06e61444d05a3793924fc27f1fb25356d903aafa0",
    "micro-per-thread-qp+loss": "72461065b9d0969a5ec8d0bedf46d30aaf601f45c2606adea9f44b19fc884ccf",
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
        cases.append((f"{name}+sanitize", name, dict(sanitize=True), False))
        if runner == "run_btree":  # gained faults= in PR 12: replay-tested
            continue
        # an open-loop point without a system runs its app's SMART one
        smart = runner == "run_open_loop" or kwargs.get(
            "system", kwargs.get("policy")) in ("smart-ht", "smart-dtx", "smart")
        cases.append((f"{name}+loss", name, _LOSS_SMART if smart else _LOSS, False))
    cases.append(("dtx-smallbank+crash", "dtx-smallbank",
                  dict(faults="loss=0.01@2.05ms+0.3ms,crash=2@2.1ms+0.15ms",
                       fault_seed=9), False))
    cases.append(("dtx-tatp+seeded", "dtx-tatp",
                  dict(faults="seeded", fault_seed=4), False))
    return cases


def _golden_run(point, extra, with_obs):
    """``(digest, kernel events, result)`` of one pinned point.

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
    from repro import traffic

    runner_name, kwargs = _POINTS[point]
    for module in (runner, microbench, traffic):
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
    return hashlib.sha256(blob.encode()).hexdigest(), events, result


@pytest.mark.parametrize(
    "case,point,extra,with_obs", _golden_cases(),
    ids=[case[0] for case in _golden_cases()],
)
def test_runner_results_are_byte_identical_to_the_pinned_commit(
        case, point, extra, with_obs):
    digest, events, result = _golden_run(point, extra, with_obs)
    assert digest == GOLDEN_DIGESTS[case]
    if case.endswith("+loss"):
        assert result.retransmissions > 0, case
    if case in GOLDEN_EVENTS:
        assert events == GOLDEN_EVENTS[case], (
            f"{case}: kernel events {events} != pinned {GOLDEN_EVENTS[case]} "
            "(host cost, not model: the simulated output above is unchanged; "
            "a rise means a suspension came back on a hot path — re-record "
            "only for an intended change in what the kernel executes)"
        )


if __name__ == "__main__":  # record mode: print both tables for this src tree
    runs = [(case, *_golden_run(point, extra, with_obs)[:2])
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
