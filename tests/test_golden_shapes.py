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


# -- near-memory offload crossover (offload experiment) ------------------------


def graph_point(mode, **rnic_knobs):
    from repro.bench.graph_runner import run_graph
    from repro.rnic.config import RnicConfig

    return run_graph(
        mode=mode, algo="bfs", vertices=96, degree=4, skew=0.6,
        seed=3, chunk=16, config=RnicConfig(**rnic_knobs),
    )


def test_offload_eliminates_wasted_cas_at_high_skew():
    """The headline shape: one-sided BFS burns hundreds of failed CAS
    claims on the hub vertices of a skew-0.6 R-MAT graph; pushing the
    claim loop to the blade eliminates them entirely and finishes an
    order of magnitude sooner — for the bit-identical answer."""
    onesided = graph_point("onesided")
    offload = graph_point("offload")
    assert onesided.elapsed_ns == pytest.approx(398917.0)
    assert onesided.wasted_iops == 292
    assert offload.elapsed_ns == pytest.approx(32601.0)
    assert offload.wasted_iops == 0
    assert offload.elapsed_ns * 10 < onesided.elapsed_ns
    assert onesided.levels_checksum == offload.levels_checksum
    assert onesided.visited == offload.visited == 83


def test_rpc_trades_cas_waste_for_message_count():
    """Per-edge RPC also avoids CAS retries, but pays one round trip per
    edge: no wasted IOPS, yet the slowest of the three modes."""
    onesided = graph_point("onesided")
    rpc = graph_point("rpc")
    assert rpc.wasted_iops == 0
    assert rpc.am_messages == 375
    assert rpc.elapsed_ns == pytest.approx(459473.0)
    assert rpc.elapsed_ns > onesided.elapsed_ns
    assert rpc.levels_checksum == onesided.levels_checksum


def test_wimpy_core_slowdown_crossover():
    """Offload only wins while the blade core is fast enough: the
    advantage shrinks monotonically with ``offload_slowdown`` and flips
    past the crossover (a 400x wimpy core loses to one-sided CAS).  The
    answer never changes — only the clock does."""
    onesided = graph_point("onesided")
    fast = graph_point("offload", offload_slowdown=3.0)
    mid = graph_point("offload", offload_slowdown=120.0)
    slow = graph_point("offload", offload_slowdown=400.0)
    assert fast.elapsed_ns == pytest.approx(32601.0)
    assert mid.elapsed_ns == pytest.approx(181361.0)
    assert slow.elapsed_ns == pytest.approx(543393.0)
    assert fast.elapsed_ns < mid.elapsed_ns < slow.elapsed_ns
    assert fast.elapsed_ns < onesided.elapsed_ns < slow.elapsed_ns
    assert len({r.levels_checksum for r in (onesided, fast, mid, slow)}) == 1


# -- cross-commit byte-identity pins for the app runners -----------------------
#
# Every digest below was recorded at the commit *before* the run-pipeline
# refactor (PR 12) with
#
#     PYTHONPATH=<parent>/src python tests/test_golden_shapes.py
#
# which prints this table.  A digest is the sha256 of the runner's whole
# result dataclass (the ``sim_digest`` of ``benchmarks/e2e``), so any
# change to a simulated number, a fault counter, the phase breakdown or
# the sanitizer report of these points fails here — re-record only when
# a model change is intended, and say so in CHANGES.md.

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
    "ht-race": "36a6a4fdc76035e8a06a050c294ccabbed3cce06783fe41561aed8c7bdb741d3",
    "ht-race+obs": "0cc7e3c0587981fd931a7f9576c0f1bce4274c2be6b5922db9d307bbb87d79ab",
    "ht-race+sanitize": "b53025726d3c1ba31e5595cab585653bc1b12356af4d6e31e51a25ac1825c268",
    "ht-race+loss": "3b77e51bd4181a30896c23a08f5344fc8abb0bcbae112c8db3b4d0798a177ddc",
    "ht-smart": "24179f31a7c14b80de0ad8fee1380d08201cec02df02460aac18ff9cdab328e8",
    "ht-smart+obs": "8d179eaadb36f04211eec2afcb02420d30f591346c5309c07678c68abf5a9ff4",
    "ht-smart+sanitize": "7a67f16f3b6167acbc5209f788da95e11221f300a58b7494e56bc1ee3f090373",
    "ht-smart+loss": "d80c9a6b028791c87fb04042b876020d990d61362c12b75a3ab8b268dbad1f37",
    "dtx-smallbank": "b0f8c19806e1386a14f7fbb84163b06d993b84705e2a0a183e727a545fe51926",
    "dtx-smallbank+obs": "9f6f181f55f74e20c22153cc0ebdf904d8ba501f919e12ea9d4f5713ff0c7a55",
    "dtx-smallbank+sanitize": "3420fed6509e4591e176c28eaa8579f737de4d806beb7d07e4ddbd3987c711cb",
    "dtx-smallbank+loss": "278908ac8393b1bce0c8fb5535b2f1ea8e8def3f8315342f9fe455cc4e61b0b8",
    "dtx-tatp": "cb2e9dd32de11cde687c091119b2d4e25be49aff7ae3d95fa68832957b016370",
    "dtx-tatp+obs": "fc198e0883d0d23af8feb88ea27840ef904f98e4c4398fbc42111e26203b491b",
    "dtx-tatp+sanitize": "3728a3f6aa583305254495d7da5825e9710754a6fa573d58077558cd05272a3e",
    "dtx-tatp+loss": "f61f8e08facdedcb56e8117d69bfae8ed2df4235eca0c20807da0830ec9372f6",
    "bt-sherman": "78efaa6f640500884bbe02fdfa5a2a96a7b4d948e847f3750af63b7139374354",
    "bt-sherman+obs": "880f019c8404e1450028a2053e7fc4f37eca46364ac1731cf25cda9ee21dafe0",
    "bt-sherman+sanitize": "d383b36a6226ea7bc24c96286b27340d3beecfcaeb3ed870ffcb35f7f55e94ce",
    "bt-sherman-sl": "f9144788a5614610c27a23879666540e1faeb31a0ec186ba9114aefe68762d2d",
    "bt-sherman-sl+obs": "60e29df78261726c808b2c81adf28178888dc32cc4fa6a4d06932bcf9e205e5c",
    "bt-sherman-sl+sanitize": "ea35ad48edcaaac1f128c8a9291b44886ed436a328299d534022049120b4ec54",
    "bt-smart": "eec13282ebf7452f6082d59f0769253b47fde60201753fcfb6fd3094d8120016",
    "bt-smart+obs": "e5319ba5656cdf4db6b2adf23258a1d2d940ddac4b985696a6c47d5419277e16",
    "bt-smart+sanitize": "e35266211ed34baffa2e79f81a0e168125be4ea1a4dd509af4f0c85ca2991d7a",
    "bt-smart-nohopl": "bf4e275b11f271d03d6b11c087f12b659943b1265ff6a643a6492e25352c02bf",
    "bt-smart-nohopl+obs": "c4487d016c53cd568507585942b656c5349019e6ba72a7477a5e4369e9e71eb3",
    "bt-smart-nohopl+sanitize": "b7179c030afcd1186d6d122ed9f18102e5506a1b579b15013d9866cc593cff2d",
    "bt-sherman-nohopl": "69a2e8ba227b8ded638cdaca50bb51f590451addf221e09fc6ac0167bca71a22",
    "bt-sherman-nohopl+obs": "c0509ee3d16578261feff7a5a319caa82e226144538c3559f488cbc24face437",
    "bt-sherman-nohopl+sanitize": "1a1113de08dc9729f2d5ada2f467476996ae7947c0dd56e94408c67e1a8f8bb1",
    "open-hashtable": "fde3ee6bd5bba089999f63450a3c5fd7fa4699a982726ee9f56d4cbcc16b40aa",
    "open-hashtable+obs": "29b77330a854b53597dfcedfc4365d505d515351c39be65010b6d09e70e6969b",
    "open-dtx": "3ea266cd12f19b47e8f700702bc369777d2adaef8750d0846f1325ac0a16de42",
    "open-dtx+obs": "efbdc353ba8f1f4c56fe5b14ac679a7784f497229bc83a8c47161afec592e722",
    "open-btree": "16de8f8a2a5e069bdf739b635b5137f39ac87a947c5c35f7a8938864a520a8a1",
    "open-btree+obs": "0b1c81da38812726156cd4e2b2e3ea3dabce5a1f6a303ae86d0c7e6bfd5e39d1",
    "micro-smart": "4da43a6c0d1244f66630375c015f1fb953154b7b783d95fdc7f1bb1af1eb147d",
    "micro-smart+obs": "39860afce2ed815aad61d21f4f4c24d34f04538c8670e61572f6e19caa25ffc3",
    "micro-smart+sanitize": "114064d70ca8576fbfdea6f5bd4908fe6263e5393bcec3c18e4c15d272c89124",
    "micro-smart+loss": "50283a029708732bb7a153ab529e0a87cba6888e4e301daca5b724822850f396",
    "micro-per-thread-qp": "89dd9a1c77ca6d238bebaf1ab5edf0a00d7ac1c951bc1a3ca3734617e268d946",
    "micro-per-thread-qp+obs": "9138297420bb6f10ce190ba96e4d8c627ba26d4ef564546f9b05447f0fe075e3",
    "micro-per-thread-qp+sanitize": "7960070ede5646e5df588d15408af815ba1f216f43805201d340ef57df40a460",
    "micro-per-thread-qp+loss": "e1f6c40de4b13cb78ebc3e7798faed4c158760300f9ce909a0c54451834a397b",
    "dtx-smallbank+crash": "89997fa82b25efdf6cadd5a9c5f6c5ef7b5bdacae9750401af33f788484d482f",
    "dtx-tatp+seeded": "bfd694036ec9586d2f517400cb9020d97d0f778bc007a405e02a9be4fdf1d26f",
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


def _golden_digest(point, extra, with_obs):
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
    if with_obs:
        payload = {"result": payload, "metrics": obs.registry.to_dict()}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize(
    "case,point,extra,with_obs", _golden_cases(),
    ids=[case[0] for case in _golden_cases()],
)
def test_runner_results_are_byte_identical_to_the_pinned_commit(
        case, point, extra, with_obs):
    assert _golden_digest(point, extra, with_obs) == GOLDEN_DIGESTS[case]


if __name__ == "__main__":  # record mode: print the table for this src tree
    print("GOLDEN_DIGESTS = {")
    for case, point, extra, with_obs in _golden_cases():
        print(f'    "{case}": "{_golden_digest(point, extra, with_obs)}",')
    print("}")
