"""Tests for repro.analysis: RDMASan and the SIM rules of the static analyser."""


import pytest

from repro.analysis import RdmaSanitizer
from repro.analysis.flow import analyze_source
from repro.bench.microbench import run_microbench
from repro.bench.runner import build_deployment, run_btree, run_dtx, run_hashtable
from repro.core.features import baseline
from repro.rnic import verbs
from repro.rnic.qp import QueuePair, cas_wr, write_wr
from repro.sim import Simulator
from repro.sim.core import SimulationError
from repro.sim.resources import FifoLock

APP_KW = dict(threads=2, coroutines=2, item_count=2000,
              warmup_ns=1e5, measure_ns=2e5, seed=1)


# -- the seeded two-writer race reproducer ------------------------------------


def _run_race(seed: int = 7) -> dict:
    """Two SmartThreads issue overlapping unfenced 16-byte WRITEs."""
    deployment = build_deployment(
        baseline(), threads=2, compute_blades=1, memory_blades=1, seed=seed
    )
    blade = deployment.memory_nodes[0]
    region = blade.storage.alloc_region("shared", 4096)
    sanitizer = RdmaSanitizer().attach_cluster(deployment.cluster)
    sim = deployment.cluster.sim

    def writer(smart, offset):
        handle = smart.handle()
        addr = blade.storage.global_addr(region.base + offset)
        yield from handle.write_sync(addr, b"\xab" * 16)

    sim.spawn(writer(deployment.smart_threads[0], 0))
    sim.spawn(writer(deployment.smart_threads[1], 8))
    sim.run()
    sanitizer.finish(expect_idle=True)
    return sanitizer.report()


def test_two_writer_race_yields_exactly_one_finding():
    report = _run_race()
    assert len(report["findings"]) == 1
    finding = report["findings"][0]
    assert finding["kind"] == "write-write"
    assert finding["region"] == "shared"
    assert finding["bytes"] == 8  # the 8-byte overlap of the two 16B writes
    # Stable attribution: distinct threads on distinct QPs of node 0.
    assert finding["first"]["thread"] == 0 and finding["second"]["thread"] == 1
    assert finding["first"]["qp"] != finding["second"]["qp"]
    assert report["leaks"] == []


def test_race_finding_deterministic_across_reruns():
    assert _run_race()["findings"] == _run_race()["findings"]


def test_disjoint_writes_are_clean():
    deployment = build_deployment(
        baseline(), threads=2, compute_blades=1, memory_blades=1, seed=7
    )
    blade = deployment.memory_nodes[0]
    region = blade.storage.alloc_region("shared", 4096)
    sanitizer = RdmaSanitizer().attach_cluster(deployment.cluster)
    sim = deployment.cluster.sim

    def writer(smart, offset):
        handle = smart.handle()
        addr = blade.storage.global_addr(region.base + offset)
        yield from handle.write_sync(addr, b"\xcd" * 16)

    sim.spawn(writer(deployment.smart_threads[0], 0))
    sim.spawn(writer(deployment.smart_threads[1], 64))
    sim.run()
    assert sanitizer.report()["findings"] == []
    assert sanitizer.ops_checked == 2


# -- exemptions: sync words, policies, same-QP ordering -----------------------


def _raw_deployment():
    deployment = build_deployment(
        baseline(), threads=2, compute_blades=1, memory_blades=1, seed=3
    )
    blade = deployment.memory_nodes[0]
    region = blade.storage.alloc_region("tbl", 4096)
    sanitizer = RdmaSanitizer().attach_cluster(deployment.cluster)
    return deployment, blade, region, sanitizer


def _post(thread, qp, wr):
    yield from verbs.post_and_wait(thread, qp, [wr])


def test_cas_observed_sync_word_exempts_overlap():
    deployment, blade, region, sanitizer = _raw_deployment()
    sim = deployment.cluster.sim
    threads = deployment.compute_nodes[0].threads
    node_id = blade.node_id
    word = blade.storage.global_addr(region.base)
    # Thread 0 CASes the word while thread 1 writes the same 8 bytes:
    # the CAS marks it a sync variable, so the overlap is protocol.
    sim.spawn(_post(threads[0], threads[0].qp_for(node_id), cas_wr(word, 0, 1)))
    sim.spawn(_post(threads[1], threads[1].qp_for(node_id), write_wr(word, b"\x00" * 8)))
    sim.run()
    assert sanitizer.report()["findings"] == []


def test_read_under_write_policy():
    for policy, expected in (("exclusive", 1), ("optimistic-read", 0)):
        deployment, blade, region, sanitizer = _raw_deployment()
        if policy != "exclusive":  # exclusive is the default
            sanitizer.set_region_policy(blade.node_id, "tbl", policy)
        sim = deployment.cluster.sim
        threads = deployment.compute_nodes[0].threads
        addr = blade.storage.global_addr(region.base + 16)
        from repro.rnic.qp import read_wr

        sim.spawn(_post(threads[0], threads[0].qp_for(blade.node_id),
                        write_wr(addr, b"\x11" * 32)))
        sim.spawn(_post(threads[1], threads[1].qp_for(blade.node_id),
                        read_wr(addr, 32)))
        sim.run()
        findings = sanitizer.report()["findings"]
        assert len(findings) == expected, policy
        if findings:
            assert findings[0]["kind"] == "read-under-write"


def test_same_qp_pipelined_writes_are_ordered():
    deployment, blade, region, sanitizer = _raw_deployment()
    sim = deployment.cluster.sim
    thread = deployment.compute_nodes[0].threads[0]
    qp = thread.qp_for(blade.node_id)
    addr = blade.storage.global_addr(region.base)

    def burst():
        # Both WRs ring in one doorbell: in flight together, same QP.
        yield from verbs.post_and_wait(
            thread, qp, [write_wr(addr, b"\x22" * 16), write_wr(addr, b"\x33" * 16)]
        )

    sim.spawn(burst())
    sim.run()
    assert sanitizer.report()["findings"] == []


# -- lock discipline (striped tables) -----------------------------------------


def test_unlocked_write_into_striped_region_is_flagged():
    deployment, blade, region, sanitizer = _raw_deployment()
    sanitizer.declare_striped_locks(
        blade.node_id, region.base, region.end, stride=64, lock_offset=0, span=64
    )
    sim = deployment.cluster.sim
    thread = deployment.compute_nodes[0].threads[0]
    addr = blade.storage.global_addr(region.base + 16)
    sim.spawn(_post(thread, thread.qp_for(blade.node_id), write_wr(addr, b"\x44" * 16)))
    sim.run()
    findings = sanitizer.report()["findings"]
    assert len(findings) == 1
    assert findings[0]["kind"] == "lock-discipline"
    assert findings[0]["lock_word"] == region.base
    assert findings[0]["holder"] is None


def test_locked_write_then_release_is_clean():
    deployment, blade, region, sanitizer = _raw_deployment()
    sanitizer.declare_striped_locks(
        blade.node_id, region.base, region.end, stride=64, lock_offset=0, span=64
    )
    sim = deployment.cluster.sim
    thread = deployment.compute_nodes[0].threads[0]
    qp = thread.qp_for(blade.node_id)
    lock_addr = blade.storage.global_addr(region.base)
    data_addr = blade.storage.global_addr(region.base + 16)

    def locked_update():
        yield from verbs.post_and_wait(thread, qp, [cas_wr(lock_addr, 0, 1)])
        yield from verbs.post_and_wait(thread, qp, [write_wr(data_addr, b"\x55" * 16)])
        # Release: a plain 8-byte zero write confined to the lock word.
        yield from verbs.post_and_wait(thread, qp, [write_wr(lock_addr, b"\x00" * 8)])

    sim.spawn(locked_update())
    sim.run()
    assert sanitizer.report()["findings"] == []
    # The release cleared the holder.
    assert sanitizer._holders == {}


def test_write_while_other_actor_holds_lock_is_flagged():
    deployment, blade, region, sanitizer = _raw_deployment()
    sanitizer.declare_striped_locks(
        blade.node_id, region.base, region.end, stride=64, lock_offset=0, span=64
    )
    sim = deployment.cluster.sim
    threads = deployment.compute_nodes[0].threads
    lock_addr = blade.storage.global_addr(region.base)
    data_addr = blade.storage.global_addr(region.base + 16)

    def locker():
        yield from verbs.post_and_wait(
            threads[0], threads[0].qp_for(blade.node_id), [cas_wr(lock_addr, 0, 1)]
        )

    def intruder():
        # Wait long enough for the lock to be held, then write the data.
        yield sim.timeout(50_000)
        yield from verbs.post_and_wait(
            threads[1], threads[1].qp_for(blade.node_id),
            [write_wr(data_addr, b"\x66" * 16)],
        )

    sim.spawn(locker())
    sim.spawn(intruder())
    sim.run()
    findings = sanitizer.report()["findings"]
    assert len(findings) == 1
    assert findings[0]["kind"] == "lock-discipline"
    assert findings[0]["holder"] is not None


# -- teardown leak checks -----------------------------------------------------


def test_qp_in_error_is_reported_as_leak():
    deployment, blade, region, sanitizer = _raw_deployment()
    thread = deployment.compute_nodes[0].threads[0]
    thread.qp_for(blade.node_id).to_error("retry-exceeded")
    sanitizer.finish()
    leaks = sanitizer.report()["leaks"]
    assert {"kind": "qp-error", "node": 0, "remote": blade.node_id,
            "cause": "retry-exceeded"} in leaks


def test_expect_idle_reports_runnable_processes_and_held_locks():
    deployment, blade, region, sanitizer = _raw_deployment()
    sim = deployment.cluster.sim

    def parked():
        yield sim.event()  # never fired

    sim.spawn(parked(), name="parked")
    context = deployment.compute_nodes[0].device.contexts[0]
    context.uar.doorbells[0].lock.acquire(owner=99)
    sim.run()
    sanitizer.finish(expect_idle=True)
    leaks = sanitizer.report()["leaks"]
    kinds = {leak["kind"] for leak in leaks}
    assert "process-runnable" in kinds
    assert any(l["kind"] == "lock-held" and l["owner"] == 99 for l in leaks)


# -- stock applications are race-free under the sanitizer ---------------------


def test_stock_hashtable_sanitized_clean():
    result = run_hashtable(sanitize=True, **APP_KW)
    assert result.sanitizer["findings"] == []
    assert result.sanitizer["leaks"] == []
    assert result.sanitizer["ops_checked"] > 1000


def test_stock_dtx_sanitized_clean():
    result = run_dtx(sanitize=True, **APP_KW)
    assert result.sanitizer["findings"] == []
    assert result.sanitizer["leaks"] == []
    assert result.sanitizer["ops_checked"] > 1000


def test_stock_btree_sanitized_clean():
    result = run_btree(sanitize=True, **APP_KW)
    assert result.sanitizer["findings"] == []
    assert result.sanitizer["leaks"] == []
    assert result.sanitizer["ops_checked"] > 1000


def test_sanitizer_is_passive():
    """Simulated numbers are bit-identical with the sanitizer on or off."""
    import dataclasses

    on = dataclasses.asdict(run_microbench(threads=4, depth=4, measure_ns=2e5,
                                           seed=3, sanitize=True))
    off = dataclasses.asdict(run_microbench(threads=4, depth=4, measure_ns=2e5,
                                            seed=3))
    assert on.pop("sanitizer")["findings"] == []
    assert off.pop("sanitizer") is None
    assert on == off


# -- FifoLock owner guard (satellite) -----------------------------------------


def test_fifolock_release_by_non_owner_raises():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    lock.acquire(owner=1)
    with pytest.raises(SimulationError, match="non-owner"):
        lock.release(owner=2)
    lock.release(owner=1)
    assert not lock.locked and lock.owner is None


def test_fifolock_owner_tracks_handoff():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    lock.acquire(owner="a")
    lock.acquire(owner="b")  # queued
    assert lock.owner == "a"
    lock.release(owner="a")
    assert lock.owner == "b"  # committed at hand-off
    with pytest.raises(SimulationError):
        lock.release(owner="a")
    lock.release(owner="b")


def test_fifolock_unowned_release_still_works():
    sim = Simulator()
    lock = FifoLock(sim, "l")
    lock.acquire()
    lock.release()  # no owner tokens: old unchecked behaviour
    with pytest.raises(RuntimeError):  # SimulationError subclasses it
        lock.release()


# -- Process early-failure bugfix (satellite) ---------------------------------


def test_process_raising_before_first_yield_fires_completion():
    sim = Simulator()

    def doomed():
        raise ValueError("boom")
        yield  # pragma: no cover - makes this a generator

    received = []

    def waiter(proc):
        value = yield proc
        received.append(value)

    proc = sim.spawn(doomed())
    sim.spawn(waiter(proc))
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    # The completion event fired with the error attached; draining the
    # remaining events wakes the waiter instead of parking it forever.
    sim.run()
    assert not proc.alive
    assert isinstance(proc.error, ValueError)
    assert proc.value is proc.error
    assert received == [proc.error]


def test_process_raising_mid_run_records_error():
    sim = Simulator()

    def doomed():
        yield sim.timeout(5)
        raise RuntimeError("later")

    proc = sim.spawn(doomed())
    with pytest.raises(RuntimeError, match="later"):
        sim.run()
    assert isinstance(proc.error, RuntimeError)


def test_spawn_registry_records_processes():
    sim = Simulator()
    sim.process_registry = []

    def quick():
        yield sim.timeout(1)

    proc = sim.spawn(quick())
    assert sim.process_registry == [proc]
    sim.run()
    assert not proc.alive


# -- the simulation-hygiene rules (SIM001-SIM005) ----------------------------


def _rules(findings):
    return [f.rule for f in findings]


def test_sim001_wall_clock():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert _rules(analyze_source(src)) == ["SIM001"]
    src = "from time import monotonic\n"
    assert _rules(analyze_source(src)) == ["SIM001"]
    suppressed = "import time\n\ndef f():\n    return time.time()  # lint: disable=SIM001\n"
    assert analyze_source(suppressed) == []
    # The bench report shape: a figure's JSON stamped with the time it
    # was written differs run to run, where no golden digest looks.
    src = ("import json, time\n\ndef write(result, path):\n"
           "    path.write_text(json.dumps({**result, 'written_at': time.time()}))\n")
    assert _rules(analyze_source(src)) == ["SIM001"]


def test_sim002_unseeded_random():
    src = "import random\nx = random.randint(1, 5)\n"
    assert _rules(analyze_source(src)) == ["SIM002"]
    # random.Random(seed) is fine, and rng.py itself is exempt.
    assert analyze_source("import random\nr = random.Random(3)\n") == []
    assert analyze_source(src, path="src/repro/sim/rng.py") == []
    # The bench CLI shape: a default fault seed drawn from the global
    # generator, so an unseeded faulty run cannot be replayed.
    src = ("import random\n\ndef flags(parser):\n"
           "    parser.add(fault_seed=random.randrange(1 << 16))\n")
    assert _rules(analyze_source(src)) == ["SIM002"]


SIM003_FIXTURE = """\
def worker(sim, lock):
    yield lock.acquire()
    try:
        yield sim.timeout(5)
    except Exception:
        pass
"""


def test_sim003_broad_except_in_process_generator():
    assert _rules(analyze_source(SIM003_FIXTURE)) == ["SIM003"]
    # A bare re-raise passes Interrupt on: clean.
    reraising = SIM003_FIXTURE.replace("        pass\n", "        raise\n")
    assert analyze_source(reraising) == []
    # Handling Interrupt first is clean too.
    guarded = SIM003_FIXTURE.replace(
        "    except Exception:\n",
        "    except Interrupt:\n        return\n    except Exception:\n",
    )
    assert analyze_source(guarded) == []
    # A non-process function may catch broadly.
    plain = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
    assert analyze_source(plain) == []
    # The bench runner shape: a client loop that skips any op that
    # raises ends a run whose blade never came back quietly, where the
    # runner must fail loudly.
    src = ("def client_loop(dispatch, client, stream):\n"
           "    for item in stream:\n"
           "        try:\n"
           "            yield from dispatch(client, item)\n"
           "        except Exception:\n"
           "            continue\n")
    assert _rules(analyze_source(src)) == ["SIM003"]


def test_sim004_float_timestamp_equality():
    src = "def f(self, now):\n    return self.busy_until == now\n"
    assert _rules(analyze_source(src)) == ["SIM004"]
    assert analyze_source("def f(self, now):\n    return self.busy_until >= now\n") == []
    # The microbench shape: latency sampled when ``now != warmup_ns``
    # instead of from the window on, which only a latency-sampling run
    # of a verbs policy (no digest) would show.
    src = ("def worker(sim, warmup_ns, samples):\n"
           "    if sim.now != warmup_ns:\n"
           "        samples.append(sim.now)\n")
    assert _rules(analyze_source(src)) == ["SIM004"]


def test_sim005_yield_non_waitable_literal():
    src = "def f(sim):\n    yield sim.timeout(1)\n    yield 5\n"
    assert _rules(analyze_source(src)) == ["SIM005"]
    assert analyze_source("def f(sim):\n    yield sim.timeout(1)\n") == []
