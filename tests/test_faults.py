"""Fault injection and recovery: schedules, fabric faults, blade crashes,
QP error/flush semantics, reconnect, and the end-to-end chaos smoke suite
(marked ``chaos``)."""

import dataclasses
import random
import struct

import pytest

from repro.bench.microbench import POLICIES
from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import baseline
from repro.faults import (
    BladeCrash,
    FaultInjector,
    FaultSchedule,
    parse_duration_ns,
)
from repro.network.fabric import Fabric, LinkFault
from repro.rnic import verbs
from repro.rnic.qp import QueuePair, WorkRequest, read_wr, write_wr
from repro.memory.blade import MemoryBlade
from repro.sim import Simulator

_U64 = struct.Struct("<Q")


# -- schedule construction ----------------------------------------------------


class TestScheduleParsing:
    def test_parse_duration_units(self):
        assert parse_duration_ns("500") == 500.0
        assert parse_duration_ns("500ns") == 500.0
        assert parse_duration_ns("1.5us") == 1500.0
        assert parse_duration_ns("2ms") == 2e6
        assert parse_duration_ns("1s") == 1e9

    def test_parse_clauses(self):
        sched = FaultSchedule.parse(
            "loss=0.02@0.5ms+1ms, dup=0.01@0+2ms:1, delay=500ns@1ms+1ms, "
            "crash=2@0.8ms+0.4ms"
        )
        assert len(sched.link_faults) == 3
        loss, dup, delay = sched.link_faults
        assert loss.loss == 0.02 and loss.start_ns == 0.5e6 and loss.duration_ns == 1e6
        assert dup.duplicate == 0.01 and dup.node_id == 1
        assert delay.extra_delay_ns == 500.0
        (crash,) = sched.crashes
        assert crash.node_id == 2
        assert crash.start_ns == 0.8e6 and crash.downtime_ns == 0.4e6
        assert crash.restart_ns == 1.2e6

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultSchedule.parse("loss=0.02")
        with pytest.raises(ValueError):
            FaultSchedule.parse("explode=1@0+1ms")
        with pytest.raises(ValueError):
            FaultSchedule.parse("loss=2.0@0+1ms")  # probability > 1
        with pytest.raises(ValueError):
            FaultSchedule.parse("crash=1@0+1ms:2")  # crash node via suffix

    def test_seeded_is_deterministic(self):
        a = FaultSchedule.seeded(42, 1e6, 2e6, crash_nodes=(1, 2))
        b = FaultSchedule.seeded(42, 1e6, 2e6, crash_nodes=(1, 2))
        c = FaultSchedule.seeded(43, 1e6, 2e6, crash_nodes=(1, 2))
        assert a == b
        assert a != c
        assert a.crashes and a.link_faults
        assert all(f.start_ns >= 1e6 for f in a.link_faults)

    def test_from_spec_passthrough_and_keywords(self):
        sched = FaultSchedule.parse("loss=0.1@0+1ms")
        assert FaultSchedule.from_spec(sched) is sched
        seeded = FaultSchedule.from_spec("seeded", seed=3, crash_nodes=(1,))
        assert seeded == FaultSchedule.seeded(3, 0.0, 2.0e6, crash_nodes=(1,))

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            BladeCrash(1, -1.0, 10.0)
        with pytest.raises(ValueError):
            BladeCrash(1, 0.0, 0.0)

    def test_schedule_horizon(self):
        sched = FaultSchedule.parse("loss=0.1@0+1ms,crash=1@2ms+0.5ms")
        assert sched.horizon_ns == 2.5e6
        assert FaultSchedule().empty and FaultSchedule().horizon_ns == 0.0


# -- fabric faults ------------------------------------------------------------


class TestFabricFaults:
    def test_fast_path_matches_record_and_needs_no_rng(self):
        fabric = Fabric(Simulator(), 1000.0)
        assert fabric.transit(64, now=0.0) == (1000.0, False, False)
        assert fabric.messages == 1 and fabric.bytes_carried == 64
        assert fabric.fault_rng is None  # never consulted

    def test_faults_without_rng_raise(self):
        fabric = Fabric(Simulator(), 1000.0)
        fabric.add_fault(LinkFault(0.0, 1e6, loss=1.0))
        with pytest.raises(RuntimeError):
            fabric.transit(8, now=10.0)

    def test_loss_duplication_and_delay_draws(self):
        fabric = Fabric(Simulator(), 1000.0)
        fabric.fault_rng = random.Random(1)
        fabric.add_fault(LinkFault(0.0, 1e6, loss=1.0, extra_delay_ns=250.0))
        delay, dropped, duplicated = fabric.transit(8, now=10.0)
        assert dropped and not duplicated
        assert delay == 1250.0
        assert fabric.messages_dropped == 1 and fabric.messages_delayed == 1
        # Outside the window the fault is inert.
        assert fabric.transit(8, now=2e6) == (1000.0, False, False)

    def test_link_fault_endpoint_filter(self):
        fault = LinkFault(0.0, 1e6, loss=1.0, node_id=2)
        assert fault.active(10.0, src=0, dst=2)
        assert fault.active(10.0, src=2, dst=0)
        assert not fault.active(10.0, src=0, dst=1)
        assert not fault.active(2e6, src=0, dst=2)  # expired

    def test_clear_expired_faults(self):
        fabric = Fabric(Simulator())
        fabric.add_fault(LinkFault(0.0, 100.0, loss=0.5))
        fabric.add_fault(LinkFault(0.0, 1e6, loss=0.5))
        fabric.clear_expired_faults(now=500.0)
        assert len(fabric.faults) == 1


# -- blade crash semantics ----------------------------------------------------


class TestBladeCrash:
    def test_power_fail_zeroes_volatile_keeps_persistent(self):
        blade = MemoryBlade(0, capacity=1 << 16)
        vol = blade.alloc_region("vol", 64)
        nvm = blade.alloc_region("nvm", 64, persistent=True)
        blade.write(vol.base, b"\xaa" * 64)
        blade.write(nvm.base, b"\xbb" * 64)
        blade.power_fail()
        assert blade.read(vol.base, 64) == b"\x00" * 64
        assert blade.read(nvm.base, 64) == b"\xbb" * 64
        assert blade.power_failures == 1

    def test_node_crash_and_restart(self):
        cluster = Cluster()
        node = cluster.add_node()
        node.crash()
        assert not node.online
        with pytest.raises(RuntimeError):
            node.crash()
        node.restart()
        assert node.online
        with pytest.raises(RuntimeError):
            node.restart()

    def test_crash_with_auto_restart(self):
        cluster = Cluster()
        node = cluster.add_node()
        node.crash(restart_after_ns=500.0)
        cluster.sim.run(until=1000)
        assert node.online


# -- QP error / flush / retransmission ---------------------------------------


def _one_thread_deployment():
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(1)
    remote = cluster.add_node()
    region = remote.storage.alloc_region("data", 4096)
    SmartContext(compute, [remote], baseline())
    thread = compute.threads[0]
    return cluster, compute, remote, region, thread


class TestFaultCompletions:
    def test_crash_in_flight_completes_with_remote_abort(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        qp = thread.qp_for(remote.node_id)
        statuses = []

        def worker():
            batch = yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )
            statuses.append(batch.status)

        cluster.sim.spawn(worker())
        remote.crash()  # down before the request lands
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT]
        assert qp.state == QueuePair.STATE_ERROR
        assert qp.error_cause == WorkRequest.STATUS_REMOTE_ABORT
        assert compute.device.counters.error_completions == 1
        assert compute.device.outstanding == 0  # accounting balanced

    def test_error_qp_flushes_posts_without_touching_wire(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        qp = thread.qp_for(remote.node_id)
        qp.to_error("test")
        wire_before = cluster.fabric.messages
        statuses = []

        def worker():
            batch = yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )
            statuses.append(batch.status)

        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_FLUSH]
        assert cluster.fabric.messages == wire_before
        assert compute.device.counters.flushed_wrs == 1
        assert compute.device.counters.cqe_delivered == 1
        assert compute.device.outstanding == 0

    def test_full_loss_window_exhausts_retries(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        injector = FaultInjector(
            cluster, FaultSchedule(link_faults=(LinkFault(0.0, 1e9, loss=1.0),))
        ).install()
        qp = thread.qp_for(remote.node_id)
        statuses = []

        def worker():
            batch = yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )
            statuses.append(batch.status)

        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_RETRY_EXCEEDED]
        limit = compute.config.transport_retry_limit
        assert compute.device.counters.retransmissions == limit
        assert compute.device.counters.wasted_wire_bytes > 0
        assert qp.state == QueuePair.STATE_ERROR
        assert injector.stats()["wasted_wrs"] >= limit

    def test_partial_loss_retransmits_then_succeeds(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        FaultInjector(
            cluster,
            FaultSchedule(link_faults=(LinkFault(0.0, 1e9, loss=0.5),), seed=5),
        ).install()
        qp = thread.qp_for(remote.node_id)
        done = []

        def worker():
            for _ in range(20):
                batch = yield from verbs.post_and_wait(
                    thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
                )
                done.append(batch.status)

        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert done.count(WorkRequest.STATUS_OK) == 20
        assert compute.device.counters.retransmissions > 0

    def test_reconnect_after_restart(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        smart = SmartThread(thread, baseline(), seed=3)
        handle = smart.handle()
        qp = thread.qp_for(remote.node_id)
        outcomes = []

        def worker():
            data = yield from handle.read_sync(
                remote.storage.global_addr(region.base), 8
            )
            outcomes.append(("fault", handle.last_errors[0].status if handle.last_errors else data))
            ok = yield from handle.reconnect(remote.node_id)
            outcomes.append(("reconnected", ok))

        remote.crash(restart_after_ns=200_000.0)
        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert outcomes[0] == ("fault", WorkRequest.STATUS_REMOTE_ABORT)
        assert outcomes[1] == ("reconnected", True)
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1
        assert smart.stats.recoveries == 1
        assert smart.stats.recovery_latencies_ns[0] > 0

    def test_injector_auto_resets_error_qps_on_restart(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        # Downtime must outlast crash_detect_ns: the QP only reaches ERROR
        # when the error CQE is *delivered* (post at 2 us + 50 us detect),
        # and the auto-reset scans QPs at restart time.
        injector = FaultInjector(
            cluster, FaultSchedule(crashes=(BladeCrash(remote.node_id, 1000.0, 100_000.0),))
        ).install()
        qp = thread.qp_for(remote.node_id)

        def worker():
            yield cluster.sim.timeout(2000)
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )

        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert injector.crashes_fired == 1 and injector.restarts_fired == 1
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1

    def test_injector_cannot_install_twice(self):
        cluster = Cluster()
        injector = FaultInjector(cluster, FaultSchedule())
        injector.install()
        with pytest.raises(RuntimeError):
            injector.install()

    def test_qp_error_is_deferred_to_cqe_delivery(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        qp = thread.qp_for(remote.node_id)
        statuses = []

        def worker():
            batch = yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )
            statuses.append(batch.status)

        cluster.sim.spawn(worker())
        remote.crash()
        # The request reaches the dead responder within a few us, but the
        # failure only becomes observable when the error CQE is delivered,
        # crash_detect_ns (50 us) later.  Until then the QP must stay RTS:
        # nothing may learn of the crash before the detection delay.
        cluster.sim.run(until=40_000)
        assert statuses == []
        assert qp.state == QueuePair.STATE_RTS
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT]
        assert qp.state == QueuePair.STATE_ERROR

    def _post_twice_across_a_crash(self, cluster, remote, region, thread):
        """Post one read at 2 us (it dies with the blade) and another at
        200 us; return both statuses."""
        qp = thread.qp_for(remote.node_id)
        addr = remote.storage.global_addr(region.base)
        statuses = []

        def worker():
            yield cluster.sim.timeout(2000)
            batch = yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])
            statuses.append(batch.status)
            yield cluster.sim.timeout(200_000 - cluster.sim.now)
            batch = yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 8)])
            statuses.append(batch.status)

        cluster.sim.spawn(worker())
        return qp, statuses

    def test_abort_delivered_after_a_short_downtime_resets_the_qp(self):
        """A downtime (30 us) shorter than crash_detect_ns (50 us): the
        restart finds the QP still in RTS, and the abort CQE lands later.
        Its delivery gives the QP the restart's reset; before, the QP
        stayed in ERROR and flushed every later post."""
        cluster, compute, remote, region, thread = _one_thread_deployment()
        injector = FaultInjector(
            cluster, FaultSchedule(crashes=(BladeCrash(remote.node_id, 1000.0, 30_000.0),))
        ).install()
        qp, statuses = self._post_twice_across_a_crash(cluster, remote, region, thread)
        cluster.sim.run()
        assert injector.restarts_fired == 1
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT, WorkRequest.STATUS_OK]
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1
        assert compute.device.counters.flushed_wrs == 0

    def test_abort_delivered_while_the_blade_is_down_keeps_the_error(self):
        """The reset on delivery needs the remote back: during a longer
        downtime the QP stays in ERROR until the restart resets it, once."""
        cluster, compute, remote, region, thread = _one_thread_deployment()
        FaultInjector(
            cluster, FaultSchedule(crashes=(BladeCrash(remote.node_id, 1000.0, 100_000.0),))
        ).install()
        qp, statuses = self._post_twice_across_a_crash(cluster, remote, region, thread)
        cluster.sim.run(until=80_000)  # abort delivered (~52 us), blade down
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT]
        assert qp.state == QueuePair.STATE_ERROR and qp.reconnects == 0
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT, WorkRequest.STATUS_OK]
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1

    def test_short_crash_without_an_injector_resets_on_delivery(self):
        """The rule is the RNIC's, not the injector's: a blade that crashes
        and restarts on its own within crash_detect_ns leaves no ERROR QP."""
        cluster, compute, remote, region, thread = _one_thread_deployment()
        qp, statuses = self._post_twice_across_a_crash(cluster, remote, region, thread)
        cluster.sim.run(until=1000)
        remote.crash(restart_after_ns=20_000.0)
        cluster.sim.run()
        assert statuses == [WorkRequest.STATUS_REMOTE_ABORT, WorkRequest.STATUS_OK]
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1

    def test_handle_recovers_once_from_a_crash_shorter_than_detection(self):
        """The SMART handle's reconnect finds the QP already reset: it
        records one recovery and does not reconnect a second time."""
        cluster, compute, remote, region, thread = _one_thread_deployment()
        smart = SmartThread(thread, baseline(), seed=3)
        handle = smart.handle()
        qp = thread.qp_for(remote.node_id)
        outcomes = []

        def worker():
            yield from handle.read_sync(remote.storage.global_addr(region.base), 8)
            outcomes.append(handle.last_errors[0].status)
            ok = yield from handle.reconnect(remote.node_id)
            outcomes.append(ok)

        remote.crash(restart_after_ns=20_000.0)
        cluster.sim.spawn(worker())
        cluster.sim.run()
        assert outcomes == [WorkRequest.STATUS_REMOTE_ABORT, True]
        assert qp.state == QueuePair.STATE_RTS and qp.reconnects == 1
        assert smart.stats.recoveries == 1

    def test_restore_resets_engine_watermarks(self):
        cluster = Cluster()
        node = cluster.add_node()
        device = node.device
        device.requester.busy_until = 5e12
        device.responder.busy_until = 7e12
        device.fail()
        device.restore()
        assert device.requester.busy_until == 0.0
        assert device.responder.busy_until == 0.0

    def test_first_op_after_restart_not_delayed_by_stale_watermark(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        # Backlog watermark far in the future, as after a busy spell: the
        # crash kills that backlog, so the restarted blade must not make
        # the first post-restart op wait for it.
        remote.device.responder.busy_until = 1e12
        remote.crash(restart_after_ns=1000.0)
        qp = thread.qp_for(remote.node_id)
        latencies = []

        def worker():
            yield cluster.sim.timeout(5000)  # blade is back up
            start = cluster.sim.now
            batch = yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(region.base), 8)]
            )
            latencies.append((batch.status, cluster.sim.now - start))

        cluster.sim.spawn(worker())
        cluster.sim.run()
        (status, latency), = latencies
        assert status == WorkRequest.STATUS_OK
        assert latency < 100_000  # ~1e12 if the watermark survived restart

    def test_lost_ack_retransmits_without_reexecuting(self):
        def run_one(loss_at=None):
            cluster, compute, remote, region, thread = _one_thread_deployment()
            remote.storage.write_u64(region.base, 7)
            if loss_at is not None:
                cluster.fabric.fault_rng = random.Random(0)
                cluster.fabric.add_fault(
                    LinkFault(loss_at, 1200.0, loss=1.0)
                )
            qp = thread.qp_for(remote.node_id)
            out = {}

            def worker():
                batch = yield from verbs.post_and_wait(
                    thread, qp,
                    [read_wr(remote.storage.global_addr(region.base), 8)],
                )
                out["status"] = batch.status
                out["result"] = batch.wrs[0].result
                out["done"] = cluster.sim.now

            cluster.sim.spawn(worker())
            cluster.sim.run()
            return compute, remote, out

        clean_compute, _, clean = run_one()
        config = clean_compute.config
        # The ack leaves the responder one_way_latency before the CQE
        # lands (plus CQE-poll overhead before the worker observes it).
        # A window opening well after the request transit and closing
        # before the retransmit fires loses exactly the first ack.
        compute, remote, lossy = run_one(loss_at=clean["done"] - 1900.0)
        # a lost ack is recovered by PSN-coordinated retransmit: the READ
        # is not re-executed, and the result still arrives intact
        assert lossy["status"] == WorkRequest.STATUS_OK
        assert lossy["result"] == clean["result"]
        assert compute.device.counters.retransmissions == 1
        # the dropped response pays its full wire again: 8 B data + 30 B
        # header, charged to the requester as wasted bytes
        assert compute.device.counters.wasted_wire_bytes == 8 + 30
        # and the requester eats exactly one ack-timeout of extra latency
        assert lossy["done"] == clean["done"] + config.retransmit_timeout_ns

    def test_write_response_is_just_the_ack_header(self):
        cluster, compute, remote, region, thread = _one_thread_deployment()
        qp = thread.qp_for(remote.node_id)

        def worker():
            yield from verbs.post_and_wait(
                thread, qp,
                [write_wr(remote.storage.global_addr(region.base), b"x" * 64)],
            )

        cluster.sim.spawn(worker())
        cluster.sim.run()
        # request direction: 64 B payload + 30 B header; return direction:
        # a bare 30 B transport ack, NOT an echo of the request wire
        assert cluster.fabric.bytes_carried == (64 + 30) + 30


# -- end-to-end chaos smoke suite --------------------------------------------


CHAOS_KW = dict(
    system="ford", benchmark="smallbank", threads=4, coroutines=4,
    item_count=20_000, warmup_ns=1.0e6, measure_ns=2.0e6,
    # seed 9 leaves in-doubt log records at the crash, so the restart
    # exercises FORD's NVM rollback (seeds differ only in *which* fault
    # outcomes the window draws)
    faults="loss=0.01@1.1ms+1.6ms,crash=1@1.4ms+0.4ms", fault_seed=9,
)


@pytest.mark.chaos
class TestChaosSmoke:
    def test_dtx_survives_crash_and_loss_with_recovery(self):
        from repro.bench.runner import run_dtx

        result = run_dtx(**CHAOS_KW)
        # The run completed and committed transactions despite the faults.
        assert result.ops > 0 and result.throughput_mops > 0
        # The crash fired and clients recovered their connections.
        assert result.crashes == 1
        assert result.recoveries >= 1 and result.failed_recoveries == 0
        assert result.avg_recovery_us > 0
        # Wasted-IOPS accounting: retransmits, error CQEs, aborted attempts.
        assert result.retransmissions > 0
        assert result.error_completions > 0
        assert result.fault_aborts >= 1
        assert result.wasted_wrs >= result.retransmissions
        assert result.messages_dropped > 0
        # FORD's NVM log recovery rolled back in-doubt records at restart.
        assert result.rolled_back >= 1

    def test_chaos_run_replays_bit_identically(self):
        from repro.bench.runner import run_dtx

        first = dataclasses.asdict(run_dtx(**CHAOS_KW))
        second = dataclasses.asdict(run_dtx(**CHAOS_KW))
        assert first == second

    def test_different_fault_seed_changes_the_run(self):
        from repro.bench.runner import run_dtx

        base = dataclasses.asdict(run_dtx(**CHAOS_KW))
        other = dataclasses.asdict(run_dtx(**{**CHAOS_KW, "fault_seed": 8}))
        assert base != other

    def test_disabled_faults_leave_run_untouched(self):
        from repro.bench.runner import run_dtx

        kw = {**CHAOS_KW, "faults": None}
        result = run_dtx(**kw)
        assert result.crashes == 0 and result.recoveries == 0
        assert result.retransmissions == 0 and result.error_completions == 0
        assert result.fault_aborts == 0 and result.messages_dropped == 0
        assert result.rolled_back == 0 and result.wasted_wrs == 0
        # And the fault-free run is itself deterministic.
        again = run_dtx(**kw)
        assert dataclasses.asdict(result) == dataclasses.asdict(again)


@pytest.mark.chaos
def test_microbench_iops_count_only_completions_that_succeed():
    """Regression: error and flush CQEs were counted as IOPS, so this
    seeded blade crash (every post on an ERROR QP flushes at once) read
    44.8 M/s against 12.8 M/s fault-free."""
    from repro.bench.microbench import run_microbench

    kw = dict(policy="per-thread-db", threads=8, depth=4, measure_ns=300e3)
    clean = run_microbench(**kw)
    faulty = run_microbench(faults="seeded", fault_seed=1, **kw)
    assert faulty.wasted_wrs > 0
    assert 0 < faulty.measured_wrs <= clean.measured_wrs
    assert faulty.throughput_mops <= clean.throughput_mops


@pytest.mark.chaos
def test_microbench_fault_counters_cover_the_measured_window_only():
    """Regression: ``wasted_wrs`` / ``retransmissions`` /
    ``messages_dropped`` were read over the whole run while IOPS came from
    the measured window.  The smart policy's extended warmup swallows
    this crash and restart, so the window is clean (its fault-free WR
    count) — yet 27128 wasted WRs were reported."""
    from repro.bench.microbench import run_microbench

    kw = dict(policy="smart", threads=2, depth=2, measure_ns=100e3)
    clean = run_microbench(**kw)
    faulty = run_microbench(faults="crash=1@0.3ms+1ms", **kw)
    assert faulty.measured_wrs == clean.measured_wrs
    assert faulty.wasted_wrs == 0
    assert faulty.retransmissions == 0 and faulty.messages_dropped == 0


@pytest.mark.chaos
def test_app_fault_columns_cover_the_measured_window_only():
    """Regression: the app runners read the fault columns over the whole
    run while ops came from the measured window.  This crash is over 1 ms
    before the window opens, yet 6 wasted WRs, 6 error completions and
    the crash itself were reported."""
    from repro.bench.runner import run_dtx

    result = run_dtx(system="ford", threads=2, coroutines=2, item_count=2000,
                     warmup_ns=1.5e6, measure_ns=0.3e6,
                     faults="crash=1@0.2ms+0.3ms")
    assert result.crashes == 0 == result.rolled_back and result.ops > 0
    assert result.wasted_wrs == 0 == result.error_completions
    assert result.flushed_wrs == result.retransmissions == 0
    assert result.messages_dropped == 0


@pytest.mark.chaos
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("fault_seed", [1, 2])
def test_qp_errored_after_its_blade_restarted_is_reconnected(fault_seed, policy):
    """Regression: the seeded downtime (45 us) is shorter than
    ``crash_detect_ns`` (50 us), so the error CQEs land after the restart
    has reset the ERROR QPs; their QPs stayed in ERROR for good and RDMASan
    reported a ``qp-error`` leak for each (8 per seed with a QP per
    thread, 1 with the one shared QP) under every QP policy."""
    from repro.bench.microbench import run_microbench

    result = run_microbench(policy=policy, threads=8, depth=4, measure_ns=300e3,
                            faults="seeded", fault_seed=fault_seed, sanitize=True)
    assert result.wasted_wrs > 0
    assert result.sanitizer["findings"] == []
    assert [leak for leak in result.sanitizer["leaks"]
            if leak["kind"] == "qp-error"] == []


#: an open-loop FORD point whose window is 0.5–1.5 ms
OPEN_DTX_KW = dict(app="dtx", system="ford", rate_mops=0.3, threads=2,
                   workers=4, item_count=2_000, warmup_ns=0.5e6,
                   measure_ns=1.0e6, sanitize=True)


@pytest.mark.chaos
@pytest.mark.parametrize("faults,fault_seed", [
    ("seeded", 1),
    ("crash=2@1.0ms+0.3ms", 0),
], ids=["seeded", "crash-in-window"])
def test_open_loop_point_takes_faults_and_rdmasan(faults, fault_seed):
    """An open-loop point runs through ``run_app``'s pipeline, so it arms
    faults, wires FORD's recovery and runs RDMASan like a closed-loop
    point: the blade crash inside the window is counted with its
    rollbacks and wasted WRs, and the sanitizer finds nothing."""
    from repro.traffic import run_open_loop

    result = run_open_loop(faults=faults, fault_seed=fault_seed, **OPEN_DTX_KW)
    assert result.completed > 0
    assert result.crashes == 1 and result.recoveries > 0
    assert result.rolled_back >= 1 and result.wasted_wrs > 0
    assert result.sanitizer["findings"] == [] == result.sanitizer["leaks"]


@pytest.mark.chaos
def test_open_loop_fault_columns_cover_the_measured_window_only():
    """A crash and restart inside the warmup leave the window's fault
    columns at 0, as they do for a closed-loop point."""
    from repro.traffic import run_open_loop

    result = run_open_loop(faults="crash=2@0.1ms+0.2ms", **OPEN_DTX_KW)
    assert result.completed > 0
    assert result.crashes == 0 == result.rolled_back
    assert result.wasted_wrs == 0 == result.error_completions


# -- faults through the shared app pipeline ------------------------------------

APP_KW = dict(threads=2, coroutines=2, item_count=2_000,
              warmup_ns=0.2e6, measure_ns=0.6e6)
APP_RUNNERS = [("run_hashtable", "race"), ("run_dtx", "ford"),
               ("run_btree", "sherman")]


@pytest.mark.chaos
class TestAppPipelineFaults:
    @pytest.mark.parametrize("runner,system", APP_RUNNERS)
    def test_link_loss_works_and_replays_on_every_app(self, runner, system):
        """RC retransmission sits below all three clients, so a loss
        window is survivable everywhere — and replays under its seed."""
        import repro.bench.runner as bench_runner

        run = getattr(bench_runner, runner)
        kw = dict(system=system, faults="loss=0.05@0.25ms+0.3ms",
                  fault_seed=5, **APP_KW)
        first, second = run(**kw), run(**kw)
        assert first.ops > 0
        assert first.messages_dropped > 0 and first.retransmissions > 0
        assert first.crashes == 0 and first.error_completions == 0
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    @pytest.mark.parametrize("runner,system",
                             [r for r in APP_RUNNERS if r[0] != "run_dtx"])
    def test_crash_clause_on_app_without_recovery_is_rejected_up_front(
            self, runner, system, monkeypatch):
        """Regression: this used to die mid-simulation as ``TypeError:
        'NoneType' object is not subscriptable`` in the RACE client (and
        ``run_btree`` had no ``faults`` argument at all)."""
        import repro.bench.runner as bench_runner
        from repro.sim import Simulator

        def never(*_args, **_kwargs):
            raise AssertionError("the simulator started")

        monkeypatch.setattr(Simulator, "run", never)
        run = getattr(bench_runner, runner)
        with pytest.raises(ValueError, match="no crash-recovery path") as error:
            run(system=system, faults="loss=0.01@0.3ms+0.1ms,crash=2@0.4ms+0.1ms",
                **APP_KW)
        assert runner.split("_")[1] in str(error.value)
        assert "loss" in str(error.value)

    def test_fault_clause_naming_a_missing_node_is_rejected_up_front(
            self, monkeypatch):
        """Regression: a link filter (or crash) aimed at a node the
        deployment lacks died mid-run with ``IndexError`` from
        ``Cluster.node`` when the clause fired."""
        from repro.bench.runner import RunArgumentError, run_dtx
        from repro.sim import Simulator

        def never(*_args, **_kwargs):
            raise AssertionError("the simulator started")

        monkeypatch.setattr(Simulator, "run", never)
        with pytest.raises(RunArgumentError) as error:
            run_dtx("ford", faults="loss=0.1@1.1ms+0.3ms:7", **APP_KW)
        assert "'loss=0.1@1.1ms+0.3ms:7'" in str(error.value)
        assert "[0, 1, 2]" in str(error.value)

    def test_seeded_faults_on_app_without_recovery_draw_link_faults_only(self):
        from repro.bench.runner import run_hashtable

        result = run_hashtable(system="race", faults="seeded", **APP_KW)
        assert result.ops > 0 and result.crashes == 0
        assert result.messages_dropped > 0
