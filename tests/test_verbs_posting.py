"""Unit tests for the posting path costs (verbs + doorbell model)."""

import pytest

from repro.cluster import Cluster
from repro.rnic import verbs
from repro.rnic.config import RnicConfig, connectx6
from repro.rnic.doorbell import Doorbell, MEDIUM_LATENCY
from repro.rnic.policies import connect
from repro.rnic.qp import read_wr
from repro.sim import Simulator


class TestDoorbellCostModel:
    def _doorbell(self, config):
        return Doorbell(Simulator(), config, 5, MEDIUM_LATENCY)

    def test_exclusive_doorbell_cost(self):
        config = connectx6()
        db = self._doorbell(config)
        db.note_user(0)
        # One user: mmio + per-WQE copy, no sharing terms.
        expected = config.doorbell_mmio_ns + config.wqe_under_lock_ns * 8
        assert db.held_cost_ns(config, 8) == pytest.approx(expected)

    def test_shared_doorbell_cost_grows_with_users(self):
        config = connectx6()
        db = self._doorbell(config)
        costs = []
        for user in range(8):
            db.note_user(user)
            costs.append(db.held_cost_ns(config, 8))
        assert costs == sorted(costs)
        # 8 sharers on a batch-8 ring: the microbench-collapse regime
        # (~1.9 us per ring).
        assert costs[-1] > 1500

    def test_single_wqe_ring_stays_cheap_when_shared(self):
        """Sherman's regime: 8 sharers but single-WQE rings must still be
        under ~1 us (the paper's ~16 M rings/s through shared DBs)."""
        config = connectx6()
        db = self._doorbell(config)
        for user in range(8):
            db.note_user(user)
        assert db.held_cost_ns(config, 1) < 1000

    def test_sharer_count_capped(self):
        config = connectx6()
        db = self._doorbell(config)
        for user in range(100):
            db.note_user(user)
        capped = db.held_cost_ns(config, 1)
        db.note_user(101)
        assert db.held_cost_ns(config, 1) == capped

    @staticmethod
    def _closed_form(config, users, n_wrs):
        sharers = min(max(users - 1, 0), config.doorbell_bounce_cap)
        per_wqe = config.wqe_under_lock_ns * (1.0 + config.wqe_share_factor * sharers)
        return config.doorbell_mmio_ns + config.doorbell_share_ns * sharers + per_wqe * n_wrs

    def test_memoised_cost_follows_users_joining_past_the_cap(self):
        config = connectx6()
        db = self._doorbell(config)
        for user in range(config.doorbell_bounce_cap + 4):
            db.note_user(user)
            for n_wrs in (1, 8, 1, 8):  # the repeats are answered by the memo
                assert db.held_cost_ns(config, n_wrs) == self._closed_form(
                    config, user + 1, n_wrs)

    def test_two_configs_on_one_doorbell_never_share_a_cost(self):
        cheap = connectx6()
        dear = cheap.with_overrides(doorbell_mmio_ns=500.0, wqe_under_lock_ns=90.0,
                                    doorbell_bounce_cap=2)
        db = self._doorbell(cheap)
        for user in range(5):
            db.note_user(user)
            for config in (cheap, dear, cheap, dear, connectx6()):
                assert db.held_cost_ns(config, 8) == self._closed_form(
                    config, user + 1, 8)


class TestPostingPath:
    def _setup(self, policy):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(2)
        (remote,) = cluster.add_nodes(1)
        connect(compute, [remote], policy)
        return cluster, compute, remote

    def test_post_send_registers_doorbell_user(self):
        cluster, compute, remote = self._setup("per-thread-qp")
        thread = compute.threads[0]
        qp = thread.qp_for(remote.node_id)

        def proc():
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
            )

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert thread.thread_id in qp.doorbell.users
        counters = compute.device.counters
        assert counters.doorbell_rings == 1
        assert counters.wqe_processed == 1 and counters.cqe_delivered == 1
        assert compute.device.outstanding == 0

    def test_shared_qp_serializes_two_threads(self):
        cluster, compute, remote = self._setup("shared-qp")
        qp = compute.threads[0].qp_for(remote.node_id)
        in_lock = []

        def proc(thread):
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
            )
            in_lock.append(cluster.sim.now)

        for thread in compute.threads:
            cluster.sim.spawn(proc(thread))
        cluster.sim.run()
        assert len(qp.users) == 2
        assert qp.sharing_penalty_ns(cluster.config) > 0

    def test_unshared_qp_has_no_share_penalty(self):
        cluster, compute, remote = self._setup("per-thread-qp")
        qp = compute.threads[0].qp_for(remote.node_id)
        assert qp.sharing_penalty_ns(cluster.config) == 0.0

    def test_wait_completion_idempotent_after_done(self):
        cluster, compute, remote = self._setup("per-thread-qp")
        thread = compute.threads[0]
        qp = thread.qp_for(remote.node_id)
        out = []

        def proc():
            batch = yield from verbs.post_send(
                thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
            )
            yield cluster.sim.timeout(100_000)  # completes long before
            yield from verbs.wait_completion(thread, batch)
            out.append(batch.completed_at)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert out[0] is not None and out[0] < 100_000


class TestPostingWithoutSuspending:
    """The QP-share and doorbell locks are taken on the spot when free and
    nothing else is queued at that instant (MODEL.md §12).  Every number
    below except the event counts was recorded from the parent commit,
    where each acquisition parked the coroutine on a ticket."""

    def _two_posters(self, policy):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(2)
        (remote,) = cluster.add_nodes(1)
        connect(compute, [remote], policy)
        sim = cluster.sim
        trace = []

        def proc(thread):
            qp = thread.qp_for(remote.node_id)
            for _ in range(2):
                batch = yield from verbs.post_send(
                    thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
                )
                trace.append(("rung", thread.thread_id, sim.now))
                yield from verbs.wait_completion(thread, batch)
                trace.append(("done", thread.thread_id, sim.now))

        for thread in compute.threads:  # both runnable at t=0
            sim.spawn(proc(thread))
        sim.run()
        locks = {}
        for thread in compute.threads:
            qp = thread.qp_for(remote.node_id)
            for lock in (qp.share_lock, qp.doorbell.lock):
                if lock is not None:
                    locks[lock.name] = (lock.acquisitions, lock.total_wait_ns,
                                        lock.max_queue_len, lock.locked)
        return trace, locks, sim.events_executed

    def test_shared_qp_contenders_ring_in_the_parents_order(self):
        trace, locks, events = self._two_posters("shared-qp")
        assert trace == [
            ("rung", 0, 195), ("rung", 1, 555), ("done", 0, 2253),
            ("rung", 0, 2543), ("done", 1, 2613), ("rung", 1, 2903),
            ("done", 0, 4601), ("done", 1, 4961),
        ]
        assert locks == {"qp-shared-1": (4, 265, 1, False),
                         "db0": (4, 0, 0, False)}
        assert events == 39  # parent: 53

    def test_per_thread_doorbells_ring_in_the_parents_order(self):
        trace, locks, events = self._two_posters("per-thread-qp")
        assert trace == [
            ("rung", 0, 120), ("rung", 1, 120), ("done", 0, 2178),
            ("done", 1, 2187), ("rung", 0, 2298), ("rung", 1, 2307),
            ("done", 0, 4356), ("done", 1, 4365),
        ]
        assert locks == {"db0": (2, 0, 0, False), "db1": (2, 0, 0, False)}
        assert events == 36  # parent: 44

    def test_lone_poster_never_parks_on_a_lock_ticket(self):
        """One thread, nothing else at its instants: both grants are on
        the spot, so the only suspensions left are the three CPU charges
        and the completion wait."""
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(1)
        (remote,) = cluster.add_nodes(1)
        connect(compute, [remote], "shared-qp")
        thread = compute.threads[0]
        qp = thread.qp_for(remote.node_id)
        made = []
        event = cluster.sim.event
        cluster.sim.event = lambda: made.append(1) or event()

        def proc():
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
            )

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert qp.share_lock.acquisitions == qp.doorbell.lock.acquisitions == 1
        assert made == []  # parent: [1] (the batch's ``done``)

    def test_rdmasan_reports_a_lock_granted_on_the_spot_as_held(self):
        from repro.analysis import RdmaSanitizer

        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(1)
        (remote,) = cluster.add_nodes(1)
        connect(compute, [remote], "per-thread-qp")
        sanitizer = RdmaSanitizer().attach_cluster(cluster)
        lock = compute.threads[0].qp_for(remote.node_id).doorbell.lock
        granted = []

        def leaker():
            yield cluster.sim.timeout(10)
            granted.append(lock.try_acquire(owner=7))  # and never releases

        cluster.sim.spawn(leaker())
        cluster.sim.run()
        assert granted == [True]
        sanitizer.finish(expect_idle=True)
        assert {"kind": "lock-held", "node": compute.node_id,
                "lock": lock.name, "owner": 7} in sanitizer.report()["leaks"]
