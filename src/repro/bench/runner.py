"""Application experiment runner: one pipeline, :class:`App` adapters.

SMART-HT/-DTX/-BT are the RACE/FORD/Sherman clients plus a framework
configuration (§5), so a point of any of them runs through the same
steps — build the cluster → bulk-load the server → :func:`instrument`
(faults, observability, RDMASan) → spawn the load (closed client loops,
or with ``rate_mops`` an open-loop :class:`repro.traffic.OpenLoopQueue`)
→ :func:`measure` → :func:`collect` — spelled once, in :func:`run_app`.
An :class:`App` owns only what differs between the applications.
:func:`run_window` is the one code that runs a point's simulator and
:func:`collect` the one collect step; the microbenchmarks use both too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.ford.recovery import RecoveryManager
from repro.apps.ford.server import DtxServer
from repro.apps.ford.txn import TxnClient
from repro.apps.race.client import HashTableClient
from repro.apps.race.server import BucketsFull, HashTableServer
from repro.apps.sherman.client import BTreeClient, LocalLockTable, SpeculativeCache
from repro.apps.sherman.server import BTreeServer
from repro.cluster import Cluster, Node
from repro.core import OperationStats, SmartContext, SmartFeatures, SmartThread
from repro.core.features import baseline, full
from repro.rnic.config import RnicConfig
from repro.workloads import smallbank, tatp
from repro.workloads.ycsb import READ, UPDATE, WRITE_HEAVY, YcsbWorkload

#: Scaled-down adaptive-throttling epoch so the C_max search converges
#: within millisecond-scale simulations (the paper's 8 ms Δ assumes
#: multi-second runs; ratios are preserved).
BENCH_DELTA_NS = 0.3e6

#: Scaled-down γ sampling window (paper: 1 ms) for the same reason: the
#: t_max/c_max controller needs tens of windows to converge.
BENCH_RETRY_WINDOW_NS = 0.05e6


def bench_features(features: SmartFeatures) -> SmartFeatures:
    """Apply the bench-scale controller periods to a feature set."""
    if features.dynamic_backoff_limit or features.coroutine_throttling:
        features = features.with_overrides(retry_window_ns=BENCH_RETRY_WINDOW_NS)
    if features.work_req_throttling and features.adaptive_credit:
        features = features.with_overrides(update_delta_ns=BENCH_DELTA_NS)
    return features


@dataclass(kw_only=True)
class PointColumns:
    """The columns every app point reports beside its own: fault and
    recovery counts over the measured window (all zero for fault-free
    runs), the phase breakdown and the RDMASan report."""

    fault_aborts: int = 0
    recoveries: int = 0
    failed_recoveries: int = 0
    avg_recovery_us: float = 0.0
    retransmissions: int = 0
    error_completions: int = 0
    flushed_wrs: int = 0
    wasted_wrs: int = 0
    messages_dropped: int = 0
    crashes: int = 0
    #: in-doubt records rolled back by FORD's recovery manager
    rolled_back: int = 0
    #: batch-weighted per-segment means (only when an Observability is
    #: attached; stays None — and out of serialized results — otherwise)
    phase_breakdown: Optional[Dict] = None
    #: RDMASan report (only when the run was sanitized; None otherwise)
    sanitizer: Optional[Dict] = None


@dataclass
class RunResult(PointColumns):
    """Aggregated outcome of one closed-loop experiment point."""

    system: str
    workload: str
    threads: int
    coroutines: int
    compute_blades: int
    throughput_mops: float
    p50_latency_ns: Optional[float]
    p99_latency_ns: Optional[float]
    avg_retries: float
    retry_distribution: Dict[int, float]
    ops: int
    measure_ns: float
    #: kernel events the whole point executed (warmup + measure) — with
    #: the host wall-clock this gives events/sec per figure point
    sim_events: int = 0


@dataclass
class Deployment:
    """A wired cluster ready to run client coroutines."""

    cluster: Cluster
    compute_nodes: List[Node]
    memory_nodes: List[Node]
    smart_threads: List[SmartThread]
    features: SmartFeatures
    #: :func:`fault_totals` when the measured window opened (set by
    #: :func:`run_window`; the fault columns count from here)
    window_faults: Dict[str, int] = field(default_factory=dict)


def build_deployment(
    features: SmartFeatures,
    threads: int,
    compute_blades: int = 1,
    memory_blades: int = 2,
    config: Optional[RnicConfig] = None,
    seed: int = 0,
    colocated: bool = False,
) -> Deployment:
    """Create the cluster and per-thread SMART state for an experiment.

    ``colocated`` makes every compute blade its own memory blade
    (Sherman's layout); ``memory_blades`` is then unused.
    """
    features = bench_features(features)
    cluster = Cluster(config)
    compute_nodes = cluster.add_nodes(compute_blades)
    memory_nodes = compute_nodes if colocated else cluster.add_nodes(memory_blades)
    smart_threads: List[SmartThread] = []
    for blade_index, node in enumerate(compute_nodes):
        node.add_threads(threads)
        SmartContext(node, memory_nodes, features)
        for thread in node.threads:
            smart_threads.append(
                SmartThread(thread, features, seed=seed + blade_index * 1000)
            )
    return Deployment(cluster, compute_nodes, memory_nodes, smart_threads, features)


#: :class:`RunResult` columns read off the device counters
_DEVICE_COLUMNS = ("retransmissions", "error_completions", "flushed_wrs",
                   "wasted_wrs")


def fault_totals(cluster: Cluster) -> Dict[str, int]:
    """Whole-run totals of the fault columns: fabric drops, blade crashes
    (power failures) and the device counters, summed over every node."""
    totals = dict.fromkeys(("messages_dropped", "crashes") + _DEVICE_COLUMNS, 0)
    totals["messages_dropped"] = cluster.fabric.messages_dropped
    for node in cluster.nodes:
        totals["crashes"] += node.storage.power_failures
        counters = node.device.counters
        for name in _DEVICE_COLUMNS:
            totals[name] += getattr(counters, name)
    return totals


def instrument(deployment: Deployment, server=None, faults=None,
               fault_seed: int = 0, warmup_ns: float = 0.0,
               measure_ns: float = 0.0, obs=None, sanitize=False,
               crash_unsafe: Optional[str] = None):
    """The attach sequence every runner performs on a loaded deployment;
    each step is a no-op (and the run byte-identical to a build without
    that package) when its argument is off.  Returns ``(injector,
    sanitizer)``.

    ``faults`` arms a :class:`repro.faults.FaultSchedule`, the literal
    ``"seeded"`` or a clause spec string (see
    :meth:`repro.faults.FaultSchedule.parse`).  Seeded schedules target
    the measurement window, which opens at ``warmup_ns`` (the effective
    warmup, see :func:`effective_warmup_ns`), and crash only memory
    blades.  ``crash_unsafe`` names an application with no crash-recovery
    path: its seeded schedules draw link faults only, and a crash clause
    is refused before the simulator starts (link faults are always safe
    — RC retransmission sits below every client).  So is a spec that does
    not parse or names a node the deployment lacks: each is a
    :class:`RunArgumentError`.  Then the ``obs`` Observability is
    attached, then RDMASan — ``sanitize`` is ``True`` or an existing
    :class:`repro.analysis.RdmaSanitizer` to reuse — with ``server``'s
    regions declared to it.
    """
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector, FaultSchedule

        try:
            schedule = FaultSchedule.from_spec(
                faults,
                seed=fault_seed,
                window_start_ns=warmup_ns,
                window_ns=measure_ns,
                crash_nodes=() if crash_unsafe else
                [n.node_id for n in deployment.memory_nodes],
            )
            if crash_unsafe and schedule.crashes:
                raise ValueError(
                    f"{crash_unsafe} has no crash-recovery path (only dtx "
                    f"recovers from blade crashes): its fault schedule "
                    f"accepts loss, dup and delay clauses, not crash"
                )
            injector = FaultInjector(deployment.cluster, schedule).install()
        except ValueError as error:
            raise RunArgumentError(str(error)) from None
    if obs is not None:
        obs.attach_cluster(deployment.cluster)
    sanitizer = None
    if sanitize:
        from repro.analysis.rdmasan import RdmaSanitizer

        sanitizer = sanitize if isinstance(sanitize, RdmaSanitizer) else RdmaSanitizer()
        sanitizer.attach_cluster(deployment.cluster)
        if server is not None:
            server.declare_sanitizer_regions(sanitizer)
    return injector, sanitizer


class RunArgumentError(ValueError):
    """A runner argument that could only give a meaningless point."""


def check_run_args(warmup_ns: float = 0.0, **positive: float) -> None:
    """Fail before anything is built on a window or a count that can only
    give nonsense: ``warmup_ns`` must be >= 0, every other argument (the
    measured window, thread / coroutine / blade counts) > 0.  The error
    names the argument."""
    if not warmup_ns >= 0:
        raise RunArgumentError(f"warmup_ns must be >= 0, got {warmup_ns!r}")
    for name, value in positive.items():
        if not value > 0:
            raise RunArgumentError(f"{name} must be > 0, got {value!r}")


def effective_warmup_ns(features: SmartFeatures, warmup_ns: float) -> float:
    """The warmup a point of ``features`` actually runs.

    Adaptive-credit systems extend warmup to cover the C_max search
    phase.  A runner computes it once per point: the window, the fault
    schedule anchored to it and :func:`collect`'s phases all read that
    one value.
    """
    if features.work_req_throttling and features.adaptive_credit:
        update_phase = len(features.cmax_candidates) * features.update_delta_ns
        warmup_ns = max(warmup_ns, update_phase + 0.5e6)
    return warmup_ns


def run_window(deployment: Deployment, warmup_ns: float, measure_ns: float,
               on_open: Optional[Callable[[], object]] = None):
    """Run one point's simulator: the warmup up to ``warmup_ns`` (already
    effective), then open the window — reset every SMART thread's stats,
    note :func:`fault_totals` in ``deployment.window_faults``, call
    ``on_open`` — and run the ``measure_ns`` window.  Returns what
    ``on_open`` returned (a counter snapshot, say)."""
    sim = deployment.cluster.sim
    sim.run(until=warmup_ns)
    for smart in deployment.smart_threads:
        smart.stats.reset()
    deployment.window_faults = fault_totals(deployment.cluster)
    opened = on_open() if on_open is not None else None
    sim.run(until=warmup_ns + measure_ns)
    return opened


def measure(deployment: Deployment, warmup_ns: float, measure_ns: float,
            on_open: Optional[Callable[[], object]] = None) -> OperationStats:
    """:func:`run_window`, then the SMART threads' window stats merged."""
    run_window(deployment, warmup_ns, measure_ns, on_open)
    return OperationStats.merge([s.stats for s in deployment.smart_threads])


def collect(result, deployment: Deployment, stats: Optional[OperationStats],
            warmup_ns: float, measure_ns: float, obs=None, sanitizer=None,
            rolled_back: int = 0):
    """The one collect step after :func:`run_window`: each
    :func:`fault_totals` column ``result`` declares becomes its delta
    from ``deployment.window_faults`` (a fault that ended in warmup
    leaves it at 0) and ``rolled_back`` the caller's count of records
    rolled back inside the window; ``obs`` gets the phases, the cluster's
    counters, ``stats`` and the phase breakdown; ``sanitizer`` runs its
    leak checks and embeds its report."""
    start = deployment.window_faults
    for name, total in fault_totals(deployment.cluster).items():
        if hasattr(result, name):
            setattr(result, name, total - start[name])
    if hasattr(result, "rolled_back"):
        result.rolled_back = rolled_back
    if obs is not None:
        obs.phase("warmup", 0, warmup_ns)
        obs.phase("measure", warmup_ns, warmup_ns + measure_ns)
        obs.collect_cluster(deployment.cluster, window_ns=measure_ns)
        if stats is not None:
            obs.collect_stats(stats)
        result.phase_breakdown = obs.phase_breakdown(deployment.cluster)
    if sanitizer is not None:
        sanitizer.finish()
        result.sanitizer = sanitizer.report()
    return result


# -- what differs between the applications -------------------------------------


class App:
    """What differs between the applications, as the pipeline sees it.

    ``name`` and ``label`` (the result's workload column) identify it.
    ``systems`` maps each system the app deploys to its feature-set
    factory, baseline first: a SMART refactor is its baseline's client
    on the full feature set (§5.2), and it is the ``default_system``.
    ``load(system, deployment, seed, rebuild)`` deploys and bulk-loads
    ``server`` — whose ``declare_sanitizer_regions`` goes to RDMASan —
    and returns the deployment to run on (``rebuild()`` builds a fresh
    one).
    ``stream(seed)`` is one client's infinite op stream,
    ``make_client(smart)`` a client on a SMART thread, and
    ``dispatch(client, item)`` — a plain function, so nothing sits
    between the driver loop and the client's own generator — starts one
    stream item on it.
    """

    systems: Dict[str, Callable[[], SmartFeatures]]
    default_system: str
    #: every server is both a compute and a memory blade (Sherman)
    colocated = False
    #: clients survive a blade crash (only FORD's log-ring recovery
    #: does; see :func:`instrument`)
    recovers_from_crash = False

    @classmethod
    def for_open_loop(cls, item_count: int, benchmark: str,
                      workload: Optional[YcsbWorkload]) -> "App":
        """The app :func:`repro.traffic.run_open_loop` deploys:
        ``item_count`` items under the YCSB mix ``workload`` (``None``:
        write-heavy); ``benchmark`` is DTX's."""
        return cls(item_count, workload)


class _YcsbApp(App):
    """A key-value app driven by a YCSB mix (write-heavy by default)."""

    def __init__(self, item_count: int = 100_000,
                 workload: Optional[YcsbWorkload] = None):
        self.item_count = item_count
        self.workload = workload or WRITE_HEAVY
        self.label = self.workload.name

    def stream(self, seed):
        return self.workload.stream(self.item_count, seed)


class HashTableApp(_YcsbApp):
    """RACE / SMART-HT (Figures 5, 7, 8, 9)."""

    name = "hashtable"
    systems = {"race": baseline, "smart-ht": full}
    default_system = "smart-ht"

    def load(self, system, deployment, seed, rebuild):
        """Size the table for ~30% load so splits stay out of the
        measurement window; a freak both-buckets-full collision during
        loading retries with a doubled directory on a fresh deployment.
        A table that does not fit its blades raises at once.
        """
        slots_needed = int(self.item_count / 0.30)
        buckets = 512
        # Segments are placed round-robin: every blade needs at least one.
        segments = 1
        while segments < len(deployment.memory_nodes):
            segments *= 2
        while segments * buckets * 7 < slots_needed:
            segments *= 2
        for _ in range(3):
            try:
                self.server = HashTableServer(
                    deployment.memory_nodes,
                    segments=segments,
                    buckets_per_segment=buckets,
                    heap_bytes_per_blade=max(8 << 20, self.item_count * 64),
                )
                self.server.bulk_load(YcsbWorkload.load_items(self.item_count, seed))
                self.meta = self.server.meta()
                return deployment
            except BucketsFull:
                segments *= 2
                deployment = rebuild()
        raise BucketsFull("could not load the table even after resizing")

    def make_client(self, smart):
        return HashTableClient(smart.handle(), self.meta)

    @staticmethod
    def dispatch(client, item):
        op, key, value = item
        if op == READ:
            return client.search(key)
        if op == UPDATE:
            return client.update(key, value)
        return client.insert(key, value)


class DtxApp(App):
    """FORD / SMART-DTX (Figures 10, 11); an op is one committed txn."""

    name = "dtx"
    systems = {"ford": baseline, "smart-dtx": full}
    default_system = "smart-dtx"
    recovers_from_crash = True
    _BENCHMARKS = {"smallbank": smallbank, "tatp": tatp}

    @classmethod
    def for_open_loop(cls, item_count: int, benchmark: str,
                      workload: Optional[YcsbWorkload]) -> "DtxApp":
        """DTX runs ``benchmark``; a YCSB mix is refused."""
        if workload is not None:
            raise RunArgumentError(
                f"workload must be None for dtx, which runs benchmark="
                f"{benchmark!r} (a YCSB mix is for hashtable / btree), got "
                f"{getattr(workload, 'name', workload)!r}")
        return cls(item_count, benchmark)

    def __init__(self, item_count: int = 100_000, benchmark: str = "smallbank"):
        if benchmark not in self._BENCHMARKS:
            raise ValueError(f"benchmark must be smallbank or tatp, got {benchmark!r}")
        self.item_count = item_count
        self.label = benchmark
        self.benchmark = self._BENCHMARKS[benchmark]
        #: every client's NVM undo-log ring (what recovery rolls back)
        self.log_rings: List = []

    def load(self, system, deployment, seed, rebuild):
        nodes = deployment.memory_nodes
        self.server = DtxServer(nodes, replicas=min(2, len(nodes)))
        self.tables = self.benchmark.setup(self.server, self.item_count)
        return deployment

    def wire_recovery(self, injector) -> RecoveryManager:
        """Blade restarts run FORD's recovery manager over every
        client's log ring, rolling back in-doubt records before traffic
        resumes."""
        recovery = RecoveryManager(self.server)
        injector.wire_ford_recovery(recovery, self.log_rings)
        return recovery

    def stream(self, seed):
        return self.benchmark.transaction_stream(self.item_count, seed)

    def make_client(self, smart):
        ring = self.server.alloc_log_ring()
        self.log_rings.append(ring)
        return TxnClient(smart.handle(), ring)

    def dispatch(self, client, item):
        return client.run(
            lambda txn: self.benchmark.run_profile(txn, self.tables, *item))


class BTreeApp(_YcsbApp):
    """Sherman+ / Sherman+ w/ SL / SMART-BT (Figure 12).

    Matching the paper's setup, every server is both a memory blade and
    a compute blade; each blade shares one ``index_cache``, one HOPL
    :class:`LocalLockTable` and (with speculative lookup) one
    :class:`SpeculativeCache` between its threads.
    """

    name = "btree"
    #: "Sherman+ w/ SL" is Sherman+ features plus a speculative cache
    systems = {"sherman": baseline, "sherman-sl": baseline, "smart-bt": full}
    default_system = "smart-bt"
    colocated = True

    def __init__(self, item_count: int = 100_000,
                 workload: Optional[YcsbWorkload] = None, hopl: bool = True):
        super().__init__(item_count, workload)
        self.hopl = hopl

    def load(self, system, deployment, seed, rebuild):
        nodes = deployment.memory_nodes
        self.server = BTreeServer(
            nodes, heap_bytes_per_blade=max(16 << 20, self.item_count * 64))
        self.server.bulk_load(YcsbWorkload.load_items(self.item_count, seed))
        self.meta = self.server.meta()
        speculative = system in ("sherman-sl", "smart-bt")
        sim = deployment.cluster.sim
        self.blade_state = {
            node.node_id: (
                {},
                LocalLockTable(sim, use_local_queues=self.hopl),
                SpeculativeCache() if speculative else None,
            )
            for node in nodes
        }
        return deployment

    def make_client(self, smart):
        index_cache, locks, spec = self.blade_state[smart.thread.node.node_id]
        return BTreeClient(
            smart.handle(), self.meta, index_cache, locks, spec_cache=spec)

    @staticmethod
    def dispatch(client, item):
        op, key, value = item
        if op == READ:
            return client.lookup(key)
        if op == UPDATE:
            return client.update(key, value)
        return client.insert(key, value)


#: every app a point can name, by name (the open-loop runner's ``app``)
APPS: Dict[str, type] = {app.name: app for app in (HashTableApp, DtxApp, BTreeApp)}


def app_class(name: str) -> type:
    """The :data:`APPS` adapter called ``name``; any other name is refused."""
    if name not in APPS:
        raise RunArgumentError(f"app must be one of {list(APPS)}, got {name!r}")
    return APPS[name]


# -- the pipeline --------------------------------------------------------------


def deploy_app(app: App, system: str, threads: int, compute_blades: int,
               memory_blades: int, features: Optional[SmartFeatures],
               config: Optional[RnicConfig], seed: int) -> Deployment:
    """Build ``system``'s cluster for ``app`` and bulk-load its server;
    a system ``app`` does not list is refused before anything is built.
    ``features`` replaces the system's own feature set."""
    if system not in app.systems:
        raise RunArgumentError(
            f"system must be one of {list(app.systems)} for {app.name}, "
            f"got {system!r}")
    if features is None:
        features = app.systems[system]()

    def build():
        return build_deployment(features, threads, compute_blades, memory_blades,
                                config, seed, colocated=app.colocated)

    return app.load(system, build(), seed, build)


def client_loop(app: App, smart: SmartThread, stream):
    """One closed-loop client coroutine: next op when the last completes."""
    client = app.make_client(smart)
    dispatch = app.dispatch
    for item in stream:
        yield from dispatch(client, item)


def run_app(
    app: App,
    system: str,
    threads: int = 8,
    coroutines: int = 8,
    compute_blades: int = 1,
    memory_blades: int = 2,
    features: Optional[SmartFeatures] = None,
    config: Optional[RnicConfig] = None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    faults=None,
    fault_seed: int = 0,
    obs=None,
    sanitize=False,
    rate_mops: Optional[float] = None,
):
    """One point of ``app`` (the arguments every app runner shares).

    The load is ``coroutines`` closed-loop clients per SMART thread (full
    load), and the point a :class:`RunResult`.  With ``rate_mops`` it is
    open-loop: Poisson arrivals at that rate, served by ``coroutines``
    workers per SMART thread, and the point a
    :class:`repro.traffic.OpenLoopResult`; this is the one way to offer
    less than full load (the Fig 9 / 11 matched-rate sweeps).
    ``faults`` arms a fault schedule (see :func:`instrument`): link
    faults for every app, blade crashes only where
    ``app.recovers_from_crash``.
    ``obs`` attaches a :class:`repro.obs.Observability`, ``sanitize``
    RDMASan; both are passive.
    """
    open_loop = {} if rate_mops is None else {"rate_mops": rate_mops}
    check_run_args(warmup_ns, measure_ns=measure_ns, threads=threads,
                   coroutines=coroutines, compute_blades=compute_blades,
                   memory_blades=memory_blades, **open_loop)
    deployment = deploy_app(
        app, system, threads, compute_blades, memory_blades, features, config, seed
    )
    warmup_ns = effective_warmup_ns(deployment.features, warmup_ns)
    injector, sanitizer = instrument(
        deployment, app.server, faults, fault_seed, warmup_ns, measure_ns,
        obs, sanitize,
        crash_unsafe=None if app.recovers_from_crash else app.name,
    )
    sim = deployment.cluster.sim
    recovery = None
    rolled_back_before = 0  # by restarts up to the window's opening
    if injector is not None and app.recovers_from_crash:
        recovery = app.wire_recovery(injector)
        opens = int(round(warmup_ns))

        def note_rollbacks(_node):
            nonlocal rolled_back_before
            if sim.now <= opens:
                rolled_back_before = recovery.rolled_back

        injector.on_restart(note_rollbacks)

    queue = None
    if open_loop:
        from repro.traffic import OpenLoopQueue

        queue = OpenLoopQueue.serve(sim, app, deployment.smart_threads,
                                    coroutines, rate_mops, seed)
    else:
        stream_seed = random.Random(seed)
        for smart in deployment.smart_threads:
            for _ in range(coroutines):
                sim.spawn(client_loop(
                    app, smart, app.stream(stream_seed.getrandbits(31))))

    stats = measure(deployment, warmup_ns, measure_ns,
                    None if queue is None else queue.reset_window)
    if queue is None:
        result = RunResult(
            system=system, workload=app.label, threads=threads,
            coroutines=coroutines, compute_blades=compute_blades,
            throughput_mops=stats.ops / measure_ns * 1e3,
            p50_latency_ns=stats.latency_percentile_ns(0.50),
            p99_latency_ns=stats.latency_percentile_ns(0.99),
            avg_retries=stats.avg_retries,
            retry_distribution=stats.retry_distribution(),
            ops=stats.ops, measure_ns=measure_ns,
            sim_events=sim.events_executed)
    else:
        result = queue.result(app.name, system, threads, measure_ns)
        if obs is not None:
            queue.collect(obs)
    result.fault_aborts = stats.fault_aborts
    result.recoveries = stats.recoveries
    result.failed_recoveries = stats.failed_recoveries
    result.avg_recovery_us = stats.avg_recovery_ns / 1e3
    return collect(result, deployment, stats, warmup_ns, measure_ns, obs,
                   sanitizer,
                   recovery.rolled_back - rolled_back_before if recovery else 0)


def run_hashtable(system: str = "smart-ht",
                  workload: Optional[YcsbWorkload] = None,
                  item_count: int = 100_000, **run) -> RunResult:
    """One point of the hash-table experiments (``system``: ``race`` or
    ``smart-ht``; ``workload`` defaults to write-heavy).  ``run`` is
    :func:`run_app`'s keyword arguments."""
    return run_app(HashTableApp(item_count, workload), system, **run)


def run_dtx(system: str = "smart-dtx", benchmark: str = "smallbank",
            item_count: int = 100_000, **run) -> RunResult:
    """One point of the FORD / SMART-DTX experiments (throughput in
    committed M txn/s; ``benchmark``: ``smallbank`` or ``tatp``).
    ``run`` is :func:`run_app`'s keyword arguments."""
    return run_app(DtxApp(item_count, benchmark), system, **run)


def run_btree(system: str = "smart-bt",
              workload: Optional[YcsbWorkload] = None,
              servers: int = 1, item_count: int = 100_000,
              hopl: bool = True, **run) -> RunResult:
    """One point of the Sherman / SMART-BT experiments.

    ``servers`` scales compute and memory out together.  Systems:
    ``sherman`` (Sherman+), ``sherman-sl`` (Sherman+ w/ speculative
    lookup) and ``smart-bt``.  ``hopl=False`` degrades node locks to
    naive remote CAS spinlocks (the §3.3 behaviour HOPL avoids) — used
    by the HOPL ablation bench.  ``run`` is :func:`run_app`'s remaining
    keyword arguments (the blade counts are ``servers``).
    """
    app = BTreeApp(item_count, workload, hopl)
    return run_app(app, system, compute_blades=servers, memory_blades=servers,
                   **run)
