"""RDMASan: a shadow-memory race sanitizer for one-sided RDMA.

Disaggregated applications coordinate through *unsynchronized* one-sided
READ/WRITE/CAS — a missed conflict is silent data corruption, not a
crash.  RDMASan attaches passively as a device observer (same seam as
:mod:`repro.obs`'s tracer) and records every in-flight access as an
interval ``(actor, qp, [addr, addr+len), kind, issue/complete sim-time)``
in a per-blade shadow map.  Two accesses race when their in-flight
intervals overlap in sim-time *and* their byte ranges overlap *and* no
happens-before edge orders them.

Happens-before edges recognized:

* **completion-before-issue** — records are unindexed at completion, so
  only temporally overlapping pairs are ever compared;
* **same-QP ordering** — RC executes a QP's operations in PSN order at
  the responder, so two ops on one QP never race with each other;
* **atomic serialization** — the RNIC serializes CAS/FAA on the same
  device, so atomic–atomic pairs are ordered (and atomic–read pairs are
  the optimistic single-word pattern, exempt by design);
* **sync words** — any 8-byte word that has ever been the target of a
  CAS/FAA (plus explicitly declared lock words) is a synchronization
  variable: overlaps confined to sync words are the protocol working as
  intended, not a race.

On top of overlap detection, regions may declare a *policy*
(``exclusive`` — the default — also flags read-under-write;
``optimistic-read`` — version-validated readers — flags only
write-write), and striped lock tables (FORD's per-record locks) enable a
lock-discipline check: a WRITE into a stripe's data while the stripe's
lock word is not held by the writer is a finding even if no second
access happens to be in flight.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.memory.address import blade_of, offset_of
from repro.rnic.device import BatchObserver
from repro.rnic.qp import CAS, FAA, READ, WRITE, QueuePair, WorkRequest

#: shadow chunk granularity (bytes = 1 << shift); 256 B keeps bucket
#: lists short for record-sized accesses without bloating the index
_CHUNK_SHIFT = 8

_ACCESS_CLASS = {READ: "R", WRITE: "W", CAS: "A", FAA: "A"}

POLICY_EXCLUSIVE = "exclusive"
POLICY_OPTIMISTIC_READ = "optimistic-read"

_POLICIES = frozenset({POLICY_EXCLUSIVE, POLICY_OPTIMISTIC_READ})


class _Access:
    """One in-flight one-sided operation, as seen by the shadow map."""

    __slots__ = (
        "wr",
        "blade",
        "start",
        "end",
        "cls",
        "thread_id",
        "node_id",
        "actor",
        "qp_ord",
        "issued_ns",
        "completed_ns",
    )

    def __init__(
        self,
        wr: WorkRequest,
        blade: int,
        start: int,
        cls: str,
        thread_id: int,
        node_id: int,
        actor: Any,
        qp_ord: int,
        issued_ns: int,
    ):
        self.wr = wr
        self.blade = blade
        self.start = start
        self.end = start + wr.size
        self.cls = cls
        self.thread_id = thread_id
        self.node_id = node_id
        self.actor = actor
        self.qp_ord = qp_ord
        self.issued_ns = issued_ns
        self.completed_ns: Optional[int] = None

    def chunks(self) -> range:
        return range(self.start >> _CHUNK_SHIFT, ((self.end - 1) >> _CHUNK_SHIFT) + 1)


class _StripedLocks:
    """A table of per-stripe lock words (FORD: one per record)."""

    __slots__ = ("base", "end", "stride", "lock_offset", "span")

    def __init__(self, base: int, end: int, stride: int, lock_offset: int, span: int):
        self.base = base
        self.end = end
        self.stride = stride
        self.lock_offset = lock_offset
        self.span = span

    def covering_word(self, pos: int) -> Optional[int]:
        """The stripe lock word whose 8 bytes contain byte ``pos``."""
        if not self.base <= pos < self.end:
            return None
        word = self.base + ((pos - self.base) // self.stride) * self.stride + self.lock_offset
        return word if word <= pos < word + 8 else None


class _BladeShadow:
    """Per-blade shadow state: the chunked interval index plus protocol
    declarations (policies, lock words, striped tables)."""

    __slots__ = ("chunks", "policies", "striped", "sync_words", "lock_words")

    def __init__(self):
        self.chunks: Dict[int, List[_Access]] = {}
        self.policies: List[Tuple[int, int, str, str]] = []  # (base, end, policy, name)
        self.striped: List[_StripedLocks] = []
        #: words observed as CAS/FAA targets (protocol sync variables)
        self.sync_words: Set[int] = set()
        #: words declared as locks by the application
        self.lock_words: Set[int] = set()


class RdmaSanitizer(BatchObserver):
    """The sanitizer facade: attach, declare protocol facts, collect
    findings, report leaks at teardown.

    Typical use::

        sanitizer = RdmaSanitizer()
        sanitizer.attach_cluster(cluster)
        server.declare_sanitizer_regions(sanitizer)
        ...  # run the workload
        sanitizer.finish()
        report = sanitizer.report()
    """

    def __init__(self, max_findings: int = 256):
        self.max_findings = max_findings
        self.findings: List[Dict[str, Any]] = []
        self.leaks: List[Dict[str, Any]] = []
        self.ops_checked = 0
        self.dropped_findings = 0
        self._shadows: Dict[int, _BladeShadow] = {}
        #: blade id -> MemoryBlade (region names in findings)
        self._storages: Dict[int, Any] = {}
        self._batches: Dict[int, List[_Access]] = {}
        #: current holder of each tracked lock word: (blade, word) -> actor
        self._holders: Dict[Tuple[int, int], Any] = {}
        #: per-run QP ordinals in first-post order (qp_id is a process-wide
        #: counter and therefore unstable across reruns; the ordinal is not)
        self._qp_ords: Dict[int, int] = {}
        self._clusters: List[Any] = []
        self._dedup: Set[Tuple] = set()

    # -- attachment ---------------------------------------------------------

    def attach_cluster(self, cluster) -> "RdmaSanitizer":
        """Observe every device of ``cluster``; enables leak checking too.
        Call after every node is added."""
        for node in cluster.nodes:
            self.attach_node(node)
        if cluster.sim.process_registry is None:
            cluster.sim.process_registry = []
        self._clusters.append(cluster)
        return self

    def attach_node(self, node) -> None:
        if self not in node.device.observers:
            node.device.observers += (self,)
        self._storages.setdefault(node.node_id, node.storage)

    # -- protocol declarations ---------------------------------------------

    def set_region_policy(self, blade_id: int, region_name: str, policy: str) -> None:
        """Declare the conflict policy of a named region on ``blade_id``."""
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        storage = self._storages.get(blade_id)
        if storage is None:
            raise KeyError(f"blade {blade_id} is not attached")
        region = storage.region(region_name)
        shadow = self._shadow(blade_id)
        shadow.policies.append((region.base, region.end, policy, region.name))

    def declare_lock_word(self, blade_id: int, offset: int) -> None:
        """Declare one 8-byte lock word at ``offset`` on ``blade_id``."""
        self._shadow(blade_id).lock_words.add(offset)

    def declare_striped_locks(
        self,
        blade_id: int,
        base: int,
        end: int,
        stride: int,
        lock_offset: int = 0,
        span: Optional[int] = None,
    ) -> None:
        """Declare a striped lock table: each ``stride``-byte stripe in
        ``[base, end)`` is protected by the 8-byte word at
        ``stripe + lock_offset``; the lock covers ``span`` bytes of the
        stripe (default: the whole stride)."""
        if stride <= 0:
            raise ValueError("stride must be positive")
        self._shadow(blade_id).striped.append(
            _StripedLocks(base, end, stride, lock_offset, span or stride)
        )

    # -- the observer calls (from rnic.verbs / rnic.device) -------------------

    def on_post(self, thread, qp: QueuePair, batch) -> None:
        """A batch was rung in: index its accesses as in-flight."""
        now = qp.device.sim.now
        qp_ord = self._qp_ords.setdefault(qp.qp_id, len(self._qp_ords) + 1)
        thread_id = getattr(thread, "thread_id", 0)
        node = getattr(thread, "node", None)
        node_id = node.node_id if node is not None else -1
        actor = batch.actor
        if actor is None:
            actor = ("thread", node_id, thread_id)
        records: List[_Access] = []
        for wr in batch.wrs:
            blade = blade_of(wr.remote_addr)
            start = offset_of(wr.remote_addr)
            cls = _ACCESS_CLASS[wr.opcode]
            record = _Access(wr, blade, start, cls, thread_id, node_id, actor, qp_ord, now)
            shadow = self._shadow(blade)
            if cls == "A":
                # Any CAS/FAA target is a protocol sync variable from now
                # on; later overlaps confined to it are not races.
                shadow.sync_words.add(start)
            if cls == "W":
                self._check_discipline(shadow, record)
            for chunk in record.chunks():
                shadow.chunks.setdefault(chunk, []).append(record)
            records.append(record)
        self._batches[batch.batch_id] = records
        self.ops_checked += len(records)

    def on_complete(self, batch) -> None:
        """A batch completed: unindex its accesses, checking each against
        every record still in flight (covers every temporally-overlapping
        pair exactly once, same-batch siblings included)."""
        records = self._batches.pop(batch.batch_id, None)
        if records is None:
            return
        now = batch.completed_at
        for record in records:
            record.completed_ns = now
            shadow = self._shadows[record.blade]
            seen: Set[int] = set()
            for chunk in record.chunks():
                bucket = shadow.chunks.get(chunk)
                bucket.remove(record)
                if not bucket:
                    del shadow.chunks[chunk]
                    continue
                if record.wr.status != WorkRequest.STATUS_OK:
                    continue  # faulted ops never executed remotely
                for other in bucket:
                    if id(other) in seen:
                        continue
                    seen.add(id(other))
                    overlap_start = max(record.start, other.start)
                    overlap_end = min(record.end, other.end)
                    if overlap_start < overlap_end:
                        self._classify(shadow, record, other, overlap_start, overlap_end)
            if record.wr.status == WorkRequest.STATUS_OK:
                self._update_locks(shadow, record)

    # -- detection ----------------------------------------------------------

    def _classify(
        self,
        shadow: _BladeShadow,
        a: _Access,
        b: _Access,
        overlap_start: int,
        overlap_end: int,
    ) -> None:
        if a.qp_ord == b.qp_ord:
            return  # RC executes same-QP ops in order: happens-before
        kinds = {a.cls, b.cls}
        if kinds == {"R"}:
            return
        if kinds == {"A"} or kinds == {"A", "R"}:
            # The RNIC serializes atomics; an 8-byte read racing a CAS is
            # the optimistic single-word pattern (validated by compare).
            return
        if self._sync_covered(shadow, overlap_start, overlap_end):
            return
        if "R" in kinds:
            if self._policy_for(shadow, overlap_start) == POLICY_OPTIMISTIC_READ:
                return
            kind = "read-under-write"
        else:
            kind = "write-write"
        first, second = sorted(
            (a, b), key=lambda r: (r.issued_ns, r.node_id, r.thread_id, r.qp_ord)
        )
        self._emit(
            kind,
            first.blade,
            overlap_start,
            overlap_end,
            first,
            second,
            detected_ns=a.completed_ns if a.completed_ns is not None else b.completed_ns,
        )

    def _sync_covered(self, shadow: _BladeShadow, start: int, end: int) -> bool:
        """True when every byte of [start, end) lies in a sync/lock word."""
        pos = start
        while pos < end:
            hit = self._word_covering(shadow, pos)
            if hit is None:
                return False
            pos = hit + 8
        return True

    def _word_covering(self, shadow: _BladeShadow, pos: int) -> Optional[int]:
        """The base of a sync/lock word whose 8 bytes contain ``pos``."""
        for candidate in range(pos, pos - 8, -1):
            if candidate in shadow.sync_words or candidate in shadow.lock_words:
                return candidate
        for table in shadow.striped:
            word = table.covering_word(pos)
            if word is not None:
                return word
        return None

    def _policy_for(self, shadow: _BladeShadow, pos: int) -> str:
        for base, end, policy, _name in shadow.policies:
            if base <= pos < end:
                return policy
        return POLICY_EXCLUSIVE

    def _check_discipline(self, shadow: _BladeShadow, record: _Access) -> None:
        """A WRITE into a striped region must hold the stripes' locks —
        unless the write *is* the lock release (confined to the word)."""
        for table in shadow.striped:
            overlap_start = max(record.start, table.base)
            overlap_end = min(record.end, table.end)
            if overlap_start >= overlap_end:
                continue
            first = (overlap_start - table.base) // table.stride
            last = (overlap_end - 1 - table.base) // table.stride
            for k in range(first, last + 1):
                stripe = table.base + k * table.stride
                word = stripe + table.lock_offset
                covered_start = max(overlap_start, stripe)
                covered_end = min(overlap_end, stripe + table.span)
                if covered_start >= covered_end:
                    continue  # only touched the stripe's uncovered tail
                if word <= covered_start and covered_end <= word + 8:
                    continue  # the write is the lock release itself
                holder = self._holders.get((record.blade, word))
                if holder != record.actor:
                    self._emit(
                        "lock-discipline",
                        record.blade,
                        covered_start,
                        covered_end,
                        record,
                        None,
                        detected_ns=record.issued_ns,
                        extra={
                            "lock_word": word,
                            "holder": list(holder) if holder is not None else None,
                        },
                    )

    def _update_locks(self, shadow: _BladeShadow, record: _Access) -> None:
        """Track lock-word holders from completed ops: a successful CAS
        acquires (swap != 0) or releases (swap == 0); a plain WRITE over a
        tracked word sets/clears per the written value."""
        key_blade = record.blade
        if record.wr.opcode == CAS:
            word = record.start
            if self._is_tracked_word(shadow, word) and record.wr.result == record.wr.compare:
                if record.wr.swap != 0:
                    self._holders[(key_blade, word)] = record.actor
                else:
                    self._holders.pop((key_blade, word), None)
        elif record.cls == "W" and record.wr.payload is not None:
            for word in self._tracked_words_in(shadow, record.start, record.end):
                offset = word - record.start
                value = int.from_bytes(record.wr.payload[offset : offset + 8], "little")
                if value == 0:
                    self._holders.pop((key_blade, word), None)
                else:
                    self._holders[(key_blade, word)] = record.actor

    def _is_tracked_word(self, shadow: _BladeShadow, word: int) -> bool:
        if word in shadow.lock_words:
            return True
        return any(table.covering_word(word) == word for table in shadow.striped)

    def _tracked_words_in(self, shadow: _BladeShadow, start: int, end: int) -> List[int]:
        """Lock words fully contained in [start, end), ascending."""
        words = {w for w in shadow.lock_words if start <= w and w + 8 <= end}
        for table in shadow.striped:
            overlap_start = max(start, table.base)
            overlap_end = min(end, table.end)
            if overlap_start >= overlap_end:
                continue
            first = (overlap_start - table.base) // table.stride
            last = (overlap_end - 1 - table.base) // table.stride
            for k in range(first, last + 1):
                word = table.base + k * table.stride + table.lock_offset
                if start <= word and word + 8 <= end:
                    words.add(word)
        return sorted(words)

    # -- findings -----------------------------------------------------------

    def _emit(
        self,
        kind: str,
        blade: int,
        overlap_start: int,
        overlap_end: int,
        first: _Access,
        second: Optional[_Access],
        detected_ns: Optional[int],
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        key = (
            kind,
            blade,
            overlap_start,
            overlap_end,
            first.node_id,
            first.thread_id,
            first.qp_ord,
            second.node_id if second is not None else None,
            second.thread_id if second is not None else None,
            second.qp_ord if second is not None else None,
        )
        if key in self._dedup:
            return
        self._dedup.add(key)
        if len(self.findings) >= self.max_findings:
            self.dropped_findings += 1
            return
        region = None
        storage = self._storages.get(blade)
        if storage is not None:
            found = storage.find_region(overlap_start)
            region = found.name if found is not None else None
        finding: Dict[str, Any] = {
            "kind": kind,
            "blade": blade,
            "region": region,
            "addr": overlap_start,
            "bytes": overlap_end - overlap_start,
            "first": self._endpoint(first),
            "second": self._endpoint(second) if second is not None else None,
            "detected_ns": detected_ns,
        }
        if extra:
            finding.update(extra)
        self.findings.append(finding)
        self._instant(kind, finding)

    @staticmethod
    def _endpoint(record: _Access) -> Dict[str, Any]:
        return {
            "node": record.node_id,
            "thread": record.thread_id,
            "qp": record.qp_ord,
            "op": record.wr.opcode,
            "issued_ns": record.issued_ns,
            "completed_ns": record.completed_ns,
        }

    def _instant(self, kind: str, finding: Dict[str, Any]) -> None:
        """Surface the finding as an obs instant so it lands in traces."""
        for cluster in self._clusters:
            recorder = cluster.sim.recorder
            if recorder is not None:
                recorder.instant(
                    "sanitizer",
                    "races",
                    kind,
                    cluster.sim.now,
                    {
                        "blade": finding["blade"],
                        "region": finding["region"],
                        "addr": finding["addr"],
                        "bytes": finding["bytes"],
                    },
                )
                return

    # -- teardown -----------------------------------------------------------

    def finish(self, expect_idle: bool = False) -> None:
        """Run the leak checks.

        QPs stuck in ERROR are always reported.  With ``expect_idle`` the
        stricter checks run too: held driver locks, still-runnable
        registered processes and in-flight batches (benchmarks routinely
        stop mid-flight at the measurement horizon, so these are opt-in).
        """
        for cluster in self._clusters:
            for node in cluster.nodes:
                for context in node.device.contexts:
                    for qp in context.qps:
                        if qp.state == QueuePair.STATE_ERROR:
                            self.leaks.append(
                                {
                                    "kind": "qp-error",
                                    "node": node.node_id,
                                    "remote": qp.remote_node.node_id,
                                    "cause": qp.error_cause,
                                }
                            )
                    if expect_idle:
                        self._idle_leaks(node, context)
            if expect_idle:
                registry = cluster.sim.process_registry or []
                for process in registry:
                    if process.alive:
                        self.leaks.append(
                            {"kind": "process-runnable", "name": process.name}
                        )
        if expect_idle and self._batches:
            self.leaks.append({"kind": "in-flight-batches", "count": len(self._batches)})

    def _idle_leaks(self, node, context) -> None:
        for doorbell in context.uar.doorbells:
            if doorbell.lock.locked:
                self.leaks.append(
                    {
                        "kind": "lock-held",
                        "node": node.node_id,
                        "lock": doorbell.lock.name,
                        "owner": doorbell.lock.owner,
                    }
                )
        for qp in context.qps:
            if qp.share_lock is not None and qp.share_lock.locked:
                self.leaks.append(
                    {
                        "kind": "lock-held",
                        "node": node.node_id,
                        "lock": qp.share_lock.name,
                        "owner": qp.share_lock.owner,
                    }
                )

    def report(self) -> Dict[str, Any]:
        """The structured summary benches embed in their results."""
        return {
            "enabled": True,
            "ops_checked": self.ops_checked,
            "findings": list(self.findings),
            "dropped_findings": self.dropped_findings,
            "leaks": list(self.leaks),
        }

    # -- internals ----------------------------------------------------------

    def _shadow(self, blade_id: int) -> _BladeShadow:
        shadow = self._shadows.get(blade_id)
        if shadow is None:
            shadow = _BladeShadow()
            self._shadows[blade_id] = shadow
        return shadow
