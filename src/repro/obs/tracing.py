"""Structured span/event tracing over the simulated timeline.

:class:`TraceRecorder` is a bounded ring buffer of *spans* (an interval
on a named track) and *instants* (a point event).  Tracks are
``(process, lane)`` pairs — one process per device/engine/client group,
one lane per pipeline inside it — which the Chrome-trace exporter
(:mod:`repro.obs.export`) turns into Perfetto tracks.

:class:`SpanTracer` is the per-batch lifecycle tracer: a
:class:`~repro.rnic.device.BatchObserver` that, when a batch completes,
reads the timeline the pipeline stamped on the batch itself
(:class:`~repro.rnic.qp.WorkBatch`) under the stage names

    posted -> issued -> remote_start -> executed -> completed

``summary()`` then reports where the time went — queueing at the
requester (a sign of an IOPS/bandwidth ceiling), flight time, responder
queueing (a remote-side ceiling) or return flight.  Given a recorder, it
additionally emits one span per pipeline segment onto it the moment a
batch completes.

Recording never schedules simulator events and never draws randomness:
attaching a recorder cannot change a single simulated number, and with
no recorder attached an ``instant`` site is one ``is not None`` check.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.rnic.device import BatchObserver

#: lifecycle stage -> the ``WorkBatch`` stamp it reads, in pipeline order
#: (the trace's "posted" is the doorbell ring, not WQE construction)
STAGES: Dict[str, str] = {
    "posted": "rung_at",
    "issued": "issued_at",
    "remote_start": "remote_start_at",
    "executed": "executed_at",
    "completed": "completed_at",
}

#: (segment name, start stage, end stage) — the batch lifecycle pipeline.
SEGMENTS: Tuple[Tuple[str, str, str], ...] = (
    ("post_to_issue", "posted", "issued"),
    ("issue_to_remote", "issued", "remote_start"),
    ("remote_queue_and_exec", "remote_start", "executed"),
    ("return_flight", "executed", "completed"),
)

#: lane names, one per lifecycle segment, grouped under the device track
SEGMENT_LANES: Dict[str, str] = {
    "post_to_issue": "requester",
    "issue_to_remote": "wire-out",
    "remote_queue_and_exec": "responder",
    "return_flight": "wire-back",
}


class TraceEvent:
    """One recorded span or instant."""

    __slots__ = ("phase", "track", "lane", "name", "ts", "dur", "args")

    SPAN = "X"
    INSTANT = "i"

    def __init__(self, phase: str, track: str, lane: str, name: str,
                 ts: float, dur: float = 0.0, args: Optional[Dict] = None):
        self.phase = phase
        self.track = track
        self.lane = lane
        self.name = name
        self.ts = ts
        self.dur = dur
        self.args = args

    def __repr__(self) -> str:
        return (f"TraceEvent({self.phase}, {self.track}/{self.lane}, "
                f"{self.name!r}, ts={self.ts}, dur={self.dur})")


class TraceRecorder:
    """Bounded ring buffer of trace events (oldest evicted first)."""

    def __init__(self, capacity: int = 200_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        #: events evicted because the ring was full
        self.dropped = 0

    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def span(self, track: str, lane: str, name: str, start_ns: float,
             end_ns: float, args: Optional[Dict] = None) -> None:
        """Record an interval [start_ns, end_ns] on ``track/lane``."""
        if end_ns < start_ns:
            raise ValueError(f"span ends before it starts: {start_ns}..{end_ns}")
        self._append(TraceEvent(TraceEvent.SPAN, track, lane, name,
                                start_ns, end_ns - start_ns, args))

    def instant(self, track: str, lane: str, name: str, ts_ns: float,
                args: Optional[Dict] = None) -> None:
        """Record a point event at ``ts_ns`` on ``track/lane``."""
        self._append(TraceEvent(TraceEvent.INSTANT, track, lane, name,
                                ts_ns, 0.0, args))

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def spans(self, name: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self._events
                if e.phase == TraceEvent.SPAN and (name is None or e.name == name)]

    def instants(self, name: Optional[str] = None) -> List[TraceEvent]:
        return [e for e in self._events
                if e.phase == TraceEvent.INSTANT and (name is None or e.name == name)]

    def tracks(self) -> List[Tuple[str, str]]:
        """Distinct (track, lane) pairs in recording order."""
        seen = {}
        for event in self._events:
            seen.setdefault((event.track, event.lane), None)
        return list(seen)


class SpanTracer(BatchObserver):
    """Bounded trace of batch lifecycles (oldest evicted first).

    Keeps the timeline of every batch that reached all five stages; one
    that was flushed, aborted or lost on the way has a ``None`` stamp
    and is not reported.  With a ``recorder``, the four lifecycle
    segments of a batch are also emitted as spans grouped under ``track``
    (one lane per pipeline stage) as it completes, with all five stage
    timestamps attached as span args.
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None,
                 track: str = "", capacity: int = 10_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.recorder = recorder
        self.track = track
        self.capacity = capacity
        self._timelines: deque = deque(maxlen=capacity)
        self.dropped = 0

    def on_complete(self, batch) -> None:
        timestamps = {stage: getattr(batch, stamp) for stage, stamp in STAGES.items()}
        if None in timestamps.values():
            return
        # The requester's finish is a float; every other stamp is an
        # instant of the event loop, which quantizes with round() —
        # truncating here instead skewed the post_to_issue/issue_to_remote
        # split by up to 1 ns per batch.
        timestamps["issued"] = int(round(timestamps["issued"]))
        if len(self._timelines) == self.capacity:
            self.dropped += 1
        self._timelines.append(timestamps)
        recorder = self.recorder
        if recorder is None:
            return
        for name, start, end in SEGMENTS:
            recorder.span(self.track, SEGMENT_LANES[name], name,
                          timestamps[start], timestamps[end],
                          {"batch": batch.batch_id})
        # The whole-lifecycle span carries every stage timestamp.
        recorder.span(self.track, "batches", "batch",
                      timestamps["posted"], timestamps["completed"],
                      dict(timestamps, batch=batch.batch_id))

    def complete_batches(self) -> List[Dict[str, int]]:
        return list(self._timelines)

    def summary(self) -> Optional[Dict[str, float]]:
        """Mean nanoseconds per pipeline segment over complete batches."""
        complete = self.complete_batches()
        if not complete:
            return None
        result = {
            name: sum(t[end] - t[start] for t in complete) / len(complete)
            for name, start, end in SEGMENTS + (("total", "posted", "completed"),)
        }
        result["batches"] = float(len(complete))
        return result


def merge_summaries(summaries) -> Optional[Dict[str, float]]:
    """Batch-weighted mean of several ``SpanTracer.summary()`` dicts."""
    summaries = [s for s in summaries if s]
    if not summaries:
        return None
    total_batches = sum(s["batches"] for s in summaries)
    merged = {"batches": total_batches}
    for name, _, _ in SEGMENTS:
        merged[name] = sum(s[name] * s["batches"] for s in summaries) / total_batches
    merged["total"] = sum(s["total"] * s["batches"] for s in summaries) / total_batches
    return merged
