"""Fault schedules: what breaks, when, for how long.

A :class:`FaultSchedule` is an immutable plan of :class:`LinkFault`
windows and :class:`BladeCrash` events.  Three ways to build one:

* directly from the dataclasses (tests);
* :meth:`FaultSchedule.parse` — a compact spec string for the CLI::

      loss=0.02@1.2ms+1ms          20% of a packet-loss window
      dup=0.01@0+2ms:1             duplication on node 1's links
      delay=500ns@1ms+1ms          a latency spike
      crash=2@1.3ms+0.5ms          node 2 down for 0.5 ms

  clauses are comma-separated: ``kind=value@start+duration[:node]``
  (for ``crash`` the value *is* the node id and the duration is the
  downtime);
* :meth:`FaultSchedule.seeded` — a randomized plan drawn from one seed,
  for chaos sweeps.

The schedule itself is built eagerly with plain :mod:`random` — only the
*per-message* draws during simulation go through the injector RNG, and
both derive from the same user-visible seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.network.fabric import LinkFault

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

_DURATION_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(ns|us|ms|s)?\s*$")


def parse_duration_ns(text: str) -> float:
    """``"500us"`` -> 500000.0; a bare number is nanoseconds."""
    match = _DURATION_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse duration {text!r} (expected e.g. 500us)")
    value, unit = match.groups()
    return float(value) * _UNIT_NS[unit or "ns"]


@dataclass(frozen=True)
class BladeCrash:
    """One whole-blade power failure: down at ``start_ns`` for
    ``downtime_ns``, then restarted (volatile memory lost, NVM kept)."""

    node_id: int
    start_ns: float
    downtime_ns: float

    def __post_init__(self):
        if self.start_ns < 0 or self.downtime_ns <= 0:
            raise ValueError("crash needs start_ns >= 0 and downtime_ns > 0")

    @property
    def restart_ns(self) -> float:
        return self.start_ns + self.downtime_ns


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable fault plan plus the seed that parameterizes replay."""

    link_faults: Tuple[LinkFault, ...] = ()
    crashes: Tuple[BladeCrash, ...] = ()
    seed: int = 0
    #: the spec string this schedule was parsed from, if any (kept so a
    #: schedule can be shipped across process boundaries as a string)
    spec: Optional[str] = None

    def __post_init__(self):
        # Accept lists for convenience; store tuples (hashable/frozen).
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def empty(self) -> bool:
        return not self.link_faults and not self.crashes

    @property
    def horizon_ns(self) -> float:
        """When the last scheduled fault is over."""
        ends = [f.end_ns for f in self.link_faults]
        ends += [c.restart_ns for c in self.crashes]
        return max(ends, default=0.0)

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultSchedule":
        """Build a schedule from the compact clause syntax (see module
        docstring); a bad clause is a ``ValueError`` that quotes it."""
        link_faults: List[LinkFault] = []
        crashes: List[BladeCrash] = []
        for _, fault in _clauses(spec):
            if isinstance(fault, BladeCrash):
                crashes.append(fault)
            else:
                link_faults.append(fault)
        return cls(tuple(link_faults), tuple(crashes), seed=seed, spec=spec)

    def check_nodes(self, node_ids: Sequence[int]) -> None:
        """Refuse a fault aimed at a node outside ``node_ids`` (a crash
        or a ``:node`` link filter); the ``ValueError``
        names its clause (as written, for a parsed schedule) and the nodes."""
        if self.spec is not None:
            faults = list(_clauses(self.spec))
        else:
            faults = [(fault, fault) for fault in
                      (*self.link_faults, *self.crashes)]
        for clause, fault in faults:
            if fault.node_id is not None and fault.node_id not in node_ids:
                raise ValueError(
                    f"fault clause {clause!r} targets node {fault.node_id}: "
                    f"a node must be one of the deployment's nodes {list(node_ids)}"
                )

    @classmethod
    def seeded(
        cls,
        seed: int,
        window_start_ns: float,
        window_ns: float,
        crash_nodes: Sequence[int] = (),
        loss_windows: int = 2,
        loss: float = 0.02,
        crashes: int = 1,
        downtime_frac: float = 0.15,
    ) -> "FaultSchedule":
        """A randomized plan inside ``[window_start, window_start+window)``.

        Draws loss windows and blade crashes from ``random.Random(seed)``
        — the same seed always yields the same plan.  Crashes start in
        the first 60% of the window so the restart (and the recovery it
        triggers) lands inside the observed run.
        """
        rng = random.Random(seed)
        link_faults = []
        for _ in range(loss_windows):
            start = window_start_ns + rng.uniform(0.0, 0.5) * window_ns
            duration = rng.uniform(0.15, 0.35) * window_ns
            link_faults.append(LinkFault(start, duration, loss=loss))
        crash_list = []
        if crash_nodes:
            downtime = downtime_frac * window_ns
            for _ in range(crashes):
                node = crash_nodes[rng.randrange(len(crash_nodes))]
                start = window_start_ns + rng.uniform(0.1, 0.6) * window_ns
                crash_list.append(BladeCrash(node, start, downtime))
        return cls(tuple(link_faults), tuple(crash_list), seed=seed)

    @classmethod
    def from_spec(
        cls,
        spec,
        seed: int = 0,
        window_start_ns: float = 0.0,
        window_ns: float = 2.0e6,
        crash_nodes: Sequence[int] = (),
    ) -> "FaultSchedule":
        """Coerce whatever the bench/CLI hands us into a schedule.

        Accepts an existing :class:`FaultSchedule`, the literal
        ``"seeded"`` (randomized plan inside the measurement window) or a
        :meth:`parse` clause string.
        """
        if isinstance(spec, FaultSchedule):
            return spec
        if spec == "seeded":
            return cls.seeded(seed, window_start_ns, window_ns,
                              crash_nodes=crash_nodes)
        return cls.parse(spec, seed=seed)


def _clauses(spec: str):
    """``(clause, fault)`` for each comma-separated clause of ``spec``."""
    for clause in filter(None, (c.strip() for c in spec.split(","))):
        try:
            yield clause, _parse_clause(clause)
        except ValueError as error:
            raise ValueError(f"bad fault clause {clause!r}: {error}") from None


def _parse_clause(clause: str):
    """One ``kind=value@start+duration[:node]`` clause as its fault."""
    try:
        head, timing = clause.split("@", 1)
        kind, value = head.split("=", 1)
    except ValueError:
        raise ValueError("a clause must be kind=value@start+duration") from None
    node: Optional[int] = None
    if ":" in timing:
        timing, node_text = timing.rsplit(":", 1)
        node = int(node_text)
    try:
        start_text, duration_text = timing.split("+", 1)
    except ValueError:
        raise ValueError("its timing must be start+duration") from None
    start = parse_duration_ns(start_text)
    duration = parse_duration_ns(duration_text)
    kind = kind.strip().lower()
    if kind == "crash":
        if node is not None:
            raise ValueError("a crash's node must be its value, not a suffix")
        return BladeCrash(int(value), start, duration)
    if kind == "loss":
        return LinkFault(start, duration, loss=float(value), node_id=node)
    if kind == "dup":
        return LinkFault(start, duration, duplicate=float(value), node_id=node)
    if kind == "delay":
        return LinkFault(start, duration, extra_delay_ns=parse_duration_ns(value),
                         node_id=node)
    raise ValueError(
        f"kind must be one of loss, dup, delay, crash, got {kind!r}"
    )
