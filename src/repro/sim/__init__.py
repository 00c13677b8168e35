"""Discrete-event simulation kernel.

The whole reproduction runs on this kernel: compute-blade threads,
application coroutines, RNIC processing pipelines and memory blades are all
simulated processes exchanging events in virtual nanoseconds.

The kernel is deliberately small and simpy-like: a process is a Python
generator that yields a sleep (:class:`Timeout`, :class:`Delay`) or a
*waitable* (:class:`Event`, a :class:`Process`, tickets from
:class:`FifoLock`) and is resumed with ``None`` or the waitable's value.
"""

from repro.sim.core import Delay, Event, Interrupt, Process, Simulator, Timeout
from repro.sim.resources import FifoLock, SpinLock, TokenBucket
from repro.sim.rng import ScrambledZipfianGenerator, UniformGenerator, ZipfianGenerator

__all__ = [
    "Delay",
    "Event",
    "FifoLock",
    "Interrupt",
    "Process",
    "ScrambledZipfianGenerator",
    "Simulator",
    "SpinLock",
    "Timeout",
    "TokenBucket",
    "UniformGenerator",
    "ZipfianGenerator",
]
