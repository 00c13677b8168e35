"""Experiment functions used by the parallel-executor failure tests.

These live in a separate importable module (not a ``test_*`` file) so
worker processes can unpickle them by reference, the same way real
runners are.
"""

import os


def run_boom(x: int = 0, seed: int = 0):
    """An experiment that always raises."""
    raise ValueError(f"boom x={x} seed={seed}")


def run_exit(code: int = 3, seed: int = 0):
    """An experiment that kills its worker process outright.

    ``os._exit`` bypasses Python exception handling entirely, so the
    worker can't report a failure — the executor noticing the broken
    pool is the only thing standing between this and a hung sweep.
    """
    os._exit(code)


def run_ok(value: int = 1, seed: int = 0):
    """A trivially cheap well-behaved experiment."""
    return value * 2
