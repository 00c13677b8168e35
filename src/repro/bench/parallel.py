"""Parallel sweep execution for the figure grids.

Every paper figure is a grid of fully independent simulation points, so
the grid parallelizes embarrassingly across a process pool:

* :class:`PointSpec` — one grid point: the runner (a module-level
  function, pickled by reference), its keyword arguments and an optional
  explicit seed.
* :func:`run_points` — executes a list of specs, serially (``jobs=1``)
  or one future per point on a cached
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs=N``;
  ``jobs=0`` = all cores), and returns results **in input order**.  A
  point's result depends only on its spec (simulations are seeded,
  self-contained and share no mutable state), so serial and parallel
  execution produce identical results — asserted by
  ``tests/test_parallel_exec.py``.
* :class:`PointFailure` — raised when a point raises (or a worker dies)
  with the failing spec attached, so a grid error names the exact
  (runner, kwargs, seed) to replay instead of a bare pool traceback.

The default job count comes from the ``REPRO_JOBS`` environment
variable (``1`` — serial — when unset, ``0`` meaning all cores), which
the bench CLI's ``--jobs`` flag and the figure suite both honour.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import RunArgumentError


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS``.

    Unset or empty means ``1`` (serial); ``0`` means *all cores*
    (``os.cpu_count()``); any positive integer is used as-is.
    """
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"REPRO_JOBS must be >= 0, got {value}")
    return value or (os.cpu_count() or 1)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None`` → env default, ``0`` → all cores."""
    if jobs is None:
        return default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or (os.cpu_count() or 1)


@dataclass(frozen=True)
class PointSpec:
    """One independent simulation point of an experiment grid."""

    #: the runner; a module-level function, so the spec pickles
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: explicit per-point seed; ``None`` keeps the experiment's default
    seed: Optional[int] = None

    def run(self) -> Any:
        kwargs = dict(self.kwargs)
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return self.fn(**kwargs)

    def describe(self) -> str:
        return f"{self.fn.__name__}(kwargs={self.kwargs!r}, seed={self.seed!r})"


class PointFailure(RuntimeError):
    """A grid point raised (or a worker died); carries the failing spec.

    ``spec`` names the exact (runner, kwargs, seed) to replay the
    failure serially; ``worker_traceback`` is the remote traceback text.
    Both are ``None`` when a worker process died without reporting —
    the pool cannot tell which point it held.
    """

    def __init__(self, spec: Optional[PointSpec], message: str,
                 worker_traceback: Optional[str] = None):
        detail = f"point {spec.describe()}: {message}" if spec else message
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.spec = spec
        self.worker_traceback = worker_traceback


def _run_spec(spec: PointSpec) -> Tuple[bool, Any]:
    """Worker side of one future: ``(True, result)``, or ``(False,
    (repr, traceback text))`` — the text survives pickling whatever the
    exception holds, and it is the worker's frames the reader needs."""
    try:
        return True, spec.run()
    except RunArgumentError:
        raise  # the caller's bad argument: re-raised as itself by run_points
    except Exception as exc:
        return False, (repr(exc), traceback.format_exc())


#: the cached warm executor and its size (one at a time)
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The cached executor, rebuilt when the size changes.  Workers are
    forked where the platform allows — they then inherit the
    already-imported simulator for free — and stay warm across sweeps."""
    global _pool, _pool_size
    if _pool is not None and _pool_size != workers:
        _drop_pool()
    if _pool is None:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        _pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(method))
        _pool_size = workers
    return _pool


def _drop_pool() -> None:
    """Forget the cached executor; points not yet started are cancelled
    (after a failure they would only delay the next sweep)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


def run_points(specs: Sequence[PointSpec], jobs: Optional[int] = None) -> List[Any]:
    """Run every spec and return results in input order.

    ``jobs=None`` falls back to :func:`default_jobs` (the ``REPRO_JOBS``
    environment variable); ``jobs=0`` means all cores.  With an
    effective ``jobs=1`` — or a single spec — points run in-process and
    a failure raises the original exception.  Otherwise each point is
    one future on the warm pool (idle workers take the next point as
    they finish, so stragglers don't serialize the tail), and collecting
    in input order keeps the output independent of worker scheduling.  A
    raising point becomes a :class:`PointFailure` naming its spec; a
    worker that dies breaks the executor, which surfaces as a
    ``PointFailure`` ("died") instead of a hang.  A
    :class:`~repro.bench.runner.RunArgumentError` is raised as itself, as
    it is in-process.  Either way the pool is dropped and the next sweep
    gets a fresh one.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [spec.run() for spec in specs]
    # The pool is sized by the jobs request (not the grid) so repeated
    # sweeps of different sizes reuse the same warm workers.
    pool = _get_pool(jobs)
    results = []
    try:
        # Submitting is inside the try: a worker that dies before every
        # point is submitted breaks the pool at ``submit`` already.
        futures = [pool.submit(_run_spec, spec) for spec in specs]
        for spec, future in zip(specs, futures):
            ok, payload = future.result()
            if not ok:
                _drop_pool()
                message, worker_traceback = payload
                raise PointFailure(spec, message, worker_traceback)
            results.append(payload)
    except RunArgumentError:
        _drop_pool()
        raise
    except BrokenProcessPool as exc:
        _drop_pool()
        raise PointFailure(
            None,
            f"a worker process died with {len(specs) - len(results)} "
            f"point(s) outstanding ({exc})",
        ) from exc
    return results
