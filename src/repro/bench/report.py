"""Plain-text table formatting and machine-readable benchmark output."""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
    floatfmt: str = ".2f",
) -> str:
    """Render rows as an aligned monospace table."""
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format(cell, floatfmt))
            else:
                cells.append(str(cell))
        rendered.append(cells)
    widths = [len(h) for h in headers]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered:
        lines.append("  ".join(cells[i].rjust(widths[i]) for i in range(len(cells))))
    return "\n".join(lines)


def ratio(numerator: float, denominator: float) -> float:
    """Safe speedup ratio (0 when the denominator is 0)."""
    return numerator / denominator if denominator else 0.0


def find_knee(
    offered: Sequence[float],
    achieved: Sequence[float],
    threshold: float = 0.9,
) -> Optional[float]:
    """Locate the knee of a latency-throughput sweep.

    Walking the sweep in offered-load order, the knee is the first
    offered rate at which achieved throughput falls below ``threshold``
    of offered — i.e. where the open-loop queue starts absorbing load
    the service can no longer keep up with.  Returns ``None`` when the
    service tracked every offered rate (the sweep never saturated).
    """
    if len(offered) != len(achieved):
        raise ValueError("offered and achieved must have the same length")
    for rate, got in sorted(zip(offered, achieved)):
        if rate > 0 and got < threshold * rate:
            return rate
    return None


def result_slug(name: str) -> str:
    """Filesystem-safe slug for an experiment name.

    Names with no alphanumeric characters (or empty names) collapse to a
    stable default instead of the empty string — an empty slug produced
    hidden files like ``.txt``/``.json``.
    """
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")[:60]
    return slug or "experiment"


def write_experiment_json(result, target) -> Path:
    """Write an :class:`ExperimentResult` as JSON.

    ``target`` may be a directory (the file becomes ``<slug>.json``) or
    an explicit ``.json`` file path.
    """
    target = Path(target)
    if target.suffix == ".json":
        path = target
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        target.mkdir(parents=True, exist_ok=True)
        path = target / f"{result_slug(result.name)}.json"
    path.write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    return path
