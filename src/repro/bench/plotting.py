"""Terminal plotting: ASCII charts for benchmark series.

No plotting stack is assumed (the reference environment is offline);
this renderer makes the figure shapes visible directly in bench output.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def line_chart(
    series: Dict[str, Sequence[float]],
    x_labels: Optional[Sequence] = None,
    width: int = 60,
    height: int = 12,
) -> str:
    """A multi-series ASCII scatter chart (one letter per series)."""
    if not series:
        return ""
    names = list(series)
    markers = {}
    for i, name in enumerate(names):
        markers[name] = name[0].upper() if i == 0 else (
            name.lstrip("+")[0].lower() if i % 2 else name.lstrip("+")[0].upper()
        )
    # Ensure marker uniqueness.
    used = set()
    for name in names:
        marker = markers[name]
        while marker in used:
            marker = chr(ord(marker) + 1)
        markers[name] = marker
        used.add(marker)

    longest = max(len(list(v)) for v in series.values())
    top = max((max(v) for v in series.values() if len(list(v))), default=1.0)
    top = top or 1.0
    grid = [[" "] * width for _ in range(height)]
    for name in names:
        values = list(series[name])
        for i, value in enumerate(values):
            x = int(i / max(longest - 1, 1) * (width - 1))
            y = height - 1 - int(min(value / top, 1.0) * (height - 1))
            grid[y][x] = markers[name]
    lines = [f"{top:>10.1f} ┤" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{0.0:>10.1f} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "└" + "─" * width)
    legend = "   ".join(f"{markers[n]}={n}" for n in names)
    lines.append(" " * 12 + legend)
    if x_labels is not None:
        labels = list(x_labels)
        lines.append(" " * 12 + f"x: {labels[0]} .. {labels[-1]}")
    return "\n".join(lines)
