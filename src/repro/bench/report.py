"""ASCII rendering of bench results.

The harness prints the same rows/series the paper reports so a reader
can hold the output next to the figures.  No plotting dependencies —
curves render as sampled step tables.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.sidr.early_results import CompletionCurve


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v: object) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    if isinstance(v, int):
        return f"{v:,}"
    return str(v)


def format_series(
    curves: Mapping[str, CompletionCurve],
    *,
    title: str,
) -> str:
    """Several curves side by side on a shared time axis — the textual
    form of the paper's completion-over-time figures."""
    t_max = max((c.times[-1] for c in curves.values() if c.times), default=0.0)
    ts = np.linspace(0, t_max, 10)
    headers = ["time(s)"] + list(curves)
    rows = []
    for t in ts:
        rows.append(
            [f"{t:.0f}"]
            + [f"{c.fraction_at(float(t)):.1%}" for c in curves.values()]
        )
    return format_table(headers, rows, title=title)
