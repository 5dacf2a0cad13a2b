"""The oracle's arithmetic: each built-in operator as one plain
expression over *all* of an instance's cells.

What both data planes are judged against:
:meth:`repro.query.language.QueryPlan.reference_output` supplies the
geometry, this table the arithmetic.  It imports nothing from ``repro``
on purpose — an error in :mod:`repro.query.operators` cannot also be an
error here.  Conventions: ``sum``, ``min`` and ``max`` reduce in the
cells' own dtype, everything else after widening to float64; sorted
output is stable (ties keep cell order, so ``-0.0`` and ``0.0`` stay as
they came) with NaN last; the median is an element of the data or the
mean of the middle two, NaN if any cell is.
"""

import math
from typing import Any, Callable

import numpy as np


def _f64(cells: np.ndarray) -> np.ndarray:
    return np.asarray(cells).reshape(-1).astype(np.float64)


def _stddev(cells: np.ndarray, t: None) -> float:
    c = _f64(cells)
    n, s, ss = c.size, float(c.sum()), float(np.square(c).sum())
    mean = s / n
    return math.sqrt(max(0.0, ss / n - mean * mean))


def _median(cells: np.ndarray, t: None) -> float:
    run = np.sort(_f64(cells), kind="stable")
    if math.isnan(run[-1]):
        return math.nan
    a, b = float(run[(run.size - 1) // 2]), float(run[run.size // 2])
    return a if run.size % 2 else (a + b) / 2


def _range(cells: np.ndarray, t: None) -> float:
    c = _f64(cells)
    return float(c.max()) - float(c.min())


def _range_exceeds(cells: np.ndarray, t: float) -> dict[str, Any]:
    variation = _range(cells, None)
    return {"exceeds": variation > t, "variation": variation}


def _filter_gt(cells: np.ndarray, t: float) -> list[float]:
    c = _f64(cells)
    return np.sort(c[c > t], kind="stable").tolist()


#: operator name -> ``(cells, threshold) -> value``; ``threshold`` is
#: None for the operators that take none.
REFERENCE: dict[str, Callable[[np.ndarray, float | None], Any]] = {
    "sum": lambda cells, t: float(np.sum(np.asarray(cells).reshape(-1))),
    "count": lambda cells, t: int(np.asarray(cells).size),
    "mean": lambda cells, t: float(_f64(cells).sum()) / np.size(cells),
    "min": lambda cells, t: float(np.min(np.asarray(cells).reshape(-1))),
    "max": lambda cells, t: float(np.max(np.asarray(cells).reshape(-1))),
    "stddev": _stddev,
    "median": _median,
    "range": _range,
    "sort": lambda cells, t: np.sort(_f64(cells), kind="stable").tolist(),
    "filter_gt": _filter_gt,
    "range_exceeds": _range_exceeds,
}
