"""Immutable integer coordinate/shape helpers.

A coordinate (``Coord``) and a shape (``Shape``) are both plain tuples of
Python ints.  Using tuples (rather than a class wrapper or numpy arrays)
keeps the hot paths — key translation in record readers and partitioners —
allocation-light and hashable, which the engine relies on for dict-keyed
intermediate data.  Bulk translation of many keys at once is done with
numpy in :mod:`repro.arrays.extraction`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import GeometryError, RankMismatchError

#: A point in an n-dimensional integer grid.
Coord = tuple[int, ...]

#: Extents of an n-dimensional box; every component must be positive for a
#: non-degenerate shape (zero extents denote an empty region).
Shape = tuple[int, ...]


def as_coord(values: Iterable[int]) -> Coord:
    """Normalize an iterable of integers into a ``Coord`` tuple.

    Raises :class:`GeometryError` if any component is not an integer.
    Floats with integral values are *not* accepted: silently truncating
    coordinates is how off-by-one routing bugs are born.
    """
    if type(values) is tuple and set(map(type, values)) <= {int}:
        return values  # a Coord already: nothing to walk or convert
    out = []
    for v in values:
        # bool is an int subclass but a coordinate of True is a bug upstream.
        if isinstance(v, bool) or not isinstance(v, (int,)):
            try:
                import numpy as _np

                if isinstance(v, _np.integer):
                    out.append(int(v))
                    continue
            except ImportError:  # pragma: no cover - numpy is a hard dep
                pass
            raise GeometryError(f"coordinate component {v!r} is not an integer")
        out.append(int(v))
    return tuple(out)


def _check_rank(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise RankMismatchError(f"rank mismatch: {len(a)} vs {len(b)} ({a!r} vs {b!r})")


def coord_add(a: Coord, b: Coord) -> Coord:
    """Element-wise sum."""
    _check_rank(a, b)
    return tuple(x + y for x, y in zip(a, b))


def coord_sub(a: Coord, b: Coord) -> Coord:
    """Element-wise difference."""
    _check_rank(a, b)
    return tuple(x - y for x, y in zip(a, b))


def coord_mul(a: Coord, b: Coord) -> Coord:
    """Element-wise product."""
    _check_rank(a, b)
    return tuple(x * y for x, y in zip(a, b))


def coord_floordiv(a: Coord, b: Coord) -> Coord:
    """Element-wise floor division — the paper's K -> K' key translation
    primitive ("dividing each coordinate in the given key by the
    corresponding coordinate in the extraction shape", §3 Area 2)."""
    _check_rank(a, b)
    if any(y == 0 for y in b):
        raise GeometryError(f"division by zero extent in {b!r}")
    return tuple(x // y for x, y in zip(a, b))


# Alias used where the intent is the mathematical division of coordinates.
coord_div = coord_floordiv


def coord_mod(a: Coord, b: Coord) -> Coord:
    """Element-wise modulo."""
    _check_rank(a, b)
    if any(y == 0 for y in b):
        raise GeometryError(f"modulo by zero extent in {b!r}")
    return tuple(x % y for x, y in zip(a, b))


def coord_min(a: Coord, b: Coord) -> Coord:
    """Element-wise minimum."""
    _check_rank(a, b)
    return tuple(min(x, y) for x, y in zip(a, b))


def coord_max(a: Coord, b: Coord) -> Coord:
    """Element-wise maximum."""
    _check_rank(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise GeometryError(f"ceil_div divisor must be positive, got {b}")
    return -(-a // b)


def volume(shape: Shape) -> int:
    """Number of grid cells in ``shape`` (product of extents; 1 for rank 0).

    A shape with any zero extent has volume 0 (an empty region).  Negative
    extents are rejected because they always indicate corrupted geometry.
    """
    v = 1
    for s in shape:
        if s < 0:
            raise GeometryError(f"negative extent in shape {shape!r}")
        v *= s
    return v
