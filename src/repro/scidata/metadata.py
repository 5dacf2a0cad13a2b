"""Structural metadata for NCLite files.

Mirrors the NetCDF data model the paper relies on: named dimensions,
variables defined over ordered dimension lists, and free-form attributes.
``DatasetMetadata.to_cdl()`` prints the same notation as the paper's
Figure 1::

    dimensions:
        time = 365;
        lat = 250;
        lon = 200;
    variables:
        int temperature(time, lat, lon);
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays.shape import Shape
from repro.errors import DatasetError, FormatError
from repro.scidata.zonemaps import ZoneMap

#: Supported element types: NCLite name -> numpy dtype.  The subset covers
#: what scientific formats commonly store and what the paper's queries use.
DTYPES: dict[str, np.dtype] = {
    "byte": np.dtype("int8"),
    "short": np.dtype("int16"),
    "int": np.dtype("int32"),
    "long": np.dtype("int64"),
    "float": np.dtype("float32"),
    "double": np.dtype("float64"),
}

_DTYPE_NAMES: dict[np.dtype, str] = {v: k for k, v in DTYPES.items()}


def dtype_name(dtype: np.dtype) -> str:
    """NCLite type name for a numpy dtype."""
    dtype = np.dtype(dtype)
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        raise FormatError(f"unsupported element dtype {dtype!r}") from None


@dataclass(frozen=True)
class Dimension:
    """A named axis with a fixed length (NCLite has no unlimited dims)."""

    name: str
    length: int

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise DatasetError(f"invalid dimension name {self.name!r}")
        if self.length <= 0:
            raise DatasetError(
                f"dimension {self.name!r} must have positive length, "
                f"got {self.length}"
            )


@dataclass(frozen=True)
class Attribute:
    """A (name, value) annotation; values are str, int or float."""

    name: str
    value: str | int | float

    def __post_init__(self) -> None:
        if not self.name:
            raise DatasetError("attribute name must be non-empty")
        if not isinstance(self.value, (str, int, float)):
            raise DatasetError(
                f"attribute {self.name!r} has unsupported value type "
                f"{type(self.value).__name__}"
            )


@dataclass(frozen=True)
class Variable:
    """A dense array variable over an ordered list of dimensions."""

    name: str
    dtype: str
    dimensions: tuple[str, ...]
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise DatasetError(f"invalid variable name {self.name!r}")
        if self.dtype not in DTYPES:
            raise DatasetError(
                f"variable {self.name!r} has unknown dtype {self.dtype!r}; "
                f"known: {sorted(DTYPES)}"
            )
        if not self.dimensions:
            raise DatasetError(f"variable {self.name!r} has no dimensions")
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @property
    def numpy_dtype(self) -> np.dtype:
        return DTYPES[self.dtype]


@dataclass(frozen=True)
class DatasetMetadata:
    """Complete structural metadata of an NCLite dataset."""

    dimensions: tuple[Dimension, ...]
    variables: tuple[Variable, ...]
    attributes: tuple[Attribute, ...] = ()
    #: Optional per-variable zone maps (derived statistics, not
    #: structural identity — excluded from equality so metadata round
    #: trips compare equal whether or not an index was computed).
    zone_maps: tuple[ZoneMap, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dimensions", tuple(self.dimensions))
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "zone_maps", tuple(self.zone_maps))
        var_names = {v.name for v in self.variables}
        for z in self.zone_maps:
            if z.variable not in var_names:
                raise DatasetError(
                    f"zone map for unknown variable {z.variable!r}"
                )
        seen: set[str] = set()
        for d in self.dimensions:
            if d.name in seen:
                raise DatasetError(f"duplicate dimension {d.name!r}")
            seen.add(d.name)
        names: set[str] = set()
        dim_names = {d.name for d in self.dimensions}
        for v in self.variables:
            if v.name in names:
                raise DatasetError(f"duplicate variable {v.name!r}")
            names.add(v.name)
            for dn in v.dimensions:
                if dn not in dim_names:
                    raise DatasetError(
                        f"variable {v.name!r} references unknown dimension "
                        f"{dn!r}"
                    )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise DatasetError(f"unknown dimension {name!r}")

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise DatasetError(f"unknown variable {name!r}")

    def variable_shape(self, name: str) -> Shape:
        """Extents of a variable in dimension order — the K_T space of a
        query over that variable."""
        v = self.variable(name)
        return tuple(self.dimension(dn).length for dn in v.dimensions)

    def variable_cells(self, name: str) -> int:
        n = 1
        for e in self.variable_shape(name):
            n *= e
        return n

    def variable_nbytes(self, name: str) -> int:
        return self.variable_cells(name) * self.variable(name).numpy_dtype.itemsize

    def zone_map(self, name: str) -> ZoneMap | None:
        """Zone map for a variable, or None when none was recorded
        (pre-index files): callers must degrade to no pruning."""
        for z in self.zone_maps:
            if z.variable == name:
                return z
        return None

    def with_zone_maps(self, zone_maps: tuple[ZoneMap, ...]) -> "DatasetMetadata":
        return DatasetMetadata(
            dimensions=self.dimensions,
            variables=self.variables,
            attributes=self.attributes,
            zone_maps=tuple(zone_maps),
        )

    # ------------------------------------------------------------------ #
    # CDL rendering (paper Figure 1 style)
    # ------------------------------------------------------------------ #
    def to_cdl(self, name: str = "dataset") -> str:
        lines = [f"netcdf {name} {{", "dimensions:"]
        for d in self.dimensions:
            lines.append(f"\t{d.name} = {d.length};")
        lines.append("variables:")
        for v in self.variables:
            dims = ", ".join(v.dimensions)
            lines.append(f"\t{v.dtype} {v.name}({dims});")
            for a in v.attributes:
                val = f'"{a.value}"' if isinstance(a.value, str) else a.value
                lines.append(f"\t\t{v.name}:{a.name} = {val};")
        if self.attributes:
            lines.append("// global attributes:")
            for a in self.attributes:
                val = f'"{a.value}"' if isinstance(a.value, str) else a.value
                lines.append(f"\t:{a.name} = {val};")
        lines.append("}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Plain-dict round trip for the binary header
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        doc = {
            "dimensions": [[d.name, d.length] for d in self.dimensions],
            "variables": [
                {
                    "name": v.name,
                    "dtype": v.dtype,
                    "dimensions": list(v.dimensions),
                    "attributes": [[a.name, a.value] for a in v.attributes],
                }
                for v in self.variables
            ],
            "attributes": [[a.name, a.value] for a in self.attributes],
        }
        # Emitted only when present so un-indexed files keep their exact
        # pre-zone-map header bytes.
        if self.zone_maps:
            doc["zone_maps"] = [z.to_dict() for z in self.zone_maps]
        return doc

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetMetadata":
        try:
            dims = tuple(Dimension(n, l) for n, l in d["dimensions"])
            variables = tuple(
                Variable(
                    name=v["name"],
                    dtype=v["dtype"],
                    dimensions=tuple(v["dimensions"]),
                    attributes=tuple(Attribute(n, val) for n, val in v["attributes"]),
                )
                for v in d["variables"]
            )
            attrs = tuple(Attribute(n, val) for n, val in d["attributes"])
            zones = tuple(
                ZoneMap.from_dict(z) for z in d.get("zone_maps", ())
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed metadata dictionary: {exc}") from exc
        return cls(
            dimensions=dims, variables=variables, attributes=attrs,
            zone_maps=zones,
        )


def simple_metadata(
    var_name: str,
    dim_sizes: Shape,
    dtype: str = "double",
) -> DatasetMetadata:
    """Single-variable metadata with auto-named dimensions (``dim0``...)."""
    dim_names = tuple(f"dim{i}" for i in range(len(dim_sizes)))
    dims = tuple(Dimension(n, s) for n, s in zip(dim_names, dim_sizes))
    return DatasetMetadata(
        dimensions=dims,
        variables=(Variable(var_name, dtype, dim_names),),
    )
