"""SciHadoop layer: structural queries over scientific datasets.

Implements the three SciHadoop capabilities the paper builds on (§2.4):

1. coordinate-defined input splits (:mod:`repro.query.splits`) — a split
   *is* the key set it produces, closing opaque Area 1;
2. metadata-informed split generation (locality-aware slicing of the
   input space);
3. the array query language with an **extraction shape**
   (:mod:`repro.query.language`, :mod:`repro.query.operators`) that
   describes the unit of data the operator applies to, closing Areas 2
   and 3 via :mod:`repro.arrays.extraction`.

:mod:`repro.query.recordreader` provides the scientific record readers
that emit per-instance chunks (the efficient path) or per-cell records
(the reference path used by tests).  An operator is one table row in
:mod:`repro.query.operators`; :mod:`repro.query.reference` is the oracle's.
"""

from repro.query.operators import (
    Chunk,
    CountOp,
    MaxOp,
    MeanOp,
    MedianOp,
    MinOp,
    Partial,
    StdDevOp,
    StructuralOperator,
    SumOp,
    ThresholdFilterOp,
    get_operator,
)
from repro.query.language import QueryPlan, StructuralQuery
from repro.query.splits import (
    CoordinateSplit,
    aligned_slice_splits,
    attach_locality,
    slice_splits,
)
from repro.query.recordreader import (
    CellRecordReader,
    StructuralRecordReader,
    make_reader_factory,
)
from repro.query.columnar import (
    ColumnarRecordReader,
    batch_operator_for,
    make_columnar_reader_factory,
)
from repro.query.byterange import (
    ByteOrientedRecordReader,
    ByteReadStats,
    byte_splits_for_variable,
    measure_amplification,
)

__all__ = [
    "Chunk",
    "CountOp",
    "MaxOp",
    "MeanOp",
    "MedianOp",
    "MinOp",
    "Partial",
    "StdDevOp",
    "StructuralOperator",
    "SumOp",
    "ThresholdFilterOp",
    "get_operator",
    "QueryPlan",
    "StructuralQuery",
    "CoordinateSplit",
    "aligned_slice_splits",
    "attach_locality",
    "slice_splits",
    "CellRecordReader",
    "StructuralRecordReader",
    "make_reader_factory",
    "ColumnarRecordReader",
    "batch_operator_for",
    "make_columnar_reader_factory",
    "ByteOrientedRecordReader",
    "ByteReadStats",
    "byte_splits_for_variable",
    "measure_amplification",
]
