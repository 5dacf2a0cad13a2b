"""Hypothesis-driven end-to-end equivalence over the whole stack.

For randomly drawn dataset shapes, extraction shapes (dense or strided),
operators, split counts and reducer counts, the full SIDR
pipeline — partition+, dependency analysis, dependency-barrier engine
execution with count-annotation validation — must produce exactly the
serial oracle's output.  This single property exercises every layer at
once and is the strongest correctness statement the reproduction makes:
*no* combination of query geometry and parallelism may change an answer
or start a reduce early.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.mapreduce.engine import GlobalBarrier, LocalEngine
from repro.mapreduce.partitioner import HashPartitioner
from repro.query.language import StructuralQuery
from repro.query.operators import (
    CountOp,
    MaxOp,
    MeanOp,
    MedianOp,
    MinOp,
    StdDevOp,
    SumOp,
    ThresholdFilterOp,
)
from repro.query.splits import slice_splits
from repro.scidata.metadata import simple_metadata
from repro.sidr.planner import build_sidr_job

OPERATORS = [
    SumOp(),
    CountOp(),
    MeanOp(),
    MinOp(),
    MaxOp(),
    StdDevOp(),
    MedianOp(),
    ThresholdFilterOp(0.0),
]


@st.composite
def random_query_case(draw):
    rank = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(2, 10)) for _ in range(rank))
    extraction = tuple(
        draw(st.integers(1, max(1, dims[d]))) for d in range(rank)
    )
    strided = draw(st.booleans())
    stride = None
    if strided:
        stride = tuple(
            e + draw(st.integers(0, 2)) for e in extraction
        )
    op = draw(st.sampled_from(OPERATORS))
    num_splits = draw(st.integers(1, 6))
    num_reduces = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10_000))
    return dims, extraction, stride, op, num_splits, num_reduces, seed


@given(case=random_query_case())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_query_full_equivalence(case):
    dims, extraction, stride, op, num_splits, num_reduces, seed = case
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, size=dims)
    meta = simple_metadata("v", dims, dtype="double")
    q = StructuralQuery(
        variable="v",
        extraction_shape=extraction,
        operator=op,
        stride=stride,
    )
    from repro.errors import QueryError

    try:
        plan = q.compile(meta)
    except QueryError:
        return  # geometry invalid for this dataset: correctly rejected
    oracle = plan.reference_output(data)

    splits = slice_splits(plan, num_splits=num_splits)
    try:
        job, barrier, sidr = build_sidr_job(
            plan, splits, num_reduces, source=data
        )
    except PartitionError:
        # More reducers than unit-shape instances: correctly rejected.
        return
    res = LocalEngine().run_serial(job, barrier)
    got = dict(res.all_records())
    assert set(got) == set(oracle)
    for k, want in oracle.items():
        if isinstance(want, list):
            assert got[k] == pytest.approx(want)
        else:
            assert got[k] == pytest.approx(want, rel=1e-9, abs=1e-9)
    # The count-annotation validator observed every reduce start exactly.
    validator = job.context["reduce_start_validator"]
    assert validator.observed == {
        l: e for l, e in enumerate(validator.expected)
    }


@given(case=random_query_case())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_query_stock_equals_sidr(case):
    """Hash-partitioned global-barrier execution and SIDR execution agree
    on every randomly drawn query (both equal the oracle individually,
    but this checks them against each other without the oracle loop)."""
    dims, extraction, stride, op, num_splits, num_reduces, seed = case
    rng = np.random.default_rng(seed)
    data = rng.normal(0, 1, size=dims)
    meta = simple_metadata("v", dims, dtype="double")
    q = StructuralQuery(
        variable="v",
        extraction_shape=extraction,
        operator=op,
        stride=stride,
    )
    from repro.errors import QueryError
    from repro.mapreduce.job import JobConf
    from repro.mapreduce.mapper import ChunkAggregateMapper
    from repro.mapreduce.reducer import AggregateReducer
    from repro.query.recordreader import make_reader_factory

    try:
        plan = q.compile(meta)
    except QueryError:
        return
    splits = slice_splits(plan, num_splits=num_splits)
    try:
        job, barrier, _ = build_sidr_job(plan, splits, num_reduces, source=data)
    except PartitionError:
        return
    eng = LocalEngine()
    sidr = eng.run_serial(job, barrier)
    stock_job = JobConf(
        name="stock",
        splits=list(splits),
        reader_factory=make_reader_factory(data, plan),
        mapper_factory=lambda: ChunkAggregateMapper(plan.operator),
        reducer_factory=lambda: AggregateReducer(plan.operator),
        partitioner=HashPartitioner(),
        num_reduce_tasks=num_reduces,
    )
    stock = eng.run_serial(stock_job, GlobalBarrier())
    a = dict(sidr.all_records())
    b = dict(stock.all_records())
    assert set(a) == set(b)
    for k in a:
        assert a[k] == pytest.approx(b[k], rel=1e-9, abs=1e-9)
