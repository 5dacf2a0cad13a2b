"""A cold plan's cost (docs/PERFORMANCE.md, "Cold plans in closed form").

A plan-cache miss builds its plan on a queue worker thread of the
server process, and every job of a cached plan runs ``configure_job``.
The expected source cells per keyblock behind the §3.2.1 validator are
per-axis products over K'_T, computed once per plan
(:meth:`~repro.query.language.QueryPlan.instance_cells`), so neither
walks keys in Python, and a plan holds no per-key array: a pruned
plan's synthesized keys are row-major runs.  These tests hold the
interpreter calls of both to written budgets, and a cold plan's
pickled bytes to
:data:`MAX_PLAN_BYTES`, on the e2e harness's grids and query shapes
(``benchmarks/e2e/harness.py``) and on a 1.31 M-key mean.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.query.language import StructuralQuery
from repro.query.operators import get_operator
from repro.query.splits import aligned_slice_splits
from repro.scidata.dataset import create_dataset
from repro.service import QueryRequest
from repro.service.service import build_served_plan
from repro.service.sessions import DatasetSession
from repro.sidr.planner import build_plan
from tests.test_columnar_result import _count_calls

#: The ``filter_gt`` > 95 request over ``(7, 5, 2)`` of the first two
#: cases, pruned.
_FILTER = dict(extract=(7, 5, 2), operator="filter_gt", threshold=95)
#: Interpreter calls (``sys.setprofile`` ``call`` + ``c_call``) of one
#: cold ``build_served_plan`` with 16 aligned splits and 8 reduces,
#: about 10 % above what Python 3.11 measured.  The ``filter_gt`` cases:
#: 8 946 on each grid (7 449 since a plan holds no per-key array;
#: 11 331 while ``as_coord`` walked and re-checked every coordinate that
#: was a tuple of ints already, and 3 159 006 and 28 272 606 when every
#: key a pruned split touched was walked).  ``grid_fine``, a mean over
#: the 1 310 400 keys of ``(1, 2, 2)`` on the larger grid: 10 160.
COLD = {
    "ragged_filter": ((364, 40, 40), _FILTER, 9900),
    "grid_filter": ((364, 120, 120), _FILTER, 9900),
    "grid_fine": ((364, 120, 120), dict(extract=(1, 2, 2), operator="mean"), 11200),
}
#: Bytes a cold plan may pickle to: what it costs the cache, and every
#: engine process it is sent to.  Measured: ``grid_fine`` 4 432,
#: ``grid_filter`` 2 907, ``ragged_filter`` 2 898 (13 924, 12 230 and
#: 12 221 while the plan held the dataset's header and its zone maps;
#: ``grid_fine``'s 94 367 025 while it held each split's keys and spill
#: layout, and the pruned ``grid_filter``'s 426 911 while it held one
#: int64 per synthesized key).
MAX_PLAN_BYTES = 8 << 10
#: Calls of a second ``configure_job`` of a cached
#: ``keep_partial_instances`` mean plan on the larger grid: measured 22
#: (9 210 416 when the validator walked K'_T on every call).
CONFIGURE = 27


def _grid(path, shape):
    """The harness's data: integers in [0, 50) with a band of [50, 100)
    through the second quarter of the time axis, so ``filter_gt`` > 95
    prunes every split outside the band."""
    rng = np.random.default_rng(7)
    data = rng.integers(0, 50, size=shape).astype(np.float64)
    lo, hi = shape[0] // 4, shape[0] // 2
    data[lo:hi] = rng.integers(50, 100, size=(hi - lo, *shape[1:]))
    create_dataset(path, var_name="v", data=data).close()
    return DatasetSession("grid", path=str(path))


@pytest.mark.parametrize("case", sorted(COLD))
def test_a_cold_pruned_plan(case, tmp_path):
    shape, fields, budget = COLD[case]
    session = _grid(tmp_path / "grid.nc", shape)
    try:
        req = QueryRequest(
            dataset="grid", variable="v", splits=16, reduces=8, prune=True,
            **fields,
        )
        build_served_plan(req, session)
        calls, plan = _count_calls(lambda: build_served_plan(req, session))
    finally:
        session.close()
    if fields["operator"] == "filter_gt":
        assert plan.pruning is not None and plan.pruning.num_pruned > 0
    assert calls <= budget, calls
    size = len(pickle.dumps(plan))
    assert size <= MAX_PLAN_BYTES, size


def test_a_cached_partial_instance_plans_configure_job(tmp_path):
    session = _grid(tmp_path / "grid.nc", (364, 120, 120))
    try:
        qplan = StructuralQuery(
            variable="v", extraction_shape=(7, 5, 2),
            operator=get_operator("mean"), keep_partial_instances=True,
        ).compile(session.metadata)
        plan = build_plan(
            qplan, aligned_slice_splits(qplan, num_splits=16), 8
        ).with_map_geometry()
        source = session.engine_source()
        plan.configure_job(source)
        calls, (job, _) = _count_calls(lambda: plan.configure_job(source))
    finally:
        session.close()
    assert list(job.context["reduce_start_validator"].expected) == list(
        plan.expected_counts
    )
    assert sum(plan.expected_counts) == 364 * 120 * 120
    assert calls <= CONFIGURE, calls
