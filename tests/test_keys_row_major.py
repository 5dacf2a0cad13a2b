"""Keys are row-major indices of K'_T (PAPER.md §1, §3).

partition+ cuts K'_T into contiguous row-major keyblocks, so keyblock
l's output keys are exactly the cells ``cell_range`` gives it, in
row-major order, and the oracle's keys are the whole grid of K'_T.  The
ordered reduce (``run_columnar_reduce``) relies on this: a keyblock's
fetch is its output order.  Checked on generated cases (the verify
fuzzer's stream, faults left out), on a prunable-operator stream whose
pruned keyblocks synthesize keys, and on ``keep_partial_instances``
plans, whose K'_T counts a partial instance at each upper edge.

The same contract one step earlier: every reader batch's keys and every
columnar spill's keys are increasing, disjoint ``[start, stop)`` runs of
K'_T — a spill's after its map combined the keys that repeat.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.shuffle import ShuffleStore
from repro.query.language import StructuralQuery
from repro.query.operators import PRUNABLE_OPERATORS, get_operator
from repro.query.splits import aligned_slice_splits, slice_splits
from repro.scidata.metadata import simple_metadata
from repro.scidata.zonemaps import build_zone_map
from repro.sidr.planner import build_plan, build_sidr_job
from repro.verify.cases import generate_case
from repro.verify.oracle import oracle_records

#: Generated cases per stream.
CASES = 200


def row_major(space, start, stop):
    """``(n, rank)`` int64: cells ``[start, stop)`` of ``space``, row-major."""
    cells = np.unravel_index(np.arange(start, stop, dtype=np.int64), space)
    return np.stack(cells, axis=1).reshape(-1, len(space))


def check_keyblocks(qplan, splits, reduces, data, *, prune=False, tile=None):
    """Run the job serially; every keyblock's output keys must be its
    ``cell_range`` of K'_T.  Returns whether the plan pruned."""
    zone_map = build_zone_map("v", data, tile_shape=tile) if prune else None
    job, barrier, plan = build_sidr_job(
        qplan, splits, reduces, data, prune=prune, zone_map=zone_map,
    )
    res = LocalEngine(observability=False).run(job, barrier, mode="serial")
    space = plan.partition.space
    assert tuple(space) == tuple(qplan.intermediate_space)
    for block in plan.partition.blocks:
        got = res.outputs[block.index].key_rows
        assert np.array_equal(got, row_major(space, *block.cell_range)), block
    return plan.pruning is not None


def check_oracle(qplan, data):
    keys = [key for key, _ in oracle_records(qplan, data)]
    assert keys == list(np.ndindex(*qplan.intermediate_space))


@pytest.mark.parametrize("seed", [5, 11])
def test_the_oracles_keys_are_the_grid_of_k_prime(seed):
    for i in range(CASES):
        case = generate_case(i, seed)
        check_oracle(*case.build())


@pytest.mark.parametrize("operators", [None, tuple(PRUNABLE_OPERATORS)],
                         ids=["any", "prunable"])
def test_each_keyblock_is_its_row_major_cell_range(operators):
    pruned = 0
    for i in range(CASES):
        case = generate_case(i, 5, operators=operators)
        qplan, data = case.build()
        prune = operators is not None
        pruned += check_keyblocks(
            qplan, case.splits(qplan), case.reduces, data,
            prune=prune, tile=case.tile,
        )
    if operators is not None:
        assert pruned  # the stream reaches synthesized keys


#: (variable shape, extraction shape) of the partial-instance plans.
PARTIAL = [((7, 5), (3, 2)), ((9, 7, 4), (4, 3, 3)), ((10, 6), (4, 4))]


@pytest.mark.parametrize("operator", ["mean", "filter_gt", "median"])
@pytest.mark.parametrize("shape,extract", PARTIAL, ids=str)
def test_partial_instances_keep_the_grid(shape, extract, operator):
    rng = np.random.default_rng(sum(shape))
    data = rng.integers(-20, 20, size=shape).astype(np.float64)
    qplan = StructuralQuery(
        variable="v", extraction_shape=extract,
        operator=get_operator(
            operator, threshold=0.0 if operator == "filter_gt" else None
        ),
        keep_partial_instances=True,
    ).compile(simple_metadata("v", shape))
    whole = tuple(s // e for s, e in zip(shape, extract))
    # a partial instance counts on some axis
    assert any(k > w for k, w in zip(qplan.intermediate_space, whole))
    check_oracle(qplan, data)
    splits = aligned_slice_splits(qplan, num_splits=3)
    check_keyblocks(qplan, splits, 2, data)


# --------------------------------------------------------------------- #
# A batch and a spill are runs of K'_T
# --------------------------------------------------------------------- #
def assert_runs(runs, space):
    """``runs`` are non-empty, increasing, disjoint and not touching,
    inside K'_T: their bounds strictly increase in ``[0, volume]``."""
    bounds = runs.reshape(-1)
    assert bounds.size and bounds[0] >= 0 and bounds[-1] <= math.prod(space)
    assert (bounds[1:] > bounds[:-1]).all(), runs


def check_runs(qplan, splits, reduces, data):
    """Every reader batch and every spill of the job's serial run is
    runs of K'_T.  Returns the batches' and the spills' run tables."""
    job, barrier, plan = build_sidr_job(qplan, splits, reduces, data, prune=False)
    space = tuple(plan.partition.space)
    batches = []
    for split in job.splits:
        for item in job.reader_factory(split):
            if item.num_instances:
                batches.append(item.runs)
                assert_runs(batches[-1], space)
    spills = []
    spill = ShuffleStore.spill

    def spy(store, files, **kw):
        spills.extend(f.runs for f in files if f.num_records)
        return spill(store, files, **kw)

    with mock.patch.object(ShuffleStore, "spill", spy):
        LocalEngine(observability=False).run(job, barrier, mode="serial")
    for runs in spills:
        assert_runs(runs, space)
    return batches, spills


def test_fuzzed_batches_and_spills_are_runs():
    sliced = 0
    for i in range(CASES):
        case = generate_case(i, 5)
        qplan, data = case.build()
        check_runs(qplan, case.splits(qplan), case.reduces, data)
        sliced += not case.aligned
    assert sliced  # slice_splits cases, whose maps cut instances


@pytest.mark.parametrize("operator", ["mean", "filter_gt", "median"])
@pytest.mark.parametrize("shape,extract", PARTIAL, ids=str)
@pytest.mark.parametrize("cut", [aligned_slice_splits, slice_splits],
                         ids=["aligned", "sliced"])
def test_partial_instance_batches_and_spills_are_runs(shape, extract, operator, cut):
    rng = np.random.default_rng(sum(shape))
    data = rng.integers(-20, 20, size=shape).astype(np.float64)
    qplan = StructuralQuery(
        variable="v", extraction_shape=extract,
        operator=get_operator(
            operator, threshold=0.0 if operator == "filter_gt" else None
        ),
        keep_partial_instances=True,
    ).compile(simple_metadata("v", shape))
    check_runs(qplan, cut(qplan, num_splits=3), 2, data)


def test_a_served_fine_mean_job_spills_one_run_per_map_and_keyblock():
    """The ``fine_mean`` shape — (364, 40, 40), extract (7, 5, 2), 16
    aligned splits, 8 keyblocks: 8 320 keys in 16 one-run batches and
    19 spills, each one run."""
    shape = (364, 40, 40)
    qplan = StructuralQuery(
        variable="v", extraction_shape=(7, 5, 2), operator=get_operator("mean"),
    ).compile(simple_metadata("v", shape))
    plan = build_plan(qplan, aligned_slice_splits(qplan, num_splits=16), 8)
    batches, spills = check_runs(
        qplan, list(plan.splits), 8, np.zeros(shape)
    )
    assert [len(runs) for runs in batches] == [1] * 16
    assert [len(runs) for runs in spills] == [1] * 19
    assert sum(int(np.diff(runs).sum()) for runs in spills) == 8320
