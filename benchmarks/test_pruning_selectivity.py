"""Zone-map pruning benchmark: split skipping across a selectivity sweep.

The workload is spatially clustered — every cell above the filter_gt
threshold lives in a contiguous prefix of the time axis, the way hot
regions cluster in real geodata.  As selectivity drops, zone maps prove
more and more splits irrelevant, and the engine should skip them
entirely: at <=0.1% selectivity the ISSUE acceptance floor is a >=5x
end-to-end speedup with output byte-identical to the unpruned run on
both data planes.  This file is the sweep's one measurement: the
pruned-split counts, monotonicity, byte-identity and the floor are
asserted here and the table lands in ``results/pruning_selectivity.txt``.
"""

import time

import numpy as np
import pytest

from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import ThresholdFilterOp
from repro.query.splits import slice_splits
from repro.scidata.metadata import DatasetMetadata, Dimension, Variable
from repro.scidata.zonemaps import build_zone_map
from repro.sidr.planner import build_sidr_job

SHAPE = (250, 40, 40)          # 400k cells
EXTRACTION = (5, 40, 40)       # 50 instances == 50 splits
NUM_SPLITS = 50
REDUCES = 8
THRESHOLD = 500.0
HOT = 1000.0
SELECTIVITIES = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


@pytest.fixture(scope="module")
def plan():
    meta = DatasetMetadata(
        dimensions=(
            Dimension("t", SHAPE[0]),
            Dimension("y", SHAPE[1]),
            Dimension("x", SHAPE[2]),
        ),
        variables=(Variable("v", "double", ("t", "y", "x")),),
    )
    return StructuralQuery(
        variable="v",
        extraction_shape=EXTRACTION,
        operator=ThresholdFilterOp(THRESHOLD),
    ).compile(meta)


def clustered_data(selectivity):
    """Background noise in [0, 1) with ``selectivity`` of the cells set
    hot, packed contiguously from the start of the array."""
    rng = np.random.default_rng(11)
    data = rng.uniform(0.0, 1.0, SHAPE)
    hot = max(1, round(selectivity * data.size))
    data.reshape(-1)[:hot] = HOT
    return data


def timed_run(plan, data, plane, prune, runs=3):
    zone_map = (
        build_zone_map("v", data, tile_shape=EXTRACTION) if prune else None
    )
    job, barrier, sidr = build_sidr_job(
        plan,
        slice_splits(plan, num_splits=NUM_SPLITS),
        REDUCES,
        data,
        data_plane=plane,
        prune=prune,
        zone_map=zone_map,
    )
    engine = LocalEngine(observability=False)
    res = engine.run_serial(job, barrier)  # warmup + output capture
    t = float("inf")
    for _ in range(runs):
        s = time.perf_counter()
        res = engine.run_serial(job, barrier)
        t = min(t, time.perf_counter() - s)
    pruned = sidr.pruning.num_pruned if sidr.pruning is not None else 0
    return t, res, pruned


def test_sweep_byte_identical_both_planes(plan, record_report):
    """Across the full selectivity sweep, pruning never changes a bit
    of output on either data plane — and prunes monotonically more
    splits as selectivity drops."""
    rows = []
    pruned_by_sel = []
    for sel in SELECTIVITIES:
        data = clustered_data(sel)
        for plane in ("record", "columnar"):
            t_full, full, _ = timed_run(plan, data, plane, False, runs=1)
            t_pruned, pruned, n = timed_run(plan, data, plane, True, runs=1)
            assert full.all_records() == pruned.all_records(), (sel, plane)
            rows.append(
                f"  {sel:>8.5%}  {plane:<8}  pruned {n:>2}/{NUM_SPLITS}  "
                f"full {t_full * 1e3:7.1f} ms  pruned {t_pruned * 1e3:7.1f} ms"
            )
            if plane == "record":
                pruned_by_sel.append(n)
    # lower selectivity => at least as many splits pruned
    assert pruned_by_sel == sorted(pruned_by_sel, reverse=True)
    assert pruned_by_sel[0] == NUM_SPLITS - 1  # keep-one at the bottom
    assert pruned_by_sel[-1] == 0              # 100% selectivity: no-op
    record_report(
        "pruning_selectivity",
        "zone-map pruning sweep (byte-identical everywhere):\n"
        + "\n".join(rows),
    )


@pytest.mark.parametrize("selectivity", [1e-5, 1e-3])
@pytest.mark.parametrize("plane", ["record", "columnar"])
def test_speedup_floor_at_low_selectivity(plan, plane, selectivity):
    """ISSUE acceptance: >=5x at <=0.1% selectivity, byte-identical."""
    data = clustered_data(selectivity)
    t_full, full, _ = timed_run(plan, data, plane, False, runs=5)
    t_pruned, pruned, n = timed_run(plan, data, plane, True, runs=5)
    assert full.all_records() == pruned.all_records()
    assert n == NUM_SPLITS - 1
    speedup = t_full / t_pruned
    assert speedup >= 5.0, (
        f"{plane} @ {selectivity:.3%}: {speedup:.1f}x < 5x "
        f"(full {t_full:.4f}s, pruned {t_pruned:.4f}s)"
    )


def test_pruning_counters(plan):
    """The skipped work is visible: split/key counters on both planes,
    plus the residual-pushdown mask counter on the columnar plane."""
    data = clustered_data(1e-3)
    _, res, _ = timed_run(plan, data, "columnar", True, runs=1)
    assert res.counters.get("plan.splits.pruned") == NUM_SPLITS - 1
    assert res.counters.get("plan.keys.synthesized") == NUM_SPLITS - 1
    assert res.counters.get("pushdown.rows.masked") > 0
    _, res, _ = timed_run(plan, data, "record", True, runs=1)
    assert res.counters.get("plan.splits.pruned") == NUM_SPLITS - 1
