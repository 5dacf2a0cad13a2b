"""Full-pipeline integration tests: NCLite file on disk -> coordinate
splits with DFS locality -> SIDR plan -> threaded engine -> contiguous
output files -> reassembled output verified against the oracle.

This is the complete production path a downstream user follows; the
quickstart example mirrors it.
"""

import numpy as np
import pytest

from repro.dfs.filesystem import SimulatedDFS
from repro.mapreduce.engine import LocalEngine
from repro.query.language import StructuralQuery
from repro.query.operators import MeanOp, MedianOp
from repro.query.splits import attach_locality, slice_splits
from repro.scidata.dataset import open_dataset
from repro.scidata.generators import temperature_dataset
from repro.scidata.sparse import ContiguousWriter, read_contiguous_output
from repro.sidr.early_results import EarlyResultTracker
from repro.sidr.planner import build_sidr_job


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    field = temperature_dataset(days=29, lat=10, lon=6, seed=21)
    path = root / "temperature.nc"
    field.write(path).close()
    return root, path, field


class TestFileBackedQuery:
    def test_weekly_mean_from_disk(self, workspace):
        root, path, field = workspace
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=MeanOp(),
        )
        with open_dataset(path) as ds:
            plan = q.compile(ds.metadata)
        splits = slice_splits(plan, num_splits=6)

        # Locality against a simulated DFS holding the same bytes.
        dfs = SimulatedDFS(num_hosts=6, block_size=4096, seed=4)
        dfs.add_file(str(path), path.stat().st_size)
        splits = attach_locality(splits, dfs, str(path), plan.input_space)
        assert all(sp.preferred_hosts for sp in splits)

        job, barrier, splan = build_sidr_job(plan, splits, 4, str(path))
        res = LocalEngine().run_threaded(job, barrier)

        oracle = plan.reference_output(
            field.arrays["temperature"].astype(np.float64)
        )
        got = dict(res.all_records())
        for k, want in oracle.items():
            assert got[k] == pytest.approx(want, rel=1e-6)

    def test_contiguous_output_files_reassemble(self, workspace):
        root, path, field = workspace
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=MeanOp(),
        )
        with open_dataset(path) as ds:
            plan = q.compile(ds.metadata)
        splits = slice_splits(plan, num_splits=6)
        job, barrier, splan = build_sidr_job(plan, splits, 4, str(path))
        res = LocalEngine().run_serial(job, barrier)

        # Each reduce task writes its contiguous keyblock as the paper's
        # §4.4 dense output, then the parts reassemble exactly.
        space = plan.intermediate_space
        writer = ContiguousWriter(space)
        assembled = np.full(space, np.nan)
        for l, records in res.outputs.items():
            values = {k: v for k, v in records}
            for region in splan.output_region(l):
                block = np.empty(region.shape)
                for c in region.iter_coords():
                    rel = tuple(a - b for a, b in zip(c, region.corner))
                    block[rel] = values[c]
                part = root / f"out-{l}-{region.corner}.nc"
                writer.write(part, region, block)
                rb, rv = read_contiguous_output(part)
                assembled[rb.as_slices()] = rv
        assert not np.isnan(assembled).any()
        oracle = plan.reference_output(
            field.arrays["temperature"].astype(np.float64)
        )
        for k, want in oracle.items():
            assert assembled[k] == pytest.approx(want, rel=1e-6)


class TestEarlyResultsIntegration:
    def test_tracker_follows_engine_trace(self, workspace):
        """Replay the engine's map-completion order through the early
        result tracker: every keyblock must become ready exactly when the
        engine's own barrier released it."""
        root, path, field = workspace
        q = StructuralQuery(
            variable="temperature",
            extraction_shape=(7, 5, 1),
            operator=MedianOp(),
        )
        with open_dataset(path) as ds:
            plan = q.compile(ds.metadata)
        splits = slice_splits(plan, num_splits=8)
        job, barrier, splan = build_sidr_job(plan, splits, 4, str(path))
        res = LocalEngine().run_serial(job, barrier)

        tracker = EarlyResultTracker(splan.deps, splan.partition)
        trace = res.trace.events
        ready_at_seq: dict[int, int] = {}
        for ev in trace:
            if ev.kind == "map" and ev.event == "finish":
                for block in tracker.on_map_complete(ev.index):
                    ready_at_seq[block] = ev.seq
        assert set(ready_at_seq) == {0, 1, 2, 3}
        for ev in trace:
            if ev.kind == "reduce" and ev.event == "start":
                assert ready_at_seq[ev.index] < ev.seq
