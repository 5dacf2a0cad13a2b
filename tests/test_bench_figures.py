"""Reduced-scale runs of every figure producer: each must exhibit the
paper's qualitative shape.  (Paper-scale runs live in benchmarks/.)"""

import pytest

from repro.bench.figures import (
    fig09_task_completion,
    fig10_reduce_scaling,
    fig11_filter_query,
    fig12_variance,
    fig13_skew,
)

SCALE = 10  # 1/10th of the paper's time dimension: 278 splits, ~35 GB


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_task_completion(num_reduces=22, scale=SCALE)

    def test_all_systems_present(self, result):
        assert set(result.summaries) == {"H", "SH", "SS"}
        assert "Reduce(SS)" in result.curves

    def test_first_result_ordering(self, result):
        s = result.summaries
        assert s["SS"]["first_result"] < s["SH"]["first_result"]
        assert s["SH"]["first_result"] < s["H"]["first_result"]

    def test_hadoop_much_slower(self, result):
        s = result.summaries
        assert s["H"]["makespan"] > 1.6 * s["SH"]["makespan"]

    def test_sidr_early_reduces(self, result):
        assert result.summaries["SS"]["early_reduces"] > 0
        assert result.summaries["SH"]["early_reduces"] == 0

    def test_connections(self, result):
        s = result.summaries
        assert s["SS"]["connections"] < s["SH"]["connections"] / 5

    def test_sidr_map_curve_not_slower(self, result):
        """SIDR's narrow copy windows interfere less with map IO."""
        s = result.summaries
        assert s["SS"]["last_map_finish"] <= s["SH"]["last_map_finish"] * 1.02


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_reduce_scaling(
            sidr_reduce_counts=(22, 66, 176), scale=SCALE
        )

    def test_monotone_first_results(self, result):
        s = result.summaries
        firsts = [s[f"SS-{r}"]["first_result"] for r in (22, 66, 176)]
        assert firsts[0] > firsts[1] > firsts[2]
        # Makespan improves from 22 to 66...
        assert s["SS-66"]["makespan"] < s["SS-22"]["makespan"]

    def test_too_many_reducers_detrimental(self, result):
        """§4.1's caveat: "increasing the number of Reduce tasks past a
        certain (query-specific) point is detrimental" — at this reduced
        scale 176 reducers' per-task overhead and copy interference
        already outweigh the overlap gain."""
        s = result.summaries
        assert s["SS-176"]["makespan"] > s["SS-66"]["makespan"]

    def test_sidr_beats_scihadoop_at_scale(self, result):
        assert result.notes["sidr_best_vs_scihadoop"] > 1.02

    def test_reduce_curve_approaches_map_curve(self, result):
        """At high r the reduce completion hugs the map completion."""
        s = result.summaries
        gap_hi = s["SS-176"]["makespan"] - s["SS-176"]["last_map_finish"]
        gap_lo = s["SS-22"]["makespan"] - s["SS-22"]["last_map_finish"]
        assert gap_hi < gap_lo

    def test_early_reduce_fraction_grows(self, result):
        s = result.summaries
        assert (
            s["SS-176"]["early_reduces"] / 176
            > s["SS-22"]["early_reduces"] / 22
        )


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_filter_query(sidr_reduce_counts=(22, 66), scale=SCALE)

    def test_small_improvement_room(self, result):
        """Query 2's reduces carry ~no data: SIDR's total-time gain is
        smaller than for Query 1 (§4.1)."""
        q1 = fig10_reduce_scaling(sidr_reduce_counts=(66,), scale=SCALE)
        gain_q1 = (
            q1.summaries["SH-22"]["makespan"]
            / q1.summaries["SS-66"]["makespan"]
        )
        gain_q2 = (
            result.summaries["SH-22"]["makespan"]
            / result.summaries["SS-66"]["makespan"]
        )
        assert gain_q2 < gain_q1

    def test_fewer_tasks_reach_optimal(self, result):
        """Tiny per-reduce data: even r=22 hugs the map curve (§4.1)."""
        s = result.summaries
        gap = s["SS-22"]["makespan"] - s["SS-22"]["last_map_finish"]
        assert gap < 0.15 * s["SS-22"]["makespan"]

    def test_early_results_still_happen(self, result):
        assert (
            result.summaries["SS-22"]["first_result"]
            < result.summaries["SH-22"]["first_result"]
        )


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_variance(reduce_counts=(22, 88), runs=4, scale=SCALE)

    def test_statistics_present(self, result):
        for r in (22, 88):
            s = result.summaries[f"SS-{r}"]
            assert s["std_makespan"] > 0.0
            assert s["mean_first"] < s["mean_makespan"]

    def test_more_reducers_less_pointwise_variance(self, result):
        """Smaller dependency sets -> less spread (§4.2)."""
        assert result.notes["max_std_88"] <= result.notes["max_std_22"] * 1.5

    def test_mean_curves_monotone(self, result):
        for name, c in result.curves.items():
            assert list(c.fractions) == sorted(c.fractions), name


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_skew(num_reduces=22, scale=SCALE)

    def test_sidr_faster(self, result):
        # Paper reports 42% at full scale; the reduced-scale run must
        # still show a clear win.
        assert result.notes["speedup"] > 1.08

    def test_stock_curve_has_idle_step(self, result):
        """Half the stock reducers finish with no data: the completion
        curve jumps early then stalls."""
        c = result.curves["Reduce(stock,22)"]
        # The idle half commits right after the global barrier; the
        # loaded half takes much longer.
        assert c.fraction_at(c.times[0] * 1.05) >= 0.4
        assert c.times[-1] > 1.2 * c.times[0]
