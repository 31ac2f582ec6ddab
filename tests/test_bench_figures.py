"""Tests for the per-figure reproduction entry points (small reps)."""

import pytest

from repro.bench.figures import (
    ablation_restore,
    ablation_snapshot_point,
    factorial,
    figure3,
    figure4,
    figure5,
    figure7,
    section5,
)

REPS = 12


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3(repetitions=REPS, seed=3)

    def test_three_functions(self, result):
        assert [r.function for r in result.rows] == [
            "noop", "markdown", "image-resizer"]

    def test_prebake_always_wins(self, result):
        for row in result.rows:
            assert row.prebake.median_ms < row.vanilla.median_ms

    def test_improvements_ordered_like_paper(self, result):
        """NOOP is the worst case, Image Resizer the best (paper §1)."""
        by_name = {r.function: r.improvement_pct for r in result.rows}
        assert by_name["noop"] < by_name["markdown"] < by_name["image-resizer"]

    def test_differences_significant(self, result):
        assert all(row.mwu_p < 0.01 for row in result.rows)

    def test_confidence_intervals_disjoint(self, result):
        """Fig 3: 'neither the confidence intervals ... intersect'."""
        for row in result.rows:
            assert not row.vanilla.ci().overlaps(row.prebake.ci())

    def test_render_contains_table(self, result):
        text = result.render()
        assert "Figure 3" in text
        assert "image-resizer" in text

    def test_runs_at_its_fewest_repetitions(self):
        """Two repetitions are enough for fig3's bootstrap CIs and
        Mann-Whitney test, as for fig5/fig6/table1."""
        result = figure3(repetitions=2, seed=3)
        assert len(result.rows) == 3
        assert "Figure 3" in result.render()


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4(repetitions=REPS, seed=4)

    def test_clone_exec_tiny_fraction(self, result):
        """Paper: CLONE and EXEC contribute a tiny fraction."""
        for cell in result.cells:
            tiny = cell.phases["CLONE"] + cell.phases["EXEC"]
            assert tiny < 0.05 * cell.total_ms

    def test_vanilla_rts_near_70ms_all_functions(self, result):
        """Paper: 'no statistical difference between the RTS phase
        values for all evaluated functions' (~70 ms)."""
        rts = [c.phases["RTS"] for c in result.cells if c.technique == "vanilla"]
        assert all(v == pytest.approx(70.0, rel=0.05) for v in rts)

    def test_prebake_rts_zero(self, result):
        """Paper: 'prebaking brings the RTS down to 0ms'."""
        for cell in result.cells:
            if cell.technique == "prebake":
                assert cell.phases["RTS"] == 0.0

    def test_prebake_dominated_by_appinit(self, result):
        for cell in result.cells:
            if cell.technique == "prebake":
                assert cell.phases["APPINIT"] > 0.9 * cell.total_ms

    def test_vanilla_appinit_ratio_resizer_vs_noop(self, result):
        """Paper: resizer APPINIT ≈ 7.18x NOOP under vanilla."""
        noop = result.cell("noop", "vanilla").phases["APPINIT"]
        resizer = result.cell("image-resizer", "vanilla").phases["APPINIT"]
        assert resizer / noop == pytest.approx(7.18, abs=0.9)

    def test_prebake_appinit_ratio_shrinks(self, result):
        """Paper: that ratio drops to ≈1.43 under prebaking."""
        noop = result.cell("noop", "prebake").phases["APPINIT"]
        resizer = result.cell("image-resizer", "prebake").phases["APPINIT"]
        assert resizer / noop == pytest.approx(1.43, abs=0.3)


class TestFigure5:
    def test_startup_grows_with_size(self):
        result = figure5(repetitions=REPS, seed=5)
        medians = [s.median_ms for s in result.summaries]
        assert medians[0] < medians[1] < medians[2]
        assert medians[2] > 6 * medians[0]


class TestFactorial:
    @pytest.fixture(scope="class")
    def result(self):
        return factorial(repetitions=REPS, seed=6)

    def test_nine_cells(self, result):
        assert len(result.cells) == 9

    def test_treatment_ordering_each_size(self, result):
        for name in ("synthetic-small", "synthetic-medium", "synthetic-big"):
            vanilla = result.summary(name, "vanilla").median_ms
            nowarm = result.summary(name, "nowarmup").median_ms
            warm = result.summary(name, "warmup").median_ms
            assert warm < nowarm < vanilla

    def test_ratio_helper(self, result):
        assert result.ratio_pct("synthetic-small", "warmup") > 300

    def test_renders(self, result):
        assert "Figure 6" in result.render_figure6()
        assert "Table 1" in result.render_table1()
        assert "(219.25;220.32)" in result.render_table1()  # paper column


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7(requests=100, seed=7)

    def test_ecdfs_coincide(self, result):
        """Paper: 'Both ECDFs pretty much coincide'."""
        for row in result.rows:
            assert row.mwu_p > 0.05
            assert row.ks < 0.2

    def test_no_errors(self, result):
        for row in result.rows:
            assert row.vanilla.errors == 0
            assert row.prebake.errors == 0

    def test_service_medians_close(self, result):
        for row in result.rows:
            ratio = row.prebake.median_ms / row.vanilla.median_ms
            assert 0.85 < ratio < 1.15


class TestSection5:
    def test_integration_flow(self):
        result = section5(seed=8)
        assert len(result.rows) == 4
        by_template = {(fn, tpl): cold for fn, tpl, _build, cold in result.rows}
        vanilla_cold = by_template[("markdown", "java8")]
        criu_cold = by_template[("markdown", "java8-criu")]
        warm_cold = by_template[("markdown", "java8-criu-warm")]
        # Both snapshot templates halve the cold start; warm and
        # after-ready are near-identical for markdown (no class set).
        assert criu_cold < 0.7 * vanilla_cold
        assert warm_cold < 0.7 * vanilla_cold

    def test_build_slower_for_criu_templates(self):
        result = section5(seed=9)
        builds = {tpl: b for _fn, tpl, b, _c in result.rows}
        assert builds["java8-criu"] > builds["java8"]


class TestAblations:
    @pytest.mark.slow
    def test_restore_ablation_ordering(self):
        result = ablation_restore(repetitions=8, seed=10)
        rows = {(f, v): m for f, v, m in result.rows}
        # In-memory restore beats disk; lazy start beats eager start.
        assert rows[("synthetic-big", "eager-inmem")] < rows[("synthetic-big", "eager-disk")]
        assert rows[("synthetic-big", "lazy-disk")] < rows[("synthetic-big", "eager-disk")]

    def test_snapshot_point_ablation_ordering(self):
        result = ablation_snapshot_point(repetitions=8, seed=11)
        rows = {(f, v): m for f, v, m in result.rows}
        # Later snapshot points start faster. Markdown has no lazy
        # class set, so warm ≈ ready there; the warm benefit shows on
        # the synthetic function.
        assert rows[("markdown", "after-ready")] < \
            rows[("markdown", "after-runtime-boot")]
        assert (rows[("synthetic-medium", "after-warmup-1")]
                < rows[("synthetic-medium", "after-ready")]
                < rows[("synthetic-medium", "after-runtime-boot")])

    def test_extra_warmup_requests_no_worse(self):
        result = ablation_snapshot_point(repetitions=8, seed=12)
        rows = {(f, v): m for f, v, m in result.rows}
        assert rows[("synthetic-medium", "after-warmup-5")] <= \
            rows[("synthetic-medium", "after-warmup-1")] * 1.1
