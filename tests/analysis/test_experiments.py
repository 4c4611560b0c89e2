"""Tests for the experiment harness (scaled-down figure sweeps)."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    SweepAxis,
    optimal_comparison_series,
    solver_grid_series,
    stage1_variant_series,
    stage_breakdown_series,
)
from repro.analysis.metrics import evaluate_matching
from repro.core.two_stage import run_two_stage
from repro.errors import SpectrumMatchingError
from repro.workloads.scenarios import toy_example_market


class TestOptimalComparison:
    def test_buyer_sweep_structure(self):
        rows = optimal_comparison_series(
            SweepAxis.BUYERS, [4, 6], num_channels=3, repetitions=4, seed=1
        )
        assert [row.x for row in rows] == [4.0, 6.0]
        for row in rows:
            assert set(row.series) == {
                "welfare_proposed",
                "welfare_optimal",
                "welfare_ratio",
            }
            assert row.measured_srcc is None
            assert row.series["welfare_ratio"].mean <= 1.0 + 1e-9
            assert (
                row.series["welfare_proposed"].mean
                <= row.series["welfare_optimal"].mean + 1e-9
            )

    def test_similarity_sweep_reports_srcc(self):
        rows = optimal_comparison_series(
            SweepAxis.SIMILARITY,
            [0.0, 1.0],
            num_buyers=6,
            num_channels=3,
            repetitions=4,
            seed=2,
        )
        low, high = rows
        assert low.measured_srcc is not None
        assert high.measured_srcc == pytest.approx(1.0)
        assert low.measured_srcc < high.measured_srcc

    def test_bruteforce_and_bnb_agree(self):
        kwargs = dict(num_channels=3, repetitions=3, seed=3)
        bnb = optimal_comparison_series(SweepAxis.BUYERS, [5], **kwargs)
        bf = optimal_comparison_series(
            SweepAxis.BUYERS, [5], solver="bruteforce", **kwargs
        )
        assert bnb[0].series["welfare_optimal"].mean == pytest.approx(
            bf[0].series["welfare_optimal"].mean
        )

    def test_seed_determinism(self):
        kwargs = dict(num_channels=3, repetitions=3, seed=9)
        a = optimal_comparison_series(SweepAxis.BUYERS, [5], **kwargs)
        b = optimal_comparison_series(SweepAxis.BUYERS, [5], **kwargs)
        assert a[0].series["welfare_proposed"].mean == pytest.approx(
            b[0].series["welfare_proposed"].mean
        )

    def test_missing_fixed_dimension_rejected(self):
        with pytest.raises(SpectrumMatchingError):
            optimal_comparison_series(SweepAxis.BUYERS, [5], repetitions=1)
        with pytest.raises(SpectrumMatchingError):
            optimal_comparison_series(SweepAxis.SELLERS, [3], repetitions=1)
        with pytest.raises(SpectrumMatchingError):
            optimal_comparison_series(
                SweepAxis.SIMILARITY, [0.5], num_buyers=5, repetitions=1
            )


class TestStageBreakdown:
    def test_series_and_monotone_welfare(self):
        rows = stage_breakdown_series(
            SweepAxis.BUYERS, [20, 30], num_channels=4, repetitions=3, seed=4
        )
        for row in rows:
            w1 = row.series["welfare_stage1"].mean
            w2 = row.series["welfare_phase1"].mean
            w3 = row.series["welfare_phase2"].mean
            assert w1 <= w2 + 1e-9 <= w3 + 2e-9
            assert row.series["rounds_stage1"].mean >= 1

    def test_seller_sweep(self):
        rows = stage_breakdown_series(
            SweepAxis.SELLERS, [2, 4], num_buyers=25, repetitions=3, seed=5
        )
        # More sellers -> more welfare (paper Fig. 7(b) trend).
        assert (
            rows[1].series["welfare_phase2"].mean
            > rows[0].series["welfare_phase2"].mean
        )


class TestEvaluateMatching:
    def test_full_report_on_toy_example(self):
        market = toy_example_market()
        result = run_two_stage(market)
        report = evaluate_matching(market, result.matching)
        assert report.social_welfare == pytest.approx(30.0)
        assert report.num_matched == 5
        assert report.matched_fraction == 1.0
        assert report.interference_free
        assert report.individually_rational
        assert report.nash_stable
        assert sum(report.seller_revenue) == pytest.approx(30.0)

    def test_stability_skip_flag(self):
        market = toy_example_market()
        result = run_two_stage(market)
        report = evaluate_matching(market, result.matching, check_stability=False)
        assert report.interference_free  # always computed
        assert not report.nash_stable  # skipped -> conservative False


class TestSolverSelection:
    def test_unknown_solver_fails_actionably(self):
        from repro.errors import SolverError

        with pytest.raises(SolverError, match="unknown solver"):
            optimal_comparison_series(
                SweepAxis.BUYERS, [4], num_channels=3, repetitions=1,
                seed=8, solver="nope",
            )


class TestSolverGrid:
    def test_grid_series_per_solver(self):
        rows = solver_grid_series(
            SweepAxis.BUYERS, [6, 8], ["two_stage", "greedy", "lp_bound"],
            num_channels=3, repetitions=3, seed=10,
        )
        assert [row.x for row in rows] == [6.0, 8.0]
        for row in rows:
            assert set(row.series) == {
                "welfare_two_stage", "welfare_greedy", "welfare_lp_bound",
            }
            # The LP bound dominates any feasible matching's welfare.
            assert (
                row.series["welfare_two_stage"].mean
                <= row.series["welfare_lp_bound"].mean + 1e-9
            )

    def test_grid_accepts_solver_configs(self):
        rows = solver_grid_series(
            SweepAxis.BUYERS, [6], ["college_admission", "random"],
            num_channels=3, repetitions=2, seed=11,
            solver_configs={"college_admission": {"quota": 2}},
        )
        assert set(rows[0].series) == {
            "welfare_college_admission", "welfare_random",
        }

    def test_grid_requires_a_solver(self):
        with pytest.raises(SpectrumMatchingError, match="at least one solver"):
            solver_grid_series(
                SweepAxis.BUYERS, [6], [], num_channels=3, repetitions=1
            )

    def test_grid_matches_direct_two_stage(self):
        from repro.analysis.experiments import _rng_for
        from repro.workloads.scenarios import paper_simulation_market

        rows = solver_grid_series(
            SweepAxis.BUYERS, [6], ["two_stage"],
            num_channels=3, repetitions=1, seed=12,
        )
        rng = _rng_for(SweepAxis.BUYERS, 12, 0, 0)
        market = paper_simulation_market(6, 3, rng)
        direct = run_two_stage(market, record_trace=False)
        assert rows[0].series["welfare_two_stage"].mean == pytest.approx(
            direct.social_welfare
        )


class TestStageOneVariants:
    """The shared-memory variant sweep: correctness and parity."""

    @pytest.fixture(scope="class")
    def market(self):
        import numpy as np

        from repro.workloads.scenarios import paper_simulation_market

        return paper_simulation_market(40, 4, np.random.default_rng([8, 40]))

    def test_row_structure(self, market):
        rows = stage1_variant_series(market)
        assert len(rows) == 4  # 2 algorithms x 2 guard settings
        assert [(r["algorithm"], r["monotone_guard"]) for r in rows] == [
            ("gwmin", True),
            ("gwmin", False),
            ("gwmin2", True),
            ("gwmin2", False),
        ]
        for row in rows:
            assert row["welfare"] > 0.0
            assert row["matched"] <= market.num_buyers

    def test_serial_equals_parallel(self, market):
        serial = stage1_variant_series(market)
        spread = stage1_variant_series(market, jobs=2)
        assert serial == spread

    def test_variant_matches_direct_stage1(self, market):
        from repro.core.deferred_acceptance import deferred_acceptance

        rows = stage1_variant_series(market, algorithms=["gwmin"], guards=[True])
        direct = deferred_acceptance(market, record_trace=False)
        assert rows[0]["welfare"] == direct.matching.social_welfare(
            market.utilities
        )
        assert rows[0]["rounds"] == direct.num_rounds

    def test_needs_at_least_one_variant(self, market):
        with pytest.raises(SpectrumMatchingError):
            stage1_variant_series(market, algorithms=[])
