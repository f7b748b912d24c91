"""Tests for the breakdown-utilization machinery (Section 5.7)."""

import pytest

from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import csd_schedulable
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.sim.breakdown import (
    POLICIES,
    _SCALE_TOLERANCE,
    _search_max_scale,
    breakdown_utilization,
    figure_series,
)
from repro.sim.workload import generate_workload
from repro.timeunits import ms


class TestBreakdownUtilization:
    def test_ideal_edf_reaches_full_utilization(self):
        w = generate_workload(10, seed=1)
        result = breakdown_utilization(w, "edf", ZERO_OVERHEAD)
        assert result.utilization == pytest.approx(1.0, abs=1e-6)

    def test_overheads_lower_edf_breakdown(self):
        w = generate_workload(10, seed=1)
        with_overhead = breakdown_utilization(w, "edf", OverheadModel())
        assert 0.5 < with_overhead.utilization < 1.0

    def test_rm_below_edf_ideal(self):
        w = table2_workload()
        rm = breakdown_utilization(w, "rm", ZERO_OVERHEAD)
        edf = breakdown_utilization(w, "edf", ZERO_OVERHEAD)
        assert rm.utilization < edf.utilization
        # Table 2: the workload itself (U = 0.88) is beyond RM's
        # breakdown point but within EDF's.
        assert rm.utilization < 0.88
        assert edf.utilization >= 0.99

    def test_csd_at_least_rm_ideal(self):
        w = table2_workload()
        rm = breakdown_utilization(w, "rm", ZERO_OVERHEAD)
        csd = breakdown_utilization(w, "csd-2", ZERO_OVERHEAD)
        assert csd.utilization >= rm.utilization - 1e-6

    def test_csd_ideal_matches_edf_ideal(self):
        """With zero overheads CSD-2 can put everything in the DP queue,
        recovering EDF's zero schedulability overhead (Section 5.3)."""
        w = generate_workload(8, seed=3)
        edf = breakdown_utilization(w, "edf", ZERO_OVERHEAD)
        csd = breakdown_utilization(w, "csd-2", ZERO_OVERHEAD)
        assert csd.utilization == pytest.approx(edf.utilization, abs=0.01)

    def test_returned_splits_are_feasible(self):
        w = generate_workload(12, seed=4)
        model = OverheadModel()
        result = breakdown_utilization(w, "csd-3", model)
        assert result.splits is not None
        scaled = w.scaled(result.scale)
        assert csd_schedulable(scaled, result.splits, model)

    def test_scale_and_utilization_consistent(self):
        w = generate_workload(10, seed=5)
        result = breakdown_utilization(w, "rm", OverheadModel())
        assert result.utilization == pytest.approx(
            result.scale * w.utilization, rel=1e-9
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            breakdown_utilization(generate_workload(5, seed=0), "fifo")

    def test_heap_policy_runs(self):
        w = generate_workload(10, seed=6)
        heap = breakdown_utilization(w, "rm-heap", OverheadModel())
        queue = breakdown_utilization(w, "rm", OverheadModel())
        # For small n the queue implementation wins (Table 1).
        assert queue.utilization >= heap.utilization


class TestScaleSearch:
    @pytest.mark.parametrize("threshold", [0.3, 0.9995, 1.0, 2.0])
    def test_probes_stay_below_the_cap(self, threshold):
        """No probe lands within tolerance/2 of ``hi`` (the U' = 1 edge),
        and the answer is still within the tolerance."""
        probes = []

        def feasible(scale):
            probes.append(scale)
            return scale <= threshold

        found = _search_max_scale(feasible, hi=1.0)
        assert max(probes) <= 1.0 - _SCALE_TOLERANCE / 2
        assert min(threshold, 1.0) - _SCALE_TOLERANCE <= found <= threshold


class TestPaperOrderings:
    """The qualitative findings of Figures 3-5 on averaged workloads."""

    @staticmethod
    def averages(n, policies, divisor=1, count=8):
        series = figure_series(
            [n], policies, workloads_per_point=count, seed=11,
            period_divisor=divisor,
        )
        return {p: series.values[p][0] for p in policies}

    def test_figure3_large_n_ordering(self):
        vals = self.averages(40, ("edf", "rm", "csd-3"))
        # CSD beats both EDF and RM at large n (Figure 3).
        assert vals["csd-3"] > vals["edf"]
        assert vals["csd-3"] > vals["rm"]

    def test_figure5_rm_overtakes_edf(self):
        """Short periods: EDF's run-time overhead lets RM win (Fig 5)."""
        vals = self.averages(40, ("edf", "rm", "csd-3"), divisor=3)
        assert vals["rm"] > vals["edf"]
        assert vals["csd-3"] > vals["rm"]

    def test_csd3_improves_on_csd2_at_large_n(self):
        vals = self.averages(40, ("csd-2", "csd-3"), divisor=2)
        assert vals["csd-3"] >= vals["csd-2"] - 0.5


class TestFigureSeries:
    def test_series_structure(self):
        series = figure_series(
            [5, 10], ("edf", "rm"), workloads_per_point=3, seed=0
        )
        assert series.task_counts == [5, 10]
        assert set(series.values) == {"edf", "rm"}
        assert len(series.values["edf"]) == 2
        rows = series.rows()
        assert rows[0][0] == 5
        assert set(rows[0][1]) == {"edf", "rm"}

    def test_progress_callback(self):
        messages = []
        figure_series(
            [5], ("edf",), workloads_per_point=2, seed=0, progress=messages.append
        )
        assert messages and "edf" in messages[0]

    def test_all_policies_accepted(self):
        for policy in POLICIES:
            breakdown_utilization(generate_workload(6, seed=2), policy, ZERO_OVERHEAD)


class TestBestCsdConfiguration:
    """The Section 5.6 exhaustive search over queue counts."""

    def test_returns_best_x(self):
        from repro.sim.breakdown import best_csd_configuration
        from repro.core.overhead import OverheadModel

        w = generate_workload(20, seed=8).with_periods_divided(2)
        x, result = best_csd_configuration(w, OverheadModel(), max_queues=4)
        assert 2 <= x <= 4
        # The winner is at least as good as plain CSD-2.
        csd2 = breakdown_utilization(w, "csd-2", OverheadModel())
        assert result.utilization >= csd2.utilization - 1e-9

    def test_requires_two_queues(self):
        from repro.sim.breakdown import best_csd_configuration

        with pytest.raises(ValueError):
            best_csd_configuration(generate_workload(5, seed=0), max_queues=1)
