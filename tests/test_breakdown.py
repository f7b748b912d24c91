"""Tests for the breakdown-utilization machinery (Section 5.7)."""

import pytest

from repro.core.allocation import balanced_splits
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import (
    BLOCKING_FACTOR,
    AnalysisState,
    _demand_feasible,
    _fp_response_times,
    band_sizes_from_splits,
    csd_overhead_per_period,
    csd_schedulable,
    edf_overhead_per_period,
    edf_schedulable,
    heap_overhead_per_period,
    rm_overhead_per_period,
    rm_response_times,
    rm_schedulable,
)
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.sim.breakdown import (
    POLICIES,
    _SCALE_TOLERANCE,
    _dp_bands,
    _search_max_scale,
    breakdown_utilization,
    figure_series,
)
from repro.sim.workload import generate_base_workloads, generate_workload
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


# ----------------------------------------------------------------------
# The cold search, kept as the oracle of the warm-started one
# ----------------------------------------------------------------------

def _overhead_utilization(workload, overheads):
    return sum(o / t.period for o, t in zip(overheads, workload))


def cold_breakdown(workload, policy, model, blocking_factor=BLOCKING_FACTOR):
    """``breakdown_utilization`` as it was before analysis states: every
    probe is a cold test of ``workload.scaled(scale)``, and each
    allocation's cap is recomputed from its overheads.  Returns
    ``(utilization, scale, splits)``."""
    n = len(workload)
    base = workload.utilization
    if base <= 0:
        return 0.0, 0.0, None
    if policy == "edf":
        overhead = edf_overhead_per_period(model, n, blocking_factor)
        overhead_util = _overhead_utilization(workload, [overhead] * n)
        if all(t.deadline >= t.period for t in workload):
            utilization = max(0.0, 1.0 - overhead_util)
            return utilization, utilization / base, None
        hi = max(0.0, (1.0 - overhead_util) / base)
        scale = _search_max_scale(
            lambda s: edf_schedulable(workload.scaled(s), model, blocking_factor),
            hi=max(hi, _SCALE_TOLERANCE),
        )
        return scale * base, scale, None
    if policy in ("rm", "rm-heap"):
        heap = policy == "rm-heap"
        per = (heap_overhead_per_period if heap else rm_overhead_per_period)(
            model, n, blocking_factor
        )
        overhead_util = _overhead_utilization(workload, [per] * n)
        hi = max(_SCALE_TOLERANCE, (1.0 - overhead_util) / base)
        scale = _search_max_scale(
            lambda s: rm_schedulable(workload.scaled(s), model, blocking_factor, heap=heap),
            hi=hi,
        )
        return scale * base, scale, None

    dp_bands = _dp_bands(policy)

    def feasible(splits, scale):
        return csd_schedulable(workload.scaled(scale), splits, model, blocking_factor)

    def cap_of(splits):
        sizes = band_sizes_from_splits(n, splits)
        overheads = []
        for k, size in enumerate(sizes):
            overheads.extend([csd_overhead_per_period(model, sizes, k, blocking_factor)] * size)
        return max(0.0, (1.0 - _overhead_utilization(workload, overheads)) / base)

    def evaluate(splits, incumbent):
        cap = cap_of(splits)
        if cap - incumbent <= _SCALE_TOLERANCE:
            return None
        probe = incumbent + _SCALE_TOLERANCE if incumbent > 0 else 0.5 / base
        probe = min(probe, cap - _SCALE_TOLERANCE / 2)
        if not feasible(splits, probe):
            if incumbent > 0:
                return None
            scale = probe / 2
            while scale * base > 1e-4 and not feasible(splits, scale):
                scale /= 2
            if scale * base <= 1e-4:
                return None
            return _search_max_scale(lambda s: feasible(splits, s), hi=cap, lo=scale)
        return _search_max_scale(lambda s: feasible(splits, s), hi=cap, lo=probe)

    if n <= 12:
        grid = list(range(n + 1))
    else:
        step = max(1, n // 10)
        grid = sorted(set(list(range(0, n + 1, step)) + [n]))
    best_scale = 0.0
    best_splits = None
    for r in grid:
        splits = balanced_splits(workload, dp_bands, r)
        result = evaluate(splits, best_scale)
        if result is not None and result > best_scale:
            best_scale, best_splits = result, splits
    if best_splits is not None:
        candidates = []
        best_r = best_splits[-1]
        for dr in (-3, -2, -1, 1, 2, 3):
            r = best_r + dr
            if 0 <= r <= n:
                candidates.append(balanced_splits(workload, dp_bands, r))
        if dp_bands >= 2:
            inner = list(best_splits[:-1])
            for idx in range(len(inner)):
                for di in (-2, -1, 1, 2):
                    moved = list(best_splits)
                    moved[idx] = inner[idx] + di
                    if 0 <= moved[idx] and all(
                        moved[i] <= moved[i + 1] for i in range(len(moved) - 1)
                    ):
                        candidates.append(tuple(moved))
        for splits in candidates:
            result = evaluate(splits, best_scale)
            if result is not None and result > best_scale:
                best_scale, best_splits = result, splits
    return best_scale * base, best_scale, best_splits


def corpus_workload(n, divisor, constrained=False):
    workload = generate_base_workloads(n, 1, seed=5)[0]
    if divisor != 1:
        workload = workload.with_periods_divided(divisor)
    if constrained:
        # Deadlines at 80% of the period: EDF bisects, and the CSD DP
        # bands run the demand test instead of the utilization bound.
        workload = Workload(
            TaskSpec(t.name, t.period, t.wcet, t.period * 4 // 5) for t in workload
        )
    return workload


class TestWarmSearchOracle:
    """The warm-started search returns exactly what the cold one does."""

    @pytest.mark.parametrize("divisor", [1, 3])
    @pytest.mark.parametrize("n", [5, 12, 13, 30, 50])
    def test_identical_to_cold_search(self, n, divisor):
        workload = corpus_workload(n, divisor)
        model = OverheadModel()
        for policy in POLICIES:
            found = breakdown_utilization(workload, policy, model)
            assert (found.utilization, found.scale, found.splits) == cold_breakdown(
                workload, policy, model
            ), policy

    @pytest.mark.parametrize("n", [5, 13])
    def test_identical_with_constrained_deadlines(self, n):
        workload = corpus_workload(n, 1, constrained=True)
        model = OverheadModel()
        for policy in ("edf", "rm", "csd-2", "csd-3"):
            found = breakdown_utilization(workload, policy, model)
            assert (found.utilization, found.scale, found.splits) == cold_breakdown(
                workload, policy, model
            ), policy


def fails_cold(workload, policy, splits, model, element):
    """Whether ``element`` (an FP task name or ``"DP<k>"``) fails a cold
    test of ``workload``: its own response time or demand test, with
    costs from the overhead functions."""
    n = len(workload)
    if policy in ("rm", "rm-heap"):
        return rm_response_times(workload, model, heap=policy == "rm-heap")[element] is None
    if policy == "edf":
        assert element == "DP1"
        return not edf_schedulable(workload, model)
    sizes = band_sizes_from_splits(n, splits)
    costs, index, bands = [], 0, []
    for k, size in enumerate(sizes):
        overhead = csd_overhead_per_period(model, sizes, k)
        bands.append(workload.tasks[index:index + size])
        costs.extend(t.wcet + overhead for t in bands[-1])
        index += size
    if element.startswith("DP"):
        k = int(element[2:]) - 1
        start = sum(sizes[:k])
        interference = [(t.period, c) for t, c in zip(workload.tasks[:start], costs)]
        return not _demand_feasible(
            list(bands[k]), costs[start:start + sizes[k]], interference
        )
    fp_start = n - sizes[-1]
    interference = [(t.period, c) for t, c in zip(workload.tasks[:fp_start], costs)]
    responses = _fp_response_times(bands[-1], costs[fp_start:], interference)
    return dict(zip((t.name for t in bands[-1]), responses))[element] is None


class TestCriticalTask:
    @pytest.mark.parametrize("policy", ["rm", "rm-heap", "csd-2", "csd-3", "csd-4"])
    @pytest.mark.parametrize("n,divisor", [(5, 1), (12, 3), (30, 1), (30, 3)])
    def test_critical_element_misses_just_above_the_breakdown(self, policy, n, divisor):
        """The named element fails a cold test 1e-3 above the breakdown
        scale; no name means no probe failed, so the answer sits at the
        allocation's ``U' <= 1`` cap."""
        workload = corpus_workload(n, divisor)
        model = OverheadModel()
        found = breakdown_utilization(workload, policy, model)
        if found.critical is None:
            if policy.startswith("csd"):
                state = AnalysisState.for_csd(workload, found.splits, model)
            else:
                state = AnalysisState.for_rm(workload, model, heap=policy == "rm-heap")
            cap = (1.0 - state.overhead_utilization) / workload.utilization
            assert cap - found.scale <= _SCALE_TOLERANCE
        else:
            assert fails_cold(
                workload.scaled(found.scale + _SCALE_TOLERANCE), policy, found.splits,
                model, found.critical,
            )

    def test_rm_always_names_a_task(self):
        for n in (5, 12, 30):
            found = breakdown_utilization(corpus_workload(n, 1), "rm", OverheadModel())
            assert found.critical in corpus_workload(n, 1).names()

    def test_constrained_edf_names_its_band(self):
        workload = corpus_workload(13, 1, constrained=True)
        found = breakdown_utilization(workload, "edf", OverheadModel())
        assert found.critical == "DP1"
        assert fails_cold(
            workload.scaled(found.scale + _SCALE_TOLERANCE), "edf", None,
            OverheadModel(), "DP1",
        )

    def test_closed_form_edf_names_none(self):
        found = breakdown_utilization(corpus_workload(5, 1), "edf", OverheadModel())
        assert found.critical is None


class TestOneStatePerAllocation:
    @pytest.mark.parametrize("policy", ["csd-2", "csd-3", "csd-4"])
    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_no_allocation_tested_twice_at_one_scale(self, policy, n, monkeypatch):
        tested = []
        first_failure = AnalysisState._first_failure

        def record(state, costs, level):
            tested.append((state.key, level))
            return first_failure(state, costs, level)

        monkeypatch.setattr(AnalysisState, "_first_failure", record)
        breakdown_utilization(corpus_workload(n, 3), policy, OverheadModel())
        assert tested
        assert len(set(tested)) == len(tested)
