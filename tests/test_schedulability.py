"""Tests for the overhead-aware schedulability analysis (Section 5.2, [36])."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import (
    AnalysisState,
    _demand_feasible,
    _fp_response_times,
    _response_time,
    band_sizes_from_splits,
    csd_overhead_per_period,
    csd_schedulable,
    dm_response_times,
    dm_schedulable,
    edf_overhead_per_period,
    edf_schedulable,
    heap_overhead_per_period,
    rm_overhead_per_period,
    rm_response_times,
    rm_schedulable,
)
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.timeunits import ms, us


def wl(*pairs_ms, deadline=None):
    tasks = []
    for i, (p, c) in enumerate(pairs_ms):
        tasks.append(
            TaskSpec(
                name=f"t{i}",
                period=ms(p),
                wcet=ms(c),
                deadline=ms(deadline[i]) if deadline else None,
            )
        )
    return Workload(tasks)


class TestEDF:
    def test_full_utilization_feasible_ideal(self):
        # U = 1 exactly: EDF's schedulability overhead is zero.
        assert edf_schedulable(wl((10, 5), (20, 10)))

    def test_over_utilization_infeasible(self):
        assert not edf_schedulable(wl((10, 6), (20, 10)))

    def test_empty_workload(self):
        assert edf_schedulable(Workload([]))

    def test_table2_feasible(self):
        assert edf_schedulable(table2_workload())

    def test_overheads_reduce_capacity(self):
        w = wl((1, 0.999))  # U = 0.999 with a 1 ms period
        assert edf_schedulable(w, ZERO_OVERHEAD)
        assert not edf_schedulable(w, OverheadModel())

    def test_implicit_deadlines_use_exact_utilization(self):
        # U = 1/P + P/(P + 1) = 1 + 1/(P (P + 1)): the floating-point sum
        # rounds to exactly 1.0, the exact work over the hyperperiod
        # exceeds it.
        period = 10**9
        w = Workload([TaskSpec("a", period, 1), TaskSpec("b", period + 1, period)])
        assert sum(t.wcet / t.period for t in w) == 1.0
        assert not edf_schedulable(w)
        assert edf_schedulable(w.scaled(0.999))

    def test_constrained_deadlines_demand_analysis(self):
        # Two tasks, deadlines well below periods.
        feasible = wl((10, 2), (10, 2), deadline=[5, 9])
        assert edf_schedulable(feasible)
        infeasible = wl((10, 3), (10, 3), deadline=[3, 4])
        assert not edf_schedulable(infeasible)

    @given(st.lists(st.tuples(st.integers(2, 100), st.integers(1, 50)),
                    min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_ideal_edf_iff_u_at_most_one(self, raw):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert edf_schedulable(w, ZERO_OVERHEAD) == (w.utilization <= 1.0)


class TestRM:
    def test_liu_layland_bound_feasible(self):
        # Harmonic periods schedule to U = 1 under RM.
        assert rm_schedulable(wl((10, 5), (20, 10)))

    def test_table2_infeasible_with_tau5_first_miss(self):
        w = table2_workload()
        assert not rm_schedulable(w)
        responses = rm_response_times(w)
        # tau1..tau4 make their deadlines; tau5 is the troublesome one.
        for name in ("tau1", "tau2", "tau3", "tau4"):
            assert responses[name] is not None
        assert responses["tau5"] is None

    def test_response_time_values(self):
        w = wl((10, 2), (20, 5))
        responses = rm_response_times(w)
        assert responses["t0"] == ms(2)
        assert responses["t1"] == ms(7)  # 5 + ceil(7/10)*2

    def test_heap_variant_has_different_overheads(self):
        w = wl((1, 0.4), (1.5, 0.4), (2, 0.4))
        # Same workload, but heap constants are larger for small n.
        assert rm_overhead_per_period(OverheadModel(), 3) < \
            edf_overhead_per_period(OverheadModel(), 58)

    def test_rm_worse_than_edf_on_nonharmonic(self):
        # The classic 2-task example: U = 0.97 > 2(2^0.5 - 1) fails RM.
        w = wl((10, 5), (14, 6.5))
        assert edf_schedulable(w)
        assert not rm_schedulable(w)


class TestBandSizes:
    def test_basic(self):
        assert band_sizes_from_splits(10, (3, 7)) == [3, 4, 3]

    def test_empty_bands_allowed(self):
        assert band_sizes_from_splits(5, (0, 5)) == [0, 5, 0]

    def test_no_splits_means_all_fp(self):
        assert band_sizes_from_splits(4, ()) == [4]

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError):
            band_sizes_from_splits(5, (7,))
        with pytest.raises(ValueError):
            band_sizes_from_splits(5, (3, 2))


class TestCSD:
    def test_all_tasks_in_dp_equals_edf_ideal(self):
        w = wl((10, 5), (20, 10))  # U = 1
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD)

    def test_all_tasks_in_fp_equals_rm_ideal(self):
        w = table2_workload()
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD)  # EDF band
        assert not csd_schedulable(w, (0,), ZERO_OVERHEAD)  # pure FP = RM

    def test_table2_csd2_with_r5(self):
        """The paper's prescription: tau1..tau5 in the DP queue."""
        assert csd_schedulable(table2_workload(), (5,), ZERO_OVERHEAD)

    def test_splitting_dp_band_adds_schedulability_overhead(self):
        """Two tasks that only EDF can schedule together: splitting them
        into two DP bands (strict priority between them) must fail."""
        w = wl((10, 5), (10, 5))  # U = 1, identical periods
        assert csd_schedulable(w, (2,), ZERO_OVERHEAD)
        # Split: t0 in DP1, t1 in DP2 -> t1 sees ceil-interference.
        assert csd_schedulable(w, (1, 2), ZERO_OVERHEAD)  # still exactly fits
        w2 = wl((2, 1), (3, 1.5))  # U = 1, non-harmonic
        assert csd_schedulable(w2, (2,), ZERO_OVERHEAD)
        assert not csd_schedulable(w2, (1, 2), ZERO_OVERHEAD)

    def test_overheads_grow_with_parse_cost(self):
        w = wl((1, 0.32), (1, 0.32), (1, 0.32))  # U = 0.96, 1 ms periods
        assert edf_schedulable(w, OverheadModel())
        # Same allocation under CSD pays the queue-parse overhead too.
        assert not csd_schedulable(w, (3,), OverheadModel())

    def test_empty_workload(self):
        assert csd_schedulable(Workload([]), (0,))


class TestCSDOverheadCases:
    """Structure of the Table 3 cost cases."""

    def setup_method(self):
        self.model = OverheadModel()

    def test_fp_band_cheaper_than_dp_bands(self):
        # With one huge DP queue, FP tasks still pay the DP scan on
        # unblock, but block selection is O(1).
        sizes = [20, 5]
        fp = csd_overhead_per_period(self.model, sizes, 1)
        dp = csd_overhead_per_period(self.model, sizes, 0)
        assert fp < dp

    def test_splitting_dp_reduces_dp1_overhead(self):
        """CSD-3's point: DP1 tasks scan shorter queues than CSD-2's."""
        csd2 = csd_overhead_per_period(self.model, [20, 5], 0)
        csd3_dp1 = csd_overhead_per_period(self.model, [10, 10, 5], 0)
        assert csd3_dp1 < csd2

    def test_invalid_band_index(self):
        with pytest.raises(ValueError):
            csd_overhead_per_period(self.model, [2, 2], 5)
        with pytest.raises(ValueError):
            csd_overhead_per_period(self.model, [], 0)

    def test_zero_model_zero_overhead(self):
        assert csd_overhead_per_period(ZERO_OVERHEAD, [5, 5, 5], 1) == 0


class TestConsistency:
    @given(
        st.lists(st.tuples(st.integers(5, 500), st.integers(1, 100)),
                 min_size=2, max_size=8),
        st.integers(0, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_csd_single_dp_band_matches_edf_ideal(self, raw, _):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert csd_schedulable(w, (len(w),), ZERO_OVERHEAD) == edf_schedulable(
            w, ZERO_OVERHEAD
        )

    @given(
        st.lists(st.tuples(st.integers(5, 500), st.integers(1, 100)),
                 min_size=2, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_csd_pure_fp_matches_rm_ideal(self, raw):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        assert csd_schedulable(w, (0,), ZERO_OVERHEAD) == rm_schedulable(
            w, ZERO_OVERHEAD
        )

    @given(
        st.lists(st.tuples(st.integers(5, 100), st.integers(1, 20)),
                 min_size=3, max_size=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_workload_stays_feasible_when_scaled_down(self, raw, data):
        tasks = [
            TaskSpec(name=f"t{i}", period=ms(p), wcet=min(ms(c), ms(p)))
            for i, (p, c) in enumerate(raw)
        ]
        w = Workload(tasks)
        r = data.draw(st.integers(0, len(w)))
        model = OverheadModel()
        if csd_schedulable(w, (r,), model):
            smaller = w.scaled(0.5)
            assert csd_schedulable(smaller, (r,), model)


class TestTopPriorityDeadline:
    """The highest-priority FP task has no interference, so its RTA
    fixed point is its own cost -- which must still meet the deadline."""

    def setup_method(self):
        self.w = Workload([TaskSpec("t0", period=ms(10), wcet=ms(8), deadline=ms(5))])

    def test_rm_and_dm_report_the_miss(self):
        assert not rm_schedulable(self.w)
        assert not dm_schedulable(self.w)
        assert rm_response_times(self.w) == {"t0": None}
        assert dm_response_times(self.w) == {"t0": None}

    def test_csd_fp_band_reports_the_miss(self):
        assert not csd_schedulable(self.w, (0,))

    def test_miss_above_a_lower_priority_task(self):
        w = Workload(list(self.w) + [TaskSpec("t1", period=ms(100), wcet=ms(1))])
        assert not rm_schedulable(w)
        assert rm_response_times(w)["t0"] is None


# ----------------------------------------------------------------------
# Differential tests against a cap-free oracle
# ----------------------------------------------------------------------

def oracle_busy_period(everything):
    """Synchronous busy period by plain fixed-point iteration (U <= 1)."""
    length = sum(c for _, c in everything)
    while True:
        nxt = sum(-(-length // p) * c for p, c in everything)
        if nxt == length:
            return length
        length = nxt


def oracle_demand_feasible(band, costs, interference):
    """Every band deadline up to the busy period, no shortcut, no cap."""
    everything = [(t.period, c) for t, c in zip(band, costs)] + list(interference)
    if sum(Fraction(c, p) for p, c in everything) > 1:
        return False
    horizon = oracle_busy_period(everything)
    points = set()
    for task in band:
        points.update(range(task.deadline, horizon + 1, task.period))
    for t in sorted(points):
        demand = sum(
            max(0, (t - task.deadline) // task.period + 1) * c
            for task, c in zip(band, costs)
        )
        demand += sum(-(-t // p) * c for p, c in interference)
        if demand > t:
            return False
    return True


@st.composite
def demand_problem(draw):
    """An EDF band with constrained deadlines under FP interference.

    Each task's cost is at most a fair share of the processor plus one,
    so most sets sit near U = 1 rather than far beyond it.
    """
    band_size = draw(st.integers(1, 5))
    interference_size = draw(st.integers(0, 3))
    share = band_size + interference_size

    def cost(period):
        return draw(st.integers(0, period // share + 1))

    band, costs = [], []
    for i in range(band_size):
        period = draw(st.integers(2, 60))
        deadline = draw(st.integers(1, period))
        band.append(TaskSpec(f"t{i}", period=period, wcet=0, deadline=deadline))
        costs.append(cost(period))
    interference = []
    for _ in range(interference_size):
        period = draw(st.integers(2, 60))
        interference.append((period, cost(period)))
    return band, costs, interference


class TestDemandAnalysis:
    @given(demand_problem())
    @settings(max_examples=1500, deadline=None, derandomize=True)
    def test_qpa_matches_cap_free_enumeration(self, problem):
        band, costs, interference = problem
        assert _demand_feasible(band, costs, interference) == oracle_demand_feasible(
            band, costs, interference
        )

    def test_busy_period_beyond_old_iteration_cap(self):
        """A CSD-3 DP2 band from the Figure 3 corpus (n=10, with the
        MC68040 overheads) at 1 - U ~ 7.6e-4: its busy period needs 476
        fixed-point iterations, past the 256 at which the capped test
        used to call it infeasible.  The exact verdict is feasible."""
        band = [
            TaskSpec(name, period=ms(p), wcet=0)
            for name, p in (("t3", 48), ("t4", 55), ("t0", 63), ("t9", 78),
                            ("t6", 242), ("t5", 323), ("t2", 597))
        ]
        costs = [2718854, 6194218, 9220763, 5697737, 25711860, 43577215, 80795381]
        interference = [(ms(7), 878390), (ms(9), 270698), (ms(27), 2119591)]
        everything = [(t.period, c) for t, c in zip(band, costs)] + interference
        assert 1 - sum(Fraction(c, p) for p, c in everything) < Fraction(8, 10_000)
        assert oracle_demand_feasible(band, costs, interference)
        assert _demand_feasible(band, costs, interference)


class TestResponseTimes:
    @given(st.lists(st.tuples(st.integers(2, 100), st.integers(0, 30),
                              st.integers(1, 100)), min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(2, 100), st.integers(0, 10)),
                    max_size=3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_warm_start_equals_cold_start(self, raw, interference):
        tasks = [
            TaskSpec(f"t{i}", period=p, wcet=c, deadline=d)
            for i, (p, c, d) in enumerate(raw)
        ]
        costs = [t.wcet for t in tasks]
        higher = list(interference)
        cold = []
        for task in tasks:
            cold.append(_response_time(task.wcet, task.deadline, higher))
            higher.append((task.period, task.wcet))
        assert list(_fp_response_times(tasks, costs, interference)) == cold


# ----------------------------------------------------------------------
# Warm-started probes (AnalysisState) against cold tests
# ----------------------------------------------------------------------

MODELS = {"ideal": ZERO_OVERHEAD, "mc68040": OverheadModel()}


@st.composite
def probed_allocation(draw):
    """A workload (raw U = 0.5, so scales up to 2.5 straddle the edge),
    a policy and allocation, and a rising, falling or mixed sequence of
    execution-time scales (``None``: bisect over ``[0, 2.5]``)."""
    n = draw(st.integers(1, 8))
    constrained = draw(st.booleans())
    periods = [ms(draw(st.integers(1, 60))) for _ in range(n)]
    weights = [draw(st.integers(0, 10)) for _ in range(n)]
    total = sum(weights) or 1
    tasks = []
    for i, (period, weight) in enumerate(zip(periods, weights)):
        deadline = period * draw(st.integers(30, 100)) // 100 if constrained else None
        wcet = period * weight // (2 * total)
        tasks.append(TaskSpec(f"t{i}", period=period, wcet=wcet, deadline=deadline))
    workload = Workload(tasks)
    policy = draw(st.sampled_from(("edf", "rm", "rm-heap", "csd-2", "csd-3", "csd-4")))
    splits = None
    if policy.startswith("csd-"):
        queues = int(policy[4:])
        splits = tuple(sorted(draw(st.integers(0, n)) for _ in range(queues - 1)))
    scales = draw(st.lists(
        st.floats(0.0, 2.5, allow_nan=False) | st.sampled_from((0.0, 1.0, 2.0)),
        min_size=1, max_size=12,
    ))
    order = draw(st.sampled_from(("rising", "falling", "mixed", "bisection")))
    if order in ("rising", "falling"):
        scales.sort(reverse=order == "falling")
    elif order == "bisection":
        scales = None  # probes chosen by the verdicts, as in a search
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    return workload, policy, splits, scales, model


def cold_test(workload, policy, splits, model):
    """The verdict of a cold test (no state) of ``workload``."""
    if policy == "edf":
        return edf_schedulable(workload, model)
    if policy.startswith("rm"):
        return rm_schedulable(workload, model, heap=policy == "rm-heap")
    return csd_schedulable(workload, splits, model)


def warm_test(workload, policy, splits, model, scale, state):
    if policy == "edf":
        return edf_schedulable(workload, model, scale=scale, state=state)
    if policy.startswith("rm"):
        return rm_schedulable(
            workload, model, heap=policy == "rm-heap", scale=scale, state=state
        )
    return csd_schedulable(workload, splits, model, scale=scale, state=state)


def new_state(workload, policy, splits, model):
    if policy == "edf":
        return AnalysisState.for_edf(workload, model)
    if policy.startswith("rm"):
        return AnalysisState.for_rm(workload, model, heap=policy == "rm-heap")
    return AnalysisState.for_csd(workload, splits, model)


def cold_fp_response_times(workload, policy, splits, model):
    """Cold response times of the FP tasks (all tasks under RM, the FP
    band under CSD), with costs from the overhead functions."""
    n = len(workload)
    if policy.startswith("rm"):
        per = (heap_overhead_per_period if policy == "rm-heap"
               else rm_overhead_per_period)(model, n)
        sizes, overheads = [n], [per]
    else:
        sizes = band_sizes_from_splits(n, splits)
        overheads = [csd_overhead_per_period(model, sizes, k) for k in range(len(sizes))]
    costs, index = [], 0
    for size, overhead in zip(sizes, overheads):
        costs.extend(t.wcet + overhead for t in workload.tasks[index:index + size])
        index += size
    fp_start = n - sizes[-1]
    interference = [(t.period, c) for t, c in zip(workload.tasks[:fp_start], costs)]
    return fp_start, list(_fp_response_times(
        workload.tasks[fp_start:], costs[fp_start:], interference
    ))


class TestAnalysisState:
    @given(probed_allocation())
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_warm_probes_equal_cold_tests(self, problem):
        """Every probe of one state equals a cold test of the scaled
        workload, and the response-time floors stay lower bounds at the
        largest feasible scale (a falling sequence never lifts them)."""
        workload, policy, splits, scales, model = problem
        state = new_state(workload, policy, splits, model)
        lo, hi = 0.0, 2.5
        for step in range(len(scales) if scales is not None else 14):
            scale = scales[step] if scales is not None else (lo + hi) / 2
            cold = cold_test(workload.scaled(scale), policy, splits, model)
            assert warm_test(workload, policy, splits, model, scale, state) == cold
            lo, hi = (scale, hi) if cold else (lo, scale)
            if policy == "edf" or state.feasible_scale < 0:
                continue
            fp_start, responses = cold_fp_response_times(
                workload.scaled(state.feasible_scale), policy, splits, model
            )
            for floor, response in zip(state.floors[fp_start:], responses):
                assert response is not None and floor <= response

    def test_unscaled_probe_equals_plain_test(self):
        w = table2_workload()
        for policy, splits in (("edf", None), ("rm", None), ("csd-2", (5,)),
                               ("csd-3", (2, 5))):
            state = new_state(w, policy, splits, OverheadModel())
            assert warm_test(w, policy, splits, OverheadModel(), None, state) == \
                cold_test(w, policy, splits, OverheadModel())

    def test_state_for_another_allocation_raises(self):
        w = table2_workload()
        model = OverheadModel()
        state = AnalysisState.for_csd(w, (5,), model)
        assert csd_schedulable(w, (5,), model, scale=0.5, state=state)
        for call in (
            lambda: csd_schedulable(w, (4,), model, state=state),
            lambda: csd_schedulable(w, (2, 5), model, state=state),
            lambda: csd_schedulable(w, (5,), ZERO_OVERHEAD, state=state),
            lambda: csd_schedulable(w, (5,), model, 1.0, state=state),
            lambda: csd_schedulable(w.scaled(0.5), (5,), model, state=state),
            lambda: rm_schedulable(w, model, state=state),
            lambda: edf_schedulable(w, model, state=state),
        ):
            with pytest.raises(ValueError):
                call()
        rm_state = AnalysisState.for_rm(w, model)
        with pytest.raises(ValueError):
            rm_schedulable(w, model, heap=True, state=rm_state)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            rm_schedulable(table2_workload(), scale=-0.1)

    def test_critical_names_the_failed_element(self):
        w = table2_workload()
        state = AnalysisState.for_rm(w)
        assert state.critical is None
        assert not rm_schedulable(w, state=state)
        assert state.critical == "tau5"  # Figure 2's troublesome task
        state = AnalysisState.for_csd(w, (2, 5))
        assert not csd_schedulable(w, (2, 5), scale=1.2, state=state)
        assert state.critical == "DP2"
        # Cold: DP1 (tau1, tau2) meets its deadlines at 1.2, DP2 (tau3..tau5)
        # under DP1's interference does not.
        tasks = w.scaled(1.2).tasks
        costs = [t.wcet for t in tasks]
        assert _demand_feasible(tasks[:2], costs[:2], [])
        interference = [(t.period, t.wcet) for t in tasks[:2]]
        assert not _demand_feasible(tasks[2:5], costs[2:5], interference)
