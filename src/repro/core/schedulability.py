"""Workload schedulability tests that account for run-time overheads.

Section 5 splits total scheduling overhead into *run-time* overhead
(the scheduler code's execution time, Table 1) and *schedulability*
overhead (the theoretical utilization the policy gives up, Section 5.2).
The breakdown-utilization experiments of Section 5.7 need feasibility
tests that include both; the paper defers the details to reference
[36].  This module implements such tests:

* **EDF** -- exact: with implicit deadlines, utilization test
  ``U' <= 1`` on overhead-inflated execution times; with constrained
  deadlines, processor-demand analysis.
* **RM / fixed priority** -- exact response-time analysis on inflated
  execution times.
* **CSD-x** -- hierarchical band test.  Given the allocation of tasks
  to queues (a prefix split of the RM-ordered workload), each EDF band
  is tested by processor-demand analysis with ceiling interference from
  all higher bands, and the FP band by response-time analysis with
  interference from every DP task.  Band 1 has no interference, so it
  reduces to the exact EDF test; with a single all-task DP band the
  whole test reduces to EDF, confirming the paper's observation that
  CSD's schedulability overhead is zero in the worst case (CSD-2) and
  grows toward RM's as the number of bands increases.

Run-time overhead inflation follows Section 5.1: each task pays
``t = blocking_factor * (t_b + t_s_block + t_u + t_s_unblock)`` per
period, with the component costs drawn from the
:class:`~repro.core.overhead.OverheadModel` according to the queue the
task lives on (the four cases of Section 5.4 / Table 3 for CSD).

No verdict depends on an enumeration or iteration cap.  The demand
test is Quick Processor-demand Analysis (Zhang & Burns, IEEE TC 2009)
over an exact horizon (:func:`_demand_horizon`), with utilization
computed exactly in integers; response-time iterations are bounded by
the deadline alone and warm-start each priority level from the one
above (Sjodin & Hansson, RTSS 1998).  Both costs grow as ``1 / (1 -
U)`` near full utilization, which is why the breakdown search
(:mod:`repro.sim.breakdown`) never probes the ``U' = 1`` edge itself.

The breakdown search tests one workload and allocation at many
execution-time scales.  ``edf_schedulable``, ``rm_schedulable`` and
``csd_schedulable`` therefore take a ``scale`` (costs become
``max(0, round(c * scale)) + t``, the integers ``Workload.scaled``
yields) and an :class:`AnalysisState` that carries the allocation's
constants, its verdict bounds and its warm starts from one probe to
the next.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.task import TaskSpec, Workload

__all__ = [
    "AnalysisState",
    "BLOCKING_FACTOR",
    "edf_overhead_per_period",
    "rm_overhead_per_period",
    "heap_overhead_per_period",
    "csd_overhead_per_period",
    "inflate",
    "edf_schedulable",
    "rm_schedulable",
    "rm_response_times",
    "dm_schedulable",
    "dm_response_times",
    "csd_schedulable",
    "band_sizes_from_splits",
]

#: Section 5.1: half the tasks make one blocking call per period on top
#: of the mandatory block/unblock at the period boundary, so on average
#: each task pays 1.5x the basic per-period scheduler cost.
BLOCKING_FACTOR = 1.5

# ----------------------------------------------------------------------
# Per-period run-time overheads (Section 5.1, Section 5.4)
# ----------------------------------------------------------------------

def edf_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost of a task under plain EDF with n tasks."""
    t_s = model.edf_select(n)
    return OverheadModel.per_period(
        model.edf_block(n), model.edf_unblock(n), t_s, blocking_factor
    )


def rm_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost of a task under plain RM with n tasks."""
    t_s = model.rm_select(n)
    return OverheadModel.per_period(
        model.rm_block(n), model.rm_unblock(n), t_s, blocking_factor
    )


def heap_overhead_per_period(
    model: OverheadModel, n: int, blocking_factor: float = BLOCKING_FACTOR
) -> int:
    """Per-period scheduler cost under the heap-based RM variant."""
    t_s = model.heap_select(n)
    return OverheadModel.per_period(
        model.heap_block(n), model.heap_unblock(n), t_s, blocking_factor
    )


def csd_overhead_per_period(
    model: OverheadModel,
    band_sizes: Sequence[int],
    band_index: int,
    blocking_factor: float = BLOCKING_FACTOR,
) -> int:
    """Per-period scheduler cost of a task in CSD band ``band_index``.

    ``band_sizes`` lists every queue's size, DP queues first, the FP
    queue last.  The worst-case selection costs follow the four cases
    of Section 5.4 (Table 3 for CSD-3):

    * a DP task blocking may leave the selector to parse any queue, so
      the worst case is the longest DP queue's EDF scan;
    * a DP_i task unblocking guarantees a ready task in queue i, so the
      selector parses at worst the longest queue among DP_1..DP_i;
    * an FP task blocking implies no DP task is ready (they would have
      preempted), so selection is the O(1) ``highestp`` dereference;
    * an FP task unblocking may find ready tasks in any DP queue.

    Every selection also pays the flat ``x * 0.55 us`` queue-list parse.
    """
    if not band_sizes:
        raise ValueError("band_sizes must be non-empty")
    if not 0 <= band_index < len(band_sizes):
        raise ValueError("band_index out of range")
    x = len(band_sizes)
    dp_sizes = list(band_sizes[:-1])
    fp_size = band_sizes[-1]
    parse = x * model.queue_parse_ns
    max_dp = max(dp_sizes) if dp_sizes else 0
    fp_band = x - 1

    if band_index == fp_band:
        t_b = model.rm_block(fp_size)
        t_u = model.rm_unblock(fp_size)
        t_s_block = parse + model.rm_select(fp_size)
        t_s_unblock = parse + (
            model.edf_select(max_dp) if dp_sizes else model.rm_select(fp_size)
        )
    else:
        size = band_sizes[band_index]
        t_b = model.edf_block(size)
        t_u = model.edf_unblock(size)
        worst_any = max(
            model.edf_select(max_dp) if dp_sizes else 0,
            model.rm_select(fp_size),
        )
        t_s_block = parse + worst_any
        max_up_to = max(dp_sizes[: band_index + 1])
        t_s_unblock = parse + model.edf_select(max_up_to)

    total = t_b + t_s_block + t_u + t_s_unblock
    return round(blocking_factor * total)


def inflate(task: TaskSpec, overhead_ns: int) -> int:
    """The overhead-inflated execution time ``c_i + t`` of Section 5.1."""
    return task.wcet + overhead_ns


# ----------------------------------------------------------------------
# EDF (processor demand analysis)
# ----------------------------------------------------------------------

def edf_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    *,
    scale: Optional[float] = None,
    state: Optional["AnalysisState"] = None,
) -> bool:
    """Exact EDF feasibility with run-time overheads.

    With implicit deadlines this is the classic ``U' <= 1`` bound
    (Liu & Layland via [21]); with constrained deadlines, processor
    demand analysis (:func:`_demand_feasible`).  ``scale`` and
    ``state``: see :class:`AnalysisState`.
    """
    if state is None:
        state = AnalysisState.for_edf(workload, model, blocking_factor)
    else:
        state.check(workload, ("edf", model, blocking_factor))
    return state.test(scale)


def _demand_horizon(
    band: Sequence[Tuple[int, int, int]],
    interference: Sequence[Tuple[int, int]],
    everything: Sequence[Tuple[int, int]],
    hyperperiod: int,
    work: int,
) -> int:
    """Horizon of the demand test: no later band deadline needs a check.

    ``band`` holds ``(deadline, period, cost)``; ``everything`` the
    ``(period, cost)`` of band and interference together, whose
    utilization is ``work / hyperperiod <= 1``.  The horizon is the
    smaller of two exact bounds:

    * the synchronous busy period ``L_b``, the least fixed point of
      ``L = sum(ceil(L / P) * c)`` (at most the hyperperiod, because
      the released work over one hyperperiod is ``U * H <= H``);
    * ``L_a = max(D_max, K / (1 - U))`` with
      ``K = sum_band c (P - D) / P + sum_interference c``: from
      ``D_max`` on, ``h(t) <= U t + K``, so ``h(t) > t`` forces
      ``t < K / (1 - U)`` (Zhang & Burns, IEEE TC 2009).

    The busy-period iteration stops as soon as it passes ``L_a``, so
    the cost is set by the smaller bound.
    """
    bound = hyperperiod
    if work < hyperperiod:
        # K / (1 - U) over the common denominator H: K H / (H - U H).
        k_times_h = sum(
            c * (p - d) * (hyperperiod // p) for d, p, c in band
        ) + hyperperiod * sum(c for _, c in interference)
        bound = max(max(d for d, _, _ in band), k_times_h // (hyperperiod - work))
    length = sum(c for _, c in everything)
    while length < bound:
        nxt = 0
        for p, c in everything:
            nxt -= (-length // p) * c
        if nxt == length:
            return length
        length = nxt
    return bound


def _last_deadline_before(band: Sequence[Tuple[int, int, int]], t: int) -> int:
    """Largest absolute deadline ``D + k P < t`` of the band (0 if none)."""
    last = 0
    for d, p, _ in band:
        if d < t:
            candidate = d + (t - d - 1) // p * p
            if candidate > last:
                last = candidate
    return last


def _demand_feasible(
    band: Sequence[TaskSpec],
    band_costs: Sequence[int],
    interference: Sequence[Tuple[int, int]],
    hyperperiod: Optional[int] = None,
) -> bool:
    """Processor-demand test for an EDF band under periodic interference.

    ``interference`` is a list of ``(period, cost)`` pairs of strictly
    higher-priority periodic tasks (higher CSD bands); their worst-case
    interference over ``[0, t)`` is ``ceil(t / P) * c``.  The band is
    feasible iff ``h(t) <= t`` at every absolute band deadline ``t`` up
    to the horizon (:func:`_demand_horizon`), where

        h(t) = sum_band ((t - D) // P + 1) c + sum_interference ceil(t / P) c.

    The deadlines are visited by Quick Processor-demand Analysis (QPA,
    Zhang & Burns, IEEE TC 2009), adapted to the interference terms:
    from the last deadline before the horizon, while ``h(t) <= t``,
    jump back to ``h(t)`` when it is below ``t`` (``h`` is
    non-decreasing, so every ``t'`` in ``[h(t), t]`` has
    ``h(t') <= h(t) <= t'``), else step back to the band's previous
    deadline.  Interference steps need no visit: only band deadlines
    are test points.  The walk ends feasible once ``h(t)`` drops to the
    smallest relative deadline, below which there is no test point.

    ``hyperperiod``, the least common multiple of every period involved,
    is computed when not given.
    """
    if not band:
        return True
    jobs = [(t.deadline, t.period, c) for t, c in zip(band, band_costs)]
    everything = [(p, c) for _, p, c in jobs] + list(interference)
    # Exact utilization U = work / H over the hyperperiod H.
    if hyperperiod is None:
        hyperperiod = math.lcm(*(p for p, _ in everything))
    work = sum(c * (hyperperiod // p) for p, c in everything)
    if work > hyperperiod:
        return False
    if not interference and all(d >= p for d, p, _ in jobs):
        # Pure EDF band with implicit deadlines: U <= 1 is exact.
        return True
    horizon = _demand_horizon(jobs, interference, everything, hyperperiod, work)
    d_min = min(d for d, _, _ in jobs)
    t = _last_deadline_before(jobs, horizon + 1)
    while t > 0:
        demand = 0
        for d, p, c in jobs:
            if t >= d:
                demand += ((t - d) // p + 1) * c
        for p, c in interference:
            demand -= (-t // p) * c
        if demand > t:
            return False
        if demand <= d_min:
            return True
        t = demand if demand < t else _last_deadline_before(jobs, t)
    return True


# ----------------------------------------------------------------------
# RM / fixed priority (response-time analysis)
# ----------------------------------------------------------------------

def _response_time(
    cost: int, deadline: int, higher: Sequence[Tuple[int, int]], start: int = 0
) -> Optional[int]:
    """Least RTA fixed point ``R = cost + sum(ceil(R / P) * c)``, or
    ``None`` once it exceeds ``deadline``.

    ``start`` must be a lower bound on the fixed point; the iteration
    climbs from ``max(cost, start)`` and is bounded by the deadline.
    """
    response = max(cost, start)
    while response <= deadline:
        nxt = cost
        for p, c in higher:
            nxt -= (-response // p) * c
        if nxt == response:
            return response
        response = nxt
    return None


def _fp_response_times(
    tasks: Sequence[TaskSpec],
    costs: Sequence[int],
    interference: Sequence[Tuple[int, int]] = (),
) -> Iterator[Optional[int]]:
    """Response time of each task, highest priority first (``None`` for
    a miss), under fixed priorities below ``interference``.

    Each level warm-starts from ``R_k + C_i``, where ``R_k`` is the
    last response time found: ``R_i >= R_{i-1} + C_i`` because task
    ``i`` waits for everything task ``i-1`` waits for, and task ``i-1``
    itself (Sjodin & Hansson, RTSS 1998).  A zero-cost task has the
    response time 0, so it starts cold.
    """
    higher = list(interference)
    previous = 0
    for task, cost in zip(tasks, costs):
        start = previous + cost if cost else 0
        response = _response_time(cost, task.deadline, higher, start)
        if response is not None:
            previous = response
        yield response
        higher.append((task.period, cost))


def _rm_overhead(
    model: OverheadModel, n: int, blocking_factor: float, heap: bool
) -> int:
    if heap:
        return heap_overhead_per_period(model, n, blocking_factor)
    return rm_overhead_per_period(model, n, blocking_factor)


def rm_response_times(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    heap: bool = False,
) -> Dict[str, Optional[int]]:
    """Worst-case response time of each task under RM, or ``None`` when
    the fixed point exceeds the deadline (task unschedulable)."""
    per_period = _rm_overhead(model, len(workload), blocking_factor, heap)
    costs = [inflate(t, per_period) for t in workload]
    return dict(zip(workload.names(), _fp_response_times(workload, costs)))


def rm_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    heap: bool = False,
    *,
    scale: Optional[float] = None,
    state: Optional["AnalysisState"] = None,
) -> bool:
    """Exact RM feasibility (response-time analysis) with overheads;
    stops at the first task that misses.  ``scale`` and ``state``: see
    :class:`AnalysisState`."""
    if state is None:
        state = AnalysisState.for_rm(workload, model, blocking_factor, heap)
    else:
        state.check(workload, ("rm", heap, model, blocking_factor))
    return state.test(scale)


def _dm_order(
    workload: Workload, model: OverheadModel, blocking_factor: float
) -> Tuple[List[TaskSpec], List[int]]:
    per_period = rm_overhead_per_period(model, len(workload), blocking_factor)
    ordered = sorted(workload, key=lambda t: (t.deadline, t.name))
    return ordered, [inflate(t, per_period) for t in ordered]


def dm_response_times(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> Dict[str, Optional[int]]:
    """Response times under deadline-monotonic priorities.

    The paper notes the FP queue works with "any fixed-priority
    scheduler such as deadline-monotonic [18]"; DM is the optimal
    fixed-priority assignment for constrained deadlines (d <= P).
    Priorities order by relative deadline, shortest first.
    """
    ordered, costs = _dm_order(workload, model, blocking_factor)
    return {t.name: r for t, r in zip(ordered, _fp_response_times(ordered, costs))}


def dm_schedulable(
    workload: Workload,
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
) -> bool:
    """Exact deadline-monotonic feasibility with overheads."""
    ordered, costs = _dm_order(workload, model, blocking_factor)
    return all(r is not None for r in _fp_response_times(ordered, costs))


# ----------------------------------------------------------------------
# CSD (hierarchical band analysis)
# ----------------------------------------------------------------------

def band_sizes_from_splits(n: int, splits: Sequence[int]) -> List[int]:
    """Convert cumulative split points into band sizes.

    ``splits = (s_1, ..., s_{x-1})`` assigns tasks ``[0, s_1)`` to DP1,
    ``[s_1, s_2)`` to DP2, ..., and ``[s_{x-1}, n)`` to the FP queue.
    """
    previous = 0
    sizes = []
    for s in splits:
        if not previous <= s <= n:
            raise ValueError(f"invalid split point {s} (n={n}, splits={splits})")
        sizes.append(s - previous)
        previous = s
    sizes.append(n - previous)
    return sizes


def csd_schedulable(
    workload: Workload,
    splits: Sequence[int],
    model: OverheadModel = ZERO_OVERHEAD,
    blocking_factor: float = BLOCKING_FACTOR,
    *,
    scale: Optional[float] = None,
    state: Optional["AnalysisState"] = None,
) -> bool:
    """Feasibility of ``workload`` under CSD with the given allocation.

    ``splits`` are cumulative indices into the RM-ordered workload (see
    :func:`band_sizes_from_splits`); tasks before the last split form
    the DP bands, the rest the FP band.  Each EDF band is tested by
    processor-demand analysis with interference from every higher band,
    the FP band by response-time analysis with interference from every
    DP task.  ``scale`` and ``state``: see :class:`AnalysisState`.
    """
    if state is None:
        state = AnalysisState.for_csd(workload, splits, model, blocking_factor)
    else:
        state.check(workload, ("csd", tuple(splits), model, blocking_factor))
    return state.test(scale)


# ----------------------------------------------------------------------
# Analysis state: one allocation probed at many scales
# ----------------------------------------------------------------------

class _Band(NamedTuple):
    """One non-empty DP band: tasks ``[start, end)`` of the RM order,
    interfered with by every task before ``start``."""

    number: int  # k of "DP<k>", counting empty bands too
    start: int
    end: int
    hyperperiod: int  # of tasks [0, end)


class AnalysisState:
    """One allocation of one workload, tested at many execution-time
    scales (the probes of a breakdown search).

    Built once per (workload, allocation, overhead model, blocking
    factor) by :meth:`for_edf`, :meth:`for_rm` or :meth:`for_csd`, and
    passed as ``state=`` to the matching test, which raises
    ``ValueError`` for any other workload or allocation.  At ``scale``
    ``s`` each cost is ``max(0, round(c * s)) + t``, the integers that
    :meth:`Workload.scaled` and :func:`inflate` give.  Costs never fall
    as ``s`` rises, so feasibility is monotone in ``s``; the state uses
    that in four ways, none of which changes a verdict:

    * Verdict bounds.  A probe at or below the largest feasible scale
      tested so far is feasible, and one at or above the smallest
      infeasible scale infeasible, with no test.
    * Passed elements.  A DP band or FP task that passed at some scale
      passes at every lower one, so a probe skips the elements that
      passed above it (those before the one that failed, on the way
      down a bisection).
    * Response-time floors.  Each FP task's response time at a feasible
      scale is a lower bound on its response time at any larger scale,
      so the RTA starts there (Sjodin & Hansson, RTSS 1998).  Every
      probe that runs a test lies above the largest feasible scale
      (lower ones are answered by the bounds), so the floors always
      apply; they are updated only when a whole probe is feasible.

    :attr:`critical` names the DP band or FP task that failed the last
    tested probe.  Every element before it passed at that probe's scale,
    above any later tested probe, so it is also the first element the
    next probe tests.
    """

    def __init__(
        self,
        workload: Workload,
        key: Tuple,
        sizes: Sequence[int],
        overheads: Sequence[int],
        edf: bool = False,
    ) -> None:
        tasks = workload.tasks
        self.key = key
        self.tasks = tasks
        self.periods = [t.period for t in tasks]
        self.deadlines = [t.deadline for t in tasks]
        self.wcets = [t.wcet for t in tasks]
        self.overheads = [o for o, size in zip(overheads, sizes) for _ in range(size)]
        #: Utilization of the per-period overheads alone.
        self.overhead_utilization = sum(
            o / p for o, p in zip(self.overheads, self.periods)
        )
        # Plain EDF keeps its floating-point ``U' <= 1`` check ahead of
        # the exact one, so its verdicts match the closed form.
        self.edf = edf
        self.bands: List[_Band] = []
        start = 0
        hyperperiod = 1
        for number, size in enumerate(sizes[:-1], 1):
            end = start + size
            if size:
                hyperperiod = math.lcm(hyperperiod, *self.periods[start:end])
                self.bands.append(_Band(number, start, end, hyperperiod))
            start = end
        self.fp_start = start
        self.feasible_scale = -1.0
        self.infeasible_scale = math.inf
        #: Largest scale each DP band / task has passed at.
        self.band_passed = [-1.0] * len(self.bands)
        self.task_passed = [-1.0] * len(tasks)
        #: Lower bounds on each FP task's response time (0 for DP tasks).
        self.floors = [0] * len(tasks)
        #: ``("band", index into bands)`` or ``("task", task index)``.
        self.failed: Optional[Tuple[str, int]] = None

    @classmethod
    def for_edf(
        cls,
        workload: Workload,
        model: OverheadModel = ZERO_OVERHEAD,
        blocking_factor: float = BLOCKING_FACTOR,
    ) -> "AnalysisState":
        """State for :func:`edf_schedulable`: one DP band of every task."""
        n = len(workload)
        overhead = edf_overhead_per_period(model, n, blocking_factor)
        return cls(workload, ("edf", model, blocking_factor), [n, 0], [overhead, 0],
                   edf=True)

    @classmethod
    def for_rm(
        cls,
        workload: Workload,
        model: OverheadModel = ZERO_OVERHEAD,
        blocking_factor: float = BLOCKING_FACTOR,
        heap: bool = False,
    ) -> "AnalysisState":
        """State for :func:`rm_schedulable`: one FP band of every task."""
        n = len(workload)
        per_period = _rm_overhead(model, n, blocking_factor, heap)
        return cls(workload, ("rm", heap, model, blocking_factor), [n], [per_period])

    @classmethod
    def for_csd(
        cls,
        workload: Workload,
        splits: Sequence[int],
        model: OverheadModel = ZERO_OVERHEAD,
        blocking_factor: float = BLOCKING_FACTOR,
    ) -> "AnalysisState":
        """State for :func:`csd_schedulable` with the allocation ``splits``."""
        splits = tuple(splits)
        sizes = band_sizes_from_splits(len(workload), splits)
        overheads = [
            csd_overhead_per_period(model, sizes, k, blocking_factor)
            for k in range(len(sizes))
        ]
        return cls(workload, ("csd", splits, model, blocking_factor), sizes, overheads)

    def check(self, workload: Workload, key: Tuple) -> None:
        """Raise ``ValueError`` unless the state was built for this test."""
        if key != self.key or (
            workload.tasks is not self.tasks and workload.tasks != self.tasks
        ):
            raise ValueError(
                "analysis state was built for another workload, allocation, "
                "overhead model or blocking factor"
            )

    @property
    def critical(self) -> Optional[str]:
        """The DP band (``"DP<k>"``) or FP task that failed the last
        tested probe; ``None`` if no tested probe has failed."""
        if self.failed is None:
            return None
        kind, index = self.failed
        if kind == "band":
            return f"DP{self.bands[index].number}"
        return self.tasks[index].name

    def test(self, scale: Optional[float] = None) -> bool:
        """The verdict at ``scale`` (``None``: the unscaled workload)."""
        level = 1.0 if scale is None else scale
        if level < 0:
            raise ValueError("scale factor must be non-negative")
        if level <= self.feasible_scale:
            return True
        if level >= self.infeasible_scale:
            return False
        costs = [
            max(0, round(w * level)) + o for w, o in zip(self.wcets, self.overheads)
        ]
        failed = self._first_failure(costs, level)
        if failed is None:
            self.feasible_scale = level
            return True
        self.infeasible_scale = level
        self.failed = failed
        return False

    def _first_failure(
        self, costs: List[int], level: float
    ) -> Optional[Tuple[str, int]]:
        """The element that fails at ``costs``, or ``None`` (feasible:
        the response times found become the floors)."""
        periods, fp_start = self.periods, self.fp_start
        responses = self.floors[:]
        for k, passed in enumerate(self.band_passed):
            if level > passed and not self._band_passes(k, costs, level):
                return ("band", k)
        higher = list(zip(periods[:fp_start], costs[:fp_start]))
        for i in range(fp_start, len(costs)):
            if level > self.task_passed[i] and not self._task_passes(
                i, costs, level, responses, higher
            ):
                return ("task", i)
            higher.append((periods[i], costs[i]))
        self.floors = responses
        return None

    def _band_passes(self, k: int, costs: List[int], level: float) -> bool:
        """:func:`_demand_feasible` of DP band ``k``."""
        periods = self.periods
        if self.edf and sum(c / p for p, c in zip(periods, costs)) > 1.0:
            return False
        _, start, end, hyperperiod = self.bands[k]
        interference = list(zip(periods[:start], costs[:start]))
        if not _demand_feasible(
            self.tasks[start:end], costs[start:end], interference, hyperperiod
        ):
            return False
        self.band_passed[k] = level
        return True

    def _task_passes(
        self,
        i: int,
        costs: List[int],
        level: float,
        responses: List[int],
        higher: List[Tuple[int, int]],
    ) -> bool:
        """Response-time test of FP task ``i`` under ``higher`` (every
        task before it).  ``responses`` holds lower bounds on this
        probe's response times; task ``i``'s exact one replaces its
        entry.  The start is the larger of its floor and ``R_{i-1} +
        C_i`` (:func:`_fp_response_times`)."""
        cost = costs[i]
        start = responses[i]
        if cost and i > self.fp_start:
            start = max(start, responses[i - 1] + cost)
        response = _response_time(cost, self.deadlines[i], higher, start)
        if response is None:
            return False
        responses[i] = response
        self.task_passed[i] = level
        return True
