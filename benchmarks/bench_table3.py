"""Table 3: per-case run-time overheads of CSD-3.

The table gives asymptotic costs for the four block/unblock cases by
queue kind (DP1, DP2, FP) with q = |DP1|, r = |DP1| + |DP2|, n = total.
We regenerate it two ways:

* analytically, from the per-period overhead model used by the
  schedulability analysis (the same Section 5.4 case analysis);
* empirically, by driving a live CSD-3 scheduler and measuring the
  *charged* costs of each primitive, then fitting the slopes in q, r,
  and n to confirm each O(.) entry.
"""

from common import publish_artifact
from repro import artifacts
from repro.core.csd import CSDScheduler
from repro.core.overhead import OverheadModel
from repro.core.queues import Schedulable


def build_csd3(q, r, n):
    """CSD-3 with DP1 = q tasks, DP2 = r - q, FP = n - r; all ready."""
    sched = CSDScheduler(OverheadModel(), dp_queue_count=2)
    entries = []
    for i in range(n):
        band = 0 if i < q else (1 if i < r else 2)
        e = Schedulable(f"t{i}", (i, f"t{i}"))
        e.ready = True
        e.abs_deadline = 10_000_000 + i
        e.csd_queue = band
        sched.add_task(e)
        entries.append(e)
    return sched, entries


def measured_costs(q, r, n):
    """Charged (t_b, t_s after block) for one task of each band."""
    sched, entries = build_csd3(q, r, n)
    out = {}
    for band, index in (("DP1", 0), ("DP2", q), ("FP", r)):
        task = entries[index]
        t_b = sched.on_block(task)
        # Worst-case for DP-task blocks: make every DP queue empty of
        # ready tasks except the one the selector must parse.
        _, t_s = sched.select()
        sched.on_unblock(task)
        out[band] = (t_b, t_s)
    return out


def test_table3(benchmark):
    """The analytic table, and the CSD-3 motivation: splitting the DP
    queue reduces the overhead of the shortest-period tasks (Section
    5.5.1)."""
    values = publish_artifact(benchmark, artifacts.table3)
    assert values["csd3_dp1_ns"] < values["csd2_dp_ns"]


def test_dp1_block_is_constant_in_n(benchmark):
    """DP task t_b is O(1): independent of every queue size."""

    def measure():
        small = measured_costs(3, 6, 12)["DP1"][0]
        large = measured_costs(3, 6, 60)["DP1"][0]
        return small, large

    small, large = benchmark(measure)
    assert small == large


def test_fp_block_scales_with_fp_queue(benchmark):
    """FP task t_b is O(n - r): grows with the FP queue only."""
    model = OverheadModel()

    def measure():
        a = measured_costs(3, 6, 16)["FP"][0]   # fp size 10
        b = measured_costs(3, 6, 26)["FP"][0]   # fp size 20
        return a, b

    a, b = benchmark(measure)
    assert b - a == 10 * model.rm_block_per_task_ns


def test_selection_parses_first_live_dp_queue(benchmark):
    """After a DP1 task blocks with DP1 still live, selection parses
    DP1 (O(q)); with DP1 empty it parses DP2 (O(r - q))."""
    model = OverheadModel()

    def measure():
        sched, entries = build_csd3(5, 15, 20)
        # All DP1 ready: block one, selector parses DP1 (len 5).
        sched.on_block(entries[0])
        _, ts_live = sched.select()
        # Now block the rest of DP1: selector must parse DP2 (len 10).
        for e in entries[1:5]:
            sched.on_block(e)
        _, ts_empty = sched.select()
        return ts_live, ts_empty

    ts_live, ts_empty = benchmark(measure)
    parse = 3 * model.queue_parse_ns
    assert ts_live == parse + model.edf_select(5)
    assert ts_empty == parse + model.edf_select(10)


def test_fp_selection_constant_when_no_dp_ready(benchmark):
    model = OverheadModel()

    def measure():
        sched, entries = build_csd3(2, 4, 30)
        for e in entries[:4]:
            sched.on_block(e)
        _, ts = sched.select()
        return ts

    ts = benchmark(measure)
    assert ts == 3 * model.queue_parse_ns + model.rm_select(26)
