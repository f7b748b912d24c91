"""Table 1: run-time overheads of the scheduler primitives.

Regenerates the table (``t_b``, ``t_u``, ``t_s`` for the EDF unsorted
queue, the RM sorted queue, and the RM heap, as functions of the queue
length) from the cost model -- which *is* the paper's table, charged by
the simulated kernel -- and additionally microbenchmarks the real
Python queue structures, confirming the complexity classes behind each
formula (O(1) flag flips, O(n) scans, O(log n) heap ops).
"""

import pytest

from common import publish_artifact
from repro import artifacts
from repro.core.queues import ReadyHeap, Schedulable, SortedQueue, UnsortedQueue


def make_entries(n, ready=True):
    entries = []
    for i in range(n):
        e = Schedulable(f"t{i}", (i, f"t{i}"))
        e.ready = ready
        e.abs_deadline = 1_000_000 + i
        entries.append(e)
    return entries


def test_table1(benchmark):
    """The Table 1 formulas at representative n, and the heap crossover."""
    values = publish_artifact(benchmark, artifacts.table1)
    # Paper-exact spot checks.
    at15 = values["overheads_us"][15]
    assert at15["EDF t_s"] == pytest.approx(1.2 + 0.25 * 15)
    assert at15["RM t_b"] == pytest.approx(1.0 + 0.36 * 15)
    # Table 1's discussion: the heap only beats the sorted queue for
    # very large n (58 on the paper's hardware).
    assert 40 <= values["heap_crossover"] <= 70


def test_edf_queue_ops_python_time(benchmark):
    """Microbenchmark: EDF block/unblock are O(1) in the real structure."""
    q = UnsortedQueue()
    entries = make_entries(50)
    for e in entries:
        q.add(e)
    target = entries[25]

    def cycle():
        q.block(target)
        q.unblock(target)

    benchmark(cycle)
    assert q.last_scan_steps == 1


def test_edf_select_scales_linearly(benchmark):
    """The EDF select really scans all n tasks."""
    q = UnsortedQueue()
    for e in make_entries(50):
        q.add(e)
    benchmark(q.select)
    assert q.last_scan_steps == 50


def test_rm_select_is_constant(benchmark):
    q = SortedQueue()
    for e in make_entries(50):
        q.add(e)
    benchmark(q.select)
    assert q.last_scan_steps == 1


def test_heap_ops(benchmark):
    q = ReadyHeap()
    entries = make_entries(50)
    for e in entries:
        q.add(e)
    target = entries[25]

    def cycle():
        q.block(target)
        q.unblock(target)
        q.select()

    benchmark(cycle)
