"""Figure 4: breakdown utilization with task periods divided by 2.

Moderate periods (2.5-500 ms).  The paper's finding: EDF starts above
RM but its O(n) selection cost catches up -- by n = 40 RM is superior
to EDF, and CSD beats both ("for n = 40, CSD-4 has 50% lower overhead
than RM, which in turn has lower overhead than EDF for this large n").
"""

from common import bench_task_counts, bench_workers, bench_workloads, publish_artifact
from repro import artifacts


def test_figure4(benchmark):
    values = publish_artifact(
        benchmark,
        artifacts.figure4,
        workloads_per_point=bench_workloads(),
        task_counts=bench_task_counts(),
        workers=bench_workers(),
    )

    by = values["breakdown"]
    counts = values["task_counts"]
    first, last = 0, len(counts) - 1
    # EDF above RM for small n...
    assert by["edf"][first] > by["rm"][first]
    # ...CSD above both at large n.
    assert by["csd-3"][last] > by["edf"][last]
    assert by["csd-3"][last] > by["rm"][last]
    # The EDF-over-RM gap shrinks (or flips) as n grows.
    gap_small = by["edf"][first] - by["rm"][first]
    gap_large = by["edf"][last] - by["rm"][last]
    assert gap_large < gap_small
