"""Figure 5: breakdown utilization with task periods divided by 3.

Short periods (1.7-333 ms) invoke the scheduler most often.  The
paper's finding: "these short periods allow RM to quickly overtake
EDF.  Nevertheless, CSD continues to be superior to both."
"""

from common import bench_task_counts, bench_workers, bench_workloads, publish_artifact
from repro import artifacts


def test_figure5(benchmark):
    values = publish_artifact(
        benchmark,
        artifacts.figure5,
        workloads_per_point=bench_workloads(),
        task_counts=bench_task_counts(),
        workers=bench_workers(),
    )

    by = values["breakdown"]
    last = len(values["task_counts"]) - 1
    # RM overtakes EDF at large n with short periods.
    assert by["rm"][last] > by["edf"][last]
    # CSD superior to both across the range's tail.
    assert by["csd-3"][last] > by["rm"][last]
    assert by["csd-3"][last] > by["edf"][last]
    # CSD-2 -> CSD-3 is a significant improvement at large n.
    assert by["csd-3"][last] >= by["csd-2"][last] - 0.5
