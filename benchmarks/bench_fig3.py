"""Figure 3: breakdown utilization vs task count, base periods.

Base workloads draw periods from the Section 5.7 mix (5-9 ms, 10-99 ms,
100-999 ms with equal probability).  The paper's findings to reproduce:

* CSD beats both EDF and RM over the whole range;
* CSD-4's advantage over EDF grows from ~17% lower total overhead at
  n = 15 to >40% at n = 40 -- visible here as the CSD curves holding
  up while EDF degrades with n;
* CSD-3 clearly improves on CSD-2 at large n, CSD-4 only marginally
  improves on CSD-3.
"""

from common import bench_task_counts, bench_workers, bench_workloads, publish_artifact
from repro import artifacts


def test_figure3(benchmark):
    values = publish_artifact(
        benchmark,
        artifacts.figure3,
        workloads_per_point=bench_workloads(),
        task_counts=bench_task_counts(),
        workers=bench_workers(),
    )

    by = values["breakdown"]
    last = len(values["task_counts"]) - 1
    # CSD-3 beats EDF and RM at the largest n.
    assert by["csd-3"][last] > by["edf"][last]
    assert by["csd-3"][last] > by["rm"][last]
    # CSD-4 ~ CSD-3 (only minimal further improvement, Section 5.7).
    assert abs(by["csd-4"][last] - by["csd-3"][last]) < 3.0
    # EDF close to ideal at small n with long periods.
    assert by["edf"][0] > 90.0
