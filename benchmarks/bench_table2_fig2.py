"""Table 2 + Figure 2: the workload that breaks RM but not EDF/CSD.

Regenerates Figure 2 by actually scheduling the Table 2 workload in
the live kernel under RM (tau5 misses its deadline exactly as the
paper's trace shows), then under EDF and CSD-2 with tau1..tau5 on the
DP queue (no misses).
"""

from common import publish_artifact
from repro import artifacts


def test_figure2(benchmark):
    values = publish_artifact(benchmark, artifacts.figure2)
    assert values["rm_misses"] == ["tau5"]
    assert values["misses"] == {"edf": 0, "csd-2": 0}


def test_table2(benchmark):
    values = publish_artifact(benchmark, artifacts.table2)
    assert abs(values["utilization"] - 0.88) < 0.01
