"""Soundness validation: the analytic Figures 3-5 model vs the kernel.

The breakdown figures are computed analytically (as the paper did);
this benchmark scales random workloads to 2% inside their analytic
breakdown point and replays them on the live kernel with the full
overhead charging.  Zero deadline misses on the feasible side means
the analysis is operationally sound -- the analytic curves could be
regenerated (much more slowly) by pure simulation.
"""

from common import publish_artifact
from repro import artifacts


def test_validation(benchmark):
    assert publish_artifact(benchmark, artifacts.validate)["sound"]
