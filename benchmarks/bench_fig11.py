"""Figure 11 + the Section 6.4 FP-queue numbers: semaphore overheads.

Measures the contended acquire/release pair cost in the live kernel
(the Figure 6 scenario) as a function of the scheduler queue length,
for the standard implementation and the EMERALDS scheme, on both the
DP (EDF) queue and the FP (RM) queue.

Paper values this reproduces *exactly* (the cost model is calibrated
to them -- see ``repro.core.overhead``):

* DP queue, length 15: standard 39.3 us, EMERALDS 28.3 us -- an 11 us
  (28%) saving; standard slope exactly twice the EMERALDS slope.
* FP queue: EMERALDS constant at 29.4 us; at length 15 the standard
  implementation costs 39.8 us (10.4 us / 26% saving).
"""

from common import publish_artifact
from repro import artifacts
from repro.timeunits import us


def test_figure11(benchmark):
    pairs = publish_artifact(benchmark, artifacts.figure11)["pair_ns"]
    dp_std, dp_new = pairs["dp"][15]
    fp_std, fp_new = pairs["fp"][15]
    assert (dp_std, dp_new) == (us(39.3), us(28.3))
    assert dp_std - dp_new == us(11)
    assert fp_std - fp_new == us(10.4)
    # FP queue: EMERALDS flat at 29.4 us; standard linear.
    fp = list(pairs["fp"].values())
    assert {new for _, new in fp} == {us(29.4)}
    assert fp[-1][0] > fp[0][0]
