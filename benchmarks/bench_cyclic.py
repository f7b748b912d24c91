"""Section 5's motivation: cyclic executives vs priority scheduling.

Not a numbered figure, but the paper's three claims against cyclic
time-slice scheduling open Section 5 and justify CSD's existence.
This benchmark makes each claim measurable:

1. schedule tables blow up when periods are relatively prime
   ("wasting scarce memory resources" -- on a 32-128 KB part!);
2. high-priority aperiodic work waits for frame slack, where a
   priority scheduler dispatches it immediately;
3. workloads that priority schedulers handle trivially can have no
   legal cyclic schedule at all.
"""

from common import publish_artifact
from repro import artifacts


def test_cyclic(benchmark):
    values = publish_artifact(benchmark, artifacts.cyclic)
    # The prime-period table dwarfs the harmonic one.
    table_bytes = values["table_bytes"]
    assert table_bytes["prime 7/11/13/17"] > 20 * table_bytes["harmonic 10/20/40"]
    # Aperiodic work waits for frame slack; EDF dispatches it at once.
    assert values["cyclic_response_ns"] > 2 * values["priority_response_ns"]
    # A workload any priority scheduler handles defeats the cyclic
    # executive entirely (no legal frame / table too large).
    assert values["edf_schedulable"] and not values["cyclic_schedulable"]
