"""Section 7 (reconstructed): mailbox vs state-message IPC overhead.

The supplied copy of the paper is truncated before Section 7's
evaluation, so this benchmark reconstructs the comparison its design
implies (Sections 1-3 + the journal version's state-message design):
distributing one periodic sensor value to k readers through

* **mailboxes** -- one kernel send per reader plus one kernel receive
  each: two traps and two copies per reader per period; vs
* **a state message** -- one lock-free slot write per period and one
  lock-free read per reader: no kernel traps at all.

Reported: kernel time consumed per distributed value, as a function of
the reader count and of the message size (mailbox copies are per-byte;
state-message slots are fixed).
"""

from common import publish_artifact
from repro import artifacts
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel
from repro.kernel.kernel import Kernel
from repro.kernel.program import Program, StateRead, StateWrite
from repro.timeunits import ms


def test_ipc(benchmark):
    values = publish_artifact(benchmark, artifacts.ipc)
    # State messages must win, and the gap must grow with reader count.
    ratios = [m / s for m, s in values["by_readers_ns"].values()]
    assert all(r > 1.0 for r in ratios)
    assert ratios[-1] > ratios[0]
    # Mailbox cost grows with the message size; state messages do not.
    by_size = list(values["by_size_ns"].values())
    assert by_size[-1][0] > by_size[0][0]
    assert by_size[-1][1] == by_size[0][1]


def test_state_message_has_no_traps(benchmark):
    def run():
        kernel = Kernel(EDFScheduler(OverheadModel()))
        kernel.create_channel("c", slots=4)
        kernel.create_thread(
            "writer", Program([StateWrite("c", value=1)]), period=ms(10),
            deadline=ms(2),
        )
        kernel.create_thread(
            "reader", Program([StateRead("c")]), period=ms(10), deadline=ms(5)
        )
        trace = kernel.run_until(ms(200))
        return trace

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    assert trace.kernel_time.get("syscall", 0) == 0
    assert trace.kernel_time.get("ipc", 0) == 0
    assert trace.kernel_time["state-msg"] > 0
