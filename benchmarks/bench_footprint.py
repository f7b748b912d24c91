"""Memory-footprint accounting against the 32-128 KB target parts.

The paper's code-size claim ("a rich set of OS services in just 13
kbytes") cannot be reproduced in Python, but the *data* side of the
small-memory budget can: the RAM the kernel's objects occupy on the
modeled part.  This benchmark accounts every example application and
checks the whole repo's applications stay inside the paper's memory
envelope -- plus the mailbox-vs-state-message memory trade-off.
"""

from common import publish_artifact
from repro import artifacts


def test_footprint(benchmark):
    values = publish_artifact(benchmark, artifacts.footprint)
    # Everything must fit the paper's top-end part; the modest apps
    # must fit the bottom-end part too.
    reports = values["reports"]
    assert all(r.fits(128 * 1024) for r in reports.values())
    assert reports["quickstart"].fits(32 * 1024)
    # One value to k readers: the state message wins on RAM too, and
    # mailbox memory grows with readers while the channel's does not.
    ipc_bytes = list(values["ipc_data_bytes"].values())
    assert all(state < mailbox for mailbox, state in ipc_bytes)
    assert ipc_bytes[-1][0] > ipc_bytes[0][0]
    assert ipc_bytes[-1][1] == ipc_bytes[0][1]
