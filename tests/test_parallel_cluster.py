"""Run chunking, same-instant re-runs, and replicated-state invariance.

``tests/test_cluster_sync.py`` proves the sync modes byte-agree on
traffic and membership; this file covers how a run is reached and what
survives it: a horizon reached in chunks whose edges sit mid-frame and
off the window lattice equals a one-shot lockstep run, re-running to the
instant a cluster already sits at moves nothing, and membership plus a
sequenced replicated channel (replica statuses and values, writer
counters, the ``net_registry`` export) are identical across sync modes.

The module and class names are kept from when these invariants were
also checked across worker counts of a parallel mode, since removed.
"""

from repro.kernel.program import Call, Program
from repro.net import Cluster, GlobalStateChannel, HeartbeatMonitor
from repro.net.cluster import SYNC_MODES
from repro.net.depend import net_registry
from repro.timeunits import ms, us
from tests.test_cluster_sync import _snapshot, _traffic_cluster, zero_kernel


class TestWorkerCountInvariance:
    def test_chunked_parallel_run_matches_one_shot_serial(self):
        reference = _traffic_cluster("lockstep", 3)
        reference.run_until(ms(40))
        expected = _snapshot(reference)
        for sync in SYNC_MODES:
            cluster = _traffic_cluster(sync, 3)
            # Chunk edges deliberately land mid-frame (us(50) is inside
            # the first 8-byte frame's wire time) and off the window
            # lattice.
            for t in (us(50), ms(7), ms(13), ms(40)):
                cluster.run_until(t)
            assert _snapshot(cluster) == expected, sync

    def _observed_cluster(self, sync):
        """Heartbeat membership + a sequenced replicated channel, with a
        mid-run crash and rejoin."""
        cluster = Cluster(sync=sync)
        for i in range(3):
            cluster.add_node(f"n{i}", zero_kernel())
        monitor = HeartbeatMonitor(cluster, period=ms(10))
        channel = GlobalStateChannel(
            cluster, "temp", can_id=0x20, writer_node="n0",
            driver_period=ms(10), sequenced=True,
        )
        channel.attach_membership(monitor)

        def pub(kern, thread):
            channel.publish(kern, thread, kern.now)

        cluster.nodes["n0"].create_thread(
            "pub", Program([Call(pub)]), period=ms(10), deadline=ms(10),
        )
        victim = cluster.nodes["n2"]
        victim.set_restart_policy("hb-tx:n2", max_restarts=1, backoff_ns=ms(30))
        victim.schedule_event(
            ms(35), lambda: victim.crash_thread("hb-tx:n2", "test"),
            label="silence",
        )
        return cluster, monitor, channel

    def test_membership_and_replicas_invariant(self):
        results = {}
        for sync in SYNC_MODES:
            cluster, monitor, channel = self._observed_cluster(sync)
            cluster.run_until(ms(160))
            results[sync] = {
                "events": list(monitor.events),
                "changes": monitor.changes,
                "views": {n: monitor.view(n) for n in cluster.nodes},
                "statuses": channel.statuses(),
                "replicas": {
                    n: channel.read_replica(n) for n in cluster.nodes
                },
                "writer": channel.writer_stats(),
                "metrics": net_registry(
                    cluster, [channel], monitor
                ).to_json(),
                "traces": cluster.trace_signatures(include_segments=True),
            }
        assert results["lockstep"]["events"], "crash was never observed"
        assert results["lockstep"]["statuses"]["n1"].updates > 5
        assert results["lockstep"]["writer"]["resync_broadcasts"] > 0
        assert results["adaptive"] == results["lockstep"]


class TestLifecycle:
    def test_rerun_to_same_instant_is_a_noop(self):
        for sync in SYNC_MODES:
            cluster = _traffic_cluster(sync, 2)
            cluster.run_until(ms(15))
            rounds = cluster.sync_rounds
            before = _snapshot(cluster)
            cluster.run_until(ms(15))
            assert cluster.sync_rounds == rounds, sync
            assert _snapshot(cluster) == before, sync
