"""Checkpoint/restore snapshots: byte-identity is the contract.

Every test here pins the same invariant from a different angle: a
sweep point restored from a shared-prefix fork snapshot must be
**byte-identical** to cold-starting that point -- full-record
trace signatures, metrics exports, membership timelines, everything.
The graceful-degradation paths (``REPRO_SNAPSHOT=0``, no ``os.fork``)
must produce the same bytes too, just slower.
"""

import pytest

from repro.faults.chaos import (
    chaos_continue,
    chaos_prefix,
    net_chaos_continue,
    net_chaos_prefix,
    run_chaos,
    run_net_chaos,
)
from repro.perf import snapshot as snapshot_mod
from repro.perf.snapshot import (
    SNAPSHOT_ENV,
    SnapshotError,
    SnapshotServer,
    fork_available,
    resolve_snapshot_mode,
)
from repro.perf.sweeps import PrefixSpec, prefix_map
from repro.timeunits import ms

requires_fork = pytest.mark.skipif(
    not fork_available(), reason="os.fork unavailable"
)

MODES = [pytest.param("fork", marks=requires_fork)]

DUR = ms(300)
WARM = ms(225)
SEEDS = (1, 2)
RATES = (5.0, 50.0)


def _chaos_cold(rate, seed):
    return run_chaos(
        seed,
        DUR,
        wcet_overrun_rate=rate,
        crash_rate=rate / 10,
        clock_jitter_rate=rate / 2,
        faults_from=WARM,
    )


def _chaos_plan(case):
    rate, seed = case
    spec = PrefixSpec(
        key=("chaos", WARM),
        t_split=WARM,
        build=lambda: chaos_prefix(True, t_split=WARM),
    )

    def continuation(kernel):
        return chaos_continue(
            kernel,
            seed,
            DUR,
            wcet_overrun_rate=rate,
            crash_rate=rate / 10,
            clock_jitter_rate=rate / 2,
            faults_from=WARM,
        )

    return spec, continuation


class TestChaosEquality:
    """Kernel fault sweeps: restored == cold, across seeds and modes."""

    @pytest.mark.parametrize("mode", MODES)
    def test_restored_points_equal_cold(self, mode):
        cases = [(rate, seed) for rate in RATES for seed in SEEDS]
        cold = [_chaos_cold(rate, seed) for rate, seed in cases]
        restored = prefix_map(_chaos_plan, cases, mode=mode)
        assert restored == cold
        for a, b in zip(cold, restored):
            assert a.trace_signature == b.trace_signature
            assert a.trace_signature  # non-trivial signature

    def test_zero_rate_pause_is_pure_chunking(self):
        """With no faults, the warm-up pause is just a chunked run:
        the signature must match the single-run reference exactly."""
        paused = run_chaos(1, DUR, faults_from=WARM)
        reference = run_chaos(1, DUR)
        assert paused.trace_signature == reference.trace_signature

    @pytest.mark.parametrize("mode", MODES)
    def test_metrics_exports_identical(self, mode):
        """The observability collector survives the snapshot: JSON and
        Prometheus exports of a restored run match the cold run
        byte-for-byte."""

        def plan(case):
            (seed,) = case
            spec = PrefixSpec(
                key=("chaos-obs", WARM),
                t_split=WARM,
                build=lambda: chaos_prefix(True, t_split=WARM, obs="full"),
            )

            def continuation(kernel):
                result = chaos_continue(
                    kernel, seed, DUR,
                    wcet_overrun_rate=20.0, faults_from=WARM,
                )
                return (
                    result,
                    kernel.obs.metrics_json(),
                    kernel.obs.metrics_prometheus(),
                )

            return spec, continuation

        def cold(seed):
            kernel = chaos_prefix(True, t_split=WARM, obs="full")
            result = chaos_continue(
                kernel, seed, DUR, wcet_overrun_rate=20.0, faults_from=WARM
            )
            return (
                result,
                kernel.obs.metrics_json(),
                kernel.obs.metrics_prometheus(),
            )

        cases = [(seed,) for seed in SEEDS]
        expected = [cold(seed) for (seed,) in cases]
        restored = prefix_map(plan, cases, mode=mode)
        assert restored == expected


class TestNetChaosEquality:
    """Cluster sweeps: membership timelines included."""

    NET = dict(
        dependability=True,
        max_retransmits=8,
        silence_node="n2",
        silence_at=ms(120),
        rejoin_backoff_ns=ms(100),
    )
    NET_DUR = ms(400)
    NET_WARM = ms(100)

    def _plan(self, case):
        drop_p, seed = case
        spec = PrefixSpec(
            key=("netchaos", self.NET_DUR, self.NET_WARM),
            t_split=self.NET_WARM,
            build=lambda: net_chaos_prefix(
                self.NET_DUR, t_split=self.NET_WARM, **self.NET
            ),
        )

        def continuation(state):
            return net_chaos_continue(
                state, seed, drop_p=drop_p, faults_from=self.NET_WARM
            )

        return spec, continuation

    @pytest.mark.parametrize("mode", MODES)
    def test_restored_cluster_equal_cold(self, mode):
        cases = [(drop_p, seed) for drop_p in (0.15,) for seed in SEEDS]
        cold = [
            run_net_chaos(
                seed,
                self.NET_DUR,
                drop_p=drop_p,
                faults_from=self.NET_WARM,
                **self.NET,
            )
            for drop_p, seed in cases
        ]
        restored = prefix_map(self._plan, cases, mode=mode)
        assert restored == cold
        for a, b in zip(cold, restored):
            assert a.signature == b.signature
            assert a.membership_events == b.membership_events
            # The silenced node must actually exercise the timeline.
            assert a.membership_events


class TestGracefulDegradation:
    """``REPRO_SNAPSHOT=0`` and fork-less platforms fall back to cold
    runs transparently -- same results, no snapshot machinery."""

    def _poison_server(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("SnapshotServer constructed in cold mode")

        monkeypatch.setattr(snapshot_mod, "SnapshotServer", boom)

    def test_env_zero_disables_snapshots(self, monkeypatch):
        monkeypatch.setenv(SNAPSHOT_ENV, "0")
        self._poison_server(monkeypatch)
        cases = [(rate, seed) for rate in (50.0,) for seed in SEEDS]
        cold = [_chaos_cold(rate, seed) for rate, seed in cases]
        assert prefix_map(_chaos_plan, cases) == cold

    def test_auto_without_fork_degrades_to_cold(self, monkeypatch):
        monkeypatch.setenv(SNAPSHOT_ENV, "auto")
        monkeypatch.setattr(snapshot_mod, "fork_available", lambda: False)
        self._poison_server(monkeypatch)
        assert resolve_snapshot_mode() == "cold"
        assert resolve_snapshot_mode("fork") == "cold"
        cases = [(rate, seed) for rate in (5.0,) for seed in SEEDS]
        cold = [_chaos_cold(rate, seed) for rate, seed in cases]
        assert prefix_map(_chaos_plan, cases) == cold

    def test_single_member_groups_run_cold(self, monkeypatch):
        """A prefix shared by nobody is not worth a server."""
        self._poison_server(monkeypatch)
        cases = [(5.0, 1)]
        assert prefix_map(_chaos_plan, cases, mode="fork") == [
            _chaos_cold(5.0, 1)
        ]


class TestSnapshotServer:
    @requires_fork
    def test_continuation_error_propagates(self):
        def bad_continuation(state):
            raise ValueError("boom in child")

        server = SnapshotServer(lambda: {"t": 0}, [bad_continuation])
        with pytest.raises(SnapshotError, match="boom in child"):
            server.ready()
            server.results()
        server.close()

    @requires_fork
    def test_children_see_private_state(self):
        """Copy-on-write isolation: every child mutates its own copy."""

        def continuation(state):
            state["log"].append(state["who"])
            state["who"] += 1
            return (state["who"], tuple(state["log"]))

        with SnapshotServer(
            lambda: {"who": 0, "log": []}, [continuation] * 3
        ) as server:
            assert server.ready() >= 0.0
            results = server.results()
        assert results == [(1, (0,)), (1, (0,)), (1, (0,))]


class TestResolveMode:
    def test_env_spellings(self, monkeypatch):
        expected_auto = "fork" if fork_available() else "cold"
        for raw, want in (
            ("", expected_auto),
            ("1", expected_auto),
            ("on", expected_auto),
            ("auto", expected_auto),
            ("0", "cold"),
            ("off", "cold"),
            ("cold", "cold"),
        ):
            monkeypatch.setenv(SNAPSHOT_ENV, raw)
            assert resolve_snapshot_mode() == want, raw

    def test_invalid_values_rejected(self, monkeypatch):
        # A stale setting naming a removed mechanism must fail loudly,
        # not quietly fall back to another one.
        for raw in ("banana", "deepcopy"):
            monkeypatch.setenv(SNAPSHOT_ENV, raw)
            with pytest.raises(ValueError, match="REPRO_SNAPSHOT"):
                resolve_snapshot_mode()
            with pytest.raises(ValueError, match="unknown snapshot mode"):
                resolve_snapshot_mode(raw)
