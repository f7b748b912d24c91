"""Regenerate the paper's evaluation from the command line.

Usage::

    python -m repro.reproduce            # every target (several minutes)
    python -m repro.reproduce --quick    # smaller sweeps (~30 s)
    python -m repro.reproduce figure3 figure11 table1   # selected targets
    python -m repro.reproduce COMMAND [flags]           # one extension

Targets print the paper's tables and figures to stdout.
``python -m repro.reproduce --help`` lists every target and command
with a one-line summary (built from :data:`TARGETS` and
:data:`COMMANDS`); ``python -m repro.reproduce COMMAND --help`` lists
that command's flags.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import artifacts
from repro.analysis import format_table
from repro.core.overhead import OverheadModel
from repro.sim.kernelsim import simulate_workload
from repro.timeunits import ms, to_ms, to_us

#: The repository root (``benchmarks/`` lives there).
_REPO = Path(__file__).parent.parent.parent


def _banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


#: Each target prints the texts of one artifact of the paper's evaluation.
TARGETS: Dict[str, Callable[..., artifacts.Artifact]] = {
    fn.__name__: fn
    for fn in (
        artifacts.table1,
        artifacts.table2,
        artifacts.figure2,
        artifacts.table3,
        artifacts.figure3,
        artifacts.figure4,
        artifacts.figure5,
        artifacts.figure11,
        artifacts.ipc,
        artifacts.cyclic,
        artifacts.footprint,
        artifacts.validate,
    )
}


# ----------------------------------------------------------------------
# Commands: each is (add_flags(parser), run(args) -> exit code).
# ----------------------------------------------------------------------
def _bounded(convert, accept, requirement: str):
    """An argparse ``type=``: convert the text, then enforce a bound."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement} (got {text})"
            )
        return value

    parse.__name__ = convert.__name__  # argparse names it in errors
    return parse


_positive_int = _bounded(int, lambda v: v > 0, "positive")
_non_negative_int = _bounded(int, lambda v: v >= 0, "non-negative")
_at_least_2 = _bounded(int, lambda v: v >= 2, "at least 2")
_non_negative = _bounded(float, lambda v: v >= 0, "non-negative")
_probability = _bounded(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_utilization = _bounded(float, lambda v: 0 < v <= 1, "in (0, 1]")


def _faults_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--duration-ms", type=_positive_int, default=1000,
        help="virtual run length",
    )
    parser.add_argument(
        "--wcet-overrun", type=_non_negative, default=0.0, metavar="RATE",
        help="WCET-overrun faults per virtual second",
    )
    parser.add_argument(
        "--crash", type=_non_negative, default=0.0, metavar="RATE",
        help="thread-crash faults per virtual second",
    )
    parser.add_argument(
        "--jitter", type=_non_negative, default=0.0, metavar="RATE",
        help="clock-jitter faults per virtual second",
    )
    parser.add_argument(
        "--no-defenses", action="store_true",
        help="disable budgets and restart policies",
    )


def run_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection chaos harness once."""
    from repro.faults.chaos import run_chaos

    result = run_chaos(
        args.seed,
        ms(args.duration_ms),
        wcet_overrun_rate=args.wcet_overrun,
        crash_rate=args.crash,
        clock_jitter_rate=args.jitter,
        defenses=not args.no_defenses,
    )
    _banner(
        f"Chaos run: seed {result.seed}, {args.duration_ms} ms, "
        f"defenses {'on' if result.defenses else 'off'}"
    )
    injected = ", ".join(
        f"{k}={v}" for k, v in sorted(result.faults_injected.items())
    ) or "none"
    print(f"faults planned/injected: {result.faults_planned} / {injected}")
    print(f"deadline-miss ratio:     {result.miss_ratio:.3f}")
    rows = [
        [name, f"{ratio:.3f}"] for name, ratio in result.service_ratio.items()
    ]
    print(format_table(["task", "on-time service"], rows))
    print(f"jobs aborted:            {result.jobs_aborted}")
    print(f"threads lost:            {', '.join(result.threads_dead) or 'none'}")
    print(f"recovery after burst:    {to_ms(result.recovery_ns):.1f} ms")
    print(f"trace signature:         {result.trace_signature[:16]}")
    return 0


def _netfaults_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--duration-ms", type=_positive_int, default=1000,
        help="virtual run length",
    )
    parser.add_argument("--nodes", type=_at_least_2, default=4)
    parser.add_argument(
        "--drop", type=_probability, default=0.0, metavar="P",
        help="per-frame drop probability on the wire",
    )
    parser.add_argument(
        "--corrupt", type=_probability, default=0.0, metavar="P",
        help="per-frame corruption (CRC-failure) probability",
    )
    parser.add_argument(
        "--retransmits", type=_non_negative_int, default=8,
        help="retransmission bound per frame (0 = retries off)",
    )
    parser.add_argument(
        "--no-dependability", action="store_true",
        help="disarm error confinement, retries, and membership entirely",
    )
    parser.add_argument(
        "--stale-policy", choices=("hold", "invalidate"), default="hold",
        help="replica degradation once the freshness bound is exceeded",
    )
    parser.add_argument(
        "--silence", metavar="NODE", default=None,
        help="crash this node's heartbeat sender mid-run (e.g. n2)",
    )
    parser.add_argument(
        "--rejoin-ms", type=int, default=None, metavar="MS",
        help="restart the silenced sender after this back-off",
    )


def run_netfaults(args: argparse.Namespace) -> int:
    """Run the dependable-fieldbus chaos harness once.

    Covers CAN error confinement, bounded retransmission, heartbeat
    membership and replica freshness.
    """
    from repro.faults.chaos import run_net_chaos

    result = run_net_chaos(
        args.seed,
        ms(args.duration_ms),
        nodes=args.nodes,
        drop_p=args.drop,
        corrupt_p=args.corrupt,
        dependability=not args.no_dependability,
        max_retransmits=args.retransmits,
        stale_policy=args.stale_policy,
        silence_node=args.silence,
        rejoin_backoff_ns=(
            ms(args.rejoin_ms) if args.rejoin_ms is not None else None
        ),
    )
    _banner(
        f"Network chaos: seed {result.seed}, {result.nodes} nodes, "
        f"{args.duration_ms} ms, drop {result.drop_p:g}, "
        f"corrupt {result.corrupt_p:g}, "
        f"retries {result.max_retransmits or 'off'}"
    )
    print(f"updates published:       {result.published}")
    broadcasts = max(1, result.published + result.rebroadcasts)
    rows = [
        [node, updates, f"{updates / broadcasts:.3f}"]
        for node, updates in sorted(result.per_node_updates.items())
    ]
    print(format_table(["replica", "updates", "ratio"], rows))
    print(f"worst delivery ratio:    {result.delivery_ratio:.3f}")
    print(
        f"retransmissions:         {result.frames_retransmitted} "
        f"({result.retransmits_exhausted} exhausted)"
    )
    print(f"error frames on wire:    {result.error_frames}")
    print(f"bus-off events:          {result.bus_off_events}")
    print(
        f"sequence gaps / dups:    {result.seq_gaps} / {result.duplicates}"
    )
    print(
        f"stale episodes/resyncs:  {result.stale_episodes} / {result.resyncs} "
        f"(+{result.rebroadcasts} rejoin re-broadcasts)"
    )
    print(f"worst replica age:       {to_ms(result.worst_staleness_ns):.1f} ms")
    print(f"worst update latency:    {to_us(result.worst_latency_ns):.0f} us")
    if result.membership_events:
        print("membership timeline:")
        for time, observer, peer, status in result.membership_events:
            print(
                f"  {to_ms(time):8.1f} ms  {observer} sees {peer} {status}"
            )
    else:
        print("membership timeline:     no transitions")
    print(f"signature:               {result.signature[:16]}")
    return 0


def _perf_flags(parser: argparse.ArgumentParser) -> None:
    from repro.perf.trajectory import DEFAULT_MAX_REGRESSION
    from repro.sim.trace import RECORD_MODES

    parser.add_argument(
        "--mode", choices=RECORD_MODES, default="jobs-only",
        help="trace recording mode for the timed runs",
    )
    parser.add_argument(
        "--repeats", type=_positive_int, default=1,
        help="pooled repetitions of the three policy runs",
    )
    parser.add_argument(
        "--label", default="perf-cli", help="label recorded in the entry"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also cProfile the run and print the hottest functions",
    )
    parser.add_argument(
        "--append", metavar="PATH", default=None,
        help="append the measurement to this trajectory file",
    )
    parser.add_argument(
        "--check", metavar="PATH", default=None,
        help="fail when throughput regressed vs this trajectory's baseline",
    )
    parser.add_argument(
        "--max-regression", type=float, default=DEFAULT_MAX_REGRESSION,
        help="allowed fractional drop below baseline (default 0.30)",
    )
    parser.add_argument(
        "--no-signatures", action="store_true",
        help="skip the full-mode signature cross-check runs",
    )


def run_perf(args: argparse.Namespace) -> int:
    """Measure simulator throughput on the canonical workload.

    Measures the bench_kernel_overhead workload (EDF / RM / CSD-3, 2 s
    of virtual time each), prints the counter report and the full-mode
    trace signatures, and optionally appends to / gates against the
    persistent perf trajectory (BENCH_kernel.json).
    """
    from repro.perf.profiler import profile_call
    from repro.perf.trajectory import (
        append_entry,
        config_hash,
        make_entry,
        regression_gate,
    )
    from repro.perf.workloads import (
        full_signatures,
        run_throughput,
        throughput_config,
    )

    report = run_throughput(args.mode, repeats=args.repeats, label=args.label)
    print(report.render())

    signatures = None
    if not args.no_signatures:
        signatures = full_signatures()
        print("full-trace signatures (must not move across optimizations):")
        for policy, signature in signatures.items():
            print(f"  {policy:>6}: {signature}")

    if args.profile:
        _, text = profile_call(run_throughput, args.mode, limit=20)
        print()
        print(text)

    config = throughput_config(args.mode)
    if args.check is not None:
        passed, line = regression_gate(
            args.check,
            report.throughput_sim_ns_per_s,
            config_hash(config),
            args.max_regression,
        )
        print(line, file=sys.stdout if passed else sys.stderr)
        if not passed:
            return 1
    if args.append is not None:
        entry = make_entry(args.label, report.as_dict(), config, signatures)
        append_entry(args.append, entry)
        print(f"appended to {args.append} (config {entry['config_hash']})")
    return 0


def _benchmarks() -> Dict[str, str]:
    """The benchmark registry (``benchmarks/common.py``): name -> style."""
    bench_dir = str(_REPO / "benchmarks")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from common import BENCHMARKS  # noqa: E402

    return BENCHMARKS


def _bench_flags(parser: argparse.ArgumentParser) -> None:
    available = sorted(_benchmarks())
    parser.add_argument(
        "names", nargs="+", choices=["all", *available], metavar="NAME",
        help=f"benchmarks to run, or 'all'; available: {', '.join(available)}",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--record", choices=("full", "jobs-only", "off"), default=None
    )
    parser.add_argument(
        "--obs", choices=("counters", "full"), default=None,
        help="attach an observability collector to live-kernel runs",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="pass --smoke to CLI-style benchmarks (e.g. faults, obs)",
    )


def run_bench(args: argparse.Namespace) -> int:
    """Run the benchmark suite, or a selection of it.

    'bench all' runs every benchmark; 'bench fig3 kernel_overhead'
    runs a selection (names map to benchmarks/bench_<name>.py).  The
    shared --seed/--out/--workers/--record flags configure the runs via
    the environment knobs in benchmarks/common.py, whose BENCHMARKS
    registry says how each benchmark is invoked.
    """
    registry = _benchmarks()
    from common import apply_bench_args  # noqa: E402

    names = sorted(registry) if "all" in args.names else args.names
    apply_bench_args(args)
    pytest_files: List[str] = []
    exit_code = 0
    for name in names:
        if registry[name] == "cli":
            # CLI-style benchmark: call its main() in-process.
            module = __import__(f"bench_{name}")
            cli_args = ["--smoke"] if args.smoke else []
            code = module.main(cli_args)
            exit_code = exit_code or code
        else:
            pytest_files.append(str(_REPO / "benchmarks" / f"bench_{name}.py"))
    if pytest_files:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_files])
        exit_code = exit_code or int(code)
    return exit_code


def _obs_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the ``trace`` and ``metrics`` commands."""
    parser.add_argument(
        "--policy", default="edf",
        help="scheduling policy for the canonical workload (default edf)",
    )
    parser.add_argument(
        "--horizon-ms", type=_positive_int, default=200,
        help="virtual run length in ms (default 200)",
    )
    parser.add_argument(
        "--demo", choices=("pi",), default=None,
        help="run the transitive priority-inversion demo instead of "
        "the canonical workload",
    )
    parser.add_argument(
        "--scheme", choices=("standard", "emeralds"), default="standard",
        help="semaphore scheme for --demo pi (default standard)",
    )


def _obs_run(args):
    """Run the selected workload with a full-mode collector attached.

    Returns ``(kernel, trace, collector)``.
    """
    from repro.obs.scenarios import run_pi_demo
    from repro.perf.workloads import min_overhead_splits, overhead_workload

    if args.demo == "pi":
        kernel, trace, collector = run_pi_demo(
            scheme=args.scheme, horizon=ms(max(20, args.horizon_ms))
        )
        return kernel, trace, collector
    workload = overhead_workload()
    splits = None
    if args.policy.startswith("csd-"):
        splits = min_overhead_splits(workload, 2, OverheadModel())
    kernel, trace = simulate_workload(
        workload,
        args.policy,
        duration=ms(args.horizon_ms),
        splits=splits,
        record="full",
        obs="full",
    )
    return kernel, trace, kernel.obs


def _trace_flags(parser: argparse.ArgumentParser) -> None:
    _obs_flags(parser)
    parser.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )


def run_trace(args: argparse.Namespace) -> int:
    """Run a workload and export a Perfetto-loadable Chrome trace."""
    from repro.obs.tracer import export_chrome_trace

    kernel, trace, collector = _obs_run(args)
    count = export_chrome_trace(args.out, trace, collector)
    print(trace.summary(kernel.now))
    print(
        f"wrote {count} trace events to {args.out} "
        "(load at https://ui.perfetto.dev)"
    )
    return 0


def _metrics_flags(parser: argparse.ArgumentParser) -> None:
    _obs_flags(parser)
    parser.add_argument(
        "--format", choices=("text", "json", "prom"), default="text",
        help="output format (default: rendered text reports)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the output to this path"
    )


def run_metrics(args: argparse.Namespace) -> int:
    """Report per-task latency, semaphore blocking and PI chains."""
    from repro.obs.analyzers import (
        blocking_report,
        latency_report,
        pi_chain_report,
    )

    kernel, trace, collector = _obs_run(args)
    if args.format == "json":
        output = collector.metrics_json()
    elif args.format == "prom":
        output = collector.metrics_prometheus()
    else:
        output = "\n\n".join(
            [
                latency_report(trace),
                blocking_report(collector),
                pi_chain_report(collector),
            ]
        )
    print(output)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(output if output.endswith("\n") else output + "\n")
        print(f"written to {args.out}")
    return 0


def _traced_ring_cluster(
    nodes: int, utilization: float, horizon_ns: int, sync: str
):
    """One fully-instrumented ring run; returns the cluster."""
    from repro.obs.cluster_trace import enable_cluster_tracing
    from repro.perf.clusterload import build_ring_cluster

    cluster = build_ring_cluster(nodes, utilization, sync, record="full")
    enable_cluster_tracing(cluster, obs="full")
    cluster.run_until(horizon_ns)
    return cluster


def _cluster_trace_text(payload: Dict) -> str:
    """The canonical on-disk serialization (what byte-identity compares)."""
    import json

    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _cluster_trace_flags(parser: argparse.ArgumentParser) -> None:
    from repro.net.cluster import SYNC_MODES

    parser.add_argument("--nodes", type=_at_least_2, default=4)
    parser.add_argument(
        "--utilization", type=_utilization, default=0.5,
        help="offered bus load of the ring senders (default 0.5)",
    )
    parser.add_argument(
        "--horizon-ms", type=_positive_int, default=100,
        help="virtual run length in ms (default 100)",
    )
    parser.add_argument(
        "--sync", choices=SYNC_MODES,
        default="adaptive", help="cluster synchronization mode",
    )
    parser.add_argument(
        "--out", default="cluster.trace.json",
        help="merged trace output path (default cluster.trace.json)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="also write the aggregated metrics registry JSON here",
    )
    parser.add_argument(
        "--prom-out", default=None,
        help="also write the Prometheus text exposition here",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="20 ms horizon instead of --horizon-ms",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="assert byte-identical output under the other sync mode "
        "before writing",
    )


def run_cluster_trace(args: argparse.Namespace) -> int:
    """Export one merged multi-node Perfetto timeline of the ring cluster.

    Runs the canonical ring workload with cluster-wide tracing armed,
    exports the merged Chrome/Perfetto JSON (one pid per node plus a
    bus pid, validated before writing), prints the bus-chain latency
    percentiles, and optionally writes the aggregated cross-node
    metrics registry.  --verify re-runs the same configuration under
    the other synchronization mode (lockstep against adaptive) and
    asserts the merged trace and metrics are byte-identical.
    """
    from repro.net.cluster import SYNC_MODES
    from repro.obs.analyzers import bus_chain_report
    from repro.obs.cluster_trace import (
        cluster_chrome_trace,
        cluster_metrics_registry,
    )
    from repro.obs.tracer import validate_chrome_trace

    horizon = ms(20 if args.quick else args.horizon_ms)

    _banner(
        f"Cluster trace: {args.nodes}-node ring, u={args.utilization:g}, "
        f"{to_ms(horizon):.0f} ms, sync={args.sync}"
    )
    cluster = _traced_ring_cluster(
        args.nodes, args.utilization, horizon, args.sync
    )
    payload = cluster_chrome_trace(cluster)
    count = validate_chrome_trace(payload)
    text = _cluster_trace_text(payload)
    bus_events = list(cluster.bus.bus_log or [])
    rx_logs = cluster.rx_logs()
    rx_timelines = cluster.rx_timelines()
    registry = cluster_metrics_registry(cluster)

    flow_pairs = sum(1 for e in payload["traceEvents"] if e.get("ph") == "s")
    print(
        f"merged events: {count} ({flow_pairs} flow pairs, "
        f"{len(payload['otherData']['nodes'])} node pids + bus pid)"
    )
    print()
    print(bus_chain_report(bus_events, rx_logs, rx_timelines))

    if args.verify:
        (sync,) = (mode for mode in SYNC_MODES if mode != args.sync)
        other = _traced_ring_cluster(
            args.nodes, args.utilization, horizon, sync
        )
        print()
        if _cluster_trace_text(cluster_chrome_trace(other)) != text:
            print(f"VERIFY FAILED: trace differs under {sync}")
            return 1
        if cluster_metrics_registry(other).to_json() != registry.to_json():
            print(f"VERIFY FAILED: metrics differ under {sync}")
            return 1
        print(f"verified byte-identical under {sync}")

    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"\nwrote {count} merged trace events to {args.out} "
          "(load at https://ui.perfetto.dev)")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w") as fh:
            fh.write(registry.to_json() + "\n")
        print(f"aggregated metrics JSON written to {args.metrics_out}")
    if args.prom_out is not None:
        with open(args.prom_out, "w") as fh:
            fh.write(registry.to_prometheus())
        print(f"Prometheus exposition written to {args.prom_out}")
    return 0


#: Every command: name -> (add its flags to a parser, run the parsed
#: flags and return the exit code).  ``main`` dispatches from here and
#: the root ``--help`` lists each name with its handler's first
#: docstring line.
COMMANDS: Dict[str, Tuple[Callable, Callable]] = {
    "faults": (_faults_flags, run_faults),
    "netfaults": (_netfaults_flags, run_netfaults),
    "perf": (_perf_flags, run_perf),
    "bench": (_bench_flags, run_bench),
    "trace": (_trace_flags, run_trace),
    "metrics": (_metrics_flags, run_metrics),
    "cluster-trace": (_cluster_trace_flags, run_cluster_trace),
}

_PROG = "python -m repro.reproduce"


def _summary(fn: Callable) -> str:
    return inspect.getdoc(fn).splitlines()[0]


def _target(name: str) -> str:
    # A type= check, not choices=: argparse tests the empty list that
    # nargs="*" yields without targets against choices and rejects it.
    if name not in TARGETS:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r}")
    return name


def _root_parser() -> argparse.ArgumentParser:
    """Targets and ``--quick``; the epilog lists targets and commands."""
    width = max(map(len, [*TARGETS, *COMMANDS]))
    lines = ["targets:"]
    lines += [f"  {n:<{width}}  {_summary(fn)}" for n, fn in TARGETS.items()]
    lines += ["", f"commands ({_PROG} COMMAND --help lists its flags):"]
    lines += [
        f"  {n:<{width}}  {_summary(run)}" for n, (_, run) in COMMANDS.items()
    ]
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Regenerate the EMERALDS paper's tables and figures.",
        epilog="\n".join(lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "targets", nargs="*", type=_target,
        metavar="{" + ",".join(TARGETS) + "}",
        help="artifacts to regenerate (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps for a fast pass"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] in COMMANDS:
        add_flags, run = COMMANDS[raw[0]]
        parser = argparse.ArgumentParser(
            prog=f"{_PROG} {raw[0]}", description=inspect.getdoc(run)
        )
        add_flags(parser)
        return run(parser.parse_args(raw[1:]))
    args = _root_parser().parse_args(raw)
    started = time.time()
    for target in args.targets or TARGETS:
        _banner(_summary(TARGETS[target]))
        for text in TARGETS[target](quick=args.quick).texts.values():
            print()
            print(text)
    print(f"\ndone in {time.time() - started:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
