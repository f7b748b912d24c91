#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload control --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's fixed work until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` does the same,
then runs one more repetition with spans around every layer entry point
(see ``layers.py``) and reports the per-layer metrics instead.  Either
way the correctness checks run outside the timed phase, a human-readable
report (host fingerprint, pinned knobs, every metric by name and unit,
the work counters) is printed first, and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command exits non-zero when a check fails or the deterministic work
counters differ between repetitions of the same seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Every environment knob the program reads, pinned for each run:
#: fork snapshots, serial sweeps, serial clusters, observation off.
KNOBS = {
    "REPRO_SNAPSHOT": "fork",
    "REPRO_BENCH_WORKERS": "1",
    "REPRO_CLUSTER_WORKERS": "0",
    "REPRO_BENCH_OBS": "",
}

#: Set-ups timed per repetition (the last one's state is run), so
#: ``setup_s`` is the fastest of samples spread over the whole run.
SETUPS_PER_REP = 10
#: Repetitions always made, so counters can be compared between them.
MIN_REPS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def host_fingerprint() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def tail(values):
    """``(value, percentile)`` of the highest percentile with at least
    ten samples beyond it, or ``(max, 100.0)`` below eleven samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def per_unit_fastest(samples):
    """Each unit's fastest time over the repetitions.  Unit counts are
    fixed per workload, so percentiles over units do not depend on how
    many repetitions fit in the run."""
    return [min(column) for column in zip(*samples)]


def code_fingerprint() -> str:
    """Digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files + [HERE / "reference.json"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeat(workload_name: str, seed: int, result, host: dict) -> str:
    """Compare this run's deterministic record with the one an earlier
    run of the same code and seed left behind (then replace it).
    Returns a failure message, or an empty string."""
    record = {
        "code": code_fingerprint(),
        "host": host,
        "knobs": KNOBS,
        "counters": result["counters"],
        "results": hashlib.sha256(
            repr(sorted(result.get("results", {}).items())).encode()
        ).hexdigest(),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload_name}-seed{seed}.record.json"
    try:
        earlier = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        earlier = None
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    same = ("counters", "results")
    if (earlier is not None and earlier.get("code") == record["code"]
            and any(earlier.get(key) != record[key] for key in same)):
        return ("deterministic counters or results differ from an earlier "
                f"run of the same code and seed ({path.name})")
    return ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("breakdown", "control", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(KNOBS)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    host = host_fingerprint()
    workload = WORKLOADS[args.workload](args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("knobs: " + " ".join(f"{k}={v!r}" for k, v in KNOBS.items())
          + f" gc={'on' if gc.isenabled() else 'off'}")

    failures = []
    attempted = 0
    failed = 0

    def timed_setup(samples):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        samples.append(time.perf_counter() - start)
        return state

    setup_samples = []
    walls = []
    unit_samples = []
    reference = None
    result = None
    began = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - began < args.seconds:
        for _ in range(SETUPS_PER_REP):
            state = timed_setup(setup_samples)
        units = []
        gc.collect()
        start = time.perf_counter()
        try:
            result = workload.run(state, units)
        except Exception:
            failures.append(f"repetition {len(walls)} raised:\n"
                            + traceback.format_exc())
            result = None
            break
        walls.append(time.perf_counter() - start)
        unit_samples.append(units)
        attempted += len(units)
        if reference is None:
            reference = result
        elif (result["counters"] != reference["counters"]
              or result.get("results") != reference.get("results")):
            failed += len(units)
            failures.append(
                f"repetition {len(walls) - 1}: deterministic counters or "
                "results differ from repetition 0"
            )
        del state

    rusage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(rusage, children) / 1024.0

    if reference is not None:
        mismatch = check_repeat(args.workload, args.seed, reference, host)
        if mismatch:
            failures.append(mismatch)
            failed += 1
    if result is not None:
        try:
            checked, check_failures = workload.check(result)
        except Exception:
            checked, check_failures = 1, ["check raised:\n" + traceback.format_exc()]
        attempted += checked
        failed += len(check_failures)
        failures += check_failures
    else:
        attempted += 1
        failed += 1

    # Fastest observations, not medians: the host switches between a
    # fast and a ~1.5x slower speed every few seconds, so a median lands
    # in whichever state held most of the run (see README.md).
    unit_values = per_unit_fastest(unit_samples) if unit_samples else [0.0]
    if workload.units_partition:
        wall_s = sum(unit_values)
    else:
        wall_s = min(walls) if walls else 0.0
    setup_s = min(setup_samples)
    unit_tail, tail_pct = tail(unit_values)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "unit_p50_ms": 1000.0 * statistics.median(unit_values),
        "unit_tail_ms": 1000.0 * unit_tail,
        "peak_rss_mb": peak_rss_mb,
    }
    counters = dict(reference["counters"]) if reference else {}
    print(f"setup_s = {setup_s:.6f} s (fastest of {len(setup_samples)} set-ups)")
    how = ("sum over units of each unit's fastest time"
           if workload.units_partition else "fastest repetition")
    print(f"wall_s = {wall_s:.6f} s ({how}; {len(walls)} repetitions of the "
          f"fixed work, median repetition {statistics.median(walls):.6f} s)")
    if workload.sim_ns and wall_s:
        print(f"sim_ns_per_s = {workload.sim_ns / wall_s:.6g} virtual ns/s "
              f"({workload.sim_ns} virtual ns per repetition)")
    else:
        print("sim_ns_per_s = n/a (this workload simulates nothing)")
    label = "search" if args.workload == "breakdown" else "unit"
    print(f"{label}_p50_ms = {end_to_end['unit_p50_ms']:.6f} ms "
          f"(unit: {workload.unit}; {len(unit_values)} units, each its "
          "fastest over the repetitions)")
    print(f"{label}_tail_ms = {end_to_end['unit_tail_ms']:.6f} ms "
          f"(p{tail_pct:.1f} of {len(unit_values)} units, 10 beyond it)")
    print(f"peak_rss_mb = {peak_rss_mb:.3f} MiB (max of this process and "
          "its reaped children)")
    print(f"failed_ratio = {failed}/{attempted} failed/attempted units")
    print("counters: " + json.dumps(counters, sort_keys=True))

    if args.trace:
        try:
            baseline = statistics.median(setup_samples) + statistics.median(walls)
            metrics = traced_pass(workload, layers, end_to_end, baseline,
                                  counters, failures, args)
        except Exception:
            failures.append("traced pass raised:\n" + traceback.format_exc())
            metrics = None
        if metrics is None:
            failed += 1
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}

    for failure in failures:
        print("FAIL: " + failure)
    correct = not failures
    # A failure outside any unit (e.g. a record mismatch) still counts
    # one failed unit; no more units fail than were attempted.
    failed = min(max(failed, 0 if correct else 1), attempted)
    if metrics is None:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_pass(workload, layers, end_to_end, baseline, counters, failures, args):
    """One more repetition with every layer entry point spanned.

    ``baseline`` is an untraced set-up plus repetition (medians), the
    denominator of ``trace.overhead_ratio``."""
    tracer = layers.Tracer()
    workload.tracer = tracer
    units = []
    with layers.Instrumentation(tracer):
        gc.collect()
        tracer.set_run("setup")
        start = time.perf_counter()
        state = workload.setup()
        result = workload.run(state, units, tracer)
        traced_wall = time.perf_counter() - start
    workload.tracer = None
    if result["counters"] != counters:
        failures.append("traced repetition: work counters differ from the "
                        "untraced repetitions")

    totals = tracer.aggregate()
    busy = dict(totals["busy_s"])
    calls = dict(totals["calls"])
    metas = result.get("metas", ())
    for meta in metas:
        for key in ("spans", "prefix_spans"):
            shipped = meta.get(key)
            if not shipped:
                continue
            for layer, spent in shipped["busy_s"].items():
                busy[layer] += spent
            for name, count in shipped["calls"].items():
                calls[name] = calls.get(name, 0) + count
    self_s = totals["self_s"]

    def count(name):
        return calls.get(name, 0)

    durations = tracer.durations()

    def seconds(name):
        return sum(durations[name])

    c = dict.fromkeys(layers.COUNTERS, 0)
    c.update(counters)
    tests = [d for name in ("edf_schedulable", "rm_schedulable",
                            "dm_schedulable", "csd_schedulable")
             for d in durations[name]]
    searches = count("breakdown_utilization")
    wall_ns = end_to_end["wall_s"] * 1e9
    test_tail = tail(tests)[0] if tests else 0.0
    points = result.get("points", 0)

    values = {
        "analysis.calls": (len(tests), "count"),
        "analysis.calls_per_search": (len(tests) / searches if searches else 0.0, "count"),
        "analysis.busy_s": (busy["analysis"], "s"),
        "analysis.self_s": (self_s["analysis"], "s"),
        "analysis.csd.busy_s": (seconds("csd_schedulable"), "s"),
        "analysis.rm.busy_s": (seconds("rm_schedulable"), "s"),
        "analysis.call_p50_us": (1e6 * statistics.median(tests) if tests else 0.0, "us"),
        "analysis.call_tail_us": (1e6 * test_tail, "us"),
        "analysis.feasible_ratio": (
            sum(tracer.feasible.values()) / len(tests) if tests else 0.0, "ratio"),
        "engine.events_popped": (c["engine.events_popped"], "count"),
        "engine.events_scheduled": (count("EventQueue.schedule"), "count"),
        "engine.busy_s": (busy["engine"], "s"),
        "engine.self_s": (self_s["engine"], "s"),
        "engine.host_ns_per_event": (
            wall_ns / c["engine.events_popped"] if c["engine.events_popped"] else 0.0,
            "ns"),
        "sched.blocks": (c["sched.blocks"], "count"),
        "sched.unblocks": (c["sched.unblocks"], "count"),
        "sched.selects": (c["sched.selects"], "count"),
        "sched.pi_operations": (c["sched.pi_operations"], "count"),
        "sched.busy_s": (busy["sched"], "s"),
        "sched.self_s": (self_s["sched"], "s"),
        "kernel.dispatches": (c["kernel.dispatches"], "count"),
        "kernel.context_switches": (c["kernel.context_switches"], "count"),
        "kernel.syscalls": (c["kernel.syscalls"], "count"),
        "kernel.run_calls": (count("Kernel.run_until"), "count"),
        "kernel.busy_s": (busy["kernel"], "s"),
        "kernel.self_s": (self_s["kernel"], "s"),
        "kernel.host_ns_per_dispatch": (
            wall_ns / c["kernel.dispatches"] if c["kernel.dispatches"] else 0.0,
            "ns"),
        "sync.acquires": (c["sync.acquires"], "count"),
        "sync.contended_ratio": (
            c["sync.contended_acquires"] / c["sync.acquires"]
            if c["sync.acquires"] else 0.0, "ratio"),
        "sync.busy_s": (busy["sync"], "s"),
        "sync.self_s": (self_s["sync"], "s"),
        "ipc.mailbox_ops": (c["ipc.mailbox_ops"], "count"),
        "ipc.state_ops": (c["ipc.state_ops"], "count"),
        "ipc.busy_s": (busy["ipc"], "s"),
        "ipc.self_s": (self_s["ipc"], "s"),
        "bus.frames_delivered": (c["bus.frames_delivered"], "count"),
        "bus.frames_filtered": (c["bus.frames_filtered"], "count"),
        "bus.frames_retransmitted": (c["bus.frames_retransmitted"], "count"),
        "bus.error_frames": (c["bus.error_frames"], "count"),
        "bus.process_calls": (count("Fieldbus.process"), "count"),
        "bus.busy_s": (busy["bus"], "s"),
        "bus.self_s": (self_s["bus"], "s"),
        "cluster.sync_rounds": (c["cluster.sync_rounds"], "count"),
        "cluster.windows_skipped": (c["cluster.windows_skipped"], "count"),
        "cluster.skip_ratio": (
            c["cluster.windows_skipped"]
            / (c["cluster.sync_rounds"] + c["cluster.windows_skipped"])
            if c["cluster.sync_rounds"] else 0.0, "ratio"),
        "cluster.deliveries_suppressed": (c["cluster.deliveries_suppressed"], "count"),
        "cluster.self_s": (self_s["cluster"], "s"),
        "snapshot.prefixes": (count("SnapshotServer.__init__"), "count"),
        "snapshot.prefix_s": (
            sum(m["prefix_wall"] for m in metas if m["first"]), "s"),
        "snapshot.points_restored": (c.get("snapshot.points_restored", 0), "count"),
        "snapshot.restore_ratio": (
            c.get("snapshot.points_restored", 0) / points if points else 0.0,
            "ratio"),
        "snapshot.continuation_s": (sum(m["elapsed"] for m in metas), "s"),
        "snapshot.results_s": (seconds("SnapshotServer.results"), "s"),
        "snapshot.busy_s": (busy["snapshot"], "s"),
        "snapshot.self_s": (self_s["snapshot"], "s"),
    }
    attributed = sum(self_s.values())
    values["trace.wall_s"] = (traced_wall, "s")
    values["trace.other_s"] = (traced_wall - attributed, "s")
    values["trace.overhead_ratio"] = (traced_wall / baseline, "ratio")
    values["trace.spans"] = (len(tracer), "count")

    print("per-layer (traced repetition: set-up + timed phase; self times of "
          "this process plus trace.other_s add up to trace.wall_s; busy_s "
          "also counts forked sweep children):")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  self-time check: {' + '.join(f'{layer} {self_s[layer]:.4f}' for layer in layers.LAYERS)}"
          f" + other {traced_wall - attributed:.4f} = {traced_wall:.4f} s")
    print("  note: the kernel inlines Scheduler.select/on_block in its "
          "dispatcher; queue operations beneath them are in sched, the "
          "scheduler's own policy code stays in kernel.self_s")
    layer_of = dict(tracer.names)
    for layer in workload.idle_layers:
        work = sum(n for name, n in calls.items()
                   if layers.LAYERS[layer_of[name]] == layer)
        work += sum(v for k, v in c.items() if k.startswith(layer + "."))
        print(f"  prediction: {layer} idle on {args.workload}: "
              + ("holds" if work == 0 else f"does not hold ({work} calls and counts)"))

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(path)
    print(f"spans: {len(tracer)} written to {path.relative_to(HERE.parent)}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


if __name__ == "__main__":
    sys.exit(main())
