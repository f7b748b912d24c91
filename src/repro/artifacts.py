"""The paper's evaluation artifacts, one function per table or figure.

Each function computes one artifact and renders it.  It returns an
:class:`Artifact`: the rendered texts, keyed by the file stem they are
published under in ``benchmarks/results/``, and the values those texts
render.  ``python -m repro.reproduce <target>`` prints the texts; each
``benchmarks/bench_<x>.py`` publishes them and checks the paper's
findings against the values.

``quick=True`` shrinks the parameters of the slow sweeps (Figures 3-5
and 11, the soundness check) and changes nothing else; the other
artifacts ignore it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Sequence

from repro.analysis import ascii_series, format_table
from repro.core.cyclic import CyclicScheduleError, build_cyclic_schedule
from repro.core.edf import EDFScheduler
from repro.core.overhead import OverheadModel, ZERO_OVERHEAD
from repro.core.schedulability import csd_overhead_per_period, edf_schedulable
from repro.core.task import TaskSpec, Workload, table2_workload
from repro.kernel.footprint import KERNEL_CODE_BYTES, kernel_footprint
from repro.kernel.kernel import Kernel
from repro.kernel.program import Compute, Program, Recv, Send, StateRead, StateWrite
from repro.sim.breakdown import figure_series
from repro.sim.kernelsim import simulate_workload
from repro.sim.semexp import figure11_series
from repro.sim.validate import validate_breakdown
from repro.sim.workload import generate_workload
from repro.timeunits import ms, to_ms, to_us, us

#: The repository root (``examples/`` lives there).
_REPO = Path(__file__).parent.parent.parent

#: The Figures 3-5 curves and x axis (the paper's n = 5..50).
FIGURE_POLICIES = ("csd-4", "csd-3", "csd-2", "edf", "rm")
TASK_COUNTS = tuple(range(5, 51, 5))


class Artifact(NamedTuple):
    """Rendered texts by ``benchmarks/results/`` stem, and their values."""

    texts: Dict[str, str]
    values: Dict[str, Any]


def table1(quick: bool = False) -> Artifact:
    """Table 1: scheduler primitive overheads, and the heap crossover."""
    model = OverheadModel()
    primitives = {
        "EDF": (model.edf_block, model.edf_unblock, model.edf_select),
        "RM": (model.rm_block, model.rm_unblock, model.rm_select),
        "heap": (model.heap_block, model.heap_unblock, model.heap_select),
    }
    overheads = {
        n: {
            f"{queue} {op}": to_us(cost(n))
            for queue, costs in primitives.items()
            for op, cost in zip(("t_b", "t_u", "t_s"), costs)
        }
        for n in (5, 10, 15, 25, 40, 58)
    }
    table = format_table(
        ["n", *overheads[5]],
        [[n, *(f"{v:.2f}" for v in row.values())] for n, row in overheads.items()],
        title="Table 1: scheduler primitive overheads (us; paper's MC68040 model)",
    )

    def per_period(block, unblock, select, n):
        return block(n) + unblock(n) + 2 * select(n)

    crossover = next(
        (
            n
            for n in range(2, 200)
            if per_period(*primitives["heap"], n) < per_period(*primitives["RM"], n)
        ),
        None,
    )
    return Artifact(
        {
            "table1": table,
            "table1_crossover": "heap implementation first beats the sorted "
            f"queue at n = {crossover} (paper: n = 58)",
        },
        {"overheads_us": overheads, "heap_crossover": crossover},
    )


def table2(quick: bool = False) -> Artifact:
    """Table 2 (reconstructed): the workload RM cannot schedule."""
    workload = table2_workload()
    rows = [
        [t.name, t.period / 1e6, t.wcet / 1e6, f"{t.utilization:.3f}"]
        for t in workload
    ]
    rows.append(["total", "", "", f"{workload.utilization:.3f}"])
    table = format_table(
        ["task", "P (ms)", "c (ms)", "U"],
        rows,
        title="Table 2 (reconstructed): U = 0.88, EDF-feasible, RM-infeasible",
    )
    return Artifact({"table2": table}, {"utilization": workload.utilization})


def figure2(quick: bool = False) -> Artifact:
    """Figure 2: the Table 2 workload under RM, EDF and CSD-2."""
    workload = table2_workload()
    kernel, trace = simulate_workload(
        workload, "rm", duration=ms(40), model=ZERO_OVERHEAD
    )
    rm_misses = sorted({j.thread for j in trace.deadline_violations(kernel.now)})
    gantt = trace.gantt_ascii(
        0, ms(10), columns=60, threads=[f"tau{i}" for i in range(1, 6)]
    )
    misses = {}
    for policy, splits in (("edf", None), ("csd-2", (5,))):
        kernel, trace = simulate_workload(
            workload, policy, duration=ms(200), model=ZERO_OVERHEAD, splits=splits
        )
        misses[policy] = len(trace.deadline_violations(kernel.now))
    return Artifact(
        {
            "figure2_rm": "Figure 2: RM schedule of the Table 2 workload\n"
            + gantt
            + f"\ndeadline misses: {rm_misses} (paper: tau5)",
            "figure2_alternatives": format_table(
                ["policy", "deadline misses in 200 ms"],
                [[p, v] for p, v in misses.items()],
                title="Table 2 workload under EDF and CSD-2 (DP = tau1..tau5)",
            ),
        },
        {"rm_misses": rm_misses, "misses": misses},
    )


def table3(quick: bool = False) -> Artifact:
    """Table 3: CSD-3 per-band overheads, and the gain of a third queue."""
    model = OverheadModel()
    bands = (("DP1", "O(r)"), ("DP2", "O(2r - q)"), ("FP", "O(n - q)"))
    per_band = {  # q = 8, r = 20, n = 40
        band: csd_overhead_per_period(model, [8, 12, 20], idx)
        for idx, (band, _) in enumerate(bands)
    }
    csd2 = csd_overhead_per_period(model, [20, 20], 0)
    csd3 = csd_overhead_per_period(model, [10, 10, 20], 0)
    return Artifact(
        {
            "table3": format_table(
                ["band", "paper total", "per-period overhead (us), q=8 r=20 n=40"],
                [
                    [band, total, f"{to_us(per_band[band]):.1f}"]
                    for band, total in bands
                ],
                title="Table 3: CSD-3 per-band scheduling overhead",
            ),
            "table3_split_gain": "CSD-2 DP-task per-period overhead (r=20): "
            f"{to_us(csd2):.1f} us\n"
            "CSD-3 DP1-task per-period overhead (q=10, r=20): "
            f"{to_us(csd3):.1f} us",
        },
        {"per_band_ns": per_band, "csd2_dp_ns": csd2, "csd3_dp1_ns": csd3},
    )


_FIGURE_TITLES = {
    1: "Figure 3: average breakdown utilization (%), base periods "
    "({} workloads/point; paper used 500)",
    2: "Figure 4: average breakdown utilization (%), periods / 2 "
    "({} workloads/point)",
    3: "Figure 5: average breakdown utilization (%), periods / 3 "
    "({} workloads/point)",
}


def _breakdown_figure(
    divisor: int,
    quick: bool,
    workloads_per_point: int,
    task_counts: Sequence[int],
    workers: Optional[int],
) -> Artifact:
    if quick:
        workloads_per_point, task_counts = 8, (5, 15, 30, 50)
    series = figure_series(
        task_counts,
        FIGURE_POLICIES,
        workloads_per_point=workloads_per_point,
        seed=1,
        workers=workers,
        period_divisor=divisor,
    )
    text = ascii_series(
        series.task_counts,
        series.values,
        title=_FIGURE_TITLES[divisor].format(workloads_per_point),
        x_label="n",
    )
    return Artifact(
        {f"figure{divisor + 2}": text},
        {"task_counts": series.task_counts, "breakdown": series.values},
    )


def figure3(
    quick: bool = False,
    workloads_per_point: int = 25,
    task_counts: Sequence[int] = TASK_COUNTS,
    workers: Optional[int] = None,
) -> Artifact:
    """Figure 3: breakdown utilization, base periods."""
    return _breakdown_figure(1, quick, workloads_per_point, task_counts, workers)


def figure4(
    quick: bool = False,
    workloads_per_point: int = 25,
    task_counts: Sequence[int] = TASK_COUNTS,
    workers: Optional[int] = None,
) -> Artifact:
    """Figure 4: breakdown utilization, periods / 2."""
    return _breakdown_figure(2, quick, workloads_per_point, task_counts, workers)


def figure5(
    quick: bool = False,
    workloads_per_point: int = 25,
    task_counts: Sequence[int] = TASK_COUNTS,
    workers: Optional[int] = None,
) -> Artifact:
    """Figure 5: breakdown utilization, periods / 3."""
    return _breakdown_figure(3, quick, workloads_per_point, task_counts, workers)


def figure11(quick: bool = False) -> Artifact:
    """Figure 11 + Sec 6.4: semaphore acquire/release overhead."""
    lengths = (3, 9, 15, 21, 30) if quick else tuple(range(3, 31, 3))
    titles = {
        "dp": "Figure 11: semaphore acquire/release overhead (us), DP queue",
        "fp": "Section 6.4: semaphore overhead (us), FP queue",
    }
    texts, pairs = {}, {}
    for queue, title in titles.items():
        rows = figure11_series(queue, lengths)
        pairs[queue] = {n: (standard, emeralds) for n, standard, emeralds in rows}
        texts[f"figure11_{queue}"] = ascii_series(
            lengths,
            {
                "standard": [to_us(r[1]) for r in rows],
                "emeralds": [to_us(r[2]) for r in rows],
            },
            title=title,
            x_label="queue length",
        )
    dp_std, dp_new = pairs["dp"][15]
    fp_std, fp_new = pairs["fp"][15]
    texts["figure11_headline"] = "\n".join(
        [
            "Section 6.4 headline numbers (paper -> measured):",
            f"  DP std @15:  39.3 us -> {to_us(dp_std):.1f} us",
            f"  DP new @15:  28.3 us -> {to_us(dp_new):.1f} us "
            f"(saving {to_us(dp_std - dp_new):.1f} us = "
            f"{100 * (dp_std - dp_new) / dp_std:.0f}%)",
            f"  FP std @15:  39.8 us -> {to_us(fp_std):.1f} us",
            f"  FP new:      29.4 us -> {to_us(fp_new):.1f} us "
            f"(saving {to_us(fp_std - fp_new):.1f} us = "
            f"{100 * (fp_std - fp_new) / fp_std:.0f}%)",
        ]
    )
    return Artifact(texts, {"pair_ns": pairs})


def _ipc_time(trace) -> int:
    """Kernel time attributable to the IPC mechanism itself: copies,
    traps, and slot operations.  Scheduling and context-switch costs
    are common to both designs and excluded."""
    return (
        trace.kernel_time.get("ipc", 0)
        + trace.kernel_time.get("syscall", 0)
        + trace.kernel_time.get("state-msg", 0)
    )


def _distribute(readers: int, size: int, mailbox: bool, periods: int = 50) -> float:
    """Kernel ns per value a 10 ms writer hands to ``readers`` readers,
    through one mailbox per reader or through one state channel."""
    kernel = Kernel(EDFScheduler(OverheadModel()))
    if mailbox:
        for i in range(readers):
            kernel.create_mailbox(f"m{i}", capacity=2, max_message_size=max(64, size))
        write = [Send(f"m{i}", size=size, payload="v") for i in range(readers)]
    else:
        kernel.create_channel("c", slots=4)
        write = [StateWrite("c", value="v")]
    kernel.create_thread("writer", Program(write), period=ms(10), deadline=ms(2))
    for i in range(readers):
        read = Recv(f"m{i}") if mailbox else StateRead("c")
        kernel.create_thread(
            f"reader{i}",
            Program([read, Compute(us(10))]),
            period=ms(10),
            deadline=ms(5 + i),
        )
    return _ipc_time(kernel.run_until(ms(10) * periods)) / periods


def _per_period(ns: float) -> str:
    return f"{to_us(round(ns)):.1f}"


def ipc(quick: bool = False) -> Artifact:
    """Section 7 (reconstructed): mailbox vs state-message IPC."""
    by_readers = {
        k: (_distribute(k, 16, mailbox=True), _distribute(k, 16, mailbox=False))
        for k in (1, 2, 4, 8)
    }
    by_size = {
        size: (
            _distribute(2, size, mailbox=True), _distribute(2, size, mailbox=False)
        )
        for size in (8, 32, 128, 512)
    }
    return Artifact(
        {
            "ipc_readers": format_table(
                ["readers", "mailbox (us/period)", "state msg (us/period)", "ratio"],
                [
                    [k, _per_period(m), _per_period(s), f"{m / s:.2f}x"]
                    for k, (m, s) in by_readers.items()
                ],
                title="Reconstructed Sec. 7: kernel time to distribute one "
                "16-byte value",
            ),
            "ipc_sizes": format_table(
                ["bytes", "mailbox (us/period)", "state msg (us/period)"],
                [
                    [size, _per_period(m), _per_period(s)]
                    for size, (m, s) in by_size.items()
                ],
                title="Reconstructed Sec. 7: per-byte mailbox copies vs "
                "fixed-cost slots",
            ),
        },
        {"by_readers_ns": by_readers, "by_size_ns": by_size},
    )


def _workload(*pairs_ms) -> Workload:
    return Workload(
        TaskSpec(name=f"t{i}", period=ms(p), wcet=ms(c))
        for i, (p, c) in enumerate(pairs_ms)
    )


def cyclic(quick: bool = False) -> Artifact:
    """Section 5 motivation: cyclic-executive pathologies."""
    # 1. Relatively prime periods blow up the schedule table.
    table_bytes, rows = {}, []
    for name, w in (
        ("harmonic 10/20/40", _workload((10, 1), (20, 2), (40, 2))),
        ("mixed 10/25/50", _workload((10, 1), (25, 2), (50, 2))),
        ("prime 7/11/13", _workload((7, 1), (11, 1), (13, 1))),
        ("prime 7/11/13/17", _workload((7, 1), (11, 1), (13, 1), (17, 1))),
    ):
        try:
            schedule = build_cyclic_schedule(w)
        except CyclicScheduleError as exc:
            table_bytes[name] = None
            rows.append([name, "-", "-", f"UNSCHEDULABLE ({exc})"])
            continue
        table_bytes[name] = schedule.table_bytes
        rows.append(
            [
                name,
                f"{to_ms(schedule.hyperperiod):.0f}",
                schedule.table_entries,
                schedule.table_bytes,
            ]
        )

    # 2. Aperiodic work waits for frame slack; under EDF it is
    # dispatched at once (released at the worst phase, right after
    # both periodic releases).
    w = _workload((10, 4), (20, 8))  # U = 0.8
    cyclic_response = build_cyclic_schedule(w).worst_case_aperiodic_response(ms(2))
    kernel = Kernel(EDFScheduler(OverheadModel()))
    for t in w:
        kernel.create_thread(t.name, Program([Compute(t.wcet)]), period=t.period)
    kernel.create_thread(
        "aperiodic", Program([Compute(ms(2))]), priority=0, deadline=ms(5)
    )
    kernel.activate("aperiodic", at=us(10))
    priority_response = kernel.run_until(ms(100)).jobs_of("aperiodic")[0].response_time

    # 3. Workloads any priority scheduler handles can have no legal
    # cyclic schedule at all.
    w = _workload((9.97, 0.5), (11.19, 0.5), (13.01, 0.5), (17.03, 0.5))
    edf_ok = edf_schedulable(w)
    try:
        build_cyclic_schedule(w)
        cyclic_ok = True
    except CyclicScheduleError:
        cyclic_ok = False

    return Artifact(
        {
            "cyclic_table_size": format_table(
                ["workload", "hyperperiod (ms)", "table entries", "table bytes"],
                rows,
                title=(
                    "Cyclic executive table size (paper Sec. 5: relatively prime "
                    "periods waste scarce memory; target RAM is 32-128 KB)"
                ),
            ),
            "cyclic_aperiodic": format_table(
                ["scheduler", "worst-case aperiodic response (ms)"],
                [
                    ["cyclic executive (frame slack)",
                     f"{to_ms(cyclic_response):.1f}"],
                    ["EDF kernel (priority dispatch)",
                     f"{to_ms(priority_response):.2f}"],
                ],
                title="Aperiodic response to a 2 ms job, U = 0.8 periodic load",
            ),
            "cyclic_brittleness": f"EDF schedulable: {edf_ok}; cyclic executive "
            f"schedulable: {cyclic_ok} (U = 0.17, but the periods are nearly "
            "relatively prime)",
        },
        {
            "table_bytes": table_bytes,
            "cyclic_response_ns": cyclic_response,
            "priority_response_ns": priority_response,
            "edf_schedulable": edf_ok,
            "cyclic_schedulable": cyclic_ok,
        },
    )


def footprint(quick: bool = False) -> Artifact:
    """Small-memory footprint of the example applications."""
    examples = str(_REPO / "examples")
    if examples not in sys.path:
        sys.path.insert(0, examples)
    reports = {}
    for name in ("quickstart", "engine_control", "voice_pipeline"):
        module = importlib.import_module(name)
        kernel = (
            module.build_kernel("emeralds")
            if name == "engine_control"
            else module.build_kernel()
        )
        reports[name] = kernel_footprint(kernel)

    # One value to k readers: k mailboxes of depth 4 vs one 4-slot channel.
    ipc_bytes = {}
    for readers in (2, 4, 8):
        mailboxes = Kernel(EDFScheduler(ZERO_OVERHEAD))
        for i in range(readers):
            mailboxes.create_mailbox(f"m{i}", capacity=4, max_message_size=16)
        channel = Kernel(EDFScheduler(ZERO_OVERHEAD))
        channel.create_channel("c", slots=4)
        ipc_bytes[readers] = (
            kernel_footprint(mailboxes).data_bytes,
            kernel_footprint(channel).data_bytes,
        )

    def fits(report, kb):
        return "yes" if report.fits(kb * 1024) else "NO"

    return Artifact(
        {
            "footprint": format_table(
                ["application", "data (B)", "code+data (B)", "fits 32 KB",
                 "fits 128 KB"],
                [
                    [name, r.data_bytes, r.total_bytes, fits(r, 32), fits(r, 128)]
                    for name, r in reports.items()
                ],
                title=(
                    f"Memory footprint (kernel code {KERNEL_CODE_BYTES} B, the "
                    "paper's 13 KB): the Section 2 parts have 32-128 KB total"
                ),
            ),
            "footprint_ipc": format_table(
                ["readers", "k mailboxes (B)", "one state channel (B)"],
                [[k, m, s] for k, (m, s) in ipc_bytes.items()],
                title="RAM to distribute one value to k readers",
            ),
        },
        {"reports": reports, "ipc_data_bytes": ipc_bytes},
    )


def validate(quick: bool = False) -> Artifact:
    """Soundness: analytic breakdown vs the live kernel (2% inside)."""
    policies = ("edf", "rm") if quick else ("edf", "rm", "csd-2", "csd-3")
    rows, sound = [], True
    for policy in policies:
        for seed in (0, 1, 2):
            result = validate_breakdown(
                generate_workload(6, seed=seed, utilization=0.5), policy
            )
            sound = sound and result.sound
            rows.append(
                [
                    policy,
                    seed,
                    f"{100 * result.breakdown_utilization:.1f}%",
                    "clean" if result.sound else f"{result.violations} MISSES",
                ]
            )
    return Artifact(
        {
            "validation": format_table(
                ["policy", "workload seed", "analytic breakdown", "kernel at 98%"],
                rows,
                title="Analytic-vs-kernel soundness check (2% inside breakdown)",
            )
        },
        {"sound": sound},
    )
