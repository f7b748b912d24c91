"""The benchmark's three workloads.

Each workload turns the benchmark seed into program inputs, then runs
the same fixed work in every repetition:

* ``setup()`` builds what one repetition needs (task sets, kernels,
  clusters) and is timed as ``setup_s``;
* ``run(state, units)`` is the timed phase; it appends one host time
  per unit of work to ``units`` (the units add up to the timed phase
  when ``units_partition`` is set) and returns a result whose
  deterministic part (``counters``) must be identical in every
  repetition;
* ``check(result)`` runs the correctness checks outside the timed
  phase and returns ``(units checked, failure messages)``.

All work runs in this process, except ``sweep``, whose fork-mode
snapshot servers run at most two simulating processes at once.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

from layers import add_counters, cluster_counters, kernel_counters, zero_counters

from repro.core.csd import CSDScheduler
from repro.core.overhead import OverheadModel
from repro.core.task import Workload
from repro.faults import chaos
from repro.kernel.kernel import Kernel
from repro.kernel.program import (
    Acquire, Call, Compute, Program, Recv, Release, Send, StateRead, Wait,
)
from repro.net.cluster import Cluster
from repro.net.fieldbus import Fieldbus
from repro.net.frame import Frame
from repro.perf import sweeps
from repro.perf import workloads as perf_workloads
from repro.sim import breakdown, validate
from repro.sim.workload import generate_base_workloads
from repro.timeunits import ms, us

REFERENCE = json.loads(
    (Path(__file__).with_name("reference.json")).read_text(encoding="utf-8")
)

#: The paper's MC68040 overhead model, used by every workload.
MODEL = OverheadModel()


class BreakdownWorkload:
    """Serial breakdown-utilization searches (Figures 3 and 5).

    The task sets are the figures' own base workloads (figure seed 0):
    one per n = 5, 10, 20, 30, 40, 50, with periods divided by 1 and 3,
    each searched under EDF, RM, CSD-2 and CSD-3 -- 48 searches, few
    enough that about ten repetitions fit in a 30 s run.  Seeded task
    sets were tried and rejected: the cost of one CSD-3 search varies
    up to 4x between task sets, so 80 seeded searches spread by 15% or
    more in total time from seed to seed.  The seed therefore orders
    the searches, and the inputs stay the reference corpus whose
    results ``reference.json`` records.
    """

    name = "breakdown"
    units_partition = True
    unit = "search"
    #: Layers predicted to do no work here (see README.md).
    idle_layers = ("engine", "sched", "kernel", "sync", "ipc", "bus",
                   "cluster", "snapshot")
    TASK_COUNTS = (5, 10, 20, 30, 40, 50)
    DIVISORS = (1, 3)
    POLICIES = ("edf", "rm", "csd-2", "csd-3")
    #: Largest allowed drift of a CSD cell from the reference, in
    #: utilization.  The exact-demand-analysis work (QPA) is expected
    #: to flip a handful of capped CSD verdicts; EDF and RM are exact
    #: and must reproduce the reference to rounding.
    CSD_TOLERANCE = 0.03
    EXACT_TOLERANCE = 1e-9
    #: Fixed soundness sample for ``validate_breakdown``.
    VALIDATION_SAMPLE = ((8, 1, "edf"), (8, 1, "rm"), (8, 1, "csd-2"),
                         (8, 3, "csd-3"))

    def __init__(self, seed: int) -> None:
        self.cells = [
            (n, divisor, policy)
            for n in self.TASK_COUNTS
            for divisor in self.DIVISORS
            for policy in self.POLICIES
        ]
        random.Random(seed).shuffle(self.cells)
        self.sim_ns = 0

    @classmethod
    def task_sets(cls, n: int) -> Dict[int, Workload]:
        """The corpus task set for ``n`` tasks, by period divisor."""
        base = generate_base_workloads(n, 1, seed=0)[0]
        return {
            divisor: base.with_periods_divided(divisor) if divisor != 1 else base
            for divisor in cls.DIVISORS
        }

    def setup(self):
        sets = {n: self.task_sets(n) for n in self.TASK_COUNTS}
        return [(cell, sets[cell[0]][cell[1]]) for cell in self.cells]

    def run(self, state, units: List[float], tracer=None):
        results = {}
        clock = time.perf_counter
        for (n, divisor, policy), task_set in state:
            if tracer is not None:
                tracer.set_run(f"{policy}/n{n}/div{divisor}")
            start = clock()
            found = breakdown.breakdown_utilization(task_set, policy, MODEL)
            units.append(clock() - start)
            results[f"{policy}/n{n}/div{divisor}"] = (
                found.utilization, found.scale, found.splits
            )
        return {"counters": {"analysis.searches": len(results)},
                "results": results}

    def check(self, result) -> Tuple[int, List[str]]:
        failures = []
        reference = REFERENCE["breakdown"]
        for key, (utilization, _scale, _splits) in sorted(result["results"].items()):
            expected = reference[key]
            tolerance = (
                self.CSD_TOLERANCE if key.startswith("csd")
                else self.EXACT_TOLERANCE
            )
            if not 0.0 < utilization <= 1.0 or abs(utilization - expected) > tolerance:
                failures.append(
                    f"breakdown {key}: utilization {utilization:.6f}, "
                    f"reference {expected:.6f} (tolerance {tolerance})"
                )
        for n, divisor, policy in self.VALIDATION_SAMPLE:
            outcome = validate.validate_breakdown(
                self.task_sets(n)[divisor], policy, MODEL
            )
            if not outcome.sound:
                failures.append(
                    f"validate_breakdown {policy}/n{n}/div{divisor}: "
                    f"{outcome.violations} deadline misses at the analytic "
                    "feasible scale"
                )
        return len(result["results"]) + len(self.VALIDATION_SAMPLE), failures


class ControlWorkload:
    """An 8-node CSD cluster on the 1 Mbit/s bus (``sync="adaptive"``).

    Every node runs, on a 5 ms period: a user-level network driver woken
    by the rx interrupt, which feeds the neighbour's frames into a
    state-message channel; a control task that reads that state, takes
    the ``gains`` semaphore, computes, broadcasts one frame and logs to a
    mailbox; a logger draining the mailbox; and a 20 ms tuning task that
    contends for ``gains``.  Even nodes use EMERALDS semaphores, odd
    nodes standard ones.  Acceptance filters pass only the ring
    predecessor's identifier.

    The seed draws every thread's release offset within its node's turn
    and shortens the compute times by up to 20%, keeping job and frame
    counts fixed.
    """

    name = "control"
    units_partition = True
    unit = "cluster run slice"
    idle_layers = ("analysis", "snapshot")
    NODES = 8
    PERIOD_NS = ms(5)
    HORIZON_NS = ms(3000)
    SLICES = 40
    CHECK_HORIZON_NS = ms(300)
    #: Nominal compute per job: driver, control, logger, tuning.
    COMPUTE_NS = (us(40), us(400), us(30), us(1500))

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        slot = self.PERIOD_NS // self.NODES // 1000  # microseconds

        def jitter(nominal):
            return us(round(nominal / 1000 * rng.uniform(0.8, 1.0)))

        def offset():
            return us(rng.randrange(slot // 2))

        computes = [[jitter(c) for c in self.COMPUTE_NS] for _ in range(self.NODES)]
        # Nodes take turns: node i's control task starts in the i-th
        # slot of the period, at a seeded offset.  A consumer's first
        # release follows its producer's: the driver waits for the
        # predecessor's frame and the logger for its own control task's
        # message, so every job consumes the item of its own period
        # instead of lagging one period behind.
        control = [us(i * slot) + offset() for i in range(self.NODES)]
        self.params = [
            (computes[i], (
                control[i - 1] + offset(),
                control[i],
                control[i] + offset(),
                us(rng.randrange(4 * self.PERIOD_NS // 1000)),
            ))
            for i in range(self.NODES)
        ]
        self.sim_ns = self.HORIZON_NS

    def build(self, sync: str = "adaptive", record: str = "jobs-only") -> Cluster:
        cluster = Cluster(Fieldbus(1_000_000), sync=sync)
        period = self.PERIOD_NS
        for i, ((drv, ctl, log, tune), phases) in enumerate(self.params):
            kernel = Kernel(
                CSDScheduler(MODEL, dp_queue_count=1),
                sem_scheme="emeralds" if i % 2 == 0 else "standard",
                record=record,
            )
            iface = cluster.add_node(
                f"n{i}", kernel, accept={0x100 + (i - 1) % self.NODES}
            )
            kernel.create_semaphore("gains")
            kernel.create_channel("state", slots=4)
            kernel.create_mailbox("log", capacity=8)

            def drain(kern, thread, iface=iface):
                channel = kern.channels["state"]
                while True:
                    frame = iface.receive()
                    if frame is None:
                        break
                    channel.write(frame.payload, writer_name=thread.name)

            def broadcast(kern, thread, iface=iface, can_id=0x100 + i):
                iface.transmit(Frame(can_id=can_id, size=8, payload=kern.now))

            kernel.create_thread(
                f"drv{i}",
                Program([Wait(iface.rx_event_name), Call(drain), Compute(drv)]),
                period=period, phase=phases[0], csd_queue=0,
            )
            kernel.create_thread(
                f"ctl{i}",
                Program([StateRead("state"), Acquire("gains"), Compute(ctl),
                         Release("gains"), Call(broadcast), Send("log")]),
                period=period, phase=phases[1], csd_queue=0,
            )
            kernel.create_thread(
                f"log{i}", Program([Recv("log"), Compute(log)]),
                period=period, phase=phases[2], csd_queue=1,
            )
            kernel.create_thread(
                f"tune{i}",
                Program([Acquire("gains"), Compute(tune), Release("gains")]),
                period=4 * period, phase=phases[3], csd_queue=1,
            )
        return cluster

    def setup(self):
        return self.build()

    def run(self, cluster, units: List[float], tracer=None):
        clock = time.perf_counter
        if tracer is not None:
            tracer.set_run("cluster")
        for index in range(1, self.SLICES + 1):
            start = clock()
            cluster.run_until(self.HORIZON_NS * index // self.SLICES)
            units.append(clock() - start)
        return {"counters": cluster_counters(cluster), "cluster": cluster}

    @staticmethod
    def _delivery_failures(cluster, label: str) -> List[str]:
        failures = []
        misses = cluster.total_deadline_violations()
        if misses:
            failures.append(f"control {label}: {misses} deadline misses")
        bus = cluster.bus
        lost = bus.frames_dropped + bus.frames_corrupted + sum(
            iface.rx_overflowed for iface in cluster.interfaces.values()
        )
        if lost:
            failures.append(f"control {label}: {lost} frames dropped")
        return failures

    def check(self, result) -> Tuple[int, List[str]]:
        failures = self._delivery_failures(result["cluster"], "timed run")
        fingerprints = {}
        for sync in ("adaptive", "lockstep"):
            cluster = self.build(sync=sync, record="full")
            cluster.run_until(self.CHECK_HORIZON_NS)
            failures += self._delivery_failures(cluster, f"{sync} check run")
            fingerprints[sync] = (
                cluster.trace_signatures(include_segments=True),
                cluster.interface_stats(),
                cluster.bus.frames_delivered,
            )
        if fingerprints["adaptive"] != fingerprints["lockstep"]:
            failures.append(
                "control: adaptive and lockstep full-trace signatures differ"
            )
        # The kernel's own behaviour: the canonical n = 20 throughput
        # set's full-record 2 s signatures must reproduce those committed
        # in BENCH_kernel.json.
        expected = REFERENCE["kernel_signatures"]
        found = perf_workloads.full_signatures(MODEL)
        failures += [
            f"kernel {policy}: full-record 2 s signature {found.get(policy)} "
            f"!= committed {signature}"
            for policy, signature in expected.items()
            if found.get(policy) != signature
        ]
        return 3 + len(expected), failures


class SweepWorkload:
    """The full ``bench_sweeps`` grid through ``prefix_map`` (fork mode).

    18 fault-storm points (3 rates x defended/bare x 3 seeds, 60 s with
    a 45 s shared warm-up) and 8 net-fault points (2 drop rates x
    retry bound 8/0 x 2 seeds, 20 s with a 15 s warm-up).  Each section
    forms two prefix groups, so at most two processes simulate at once.
    The seed picks the fault seeds; the warm-ups do not depend on it.
    A unit is one sweep point's continuation (timed inside its forked
    child).
    """

    name = "sweep"
    #: Units run in forked children, so they do not add up to the
    #: timed phase.
    units_partition = False
    unit = "sweep point"
    idle_layers = ("analysis", "sync")
    FAULT_GRID = ((5.0, 20.0, 50.0), ms(60_000), ms(45_000))
    NET_GRID = ((0.05, 0.2), ms(20_000), ms(15_000))
    RETRY_BOUND = 8

    def __init__(self, seed: int) -> None:
        rates, f_dur, f_warm = self.FAULT_GRID
        drops, n_dur, n_warm = self.NET_GRID
        fault_seeds = [3 * seed + k for k in (1, 2, 3)]
        net_seeds = [2 * seed + k for k in (1, 2)]
        self.sections = (
            ("fault", [
                (rate, defended, s, f_dur, f_warm)
                for rate in rates for defended in (True, False)
                for s in fault_seeds
            ]),
            ("net", [
                (drop, retries, s, n_dur, n_warm)
                for drop in drops for retries in (self.RETRY_BOUND, 0)
                for s in net_seeds
            ]),
        )
        self.rng = random.Random(seed)
        self.sim_ns = sum(case[3] for _, cases in self.sections for case in cases)
        #: Set for the traced pass (forked children report span totals).
        self.tracer = None
        self._prefix_mark = 0
        self._prefix_wall = 0.0

    @staticmethod
    def plan(section: str, case):
        """``(PrefixSpec, continuation)`` for one point -- the same
        plans ``bench_faults`` and ``bench_net_faults`` use."""
        if section == "fault":
            rate, defended, seed, duration, warmup = case
            spec = sweeps.PrefixSpec(
                key=("chaos", defended, warmup), t_split=warmup,
                build=lambda: chaos.chaos_prefix(defended, t_split=warmup),
            )

            def continuation(kernel):
                return chaos.chaos_continue(
                    kernel, seed, duration, wcet_overrun_rate=rate,
                    crash_rate=rate / 10, clock_jitter_rate=rate / 2,
                    defenses=defended, faults_from=warmup,
                )

            return spec, continuation
        drop, retries, seed, duration, warmup = case
        spec = sweeps.PrefixSpec(
            key=("netchaos", retries, duration, warmup), t_split=warmup,
            build=lambda: chaos.net_chaos_prefix(
                duration, dependability=True, max_retransmits=retries,
                t_split=warmup,
            ),
        )

        def continuation(state):
            return chaos.net_chaos_continue(
                state, seed, drop_p=drop, faults_from=warmup
            )

        return spec, continuation

    @staticmethod
    def state_counters(state) -> Dict[str, int]:
        if isinstance(state, Kernel):
            return kernel_counters(state)
        return cluster_counters(state.cluster)

    def setup(self):
        """Plan the grid and build each prefix group's initial state
        (construction only: the snapshot servers build and warm their
        own copies inside the timed phase).  Returns, per section, its
        cases and the index of each prefix group's first point."""
        plans = []
        for section, cases in self.sections:
            firsts = {}
            for index, case in enumerate(cases):
                firsts.setdefault(self.plan(section, case)[0].key, index)
            for key in firsts:
                if section == "fault":
                    chaos.build_chaos_kernel(key[1])
                else:
                    chaos.net_chaos_prefix(
                        key[2], dependability=True, max_retransmits=key[1],
                        t_split=0,
                    )
            plans.append((section, cases, set(firsts.values())))
        return plans

    def _point_plan(self, section: str, firsts: set, parent_pid: int):
        """Wrap a point's plan so its forked child reports its host
        time, work counters and (traced pass) span totals with the
        result."""
        tracer = self.tracer

        def plan(indexed):
            index, case = indexed
            spec, continuation = self.plan(section, case)

            def build(spec_build=spec.build):
                # Runs once per group in its snapshot server; the
                # forked children inherit the mark and the time.
                self._prefix_mark = len(tracer) if tracer is not None else 0
                start = time.perf_counter()
                state = spec_build()
                self._prefix_wall = time.perf_counter() - start
                return state

            def measured(state):
                before = self.state_counters(state)
                mark = len(tracer) if tracer is not None else 0
                start = time.perf_counter()
                result = continuation(state)
                elapsed = time.perf_counter() - start
                after = self.state_counters(state)
                add_counters(after, before, -1)
                meta = {
                    "pid": os.getpid(), "elapsed": elapsed,
                    "prefix": before, "delta": after, "first": index in firsts,
                    "prefix_wall": self._prefix_wall,
                }
                if tracer is not None and meta["pid"] != parent_pid:
                    meta["spans"] = tracer.aggregate(mark)
                    if meta["first"]:
                        meta["prefix_spans"] = tracer.aggregate(
                            self._prefix_mark, mark
                        )
                return result, meta

            return sweeps.PrefixSpec(spec.key, spec.t_split, build), measured

        return plan

    def run(self, plans, units: List[float], tracer=None):
        parent = os.getpid()
        counters = zero_counters()
        results = {}
        metas = []
        for section, cases, firsts in plans:
            if tracer is not None:
                tracer.set_run(section)
            outcomes = sweeps.prefix_map(
                self._point_plan(section, firsts, parent),
                list(enumerate(cases)), mode="fork",
            )
            for index, (result, meta) in enumerate(outcomes):
                restored = meta["pid"] != parent
                if meta["first"] or not restored:
                    add_counters(counters, meta["prefix"])
                add_counters(counters, meta["delta"])
                units.append(meta["elapsed"])
                results[section, index] = result
                metas.append(meta)
        restored = sum(1 for meta in metas if meta["pid"] != parent)
        counters["snapshot.points_restored"] = restored
        return {"counters": counters, "results": results, "metas": metas,
                "points": len(metas)}

    def check(self, result) -> Tuple[int, List[str]]:
        failures = []
        if result["counters"]["snapshot.points_restored"] != result["points"]:
            failures.append(
                f"sweep: restore_ratio "
                f"{result['counters']['snapshot.points_restored']}/"
                f"{result['points']} (a cold fallback ran)"
            )
        checked = 0
        for section, cases in self.sections:
            groups: Dict[tuple, List[int]] = {}
            for index, case in enumerate(cases):
                groups.setdefault(self.plan(section, case)[0].key, []).append(index)
            for key, members in groups.items():
                index = self.rng.choice(members)
                spec, continuation = self.plan(section, cases[index])
                cold = continuation(spec.build())
                checked += 1
                if cold != result["results"][section, index]:
                    failures.append(
                        f"sweep {section} point {cases[index]!r}: restored "
                        "result differs from its cold run"
                    )
        return checked, failures


WORKLOADS = {
    cls.name: cls
    for cls in (BreakdownWorkload, ControlWorkload, SweepWorkload)
}

