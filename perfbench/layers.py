"""Per-layer spans and counters, recorded from outside the program.

The traced pass wraps the public entry points of each layer (listed in
:data:`ENTRY_POINTS`, named after the repository's modules) with a span
recorder.  Nothing under ``src/`` is edited: the wrappers are installed
on the imported classes and functions for one pass and removed after.

A span is ``(name, start, end, parent span, run id)``.  Spans live in
flat arrays (28 bytes each) because the simulation layers make hundreds
of thousands of calls per pass.  A layer's *busy* time is the union of
its spans (a span nested in a span of the same layer adds nothing); its
*self* time is its spans' durations minus the time their child spans
cover, so the self times of all layers plus the time outside any span
add up to the traced wall clock.

The kernel inlines ``Scheduler.select`` and ``Scheduler.on_block`` in
its dispatcher.  Those calls never pass through a scheduler span; the
queue operations beneath them (``core/queues.py``) do, and the policy
code between them stays in ``kernel`` self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

#: Layer name -> ((module, class or None, (entry point names...)), ...).
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...]] = {
    "analysis": (
        ("repro.core.schedulability", None,
         ("edf_schedulable", "rm_schedulable", "dm_schedulable",
          "csd_schedulable")),
        ("repro.sim.breakdown", None,
         ("breakdown_utilization", "best_csd_configuration")),
    ),
    "engine": (
        ("repro.sim.engine", "EventQueue",
         ("schedule", "pop_due", "peek_time", "next_event_time")),
        ("repro.sim.engine", "ScheduledEvent", ("cancel",)),
    ),
    "sched": (
        ("repro.core.scheduler", "Scheduler",
         ("add_task", "remove_task", "on_block", "on_unblock", "select",
          "raise_priority", "restore_priority", "swap_with_placeholder",
          "admit_release")),
        ("repro.core.edf", "EDFScheduler", ("add_task", "remove_task")),
        ("repro.core.rm", "RMScheduler", ("add_task", "remove_task")),
        ("repro.core.csd", "CSDScheduler",
         ("add_task", "remove_task", "admit_release")),
        ("repro.core.queues", "UnsortedQueue",
         ("add", "remove", "block", "unblock", "select")),
        ("repro.core.queues", "SortedQueue",
         ("add", "remove", "block", "unblock", "select", "reposition",
          "swap_positions", "move_before")),
        ("repro.core.queues", "ReadyHeap",
         ("add", "remove", "block", "unblock", "select")),
    ),
    "kernel": (
        ("repro.kernel.kernel", "Kernel",
         ("run_until", "run_for", "activate", "block_thread",
          "unblock_thread", "deliver_unblock", "suspend_thread",
          "resume_thread", "kill_thread", "crash_thread", "schedule_event",
          "next_event_time", "create_thread", "create_semaphore",
          "create_event", "create_mailbox", "create_channel", "set_budget",
          "set_restart_policy", "on_deadline_miss")),
        ("repro.kernel.syscalls", "Syscalls",
         ("get_time", "signal_event", "activate_thread", "state_write",
          "state_read", "raise_interrupt")),
    ),
    "sync": (
        ("repro.sync.semaphore", "StandardSemaphore", ("acquire", "release")),
        ("repro.sync.emeralds_sem", "EmeraldsSemaphore",
         ("acquire", "release", "on_hint_unblock")),
        ("repro.sync.condvar", "ConditionVariable",
         ("wait", "signal", "broadcast")),
    ),
    "ipc": (
        ("repro.ipc.mailbox", "Mailbox", ("send", "recv")),
        ("repro.ipc.state_message", "StateChannel",
         ("write", "read", "begin_read", "end_read")),
        ("repro.ipc.shared_memory", "SharedMemory", ("read", "write")),
    ),
    "bus": (
        ("repro.net.fieldbus", "Fieldbus",
         ("queue", "process", "next_event_time", "enable_dependability")),
        ("repro.net.node", "NetInterface", ("transmit", "deliver", "receive")),
    ),
    "cluster": (
        ("repro.net.cluster", "Cluster",
         ("run_until", "run_for", "add_node", "enable_dependability")),
    ),
    "snapshot": (
        ("repro.perf.sweeps", None, ("prefix_map", "parallel_map")),
        ("repro.perf.snapshot", "SnapshotServer",
         ("__init__", "ready", "results", "close")),
    ),
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)


class Tracer:
    """In-memory span store: one row per call into a layer."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, int]] = []  # (span name, layer index)
        self.run_ids: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.run_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.run = 0
        self._run_index: Dict[str, int] = {}
        #: Calls of a feasibility test that returned a true verdict.
        self.feasible: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name_of)

    def set_run(self, run_id: str) -> None:
        """Tag the spans that follow with ``run_id`` (one unit of work)."""
        index = self._run_index.get(run_id)
        if index is None:
            index = self._run_index[run_id] = len(self.run_ids)
            self.run_ids.append(run_id)
        self.run = index

    def _register(self, name: str, layer: str) -> int:
        self.names.append((name, LAYERS.index(layer)))
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with a span recorded around every call (and, for the
        ``*_schedulable`` tests, a count of feasible verdicts)."""
        code = self._register(name, layer)
        feasible = self.feasible if name.endswith("_schedulable") else None
        stack = self.stack
        name_of, parent, run_of = self.name_of, self.parent, self.run_of
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(code)
            parent.append(stack[-1] if stack else -1)
            run_of.append(self.run)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if feasible is not None and result:
                    feasible[name] = feasible.get(name, 0) + 1
                return result
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def aggregate(self, first: int = 0, last: Optional[int] = None) -> Dict:
        """Per-layer busy/self seconds and per-entry call counts over
        spans ``[first, last)``.  Spans still open are skipped."""
        last = len(self) if last is None else last
        name_of, parent = self.name_of, self.parent
        start, end = self.start, self.end
        layer_of = [layer for _, layer in self.names]
        busy = [0.0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        calls: Dict[str, int] = {}
        child_s: Dict[int, float] = {}
        masks: Dict[int, int] = {}
        durations: Dict[int, float] = {}
        for span in range(first, last):
            stop = end[span]
            if stop == 0.0:
                continue
            duration = stop - start[span]
            layer = layer_of[name_of[span]]
            up = parent[span]
            mask = 0
            if up >= first:
                child_s[up] = child_s.get(up, 0.0) + duration
                mask = masks.get(up, 0) | (1 << layer_of[name_of[up]])
            masks[span] = mask
            durations[span] = duration
            if not mask >> layer & 1:
                busy[layer] += duration
            name = self.names[name_of[span]][0]
            calls[name] = calls.get(name, 0) + 1
        for span, duration in durations.items():
            layer = layer_of[name_of[span]]
            self_s[layer] += duration - child_s.get(span, 0.0)
        return {
            "busy_s": dict(zip(LAYERS, busy)),
            "self_s": dict(zip(LAYERS, self_s)),
            "calls": calls,
        }

    def durations(self) -> Dict[str, List[float]]:
        """Seconds of every closed span, by span name."""
        out: Dict[str, List[float]] = {name: [] for name, _ in self.names}
        names = [name for name, _ in self.names]
        for i in range(len(self)):
            stop = self.end[i]
            if stop != 0.0:
                out[names[self.name_of[i]]].append(stop - self.start[i])
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped tab-separated rows after one JSON
        header line holding the name, layer and run tables.  Row fields:
        name index, parent span (-1 for none), start and end in seconds
        from the first span, run index; the row number is the span id."""
        origin = self.start[0] if len(self) else 0.0
        start, end = self.start, self.end
        rows = (
            "%d\t%d\t%.9f\t%.9f\t%d\n" % (
                self.name_of[i], self.parent[i], start[i] - origin,
                end[i] - origin, self.run_of[i],
            )
            for i in range(len(self))
        )
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({
                "names": [name for name, _ in self.names],
                "layers": [LAYERS[layer] for _, layer in self.names],
                "runs": self.run_ids,
                "fields": ["name", "parent", "start_s", "end_s", "run"],
            }) + "\n")
            out.writelines(rows)


class Instrumentation:
    """Installs a :class:`Tracer` on every entry point; ``remove``
    puts the original functions back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        replaced: Dict[int, object] = {}
        for layer, entries in ENTRY_POINTS.items():
            for module_name, class_name, names in entries:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in names:
                    original = owner.__dict__[name]
                    label = f"{class_name}.{name}" if class_name else name
                    wrapped = self.tracer.wrap(original, label, layer)
                    self._set(owner, name, wrapped)
                    if class_name is None:
                        replaced[id(original)] = (original, wrapped)
        # Functions imported by name into other modules of the program
        # are rebound there too, so every caller goes through the span.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                pair = replaced.get(id(value))
                if pair is not None and pair[0] is value:
                    self._set(module, attr, pair[1])

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# ----------------------------------------------------------------------
# public work counters (deterministic: they repeat exactly per seed)
# ----------------------------------------------------------------------

COUNTERS = (
    "engine.events_popped",
    "kernel.dispatches",
    "kernel.context_switches",
    "kernel.syscalls",
    "sched.blocks",
    "sched.unblocks",
    "sched.selects",
    "sched.pi_operations",
    "sync.acquires",
    "sync.contended_acquires",
    "ipc.mailbox_ops",
    "ipc.state_ops",
    "bus.frames_delivered",
    "bus.frames_filtered",
    "bus.frames_retransmitted",
    "bus.error_frames",
    "cluster.sync_rounds",
    "cluster.windows_skipped",
    "cluster.deliveries_suppressed",
)


def zero_counters() -> Dict[str, int]:
    return dict.fromkeys(COUNTERS, 0)


def add_counters(total: Dict[str, int], more: Dict[str, int], sign: int = 1) -> None:
    for key, value in more.items():
        total[key] += sign * value


def kernel_counters(kernel) -> Dict[str, int]:
    """Work counters one kernel exposes publicly."""
    out = zero_counters()
    stats = kernel.scheduler.stats
    out["engine.events_popped"] = kernel.events_popped
    out["kernel.dispatches"] = kernel.dispatch_count
    out["kernel.context_switches"] = kernel.trace.context_switches
    out["kernel.syscalls"] = kernel.syscall_count
    out["sched.blocks"] = stats.blocks
    out["sched.unblocks"] = stats.unblocks
    out["sched.selects"] = stats.selects
    out["sched.pi_operations"] = stats.pi_operations
    for sem in kernel.semaphores.values():
        out["sync.acquires"] += sem.acquires
        out["sync.contended_acquires"] += sem.contended_acquires
    for box in kernel.mailboxes.values():
        out["ipc.mailbox_ops"] += box.sends + box.receives
    for channel in kernel.channels.values():
        out["ipc.state_ops"] += channel.writes + channel.reads
    return out


def cluster_counters(cluster) -> Dict[str, int]:
    """Work counters of a cluster: its kernels, bus and barrier."""
    out = zero_counters()
    for kernel in cluster.nodes.values():
        add_counters(out, kernel_counters(kernel))
    bus = cluster.bus
    out["bus.frames_delivered"] = bus.frames_delivered
    out["bus.frames_retransmitted"] = bus.frames_retransmitted
    out["bus.error_frames"] = bus.error_frames
    out["bus.frames_filtered"] = sum(
        iface.frames_filtered for iface in cluster.interfaces.values()
    )
    out["cluster.sync_rounds"] = cluster.sync_rounds
    out["cluster.windows_skipped"] = cluster.windows_skipped
    out["cluster.deliveries_suppressed"] = cluster.deliveries_suppressed
    return out
