"""Periodic task model.

The paper's workload model (Section 2 and Section 5.2): ``n`` concurrent
periodic tasks ``tau_i`` with period ``P_i``, worst-case execution time
``c_i``, and relative deadline ``d_i`` (equal to ``P_i`` unless stated
otherwise).  Tasks are conventionally indexed in rate-monotonic order,
shortest period first, as in Table 2.

:class:`TaskSpec` is the static description used by the analytic
schedulability machinery (Section 5.2, [36]) and by the workload
generator; the kernel substrate wraps it into a live
:class:`repro.kernel.thread.Thread` with a program to execute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.timeunits import ms, to_ms

__all__ = ["TaskSpec", "Workload"]


@dataclass(frozen=True)
class TaskSpec:
    """Static parameters of one periodic real-time task.

    Attributes:
        name: Human-readable identifier (``"tau5"``).
        period: Period ``P_i`` in nanoseconds.
        wcet: Worst-case execution time ``c_i`` in nanoseconds.
        deadline: Relative deadline ``d_i`` in nanoseconds; defaults to
            the period (the paper's assumption throughout Section 5).
        phase: Release offset of the first job in nanoseconds.  The
            paper's analysis assumes the critical instant (all tasks
            released together), i.e. phase 0.
        blocking_calls: Number of *additional* blocking system calls the
            task makes per period, on top of the one implicit
            block/unblock at the period boundary.  Section 5.1 assumes
            half the tasks make one such call, yielding the 1.5 factor
            in ``t = 1.5 (t_b + t_u + 2 t_s)``.
    """

    name: str
    period: int
    wcet: int
    deadline: Optional[int] = None
    phase: int = 0
    blocking_calls: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"task {self.name}: period must be positive")
        if self.wcet < 0:
            raise ValueError(f"task {self.name}: wcet must be non-negative")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if self.deadline <= 0:
            raise ValueError(f"task {self.name}: deadline must be positive")
        if self.phase < 0:
            raise ValueError(f"task {self.name}: phase must be non-negative")
        if self.blocking_calls < 0:
            raise ValueError(f"task {self.name}: blocking_calls must be >= 0")

    @property
    def utilization(self) -> float:
        """Fraction of the processor consumed by this task, ``c_i / P_i``."""
        return self.wcet / self.period

    @property
    def rm_key(self) -> Tuple[int, str]:
        """Rate-monotonic priority key: smaller sorts first (higher priority).

        Ties on period are broken by name so orderings are deterministic.
        """
        return (self.period, self.name)

    def scaled(self, factor: float) -> "TaskSpec":
        """Return a copy with the execution time scaled by ``factor``.

        Used by the breakdown-utilization procedure of Section 5.7,
        which scales execution times until the workload becomes
        infeasible.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        # The breakdown search itself never rebuilds tasks: it probes
        # through ``AnalysisState`` with ``scale=``, whose costs must
        # stay these same integers, ``max(0, round(wcet * factor))``.
        return TaskSpec(
            self.name,
            self.period,
            max(0, round(self.wcet * factor)),
            self.deadline,
            self.phase,
            self.blocking_calls,
        )

    def __str__(self) -> str:
        return (
            f"{self.name}(P={to_ms(self.period):g}ms, "
            f"c={to_ms(self.wcet):g}ms)"
        )


class Workload:
    """An immutable set of periodic tasks, kept in rate-monotonic order.

    The CSD framework (Section 5.3) assumes the workload is sorted by
    RM priority, shortest period first, so that queue allocations can
    be described as split points in this ordering.
    """

    def __init__(self, tasks: Iterable[TaskSpec]):
        ordered = sorted(tasks, key=lambda t: t.rm_key)
        names = [t.name for t in ordered]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique")
        self._tasks: Tuple[TaskSpec, ...] = tuple(ordered)

    @property
    def tasks(self) -> Tuple[TaskSpec, ...]:
        """The tasks in RM order (shortest period first)."""
        return self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskSpec]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> TaskSpec:
        return self._tasks[index]

    @property
    def utilization(self) -> float:
        """Total raw utilization ``U = sum(c_i / P_i)``."""
        return sum(t.utilization for t in self._tasks)

    def scaled(self, factor: float) -> "Workload":
        """Scale every task's execution time by ``factor``."""
        return Workload(t.scaled(factor) for t in self._tasks)

    def with_periods_divided(self, divisor: int) -> "Workload":
        """Divide every period (and deadline) by an integer divisor.

        Section 5.7 derives two extra workloads from each base workload
        by dividing task periods by 2 and by 3, to study the effect of
        scheduler invocation frequency.  Execution times are divided
        too, so raw utilization is preserved.
        """
        if divisor < 1:
            raise ValueError("divisor must be >= 1")
        scaled = []
        for t in self._tasks:
            scaled.append(
                TaskSpec(
                    name=t.name,
                    period=max(1, t.period // divisor),
                    wcet=max(0, t.wcet // divisor),
                    deadline=max(1, t.deadline // divisor),
                    phase=t.phase // divisor,
                    blocking_calls=t.blocking_calls,
                )
            )
        return Workload(scaled)

    def names(self) -> List[str]:
        """Task names in RM order."""
        return [t.name for t in self._tasks]

    def __repr__(self) -> str:
        inner = ", ".join(str(t) for t in self._tasks)
        return f"Workload([{inner}])"


def table2_workload() -> Workload:
    """A 10-task workload with the properties of the paper's Table 2.

    The numeric entries of Table 2 are unreadable in the copy of the
    paper we work from, so this workload is *reconstructed* to satisfy
    every property the text states about it:

    * ten tasks, U = 0.88 (ours: 0.8785);
    * a mix of short (5-9 ms) and long (100-310 ms) periods;
    * feasible under EDF (U <= 1 with implicit deadlines);
    * infeasible under RM, with tau5 the "troublesome" task: tau1-tau4
      occupy [0, 4 ms), are all released a second time before tau5 can
      finish, and tau5 misses its deadline at t = 9 ms exactly as in
      Figure 2;
    * tau6-tau10 are easily scheduled by either policy.
    """
    periods_ms = [5, 6, 7, 8, 9, 100, 150, 200, 280, 310]
    wcets_ms = [1, 1, 1, 1, 2, 0.5, 0.7, 0.8, 1, 1.2]
    tasks = [
        TaskSpec(name=f"tau{i + 1}", period=ms(p), wcet=ms(c))
        for i, (p, c) in enumerate(zip(periods_ms, wcets_ms))
    ]
    return Workload(tasks)
