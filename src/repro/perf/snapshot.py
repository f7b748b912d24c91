"""Deterministic checkpoint/restore snapshots for sweep prefix reuse.

Sweep benchmarks cold-start every configuration from t = 0, yet most
sweep points share an identical warm-up prefix: the same workload,
diverging only at a fault-activation time or a parameter that first
matters after the split.  Because the simulator is deterministic
(byte-identical sha256 trace signatures), a prefix simulated once can
stand in for every point that shares it.  This module provides the
restore mechanism behind :func:`repro.perf.sweeps.prefix_map`:

**Fork-based copy-on-write snapshots** (:class:`SnapshotServer`).  A
forked server process runs the shared prefix once to the divergence
point ``t_split``, then forks one child per sweep point; each child
applies its divergent continuation on the inherited state and ships
the (picklable) outcome back over its own pipe.  The prefix state is
never serialized: the :class:`~repro.sim.engine.EventQueue` is full of
closures over the kernel (release actions, timer callbacks) that
``pickle`` cannot ship, but ``fork`` preserves them for free, and the
OS shares the prefix pages copy-on-write until a child diverges.

Mechanism selection is one env knob, ``REPRO_SNAPSHOT``: ``auto``
(default; fork where available), ``fork``, or ``0``/``cold`` to
disable snapshots entirely.  On platforms without ``fork`` every fork
request degrades to cold-start -- a gate, not a new dependency -- and
results are identical either way, which the snapshot test battery
asserts byte-for-byte.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import sys
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "SNAPSHOT_ENV",
    "SNAPSHOT_MODES",
    "SnapshotError",
    "fork_available",
    "resolve_snapshot_mode",
    "SnapshotServer",
]

#: Environment knob selecting the snapshot mechanism for sweeps.
SNAPSHOT_ENV = "REPRO_SNAPSHOT"

#: Accepted mode requests (``resolve_snapshot_mode`` narrows ``auto``).
SNAPSHOT_MODES = ("auto", "fork", "cold")


class SnapshotError(RuntimeError):
    """A snapshot server or one of its continuations failed."""


def fork_available() -> bool:
    """Whether fork-based copy-on-write snapshots can work here."""
    return hasattr(os, "fork") and hasattr(os, "waitpid")


def resolve_snapshot_mode(mode: Optional[str] = None) -> str:
    """Narrow a mode request to a concrete mechanism.

    ``None`` falls back to the ``REPRO_SNAPSHOT`` environment variable
    (empty/``1``/``on`` mean ``auto``; ``0``/``off`` mean ``cold``).
    Returns ``"fork"`` or ``"cold"``; ``auto`` and unavailable-``fork``
    degrade to ``cold`` so callers never need a platform check of
    their own.
    """
    if mode is None:
        raw = os.environ.get(SNAPSHOT_ENV, "").strip().lower()
        if raw in ("", "1", "on", "auto"):
            mode = "auto"
        elif raw in ("0", "off", "cold"):
            mode = "cold"
        elif raw == "fork":
            mode = raw
        else:
            raise ValueError(
                f"{SNAPSHOT_ENV}={raw!r}: expected one of {SNAPSHOT_MODES} "
                "(or 0/1/on/off)"
            )
    if mode not in SNAPSHOT_MODES:
        raise ValueError(
            f"unknown snapshot mode {mode!r} (expected one of {SNAPSHOT_MODES})"
        )
    if mode == "auto":
        return "fork" if fork_available() else "cold"
    if mode == "fork" and not fork_available():
        return "cold"
    return mode


# ----------------------------------------------------------------------
# fork-based copy-on-write snapshots
# ----------------------------------------------------------------------

def _collect_child(
    entry: Tuple[int, int, Any], results: List[Any]
) -> None:
    """Receive one child's outcome, reap it, and place the result."""
    index, pid, conn = entry
    try:
        kind, payload = conn.recv()
    except EOFError:
        kind, payload = "err", f"snapshot child (pid {pid}) died without a result"
    finally:
        conn.close()
    os.waitpid(pid, 0)
    if kind == "err":
        raise RuntimeError(f"continuation #{index} failed:\n{payload}")
    results[index] = payload


def _serve(
    conn,
    build: Callable[[], Any],
    continuations: Sequence[Callable[[Any], Any]],
    children: int,
) -> None:
    """Server-process body: prefix once, then fork the futures.

    Children are forked in waves of at most ``children`` and reaped in
    fork order; each ships ``("ok", result)`` or ``("err", traceback)``
    over its own pipe (per-child pipes keep concurrent writes from
    interleaving).  The continuation result must be picklable -- the
    prefix state itself never is.
    """
    t0 = time.perf_counter()
    state = build()
    conn.send(("ready", time.perf_counter() - t0))
    try:
        command = conn.recv()
    except EOFError:
        return  # parent abandoned the server before asking for results
    if command != "run":
        return
    results: List[Any] = [None] * len(continuations)
    pending: List[Tuple[int, int, Any]] = []
    try:
        for index, continuation in enumerate(continuations):
            while len(pending) >= children:
                _collect_child(pending.pop(0), results)
            parent_end, child_end = multiprocessing.Pipe(duplex=False)
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:  # the future: one sweep point on CoW state
                code = 0
                try:
                    conn.close()
                    parent_end.close()
                    child_end.send(("ok", continuation(state)))
                except BaseException:
                    code = 1
                    with contextlib.suppress(OSError):
                        child_end.send(("err", traceback.format_exc()))
                finally:
                    os._exit(code)
            child_end.close()
            pending.append((index, pid, parent_end))
        while pending:
            _collect_child(pending.pop(0), results)
    finally:
        for _index, pid, child_conn in pending:
            with contextlib.suppress(OSError):
                child_conn.close()
            with contextlib.suppress(OSError, ChildProcessError):
                os.waitpid(pid, 0)
    conn.send(("done", results))


class SnapshotServer:
    """Copy-on-write prefix server: simulate once, fork the futures.

    Forks immediately on construction and starts simulating the prefix
    (``build()``), so creating several servers overlaps their prefix
    work.  :meth:`results` then triggers one forked child per
    continuation and returns their outcomes in submission order.

    ``children`` bounds how many continuation children run at once
    (1 = sequential: all speedup comes from prefix reuse alone).
    Always :meth:`close` (or use as a context manager): an abandoned
    server is killed and reaped, never leaked.
    """

    def __init__(
        self,
        build: Callable[[], Any],
        continuations: Sequence[Callable[[Any], Any]],
        *,
        children: int = 1,
        name: str = "snapshot",
    ):
        if not fork_available():
            raise SnapshotError(
                "fork-based snapshots need os.fork (use cold mode)"
            )
        continuations = list(continuations)
        if not continuations:
            raise ValueError("SnapshotServer needs at least one continuation")
        if children < 1:
            raise ValueError(f"children must be positive (got {children})")
        self.name = name
        self.count = len(continuations)
        self.prefix_wall_s: Optional[float] = None
        self._results: Optional[List[Any]] = None
        parent_conn, child_conn = multiprocessing.Pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:  # the server
            code = 0
            try:
                parent_conn.close()
                _serve(child_conn, build, continuations, children)
            except BaseException:
                code = 1
                with contextlib.suppress(OSError):
                    child_conn.send(("err", traceback.format_exc()))
            finally:
                os._exit(code)
        child_conn.close()
        self._conn: Optional[Any] = parent_conn
        self._pid: Optional[int] = pid

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def _recv(self) -> Tuple[str, Any]:
        assert self._conn is not None
        try:
            kind, payload = self._conn.recv()
        except EOFError:
            self.close()
            raise SnapshotError(
                f"snapshot server {self.name!r} died before replying"
            ) from None
        if kind == "err":
            self.close()
            raise SnapshotError(
                f"snapshot server {self.name!r} failed:\n{payload}"
            )
        return kind, payload

    def ready(self) -> float:
        """Block until the shared prefix finished; its wall seconds."""
        if self.prefix_wall_s is None:
            if self._conn is None:
                raise SnapshotError(f"snapshot server {self.name!r} is closed")
            kind, payload = self._recv()
            if kind != "ready":
                self.close()
                raise SnapshotError(
                    f"snapshot server {self.name!r}: expected ready, got {kind!r}"
                )
            self.prefix_wall_s = payload
        return self.prefix_wall_s

    def results(self) -> List[Any]:
        """Fork the continuations and return their outcomes in order."""
        if self._results is None:
            self.ready()
            assert self._conn is not None
            self._conn.send("run")
            kind, payload = self._recv()
            if kind != "done":
                self.close()
                raise SnapshotError(
                    f"snapshot server {self.name!r}: expected done, got {kind!r}"
                )
            self._results = payload
            self.close()
        return list(self._results)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the server down (idempotent; kills it if still live)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.close()
        pid, self._pid = self._pid, None
        if pid is not None:
            if self._results is None:
                # Abandoned before completion: don't wait out the
                # prefix, interrupt it.
                with contextlib.suppress(OSError, ProcessLookupError):
                    os.kill(pid, signal.SIGTERM)
            with contextlib.suppress(OSError, ChildProcessError):
                os.waitpid(pid, 0)

    def __enter__(self) -> "SnapshotServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        with contextlib.suppress(Exception):
            self.close()

    def __repr__(self) -> str:
        state = "closed" if self._conn is None and self._results is None else (
            "done" if self._results is not None else "live"
        )
        return f"<SnapshotServer {self.name} x{self.count} {state}>"
