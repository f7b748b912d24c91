"""The persistent perf trajectory: ``BENCH_kernel.json``.

Every throughput measurement appends one machine-readable entry, so
the repository carries its own performance history: any PR that slows
the simulator down shows up as a droop in the committed trajectory,
and CI fails outright when the regression passes a threshold.

An entry records what was measured (``config_hash`` fingerprints the
workload + policies + horizon + recording mode), what came out
(throughput in sim-ns per wall-second, wall time, counters), and the
determinism cross-check (full-mode trace sha256 signatures -- an
optimization that changes these changed *behavior*, not just speed).
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "config_hash",
    "load_trajectory",
    "append_entry",
    "latest_entry",
    "check_regression",
    "regression_gate",
    "RegressionError",
]

PathLike = Union[str, Path]

#: Default CI gate: fail when throughput drops more than 30% below
#: the committed baseline.
DEFAULT_MAX_REGRESSION = 0.30


class RegressionError(AssertionError):
    """Throughput fell more than the allowed fraction below baseline."""


def config_hash(config: Dict) -> str:
    """Stable fingerprint of a measurement configuration."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_trajectory(path: PathLike) -> List[Dict]:
    """All recorded entries, oldest first (empty when absent)."""
    path = Path(path)
    if not path.exists():
        return []
    data = json.loads(path.read_text())
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON list of entries")
    return data


def make_entry(
    label: str,
    report_dict: Dict,
    config: Dict,
    signatures: Optional[Dict[str, str]] = None,
    **extra,
) -> Dict:
    """Assemble one trajectory entry (not yet persisted)."""
    entry = {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "config": config,
        "config_hash": config_hash(config),
        **report_dict,
    }
    if signatures is not None:
        entry["signatures_full"] = signatures
    entry.update(extra)
    return entry


def append_entry(path: PathLike, entry: Dict) -> Dict:
    """Append ``entry`` to the trajectory file and return it."""
    path = Path(path)
    entries = load_trajectory(path)
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return entry


def latest_entry(
    entries: List[Dict], config_hash_value: Optional[str] = None
) -> Optional[Dict]:
    """Most recent entry, optionally restricted to one configuration."""
    for entry in reversed(entries):
        if config_hash_value and entry.get("config_hash") != config_hash_value:
            continue
        return entry
    return None


def check_regression(
    path: PathLike,
    current_throughput: float,
    current_config_hash: str,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> Optional[Dict]:
    """Compare a fresh measurement against the committed baseline.

    The baseline is the most recent committed entry with the same
    ``config_hash`` (measuring a different workload says nothing about
    this one).  Returns the baseline entry used, or ``None`` when no
    comparable baseline exists yet.  Raises :class:`RegressionError`
    when the current throughput is more than ``max_regression`` below
    the baseline's.
    """
    baseline = latest_entry(load_trajectory(path), current_config_hash)
    if baseline is None:
        return None
    base = float(baseline.get("throughput_sim_ns_per_s", 0))
    if base <= 0:
        return None
    floor = base * (1.0 - max_regression)
    if current_throughput < floor:
        raise RegressionError(
            f"throughput regressed: {current_throughput:.3g} sim-ns/s vs "
            f"baseline {base:.3g} ({baseline.get('label')!r}); allowed floor "
            f"{floor:.3g} (-{100 * max_regression:.0f}%)"
        )
    return baseline


def regression_gate(
    path: PathLike,
    throughput: float,
    config_hash_value: str,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> Tuple[bool, str]:
    """The trajectory gate every perf command runs: ``(passed, line)``.

    Wraps :func:`check_regression` and words its outcome as one report
    line: ``REGRESSION: ...`` on a failure (callers print it to
    stderr), ``no comparable baseline in PATH; check skipped`` when the
    trajectory holds no entry with this configuration, and otherwise
    ``vs baseline 'LABEL' (BASE sim-ns/s): +D%``.
    """
    try:
        baseline = check_regression(
            path, throughput, config_hash_value, max_regression
        )
    except RegressionError as exc:
        return False, f"REGRESSION: {exc}"
    if baseline is None:
        return True, f"no comparable baseline in {path}; check skipped"
    base = float(baseline["throughput_sim_ns_per_s"])
    delta = 100 * (throughput - base) / base
    return True, (
        f"vs baseline {baseline.get('label')!r} "
        f"({base:.3g} sim-ns/s): {delta:+.1f}%"
    )
