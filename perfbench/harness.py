"""Shared plumbing of the benchmark: paths, environment, statistics,
spans and the result record.

Everything here is benchmark-side code. The program under test is only
imported (from ``src/``) and called through its public entry points; no
tracing lives in the program itself.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parents[1]
#: Trained models and cached references (reused across runs of a checkout).
CACHE_DIR = ROOT / ".perfbench_cache"
#: Generated inputs, span files and full result records.
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed build)."""


def require_program() -> None:
    """Make ``src/`` importable, or fail: the benchmark needs the program."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"program source not found at {package.parent}")
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses (server, model build)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def environment() -> Dict[str, Any]:
    """The fingerprint every result carries; compare refuses mismatches."""
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ----------------------------------------------------------------------
# Statistics and process measurements
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (all equal for a single value)."""
    if len(values) < 2:
        return [float(values[0])] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [float(q1), float(q2), float(q3)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries stand for failed requests."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU time consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14/15 of stat(5) (utime, stime), counted after the comm field.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def timed_repeats(repeats: int, set_up: Callable[[], Any]) -> tuple:
    """Run ``set_up`` ``repeats`` times; ``(median seconds, last result)``.

    ``set_up`` receives nothing and returns the object the run keeps; each
    earlier result is released (``close()`` called when it has one).
    """
    seconds: List[float] = []
    kept = None
    for _ in range(repeats):
        if kept is not None and hasattr(kept, "close"):
            kept.close()
        started = time.perf_counter()
        kept = set_up()
        seconds.append(time.perf_counter() - started)
    return median(seconds), kept


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder, written out once at the end of a run.

    A span record is ``{"id", "name", "op", "parent", "start", "end"}``:
    ``start``/``end`` are seconds on the ``perf_counter`` clock relative
    to the tracer's creation, ``parent`` is the enclosing span's id on the
    same thread (or ``None``) and ``op`` is the id of the operation the
    span belongs to (inherited from the parent, else :attr:`op`).
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._origin = time.perf_counter()
        self._ops = 0
        self.op = 0

    def next_op(self) -> int:
        """A fresh operation id (thread-safe)."""
        with self._lock:
            self._ops += 1
            return self._ops

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None:
            op = parent["op"] if parent else self.op
        record = {
            "id": None,
            "name": name,
            "op": op,
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self._origin

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def op_spans(self, op: int) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["op"] == op]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def span_durations(spans: Sequence[Dict[str, Any]], name: str) -> List[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def attributed_fraction(spans: Sequence[Dict[str, Any]], root: int) -> float:
    """Share of span ``root`` covered by its child spans.

    Equal to the summed self time of every layer span below ``root``
    divided by ``root``'s duration: what remains is the root's own self
    time, i.e. glue no layer span accounts for.
    """
    by_id = {s["id"]: s for s in spans}
    top = by_id[root]
    covered = sum(
        s["end"] - s["start"] for s in spans if s["parent"] == root
    )
    return covered / (top["end"] - top["start"])


# ----------------------------------------------------------------------
# Metrics and the result record
# ----------------------------------------------------------------------
class Run:
    """Collects one run's checks, per-operation samples and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full"):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}
        self.failures: List[str] = []
        #: metric name -> (value, unit, [q1, median, q3] or None)
        self.metrics: Dict[str, tuple] = {}

    @property
    def stem(self) -> str:
        """File-name stem of this run's inputs and outputs."""
        suffix = "" if self.scale == "full" else f"-{self.scale}"
        return f"{self.workload}-{self.seed}{suffix}"

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one output check; a failing check fails the run."""
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def op_outcome(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit, None)

    def sampled(self, name: str, values: Sequence[float], unit: str) -> None:
        """Median of per-operation samples, with quartiles kept aside."""
        spread = quartiles(values)
        self.metrics[name] = (spread[1], unit, spread)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0 and self.attempted > 0

    def record(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "scale": self.scale,
            "env": environment(),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "failures": self.failures,
            "metrics": {
                name: {"value": value, "unit": unit, "quartiles": spread}
                for name, (value, unit, spread) in self.metrics.items()
            },
        }

    def result_line(self) -> str:
        """The JSON result, printed as a run's last stdout line."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in self.metrics.items()
                },
            }
        )


def run_until(seconds: float, min_ops: int, op: Callable[[int], None]) -> float:
    """Call ``op(i)`` back to back for ``seconds`` (at least ``min_ops``
    times); returns the wall time the loop took."""
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        op(i)
        i += 1
    return time.perf_counter() - started
