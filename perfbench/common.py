"""Shared plumbing of the benchmark: paths, seeds, metric list,
statistics, host fingerprint and the result line.

Every workload module exposes ``run(seed, seconds, trace, pins) ->
Outcome``; ``run.py`` prints the outcome's report lines and then, as
the last line of standard output, the JSON result object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (ignored by git): the
#: compile/analysis disk cache, daemon traces and span dumps.
STATE = ROOT / ".perfbench_state"
CACHE_DIR = STATE / "cache"

#: The default and the held-out workload seed.
SEEDS = json.loads((BENCH_DIR / "seeds.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order: the per-layer
    metrics when ``trace``, else the end-to-end ones."""
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


@dataclass
class Outcome:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: List[str] = field(default_factory=list)
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)


class Checks:
    """Collects named output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.items: List[Tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.items)


def prepare_environment() -> None:
    """Make the checkout's ``src`` importable and pin the disk cache to
    the benchmark's own directory.

    Inherited ``REPRO_*`` variables (trace paths, backend crossovers,
    a cache elsewhere) would change what is measured, so they are
    dropped before the package is imported.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a program subprocess (the serve daemon)."""
    env = dict(os.environ)  # carries REPRO_CACHE_DIR
    env["PYTHONPATH"] = str(SRC)
    return env


def cache_is_warm() -> bool:
    """Whether the benchmark's compile disk cache holds any entry."""
    return any(path.is_file() for path in CACHE_DIR.rglob("*"))


def host_fingerprint() -> Dict[str, object]:
    """Host facts that decide whether two reports are comparable."""
    from repro.fault.sharded import usable_cores

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "usable_cores": usable_cores(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": round(os.getloadavg()[0], 2),
        "compile_cache_warm": cache_is_warm(),
        "speed_probe_ms": [speed_probe_ms()],
    }


def speed_probe_ms() -> float:
    """Median CPU time (ms) of a fixed pure-Python loop.

    The same host can run the same work at very different speeds from
    one stretch of minutes to the next (a shared machine); the probe,
    taken before and after a run, shows which kind of stretch the run's
    numbers come from.
    """
    times = []
    for _ in range(5):
        t0 = time.process_time()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.process_time() - t0) * 1e3)
    return round(statistics.median(times), 2)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB of ``pid`` (default: this process)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return status_kb(pid, "VmHWM") / 1024.0


def status_kb(pid: int, key: str) -> float:
    """One ``kB`` field of ``/proc/<pid>/status`` (VmRSS, VmHWM, ...)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1])
    raise KeyError(key)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * fraction // 1))
    return float(ordered[int(min(rank, len(ordered))) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def result_line(outcome: Outcome, trace: bool) -> str:
    """The final JSON line, restricted to the metrics the mode owes."""
    metrics = {}
    for name, unit in metric_units(trace).items():
        value = outcome.metrics.get(name, (0.0, unit))[0]
        metrics[name] = {"value": float(value), "unit": unit}
    return json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(max(1, outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    })
