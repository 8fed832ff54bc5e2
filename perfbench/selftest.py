"""Self-test of the benchmark's bounds: inject a slowdown, check it trips.

    python3 perfbench/selftest.py [--seed 1] [--seconds 35]

Runs ``atpg_full`` and ``grade_wide`` as ordinary benchmark runs, each
in a fresh process: ``PAIRS`` times as they are, and as often with
``Podem.generate`` wrapped so every call busy-waits for ``FACTOR - 1``
times its own duration (the flow becomes about ``FACTOR`` times
slower).  The two kinds of run alternate, so a host that drifts in
speed hits both alike; each side reports the median of its runs.
Passes when ``faults_per_s`` on ``atpg_full`` falls by more than its
bound in BENCHMARK.json, and every end-to-end metric of ``grade_wide``
-- which runs no PODEM -- stays within its bound.  Exits 0 on pass,
1 on fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

FACTOR = 2.0
PAIRS = 2


def slow_podem(factor: float) -> None:
    """Make every ``Podem.generate`` call take ``factor`` times as long."""
    from repro.fault.podem import Podem

    original = Podem.generate

    def generate(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(self, *args, **kwargs)
        until = t0 + factor * (time.perf_counter() - t0)
        while time.perf_counter() < until:
            pass
        return out

    Podem.generate = generate


def child(argv) -> int:
    """One benchmark run, slowed when ``--slow`` is given."""
    import run

    if "--slow" in argv:
        common.prepare_environment()
        slow_podem(FACTOR)
    return run.main([a for a in argv if a != "--slow"])


def one_run(workload: str, seed: int, seconds: float, slow: bool) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)]
        + (["--slow"] if slow else []),
        cwd=str(common.ROOT), capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} run failed its output checks:\n"
                         f"{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative worsening of ``new`` against ``base`` (<= 0: not worse)."""
    if not base:
        return 0.0
    change = (new - base) / base
    return -change if metric["better"] == "higher" else change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--child" in argv:
        return child([a for a in argv if a != "--child"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int,
                        default=common.SEEDS["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=common.SPEC["run_seconds"])
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in common.SPEC["end_to_end"]}

    ok = True
    for name, must_trip in (("atpg_full", True), ("grade_wide", False)):
        runs = {False: [], True: []}
        for pair in range(PAIRS):
            for slow in (False, True)[::1 if pair % 2 == 0 else -1]:
                runs[slow].append(one_run(name, args.seed, args.seconds,
                                          slow))
        for metric, m in metrics.items():
            b = statistics.median(r[metric] for r in runs[False])
            s = statistics.median(r[metric] for r in runs[True])
            worse = worse_by(m, b, s)
            tripped = worse > m["bound"]
            if metric == "faults_per_s" and must_trip:
                verdict = "ok (tripped)" if tripped else "FAIL (not tripped)"
                ok &= tripped
            elif must_trip:
                verdict = "tripped" if tripped else "-"
            else:
                verdict = "FAIL (tripped)" if tripped else "ok"
                ok &= not tripped
            print(f"{name:10s} {metric:15s} base {b:12.6g} slowed "
                  f"{s:12.6g} worse {worse:+8.3f} bound {m['bound']:.2f} "
                  f"{verdict}", flush=True)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
