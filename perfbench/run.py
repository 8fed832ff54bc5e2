"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload atpg_full --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The report lines name every metric
with its unit, the host fingerprint and each output check; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Exits 0 when
the run completed -- an incorrect output is reported as
``"correct": false`` -- and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: workload -> module that runs it
MODULES = {"atpg_full": "wl_atpg", "grade_wide": "wl_grade",
           "serve_mix": "wl_serve"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=MODULES)
    parser.add_argument("--seed", type=int,
                        default=common.SEEDS["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=common.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {common.SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    common.prepare_environment()
    fingerprint = common.host_fingerprint()
    pins = json.loads((common.BENCH_DIR / "pins.json").read_text())

    workload = importlib.import_module(MODULES[args.workload])
    t0 = time.perf_counter()
    outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                           pins.get(args.workload, {}))
    wall = time.perf_counter() - t0
    fingerprint["speed_probe_ms"].append(common.speed_probe_ms())

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  wall {wall:.2f} s")
    print(f"host {json.dumps(fingerprint, sort_keys=True)}")
    for line in outcome.report:
        print(f"  {line}")
    for name, ok, detail in outcome.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + (f" ({detail})" if detail else ""))
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    for name, unit in common.metric_units(bool(args.trace)).items():
        value = outcome.metrics.get(name, (0.0, unit))[0]
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(common.result_line(outcome, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
