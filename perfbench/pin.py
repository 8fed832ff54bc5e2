"""Record the pinned outputs the benchmark checks against.

    python3 perfbench/pin.py --workload atpg_full [--seeds 1 2 3]
    python3 perfbench/pin.py --workload grade_wide [--seeds 1 2 3]

For each seed (default: the default and the held-out seed of
``seeds.json``), computes the sha256 of the ``atpg_full`` flow artifact
or of the ``grade_wide`` detected-fault list and stores it in
``pins.json`` (existing pins for other seeds are kept).  Pins are
program outputs: re-record them only in a change that means to alter
results, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("atpg_full", "grade_wide"))
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[common.SEEDS["default_seed"],
                                 common.SEEDS["heldout_seed"]])
    args = parser.parse_args(argv)
    common.prepare_environment()
    path = common.BENCH_DIR / "pins.json"
    pins = json.loads(path.read_text())
    table = pins.setdefault(args.workload, {})
    if args.workload == "atpg_full":
        from repro.fault.atpg_flow import flow_artifact
        import wl_atpg

        for seed in args.seeds:
            (_, faults, flow), _ = wl_atpg.setup(seed)
            result = flow.run(faults)
            artifact = flow_artifact(wl_atpg.CIRCUIT, flow.config, result)
            table[str(seed)] = hashlib.sha256(artifact).hexdigest()
            print(seed, table[str(seed)], flush=True)
    else:
        import wl_grade

        netlist, faults, sim, _ = wl_grade.setup()
        for seed in args.seeds:
            sample, words = wl_grade.inputs(seed, netlist, faults)
            res, _ = wl_grade.grade(sim, sample, words)
            table[str(seed)] = wl_grade.detected_digest(res.detected_faults)
            print(seed, table[str(seed)], flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
