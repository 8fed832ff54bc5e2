"""Workload ``grade_wide``: stuck-at fault grading the way
``repro fsim`` does it, on a circuit large enough for the numpy walker.

Set-up (timed once: it is ~25 s, dominated by equivalence collapse):
generate ``stress_spec(2)`` (41k nets, past the 25k-gate ``auto``
crossover), compile it, collapse the full fault list, and build the
wide engine's plan.  Inputs from the seed: a 1-in-10 fault sample and
4096 random patterns.  Timed work: one pass over the sample, as one
``FaultSimulator.simulate_stuck_packed(chunk, words, 4096,
drop_detected=True)`` per interleaved quarter of it, with the default
``auto`` backend and batch size.  Set-up and gradings are timed in CPU
time of this process: the work is single-threaded, and CPU time does
not count the time a shared host spends on other work.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from typing import Dict

from common import Checks, Outcome, median, peak_rss_mb, percentile, ratio

SCALE = 2
N_PATTERNS = 4096
SAMPLE_EVERY = 10
N_CHUNKS = 4
N_INT_CHECK = 150
#: ``slo_frac`` limit on one chunk grading's CPU time
SLO_S = 30.0


def setup():
    """Circuit, collapsed fault list and simulator (the timed set-up)."""
    from repro.bench import generator
    from repro.fault import collapse
    from repro.fault.backends import get_wide_engine
    from repro.fault.fsim import FaultSimulator
    from repro.fault.models import all_stuck_faults
    from repro.netlist import compiled

    t0 = time.process_time()
    netlist = generator.generate(generator.stress_spec(SCALE))
    compiled.compile_netlist(netlist)
    faults = collapse.collapse_stuck(netlist, all_stuck_faults(netlist))
    sim = FaultSimulator(netlist)
    get_wide_engine(sim.compiled).plan  # engine construction
    return netlist, faults, sim, time.process_time() - t0


def inputs(seed: int, netlist, faults):
    """The seeded fault sample and packed pattern words."""
    from repro.fault.fsim import random_pattern_words

    rng = random.Random(f"grade_wide/{seed}/sample")
    sample = [f for f in faults if rng.randrange(SAMPLE_EVERY) == 0]
    pattern_seed = random.Random(f"grade_wide/{seed}/patterns")
    words = random_pattern_words(netlist, N_PATTERNS,
                                 seed=pattern_seed.getrandbits(32))
    return sample, words


def grade(sim, sample, words):
    """One grading and its CPU time."""
    t0 = time.process_time()
    res = sim.simulate_stuck_packed(sample, words, N_PATTERNS,
                                    drop_detected=True)
    return res, time.process_time() - t0


def detected_digest(detected) -> str:
    return hashlib.sha256(
        "\n".join(sorted(str(f) for f in detected)).encode()
    ).hexdigest()


def _check(checks: Checks, seed: int, netlist, sample, words,
           detected: Dict[object, int], pins) -> None:
    from repro.fault.fsim import FaultSimulator

    digest = detected_digest(f for f, m in detected.items() if m)
    pinned = pins.get(str(seed))
    if pinned is not None:
        checks.add("detected set matches pin", digest == pinned,
                   f"{digest[:16]} vs {pinned[:16]}")
    else:
        checks.add("detected set (seed not pinned)", True, digest[:16])
    rng = random.Random(f"grade_wide/{seed}/int-check")
    sub = rng.sample(sample, min(N_INT_CHECK, len(sample)))
    ref = FaultSimulator(netlist, backend="int").simulate_stuck_packed(
        sub, words, N_PATTERNS, drop_detected=True)
    wide_sub = {f for f in sub if detected.get(f)}
    checks.add(f"wide result equals int kernels on {len(sub)} faults",
               set(ref.detected_faults) == wide_sub,
               f"{len(wide_sub)} detected")


def run(seed: int, seconds: float, trace: bool, pins) -> Outcome:
    """``seconds`` is not used: the timed work is one pass over the
    sample, 12-24 s of CPU on a 2-core Xeon."""
    checks = Checks()
    if trace:
        return _run_traced(seed, checks, pins)
    netlist, faults, sim, setup_s = setup()
    sample, words = inputs(seed, netlist, faults)
    gc.collect()
    detected: Dict[object, int] = {}
    durations = []
    for k in range(N_CHUNKS):
        res, dur = grade(sim, sample[k::N_CHUNKS], words)
        durations.append(dur)
        detected.update(res.detected)
    _check(checks, seed, netlist, sample, words, detected, pins)
    n = len(sample)
    n_det = sum(1 for m in detected.values() if m)
    metrics = {
        "setup_s": (setup_s, "s"),
        "faults_per_s": (n / sum(durations), "faults/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fault_coverage": (ratio(n_det, n), "fraction"),
        "test_count": (N_PATTERNS, "tests"),
        "aborted_frac": (ratio(n - n_det, n), "fraction"),
        "job_p50_s": (median(durations), "s"),
        "job_p90_s": (percentile(durations, 0.9), "s"),
        "slo_frac": (ratio(sum(d <= SLO_S for d in durations),
                           len(durations)), "fraction"),
    }
    report = [
        f"circuit stress{SCALE}x: {len(sim.compiled.names)} nets, "
        f"{len(faults)} collapsed faults, sample {n} in {N_CHUNKS} "
        f"chunks, {N_PATTERNS} patterns, detected {n_det}",
        f"chunk gradings, CPU: {[round(d, 3) for d in durations]} s",
    ]
    failed = 0 if checks.ok else len(durations)
    return Outcome(checks.ok, len(durations), failed, metrics, report,
                   checks.items)


def _run_traced(seed: int, checks: Checks, pins) -> Outcome:
    from inprocess import layer_metrics, paused, traced

    with traced("grade_wide") as (tracer, recorder):
        netlist, faults, sim, _ = setup()
        sample, words = inputs(seed, netlist, faults)
        with paused(tracer):
            plain, untraced_s = grade(sim, sample, words)
        res, traced_s = grade(sim, sample, words)
    checks.add("traced grading equals untraced grading",
               res.detected == plain.detected)
    _check(checks, seed, netlist, sample, words, res.detected, pins)
    metrics = layer_metrics(tracer, recorder, untraced_s, traced_s)
    report = [f"grading CPU: untraced {untraced_s:.3f} s, "
              f"traced {traced_s:.3f} s"]
    return Outcome(checks.ok, 1, 0 if checks.ok else 1, metrics, report,
                   checks.items)
