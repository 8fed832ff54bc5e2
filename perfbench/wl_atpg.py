"""Workload ``atpg_full``: the serial two-phase ATPG flow over the
complete equivalence-collapsed fault list of s1423.

Set-up: load the circuit, compile it, collapse its fault list and build
the flow engine.  It is timed 15 times, seven before the flow and seven
after it, so that one slow stretch of a shared host does not decide the
median; only the set-up the flow runs on is kept.  Timed unit: one
``AtpgFlow.run``.  Set-ups and the flow are timed in CPU time of this
process: the work is single-threaded, and CPU time does not count the
time the host gives to other work.  The flow seed is the workload seed.
"""

from __future__ import annotations

import gc
import hashlib
import time

from common import Checks, Outcome, median, peak_rss_mb, ratio

CIRCUIT = "s1423"
N_SETUPS = 15
#: ``slo_frac`` limit on one flow's CPU time
SLO_S = 30.0


def setup(seed: int):
    from repro.bench import generator
    from repro.fault import collapse
    from repro.fault.atpg_flow import AtpgFlow, AtpgFlowConfig
    from repro.fault.models import all_stuck_faults
    from repro.netlist.compiled import clear_compile_cache

    # The in-process compile tier would turn every set-up after the
    # first into a dictionary lookup; a fresh process has only the
    # disk tier.
    clear_compile_cache()
    t0 = time.process_time()
    netlist = generator.load_circuit(CIRCUIT)
    faults = collapse.collapse_stuck(netlist, all_stuck_faults(netlist))
    flow = AtpgFlow(netlist, AtpgFlowConfig(seed=seed))
    return (netlist, faults, flow), time.process_time() - t0


def _check(checks: Checks, seed: int, netlist, faults, result,
           artifact: bytes, pins) -> None:
    from repro.fault.fsim import FaultSimulator

    digest = hashlib.sha256(artifact).hexdigest()
    pinned = pins.get(str(seed))
    if pinned is not None:
        checks.add("artifact sha256 matches pin", digest == pinned,
                   f"{digest[:16]} vs {pinned[:16]}")
    else:
        checks.add("artifact sha256 (seed not pinned)", True, digest[:16])
    sim = FaultSimulator(netlist, backend="int")
    masks = sim.simulate_stuck(faults, result.tests).detected
    missed = [f for f in result.detected_faults if not masks.get(f)]
    checks.add("every reported-detected fault is detected by the tests",
               not missed, f"{len(missed)} missed")
    bad = [f for f in result.untestable_faults if masks.get(f)]
    checks.add("no reported-untestable fault is detected", not bad,
               f"{len(bad)} detected")
    checks.add("every fault has a status",
               len(result.status) == len(faults) == result.n_faults)


def run(seed: int, seconds: float, trace: bool, pins) -> Outcome:
    """``seconds`` is not used: the timed work is one flow, 9-21 s of
    CPU on a 2-core Xeon."""
    from repro.fault.atpg_flow import flow_artifact

    checks = Checks()
    if trace:
        return _run_traced(seed, checks, pins)

    setup_times = [setup(seed)[1] for _ in range(N_SETUPS // 2)]
    (netlist, faults, flow), took = setup(seed)
    setup_times.append(took)
    gc.collect()
    t0 = time.process_time()
    result = flow.run(faults)
    flow_s = time.process_time() - t0
    setup_times += [setup(seed)[1] for _ in range(N_SETUPS // 2)]
    artifact = flow_artifact(CIRCUIT, flow.config, result)
    _check(checks, seed, netlist, faults, result, artifact, pins)

    summary = result.summary()
    n = summary["n_faults"]
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "faults_per_s": (n / flow_s, "faults/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fault_coverage": (summary["coverage"], "fraction"),
        "test_count": (summary["tests"], "tests"),
        "aborted_frac": (ratio(summary["aborted"], n), "fraction"),
        "job_p50_s": (flow_s, "s"),
        "job_p90_s": (flow_s, "s"),
        "slo_frac": (float(flow_s <= SLO_S), "fraction"),
    }
    report = [
        f"flow: {CIRCUIT}, {n} faults, CPU {flow_s:.3f} s",
        f"summary: {summary}",
        f"set-ups: {[round(s, 4) for s in setup_times]} s",
    ]
    return Outcome(checks.ok, 1, 0 if checks.ok else 1, metrics, report,
                   checks.items)


def _run_traced(seed: int, checks: Checks, pins) -> Outcome:
    from repro.fault.atpg_flow import flow_artifact
    from inprocess import layer_metrics, traced

    # Untraced reference first, then the same flow under the wrappers.
    (netlist, faults, flow), _ = setup(seed)
    t0 = time.perf_counter()
    plain = flow.run(faults)
    untraced_s = time.perf_counter() - t0
    with traced("atpg_full") as (tracer, recorder):
        (netlist, faults, flow), _ = setup(seed)
        t0 = time.perf_counter()
        result = tracer.call("flow.run", flow.run, faults)
        traced_s = time.perf_counter() - t0
    artifact = flow_artifact(CIRCUIT, flow.config, result)
    checks.add("traced flow equals untraced flow",
               artifact == flow_artifact(CIRCUIT, flow.config, plain))
    _check(checks, seed, netlist, faults, result, artifact, pins)
    metrics = layer_metrics(tracer, recorder, untraced_s, traced_s)
    gen = metrics["podem.generate_s"][0]
    unattributed = metrics["self.fault.atpg_flow_s"][0]
    report = [
        f"flow wall: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s",
        f"podem.generate_s {gen:.3f} s = {ratio(gen, traced_s):.1%} of "
        f"the traced flow; propagate3 "
        f"{ratio(metrics['compiled.propagate3_s'][0], traced_s):.1%}",
        f"self times of wrapped layers inside the flow: "
        f"{metrics['flow.wrapped_frac'][0]:.1%} of its wall; flow's own "
        f"code outside them {unattributed:.3f} s "
        f"({ratio(unattributed, traced_s):.1%})",
    ]
    return Outcome(checks.ok, 1, 0 if checks.ok else 1, metrics, report,
                   checks.items)
