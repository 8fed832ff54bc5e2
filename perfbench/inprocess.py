"""Per-layer numbers of an in-process traced run (atpg_full, grade_wide).

Combines the benchmark's own wrappers (:class:`layers.LayerTracer`)
with the program's ``obs`` recorder, enabled through
``repro.obs.trace_session`` for the traced part of the run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Tuple

from common import STATE, median, metric_units, percentile, ratio
from layers import LayerTracer, recorder_span_seconds


@contextmanager
def traced(workload: str):
    """Install the layer wrappers and an obs recorder; yields both."""
    from repro.netlist.compiled import clear_compile_cache
    from repro.netlist.wide import clear_plan_cache
    from repro.obs import trace_session

    clear_compile_cache()
    clear_plan_cache()
    path = STATE / "traces" / f"{workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with LayerTracer() as tracer:
        with trace_session(str(path), f"perfbench-{workload}") as recorder:
            yield tracer, recorder
    tracer.dump(STATE / "traces" / f"{workload}.spans.json")


@contextmanager
def paused(tracer: LayerTracer):
    """Tracing fully off (no wrappers, no-op recorder) inside :func:`traced`."""
    from repro.obs import NULL_RECORDER, use_recorder

    tracer.uninstall()
    try:
        with use_recorder(NULL_RECORDER):
            yield
    finally:
        tracer.install_program_layers()


def layer_metrics(tracer: LayerTracer, recorder,
                  untraced_s: float, traced_s: float,
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric from one in-process traced run."""
    calls, incl = tracer.calls, tracer.incl
    counter = recorder.counter
    spans = recorder_span_seconds(recorder)

    podem = tracer.returns.get("podem.generate", [])
    aborts = sum(1 for status, _ in podem if status == "aborted")
    gen_ms = [d * 1e3 for d in tracer.durations.get("podem.generate", [])]
    detected_podem = counter("atpg.detected_podem")
    disk_lookups = counter("compile.disk_hits") + counter("compile.disk_misses")
    # Speculative searches exist only in the parallel phase-2 walk.
    parallel = "atpg.parallel_podem" in spans
    committed = counter("atpg.podem_calls")
    dispatched = (committed + counter("atpg.parallel.wasted_results")
                  + counter("atpg.parallel.retired_speculation"))
    batches = tracer.returns.get("backends.select_batch_faults", [])
    selfs = tracer.layer_self_times()
    flow_s = incl["flow.run"]

    values = {
        "compiled.propagate3_calls": calls["compiled.propagate3"],
        "compiled.propagate3_s": incl["compiled.propagate3"],
        "podem.calls": calls["podem.generate"],
        "podem.backtracks": sum(bt for _, bt in podem),
        "podem.aborts": aborts,
        "podem.generate_s": incl["podem.generate"],
        "podem.generate_p50_ms": median(gen_ms),
        "podem.generate_p99_ms": percentile(gen_ms, 0.99),
        "podem.useful_frac": ratio(len(podem) - aborts, len(podem)),
        "flow.wall_s": flow_s,
        "flow.phase1_s": spans.get("atpg.phase1_random", 0.0),
        "flow.phase2_s": spans.get("atpg.phase2_podem", 0.0),
        "flow.cross_sim_calls": calls["pool.round_patterns"],
        "flow.cross_sim_s": incl["pool.round_patterns"],
        "flow.podem_tests": detected_podem,
        "flow.drops_per_test": ratio(counter("atpg.detected_drop"),
                                     detected_podem),
        # Share of the flow spent inside wrapped layers: what the
        # wrappers miss shows up as the flow's own self time.
        "flow.wrapped_frac": ratio(flow_s - tracer.self_s["flow.run"],
                                   flow_s),
        "fsim.rounds": (calls["pool.round_packed"]
                        + calls["pool.round_patterns"]),
        "fsim.round_s": (incl["pool.round_packed"]
                         + incl["pool.round_patterns"]),
        "wide.pack_s": incl["wide.pack_prefix"],
        "wide.good_s": incl["wide.eval_good"],
        "wide.detect_s": incl["wide.detect_batched"],
        "wide.detect_calls": calls["wide.detect_batched"],
        "wide.batch_faults": median(batches),
        "collapse.equiv_s": incl["collapse.equiv"],
        "collapse.dominance_s": incl["collapse.dominance"],
        "bench.generate_s": incl["bench.generate"],
        "compile.netlist_s": incl["compile.netlist"],
        "cache.disk_lookups": disk_lookups,
        "cache.disk_hit_frac": ratio(counter("compile.disk_hits"),
                                     disk_lookups),
        "pool.start_s": spans.get("pool.start", 0.0),
        "pool.round_s": spans.get("pool.round", 0.0),
        "pool.worker_restarts": counter("pool.worker_restarts"),
        "pool.swallowed_errors": counter("pool.swallowed_errors"),
        "atpg.parallel.dispatched": dispatched if parallel else 0,
        "atpg.parallel.useful_frac": (ratio(committed, dispatched)
                                      if parallel else 0.0),
        "analysis.sweep_s": (spans.get("analysis.scoap", 0.0)
                             + spans.get("analysis.proof_sweep", 0.0)),
        "self.fault.atpg_flow_s": selfs.get("fault.atpg_flow", 0.0),
        "self.fault.podem_s": selfs.get("fault.podem", 0.0),
        "self.netlist.compiled_s": selfs.get("netlist.compiled", 0.0),
        "self.fault.sharded_s": selfs.get("fault.sharded", 0.0),
        "self.fault.collapse_s": selfs.get("fault.collapse", 0.0),
        "self.netlist.wide_s": selfs.get("netlist.wide", 0.0),
        "self.bench_s": selfs.get("bench", 0.0),
        "trace.untraced_s": untraced_s,
        "trace_overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    }
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in metric_units(True).items()}
