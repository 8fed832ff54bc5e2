"""Workload ``serve_mix``: an open loop of short ATPG jobs against
``python -m repro serve`` running as its own process with default
settings.

Set-up (timed nine times, median reported): spawn the daemon until it
prints its ``ready`` line.  One daemon takes the load; four idle ones
are spawned and drained with SIGTERM before it and four after it, so
that one slow stretch of a shared host does not decide the median.  Load: seeded arrivals at a fixed
rate for the run's seconds, sent from this process by the main
thread; a second thread follows each accepted job's public event
stream in submission order (the daemon runs jobs one at a time, in
order) and fetches its artifact.  A job's latency runs from the moment
it was due to the moment its artifact was fetched.
"""

from __future__ import annotations

import json
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import (STATE, Checks, Outcome, child_env, median,
                    metric_units, percentile, ratio, status_kb)
from layers import trace_event_seconds

N_SETUPS = 9
#: arrivals per second: 30 % of the daemon's capacity on these circuits
#: on a fast stretch of a shared 2-core host (5.0 jobs/s) and about 45 % on
#: a slow one; at 2.7 jobs/s a slow stretch pushed the load near 90 %
#: and the latency percentiles of one run in ten up 2-3x.
RATE_PER_S = 1.5
#: circuit -> share of the jobs: two hot, two cold.  Jobs cluster by
#: circuit in run time (s298 < s382 < s526 < s344), and the shares put
#: p50 well inside the s526 cluster (40-80 %) and p90 in the middle of
#: the s344 one (80-100 %).  With 35/15/35/15, p50 sat on the edge
#: between the s382 and s526 clusters and jumped between them from run
#: to run, and p90 was an outer order statistic of a few s344 jobs.
MIX = {"s298": 0.25, "s526": 0.40, "s344": 0.20, "s382": 0.15}
ANALYSIS_FRAC = 0.25
FLOW_SEEDS_PER_CIRCUIT = 3
#: ``slo_frac`` limit on one job's latency from its due time
SLO_S = 1.5
TERMINAL = ("done", "failed", "cancelled")


@dataclass
class Job:
    due: float                  # seconds after the load started
    circuit: str
    config: Dict[str, object]
    sent: Optional[float] = None
    submit_s: Optional[float] = None
    job_id: Optional[str] = None
    status: Optional[int] = None   # HTTP status of the submission
    state: Optional[str] = None    # terminal job state
    done: Optional[float] = None   # artifact fetched
    artifact: Optional[bytes] = None
    error: Optional[str] = None
    matches: bool = False          # artifact equals the in-process one

    @property
    def key(self) -> Tuple[str, int, bool]:
        return (self.circuit, int(self.config["seed"]),
                bool(self.config["use_analysis"]))


def schedule(seed: int, seconds: float) -> List[Job]:
    """Seeded arrivals, circuits and configs for one run.

    Arrivals are stratified: ``rate * seconds`` jobs, one at a uniform
    random time inside each ``1/rate`` slot.  (Plain Poisson arrivals
    made the latency percentiles of two seeds differ by a third at
    this load: the run is too short to average out their bursts.)
    The mix is stratified too -- each circuit gets its share of the
    jobs exactly, as does ``use_analysis`` -- and shuffled; each
    circuit cycles through a few flow seeds.  Only order, times and
    seeds vary with ``seed``, so every run offers the same work.
    """
    rng = random.Random(f"serve_mix/{seed}")
    n = round(RATE_PER_S * seconds)
    times = [(i + rng.random()) / RATE_PER_S for i in range(n)]
    circuits: List[str] = []
    for circuit, share in sorted(MIX.items()):
        circuits += [circuit] * round(share * n)
    circuits = (circuits + circuits)[:n]  # rounding: pad or trim
    rng.shuffle(circuits)
    analysis = set(rng.sample(range(n), round(ANALYSIS_FRAC * n)))
    seeds = {c: [rng.randrange(1, 10_000)
                 for _ in range(FLOW_SEEDS_PER_CIRCUIT)]
             for c in MIX}
    seen: Dict[str, int] = {}
    jobs: List[Job] = []
    for i, (due, circuit) in enumerate(zip(times, circuits)):
        k = seen.get(circuit, 0)
        seen[circuit] = k + 1
        config = {"processes": 2,
                  "seed": seeds[circuit][k % len(seeds[circuit])],
                  "use_analysis": i in analysis}
        jobs.append(Job(due, circuit, config))
    return jobs


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, trace_dir: Optional[str] = None):
        from common import ROOT

        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        STATE.mkdir(parents=True, exist_ok=True)
        self.log = open(STATE / "serve.stderr.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = ready["port"]

    def stop(self, timeout: float = 60.0) -> Tuple[int, List[dict]]:
        """SIGTERM drain; returns the exit code and the lifecycle lines."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.log.close()
        lines = []
        for raw in (out or "").splitlines():
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError:
                pass
        return self.proc.returncode, lines


def _fetch_artifact(client, job_id: str, patience: float = 5.0) -> bytes:
    """The job's artifact, once the server has flipped it to ``done``.

    The terminal event is published a moment before the job's state
    changes, so a fetch right after it can still see ``running`` (409).
    """
    from repro.serve.client import ServeError

    deadline = time.perf_counter() + patience
    while True:
        try:
            return client.artifact(job_id)
        except ServeError as exc:
            if (exc.status != 409 or exc.payload.get("state") != "running"
                    or time.perf_counter() > deadline):
                raise
        time.sleep(0.002)


def _collect(client, inbox: "queue.Queue", start: float) -> None:
    """Follow each accepted job to its artifact, in submission order."""
    from repro.serve.client import ServeError

    while True:
        job = inbox.get()
        if job is None:
            return
        try:
            state = None
            # Stop at the terminal event instead of waiting for the
            # server to close the stream: a pool forked while the
            # stream is open inherits its socket, and the close then
            # waits until that worker exits.
            stream = client.events(job.job_id, timeout=120)
            for event in stream:
                if event.get("name") == "job.state":
                    state = event.get("args", {}).get("state", state)
                    if state in TERMINAL:
                        break
            stream.close()
            job.state = state
            if state == "done":
                job.artifact = _fetch_artifact(client, job.job_id)
            job.done = time.perf_counter() - start
        except (OSError, ServeError) as exc:
            job.error = f"{type(exc).__name__}: {exc}"


def drive(port: int, jobs: List[Job]) -> float:
    """Send ``jobs`` on schedule; returns the load's wall time."""
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient("127.0.0.1", port, timeout=120)
    inbox: "queue.Queue" = queue.Queue()
    start = time.perf_counter()
    collector = threading.Thread(target=_collect,
                                 args=(client, inbox, start), daemon=True)
    collector.start()
    try:
        for job in jobs:
            wait = start + job.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            job.sent = time.perf_counter() - start
            try:
                reply = client.submit(circuit=job.circuit,
                                      config=job.config)
                job.status, job.job_id = 202, reply["id"]
                inbox.put(job)
            except ServeError as exc:
                job.status = exc.status
            except OSError as exc:
                job.error = f"{type(exc).__name__}: {exc}"
            job.submit_s = time.perf_counter() - start - job.sent
    finally:
        inbox.put(None)
        collector.join(timeout=150)
    return time.perf_counter() - start


def _reference_artifacts(jobs: List[Job], refs: Dict) -> Dict:
    """Add ``flow_artifact``, computed in this process, for every served
    key missing from ``refs``."""
    from repro.bench.generator import load_circuit
    from repro.fault.atpg_flow import (AtpgFlow, AtpgFlowConfig,
                                       flow_artifact)

    for job in jobs:
        if job.artifact is None or job.key in refs:
            continue
        config = AtpgFlowConfig(**job.config)
        result = AtpgFlow(load_circuit(job.circuit), config).run()
        refs[job.key] = flow_artifact(job.circuit, config, result)
    return refs


@dataclass
class Served:
    """One daemon's load phase and what it reported afterwards."""

    jobs: List[Job]
    wall_s: float
    stats: Dict[str, object]
    server_jobs: Dict[str, Dict[str, object]]
    rss_start_kb: float
    rss_end_kb: float
    peak_rss_mb: float
    exit_code: int
    lifecycle: List[dict] = field(default_factory=list)


def serve_once(daemon: Daemon, jobs: List[Job]) -> Served:
    from repro.serve.client import ServeClient

    pid = daemon.proc.pid
    try:
        rss_start = status_kb(pid, "VmRSS")
        wall = drive(daemon.port, jobs)
        client = ServeClient("127.0.0.1", daemon.port, timeout=60)
        stats = client.stats()
        server_jobs = {j["id"]: j for j in client.jobs()}
        rss_end = status_kb(pid, "VmRSS")
        peak = status_kb(pid, "VmHWM") / 1024.0
    except BaseException:
        daemon.stop()  # never leave the daemon behind
        raise
    code, lines = daemon.stop()
    return Served(jobs, wall, stats, server_jobs, rss_start, rss_end,
                  peak, code, lines)


def _check(checks: Checks, served: Served, refs=None,
           label: str = "") -> int:
    """Output checks; returns the number of mismatched artifacts."""
    refs = _reference_artifacts(served.jobs, {} if refs is None else refs)
    for job in served.jobs:
        job.matches = (job.artifact is not None
                       and job.artifact == refs[job.key])
    n_served = sum(1 for j in served.jobs if j.artifact is not None)
    mismatched = n_served - sum(j.matches for j in served.jobs)
    checks.add(f"{label}served artifacts equal in-process flow_artifact",
               mismatched == 0,
               f"{n_served - mismatched}/{n_served} identical over "
               f"{len(refs)} circuit/config pairs")
    checks.add(f"{label}/stats swallowed_errors == 0",
               served.stats.get("swallowed_errors") == 0,
               str(served.stats.get("swallowed_errors")))
    stopped = [l for l in served.lifecycle if l.get("event") == "stopped"]
    checks.add(f"{label}SIGTERM drain exits 0 with swallowed_errors == 0",
               served.exit_code == 0 and bool(stopped)
               and stopped[-1].get("swallowed_errors") == 0,
               f"exit {served.exit_code}")
    return mismatched


def _times(served: Served):
    """Per-job latency/lateness (client) and queue/run time (server)."""
    done = [j for j in served.jobs if j.artifact is not None]
    latency = [j.done - j.due for j in done]
    late = [j.sent - j.due for j in served.jobs if j.sent is not None]
    sj = [served.server_jobs[j.job_id] for j in done]
    wait = [s["started_unix"] - s["submitted_unix"] for s in sj]
    run_s = [s["finished_unix"] - s["started_unix"] for s in sj]
    return done, latency, late, sj, wait, run_s


def run(seed: int, seconds: float, trace: bool, pins) -> Outcome:
    checks = Checks()
    if trace:
        return _run_traced(seed, seconds, checks)
    jobs = schedule(seed, seconds)
    codes: List[int] = []

    def idle_spawns() -> List[float]:
        times = []
        for _ in range(N_SETUPS // 2):
            daemon = Daemon()
            times.append(daemon.ready_s)
            codes.append(daemon.stop()[0])
        return times

    setups = idle_spawns()
    daemon = Daemon()
    setups.append(daemon.ready_s)
    served = serve_once(daemon, jobs)
    setups += idle_spawns()
    checks.add("idle daemons drain cleanly", codes.count(0) == len(codes),
               f"exit codes {sorted(set(codes))}")
    mismatched = _check(checks, served)
    done, latency, late, sj, wait, run_s = _times(served)

    refused = sum(1 for j in jobs if j.status == 429)
    failed = sum(1 for j in jobs if not j.matches)
    n_faults = sum(s["summary"]["n_faults"] for s in sj)
    within = sum(1 for j in done if j.matches and j.done - j.due <= SLO_S)
    metrics = {
        "setup_s": (median(setups), "s"),
        "faults_per_s": (ratio(n_faults, sum(run_s)), "faults/s"),
        "peak_rss_mb": (served.peak_rss_mb, "MB"),
        "fault_coverage": (ratio(sum(s["summary"]["detected"] for s in sj),
                                 n_faults), "fraction"),
        "test_count": (ratio(sum(s["summary"]["tests"] for s in sj),
                             len(sj)), "tests"),
        "aborted_frac": (ratio(sum(s["summary"]["aborted"] for s in sj),
                               n_faults), "fraction"),
        "job_p50_s": (median(latency), "s"),
        "job_p90_s": (percentile(latency, 0.9), "s"),
        "slo_frac": (ratio(within, len(jobs)), "fraction"),
    }
    report = [
        f"open loop: {len(jobs)} offered at {RATE_PER_S}/s over "
        f"{seconds:.0f} s, {len(done)} done, {refused} refused (429), "
        f"{len(jobs) - len(done) - refused} failed, {mismatched} "
        f"artifact mismatches; load wall {served.wall_s:.2f} s",
        f"latency from due (n={len(latency)}): p50 "
        f"{median(latency):.4f} s, p90 {percentile(latency, 0.9):.4f} s, "
        f"max {max(latency, default=0.0):.4f} s; generator lateness p95 "
        f"{percentile(late, 0.95) * 1e3:.2f} ms",
        f"server: queue wait p50 {median(wait):.4f} s, run p50 "
        f"{median(run_s):.4f} s, pools {served.stats.get('pools')}",
        f"daemon set-ups: {[round(s, 4) for s in setups]} s",
    ] + [f"job {j.job_id} ({j.circuit}): status {j.status}, state "
         f"{j.state}, {j.error}" for j in jobs if not j.matches]
    return Outcome(checks.ok, len(jobs), failed, metrics, report,
                   checks.items)


def _run_traced(seed: int, seconds: float, checks: Checks) -> Outcome:
    """Half the time untraced, then the same arrivals on a daemon that
    writes per-job traces; per-layer numbers come from the second."""
    jobs_a = schedule(seed, seconds / 2)
    plain = serve_once(Daemon(), jobs_a)
    trace_dir = STATE / "serve_traces"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    jobs_b = schedule(seed, seconds / 2)
    served = serve_once(Daemon(str(trace_dir)), jobs_b)
    refs: Dict = {}
    _check(checks, plain, refs, "untraced half: ")
    _check(checks, served, refs, "traced half: ")
    done, latency, late, sj, wait, run_s = _times(served)
    _, _, _, _, _, plain_run = _times(plain)

    traces = [json.loads((trace_dir / f"{s['id']}.json").read_text())
              for s in sj]
    spans: Dict[str, List[float]] = {}
    kinds: Dict[str, List[float]] = {"words": [0, 0.0],
                                     "patterns": [0, 0.0]}
    counters: Dict[str, int] = {}
    for doc in traces:
        for name, (count, secs) in trace_event_seconds(doc).items():
            slot = spans.setdefault(name, [0, 0.0])
            slot[0] += count
            slot[1] += secs
        for event in doc["traceEvents"]:
            if event.get("ph") == "X" and event["name"] == "pool.round":
                slot = kinds[event["args"]["kind"]]
                slot[0] += 1
                slot[1] += event.get("dur", 0.0) / 1e6
        for name, value in doc["otherData"]["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def span_s(name: str) -> float:
        return spans.get(name, [0, 0.0])[1]

    c = counters.get
    calls = c("atpg.podem_calls", 0)
    aborts = c("atpg.aborted", 0)
    detected_podem = c("atpg.detected_podem", 0)
    dispatched = (calls + c("atpg.parallel.wasted_results", 0)
                  + c("atpg.parallel.retired_speculation", 0))
    disk = c("compile.disk_hits", 0) + c("compile.disk_misses", 0)
    pools = served.stats.get("pools", {})
    lookups = pools.get("hits", 0) + pools.get("misses", 0)
    analysis_jobs = sum(1 for s in sj if s["config"]["use_analysis"])
    submit_ms = [j.submit_s * 1e3 for j in served.jobs
                 if j.submit_s is not None]
    traced_mean = ratio(sum(run_s), len(run_s))
    plain_mean = ratio(sum(plain_run), len(plain_run))
    values = {
        "podem.calls": calls,
        "podem.backtracks": sum(s["summary"]["backtracks"] for s in sj),
        "podem.aborts": aborts,
        "podem.useful_frac": ratio(calls - aborts, calls),
        "flow.wall_s": span_s("atpg.run"),
        "flow.phase1_s": span_s("atpg.phase1_random"),
        "flow.phase2_s": span_s("atpg.phase2_podem"),
        "flow.cross_sim_calls": kinds["patterns"][0],
        "flow.cross_sim_s": kinds["patterns"][1],
        "flow.podem_tests": detected_podem,
        "flow.drops_per_test": ratio(c("atpg.detected_drop", 0),
                                     detected_podem),
        "fsim.rounds": kinds["words"][0] + kinds["patterns"][0],
        "fsim.round_s": kinds["words"][1] + kinds["patterns"][1],
        "compile.netlist_s": span_s("compile.netlist"),
        "cache.disk_lookups": disk,
        "cache.disk_hit_frac": ratio(c("compile.disk_hits", 0), disk),
        "pool.start_s": span_s("pool.start"),
        "pool.round_s": span_s("pool.round"),
        "pool.worker_restarts": c("pool.worker_restarts", 0),
        "pool.swallowed_errors": served.stats.get("swallowed_errors", 0),
        "atpg.parallel.dispatched": dispatched,
        "atpg.parallel.useful_frac": ratio(calls, dispatched),
        "serve.jobs_done": len(done),
        "serve.queue_wait_p95_s": percentile(wait, 0.95),
        "serve.run_p95_s": percentile(run_s, 0.95),
        "serve.submit_p95_ms": percentile(submit_ms, 0.95),
        "serve.pool_lookups": lookups,
        "serve.pool_hit_frac": ratio(pools.get("hits", 0), lookups),
        "serve.refused": sum(1 for j in served.jobs if j.status == 429),
        "serve.rss_growth_kb_per_job": ratio(
            served.rss_end_kb - served.rss_start_kb, len(done)),
        "load.late_p95_ms": percentile(late, 0.95) * 1e3,
        "analysis.jobs": analysis_jobs,
        "analysis.sweep_s": (span_s("analysis.scoap")
                             + span_s("analysis.proof_sweep")),
        "analysis.cache_hit_frac": ratio(
            analysis_jobs - spans.get("analysis.proof_sweep", [0])[0],
            analysis_jobs),
        "trace.untraced_s": plain_mean,
        "trace_overhead_frac": ratio(traced_mean, plain_mean) - 1.0,
    }
    metrics = {name: (float(values.get(name, 0.0)), unit)
               for name, unit in metric_units(True).items()}
    report = [
        f"untraced half: {len(plain.jobs)} jobs, mean run "
        f"{plain_mean:.4f} s; traced half: {len(served.jobs)} jobs, mean "
        f"run {traced_mean:.4f} s; {len(traces)} per-job traces read",
        "PODEM runs inside the pool workers here, so podem.generate_* "
        "and compiled.propagate3_* are not observable (reported 0)",
    ]
    failed = sum(1 for j in served.jobs if not j.matches)
    return Outcome(checks.ok, len(served.jobs), failed, metrics, report,
                   checks.items)
