"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public functions of the program's layers
(class methods and module functions) with timing shims, keeps one span
per call in memory -- name, start, end, parent -- and writes them out
when the run ends.  A layer's *self time* is its inclusive time minus
the time of wrapped calls made inside it, so self times of nested
layers add up to the wall time of the outermost wrapped call.

The wrappers are installed for a ``with`` block and removed afterwards;
module functions are replaced in every ``repro`` module that imported
them, so callers that bound the name at import time see the shim too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: wrapped name -> layer it belongs to (for the self-time table).
LAYER_OF = {
    "flow.run": "fault.atpg_flow",
    "podem.generate": "fault.podem",
    "compiled.propagate3": "netlist.compiled",
    "pool.round_packed": "fault.sharded",
    "pool.round_patterns": "fault.sharded",
    "pool.drop_faults": "fault.sharded",
    "collapse.equiv": "fault.collapse",
    "collapse.dominance": "fault.collapse",
    "wide.pack_prefix": "netlist.wide",
    "wide.eval_good": "netlist.wide",
    "wide.detect_batched": "netlist.wide",
    "backends.select_batch_faults": "fault.backends",
    "bench.generate": "bench",
    "compile.netlist": "netlist.compiled",
}


class LayerTracer:
    """In-memory span recorder plus the shims that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: one ``(name_id, start, end, parent_index)`` tuple per call
        self.spans: List[Tuple[int, float, float, int]] = []
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.returns: Dict[str, List[object]] = defaultdict(list)
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def shim(self, name: str, fn: Callable, keep: Optional[Callable] = None):
        """``fn`` wrapped so each call records one span named ``name``.

        ``keep(result)`` (optional) extracts a value from the return to
        keep in :attr:`returns` (PODEM status, chosen batch size, ...).
        """
        name_id = self._name_id(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, len(spans)]
            spans.append(None)  # reserve the slot: children index it
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                spans[frame[2]] = (name_id, frame[0], end, parent)
                self.incl[name] += dur
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                self.durations[name].append(dur)
                if stack:
                    stack[-1][1] += dur
            if keep is not None:
                self.returns[name].append(keep(out))
            return out

        return wrapper

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run one call as a span (for the benchmark's own root calls)."""
        return self.shim(name, fn)(*args, **kwargs)

    # -- installing ----------------------------------------------------
    def wrap_method(self, cls, attr: str, name: str,
                    keep: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.shim(name, original, keep))
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, original: Callable, name: str,
                      keep: Optional[Callable] = None) -> None:
        """Replace ``original`` in every loaded ``repro`` module."""
        wrapped = self.shim(name, original, keep)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original))

    def install_program_layers(self) -> "LayerTracer":
        """Wrap the layer boundaries named in the benchmark README."""
        # Load every module that binds a wrapped function by name first:
        # one imported later would keep the shim after uninstall.
        import repro.analysis  # noqa: F401
        import repro.fault.atpg_flow  # noqa: F401
        from repro.bench import generator
        from repro.fault import backends, collapse
        from repro.fault.podem import Podem
        from repro.fault.sharded import ShardedFaultSimulator
        from repro.netlist import compiled
        from repro.netlist.compiled import CompiledNetlist
        from repro.netlist.wide import WideEngine

        self.wrap_method(Podem, "generate", "podem.generate",
                         keep=lambda r: (r.status, r.backtracks))
        self.wrap_method(CompiledNetlist, "propagate3",
                         "compiled.propagate3")
        self.wrap_method(ShardedFaultSimulator, "round_packed",
                         "pool.round_packed")
        self.wrap_method(ShardedFaultSimulator, "round_patterns",
                         "pool.round_patterns")
        self.wrap_method(ShardedFaultSimulator, "drop_faults",
                         "pool.drop_faults")
        self.wrap_method(WideEngine, "pack_prefix", "wide.pack_prefix")
        self.wrap_method(WideEngine, "eval_good", "wide.eval_good")
        self.wrap_method(WideEngine, "detect_batched",
                         "wide.detect_batched")
        self.wrap_function(backends.select_batch_faults,
                           "backends.select_batch_faults", keep=int)
        self.wrap_function(collapse.collapse_stuck, "collapse.equiv")
        self.wrap_function(collapse.dominance_collapse_stuck,
                           "collapse.dominance")
        self.wrap_function(generator.generate, "bench.generate")
        self.wrap_function(compiled.compile_netlist, "compile.netlist")
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "LayerTracer":
        return self.install_program_layers()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------
    def layer_self_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[LAYER_OF.get(name, name)] += value
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every recorded span (times in seconds) as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [list(s) for s in self.spans if s is not None],
        }, separators=(",", ":")))


def recorder_span_seconds(recorder, prefix: str = "") -> Dict[str, float]:
    """Summed duration (s) of the obs recorder's complete events by name."""
    out: Dict[str, float] = defaultdict(float)
    for event in recorder.snapshot()["events"]:
        if event.get("ph") == "X" and event["name"].startswith(prefix):
            out[event["name"]] += event.get("dur", 0.0) / 1e6
    return dict(out)


def trace_event_seconds(trace: Dict[str, object]) -> Dict[str, Tuple[int, float]]:
    """``name -> (count, seconds)`` of complete events in an exported
    chrome-trace document (a daemon's per-job trace file)."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for event in trace.get("traceEvents", []):
        if event.get("ph") == "X":
            slot = out[event["name"]]
            slot[0] += 1
            slot[1] += event.get("dur", 0.0) / 1e6
    return {k: (int(v[0]), float(v[1])) for k, v in out.items()}
