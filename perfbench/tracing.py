"""Spans around calls into qsymgraph's public functions, from outside.

The tracer replaces each probed function by a wrapper, wherever a
qsymgraph module holds a reference to it, and records one span per call:
id, parent span, graph id, name, start and end.  Spans inside one call
of ``classify.classify`` share that call's graph id.  A layer's self time
is the time its spans cover minus the time their child spans cover.

A probe whose function no longer exists is reported as an absent layer;
tracing never fails the run for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    layer: str  # the qsymgraph module, also the layer's name
    target: str  # function, or Class.method, in that module
    time_metric: str  # self time of the calls, in seconds
    counters: tuple[tuple[str, Callable], ...] = ()  # (metric, result -> count)

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.target}"


def _one(result) -> int:
    return 1


PROBES = (
    Probe("graphs", "enumerate_connected", "graphs.enumerate_s", (("graphs.count", len),)),
    Probe("graphs", "parse_graph6", "graphs.parse_s", (("graphs.count", _one),)),
    Probe("automorphisms", "automorphism_group", "automorphisms.group_s",
          (("automorphisms.elements", lambda r: r.order),)),
    Probe("automorphisms", "find_disjoint_pair", "automorphisms.pair_s"),
    Probe("fulton", "zero_pattern", "fulton.zero_pattern_s",
          (("fulton.powers", lambda r: r.max_power_used),
           ("fulton.forced_zeros", lambda r: r.forced_count()))),
    Probe("classify", "classify", "classify.classify_s"),
    Probe("classify", "build_relations", "classify.build_relations_s",
          (("classify.relations", lambda r: len(r.relations)),
           ("classify.generators", lambda r: len(r.gens)))),
    Probe("classify", "qsym_check", "classify.qsym_check_s"),
    Probe("groebner", "complete", "groebner.complete_s",
          (("groebner.complete_calls", _one), ("groebner.basis_size", lambda r: r.size))),
    Probe("groebner", "Reducer.normal_form", "groebner.normal_form_s",
          (("groebner.normal_forms", _one),)),
    Probe("pipeline", "run_batch", "pipeline.run_batch_s",
          (("pipeline.records", lambda r: len(r.records)),)),
    Probe("pipeline", "load_graphs", "pipeline.load_s"),
    Probe("pipeline", "persist_report", "pipeline.persist_s"),
)

# Calls of this probe are one graph each.
GRAPH_PROBE = "classify.classify"

# Every per-layer metric: name -> (unit, better).
LAYER_METRICS = {
    "graphs.enumerate_s": ("s", "lower"),
    "graphs.parse_s": ("s", "lower"),
    "graphs.count": ("count", "higher"),
    "automorphisms.group_s": ("s", "lower"),
    "automorphisms.elements": ("count", "lower"),
    "automorphisms.pair_s": ("s", "lower"),
    "fulton.zero_pattern_s": ("s", "lower"),
    "fulton.powers": ("count", "lower"),
    "fulton.forced_zeros": ("count", "higher"),
    "classify.classify_s": ("s", "lower"),
    "classify.build_relations_s": ("s", "lower"),
    "classify.relations": ("count", "lower"),
    "classify.generators": ("count", "lower"),
    "classify.qsym_check_s": ("s", "lower"),
    "classify.graph_p50_ms": ("ms", "lower"),
    "classify.graph_p98_ms": ("ms", "lower"),
    "groebner.complete_s": ("s", "lower"),
    "groebner.complete_calls": ("count", "lower"),
    "groebner.basis_size": ("count", "lower"),
    "groebner.normal_form_s": ("s", "lower"),
    "groebner.normal_forms": ("count", "lower"),
    "pipeline.run_batch_s": ("s", "lower"),
    "pipeline.load_s": ("s", "lower"),
    "pipeline.persist_s": ("s", "lower"),
    "pipeline.records": ("count", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# The p98 of per-graph time is a tail only with this many graphs; a
# traced run classifies at least this many.
MIN_TRACED_GRAPHS = 40


class Tracer:
    """Install with :meth:`install`, run the batch, then read :meth:`layer_metrics`."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, graph, name, start_ns, end_ns)
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []  # probes whose function is gone
        self.broken: set[str] = set()  # counters the result no longer gives
        self._stack: list[list] = []  # [span id, graph id, child time ns]
        self._next_span = 0
        self._next_graph = 0

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qsymgraph" or name.startswith("qsymgraph.")]
        for probe in PROBES:
            try:
                module = importlib.import_module(f"qsymgraph.{probe.layer}")
                owner_name, _, attr = probe.target.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(probe.name)
                continue
            wrapper = self._wrap(probe, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, probe: Probe, fn):
        name = probe.name
        is_graph = name == GRAPH_PROBE
        self.self_ns[probe.time_metric] = 0
        for key, _ in probe.counters:
            self.counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            self._next_span += 1
            if is_graph:
                self._next_graph += 1
                graph = self._next_graph
            else:
                graph = parent[1] if parent else None
            frame = [self._next_span, graph, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if parent is not None:
                    parent[2] += end - start
                self.self_ns[probe.time_metric] += end - start - frame[2]
                self.spans.append((frame[0], parent[0] if parent else None, graph,
                                   name, start, end))
            for key, count in probe.counters:
                try:
                    self.counts[key] += count(result)
                except (AttributeError, TypeError):
                    self.broken.add(key)
            return result

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the probes that exist can give."""
        out: dict[str, float] = {}
        for probe in PROBES:
            if probe.name in self.absent:
                continue
            out[probe.time_metric] = self.self_ns[probe.time_metric] / 1e9
            for key, _ in probe.counters:
                if key not in self.broken:
                    out[key] = self.counts[key]
        out["trace.spans"] = len(self.spans)
        return out

    def graph_times_ms(self) -> list[float]:
        """Duration of each graph's classification, in input order."""
        return [(end - start) / 1e6 for _, _, _, name, start, end in self.spans
                if name == GRAPH_PROBE]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, graph, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "graph": graph,
                                     "name": name, "start_ns": start,
                                     "end_ns": end}) + "\n")
