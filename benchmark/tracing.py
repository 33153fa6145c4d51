"""Spans around the calls into each boxweights layer, and the per-layer metrics.

Tracing replaces each traced function, in every boxweights module that holds
a reference to it, with a wrapper that records a span: name, start, end,
parent span and a few work counts taken from the arguments or the result.
A call that raises keeps its span, marked ``raised``, without work counts;
the per-layer metrics leave such spans out.
Spans stay in memory and are written out when the run ends.  Nothing in the
program changes; the wrappers live here and are installed only for a traced
run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LOOSE_Q1_FACTOR = 1.5
TIGHT_Q1_FACTOR = 1.0005


def _cells(shape) -> int:
    n = 1
    for m in shape:
        n *= int(m)
    return n


def _tree_work(args, kwargs, tree):
    cfg = tree.config
    band = "loose" if cfg.Q1 == cfg.Q * LOOSE_Q1_FACTOR else "tight" if cfg.Q1 == cfg.Q * TIGHT_Q1_FACTOR else "other"
    return {"nodes": sum(len(level) for level in tree.levels), "band": band}


# (module, function, span name, work counts from (args, kwargs, result)).
TRACED = [
    ("characteristics", "characteristic", "characteristics.scan",
     lambda a, k, r: {"boxes": r.boxes_scanned, "ndim": a[0].ndim}),
    ("grids", "dd_prefix_tables", "grids.tables", lambda a, k, r: {"cells": int(a[0].size)}),
    ("grids", "moment_cells", "grids.tables", lambda a, k, r: {"cells": 0}),
    ("grids", "write_grid", "grids.write", lambda a, k, r: {"cells": _cells(a[1].shape)}),
    ("grids", "read_grid", "grids.read", lambda a, k, r: {"cells": _cells(r[0].shape)}),
    ("grids", "power_weight_grid", "grids.generate", lambda a, k, r: {"cells": _cells(r[0].shape)}),
    ("grids", "refine", "grids.refine", lambda a, k, r: {"cells": _cells(r[0].shape)}),
    ("splitting", "build_tree", "splitting.tree", _tree_work),
    ("splitting", "chain_report", "splitting.chain_report", lambda a, k, r: {}),
    ("bellman", "verify_candidate", "bellman.verify", lambda a, k, r: {"segments": r.segments_tested}),
    ("bellman", "read_candidate", "bellman.read_candidate", lambda a, k, r: {}),
    ("bellman", "theorem_conclusion_check", "bellman.conclusion_check", lambda a, k, r: {}),
    ("exponents", "sharp_range", "exponents.sharp_range", lambda a, k, r: {}),
    ("cli", "main", "cli.main", lambda a, k, r: {}),
]


class Tracer:
    """In-memory span recorder; records only while ``recording`` is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.recording = False
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, work):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": tracer.stack[-1] if tracer.stack else None}
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # No work counts: a refused or failed call is left out of the rates and counts.
                span["raised"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer.stack.pop()
            span.update(work(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "boxweights" or n.startswith("boxweights.")]
        for mod_name, fn_name, span_name, work in TRACED:
            original = getattr(sys.modules[f"boxweights.{mod_name}"], fn_name)
            wrapped = self.wrap(original, span_name, work)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _self_times(spans):
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[i] for i, s in enumerate(spans)]


# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("characteristics.scan_1d_ns_per_box", "ns"),
    ("characteristics.scan_2d_ns_per_box", "ns"),
    ("characteristics.scan_3d_ns_per_box", "ns"),
    ("characteristics.boxes_scanned", "count"),
    ("grids.tables_ns_per_cell", "ns"),
    ("grids.write_ns_per_cell", "ns"),
    ("grids.read_ns_per_cell", "ns"),
    ("grids.generate_ns_per_cell", "ns"),
    ("grids.refine_ns_per_cell", "ns"),
    ("splitting.tree_loose_us_per_node", "us"),
    ("splitting.tree_tight_us_per_node", "us"),
    ("splitting.chain_report_ms", "ms"),
    ("splitting.nodes_built", "count"),
    ("bellman.verify_us_per_segment", "us"),
    ("bellman.read_candidate_ms", "ms"),
    ("bellman.segments_tested", "count"),
    ("bellman.conclusion_check_s", "s"),
    ("exponents.sharp_range_us", "us"),
    ("cli.self_ms", "ms"),
]

_COUNTS = {
    "characteristics.boxes_scanned": ("characteristics.scan", "boxes"),
    "splitting.nodes_built": ("splitting.tree", "nodes"),
    "bellman.segments_tested": ("bellman.verify", "segments"),
}


def _rates(spans):
    """Time per unit of work for each timed metric; None where no span ran."""
    self_t = _self_times(spans)
    time_of, work_of = defaultdict(float), defaultdict(float)

    def add(metric, seconds, work):
        time_of[metric] += seconds
        work_of[metric] += work

    for s, own in zip(spans, self_t):
        if s.get("raised"):
            continue
        dur = s["end"] - s["start"]
        name = s["name"]
        if name == "characteristics.scan":
            # Self time: the prefix tables built inside the call are their own layer.
            add(f"characteristics.scan_{s['ndim']}d_ns_per_box", own * 1e9, s["boxes"])
        elif name in ("grids.tables", "grids.write", "grids.read", "grids.generate", "grids.refine"):
            add(f"{name}_ns_per_cell", dur * 1e9, s["cells"])
        elif name == "splitting.tree" and s["band"] != "other":
            add(f"splitting.tree_{s['band']}_us_per_node", dur * 1e6, s["nodes"])
        elif name == "splitting.chain_report":
            add("splitting.chain_report_ms", dur * 1e3, 1)
        elif name == "bellman.verify":
            add("bellman.verify_us_per_segment", dur * 1e6, s["segments"])
        elif name == "bellman.read_candidate":
            add("bellman.read_candidate_ms", dur * 1e3, 1)
        elif name == "bellman.conclusion_check":
            add("bellman.conclusion_check_s", dur, 1)
        elif name == "exponents.sharp_range":
            add("exponents.sharp_range_us", dur * 1e6, 1)
        elif name == "cli.main":
            add("cli.self_ms", own * 1e3, 1)
    return {m: time_of[m] / work_of[m] for m in time_of if work_of[m] > 0}


def per_layer_metrics(pass_spans, passes: int, probe_spans):
    """Per-layer metrics from the traced passes.

    Counts are per pass.  A timed metric whose layer the workload never
    calls is taken from the layer probe instead; the names of those metrics
    are returned as the second value.
    """
    rates = _rates(pass_spans)
    probe_rates = _rates(probe_spans)
    metrics, from_probe = {}, []
    for name, unit in PER_LAYER:
        if name in _COUNTS:
            span_name, key = _COUNTS[name]
            total = sum(s[key] for s in pass_spans if s["name"] == span_name and not s.get("raised"))
            value = total // passes
        elif name in rates:
            value = rates[name]
        else:
            value = probe_rates[name]
            from_probe.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, from_probe
