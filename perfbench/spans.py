"""Span recorder for the traced benchmark run.

Each listed csslab function is replaced, at the name its callers look up,
by a wrapper that records a span: name, start, end, parent span and run
id (one run id per repetition of a workload). Spans stay in memory; the
per-layer metrics are computed from them after each repetition and the
spans can be written out as JSON lines at the end.

Self time is a span's duration minus the durations of its child spans.
All work happens on one thread, so child spans never overlap and their
summed duration is the part of the parent they cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

LAYERS = ("evolve", "gauge", "grid", "soliton", "profiles", "linops",
          "modulation", "diagnostics", "cli")

# (span name, layer, module, attribute, can contain other listed spans).
# The attribute is where the callers look the function up: cli imports
# run and validate_exact by name, modulation imports flat and
# proximity_fit by name, and the solver methods live on the class.
SPANS = (
    ("evolve.step", "evolve", "csslab.evolve", "step", True),
    ("evolve.KineticSolver.solve", "evolve", "csslab.evolve",
     "KineticSolver.solve", False),
    ("evolve.KineticSolver.__init__", "evolve", "csslab.evolve",
     "KineticSolver.__init__", False),
    ("evolve.potential", "evolve", "csslab.evolve", "potential", True),
    ("evolve.validate_exact", "evolve", "csslab.cli", "validate_exact", False),
    ("gauge.gauge_fields", "gauge", "csslab.gauge", "gauge_fields", False),
    ("gauge.energy_mass", "gauge", "csslab.gauge", "energy_mass", True),
    ("gauge.virial", "gauge", "csslab.gauge", "virial", True),
    ("gauge.conjugate_triple", "gauge", "csslab.gauge", "conjugate_triple",
     True),
    ("grid.smart_unwrap", "grid", "csslab.grid", "smart_unwrap", False),
    ("modulation.flat", "soliton", "csslab.modulation", "flat", True),
    ("modulation.proximity_fit", "soliton", "csslab.modulation",
     "proximity_fit", True),
    ("profiles.assemble", "profiles", "csslab.profiles", "assemble", False),
    ("profiles.build_t_tables", "profiles", "csslab.profiles",
     "build_t_tables", True),
    ("profiles.build_t4", "profiles", "csslab.profiles", "build_t4", True),
    ("profiles.residuals", "profiles", "csslab.profiles", "residuals", True),
    ("profiles.scaling_sweep", "profiles", "csslab.profiles", "scaling_sweep",
     True),
    ("linops.right_inverse", "linops", "csslab.linops", "right_inverse",
     False),
    ("linops.apply", "linops", "csslab.linops", "apply", False),
    ("modulation.decompose", "modulation", "csslab.modulation", "decompose",
     True),
    ("modulation.build_ortho_profiles", "modulation", "csslab.modulation",
     "build_ortho_profiles", True),
    ("modulation.corrected_params", "modulation", "csslab.modulation",
     "corrected_params", False),
    ("modulation.ode_integrate", "modulation", "csslab.modulation",
     "ode_integrate", True),
    ("modulation.ode_rhs", "modulation", "csslab.modulation", "ode_rhs",
     False),
    ("diagnostics.asymptotics", "diagnostics", "csslab.diagnostics",
     "asymptotics", False),
    ("cli.run", "cli", "csslab.cli", "run", True),
    ("cli.write_csv", "cli", "csslab.cli", "write_csv", False),
    ("cli.write_json", "cli", "csslab.cli", "write_json", False),
)

LAYER_OF = {name: layer for name, layer, *_ in SPANS}

# counters computed from the spans and the workload's own outputs
COUNTERS = (
    ("evolve.potential.per_step", "ratio"),
    ("evolve.track_err_l2", "ratio"),
    ("evolve.mass_drift", "ratio"),
    ("grid.smart_unwrap.after_first_step", "count"),
    ("modulation.newton_iters", "count"),
    ("modulation.flat_per_iter", "ratio"),
    ("modulation.decompose.ms_p50", "ms"),
    ("modulation.unconverged", "count"),
    ("modulation.zero_free_share", "ratio"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _, _, nests in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if nests:
            units[name + ".total_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.share"] = "ratio"
    units.update(COUNTERS)
    return units


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "run")

    def __init__(self, index, name, start, parent, run):
        self.index, self.name, self.start = index, name, start
        self.end, self.parent, self.run = start, parent, run

    def as_dict(self) -> dict:
        return {"index": self.index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run}


class Tracer:
    """Records spans for the wrapped functions; install() puts the
    wrappers in place and uninstall() restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1].index if stack else None
            span = Span(len(spans), name, clock(), parent, self.run_id)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            return result
        return traced

    def install(self) -> None:
        for name, _, module, attr, _ in SPANS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def span_overhead_s(calls: int = 20000) -> float:
    """Measured cost of one wrapper call: a wrapped no-op against the bare
    no-op, per call."""
    def noop():
        return None
    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def self_times(spans: list[Span], first: int = 0) -> dict:
    """Span index -> self time, for spans[first:] (whose parents all lie
    at or after `first`, as for the spans of one repetition)."""
    child = {}
    for s in spans[first:]:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    return {s.index: (s.end - s.start) - child.get(s.index, 0.0)
            for s in spans[first:]}


def rep_metrics(spans: list[Span], first: int, wall_s: float,
                per_span_s: float, decomps: list[dict], extra: dict) -> dict:
    """Per-layer metrics of one repetition: spans[first:], the wall time
    of its timed body and the decompositions it made (dicts with
    iterations, converged and zero_free). `extra` holds the counters the
    workload measures itself (track error, mass drift, bytes written)."""
    rep = spans[first:]
    own = self_times(spans, first)
    out = {}
    for name, _, _, _, nests in SPANS:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
        if nests:
            out[name + ".total_s"] = 0.0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_incl = dict.fromkeys(LAYERS, 0.0)
    for s in rep:
        layer = LAYER_OF[s.name]
        out[s.name + ".calls"] += 1
        out[s.name + ".self_s"] += own[s.index]
        if s.name + ".total_s" in out:
            out[s.name + ".total_s"] += s.end - s.start
        layer_self[layer] += own[s.index]
        # inclusive layer time: spans with no ancestor of the same layer
        p = s.parent
        while p is not None and LAYER_OF[spans[p].name] != layer:
            p = spans[p].parent
        if p is None:
            layer_incl[layer] += s.end - s.start
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]
        out[f"layer.{layer}.share"] = (layer_incl[layer] / wall_s
                                       if wall_s > 0 else 0.0)

    steps = out["evolve.step.calls"]
    out["evolve.potential.per_step"] = (
        out["evolve.potential.calls"] / steps if steps else 0.0)
    first_step = next((s.start for s in rep if s.name == "evolve.step"), None)
    out["grid.smart_unwrap.after_first_step"] = 0 if first_step is None else \
        sum(1 for s in rep
            if s.name == "grid.smart_unwrap" and s.start > first_step)

    iters = sum(d["iterations"] for d in decomps)
    in_decompose = 0
    for s in rep:
        if s.name != "modulation.flat":
            continue
        p = s.parent
        while p is not None and spans[p].name != "modulation.decompose":
            p = spans[p].parent
        in_decompose += p is not None
    out["modulation.newton_iters"] = iters
    out["modulation.flat_per_iter"] = in_decompose / iters if iters else 0.0
    durations = [s.end - s.start for s in rep
                 if s.name == "modulation.decompose"]
    out["modulation.decompose.ms_p50"] = (
        1e3 * statistics.median(durations) if durations else 0.0)
    out["modulation.unconverged"] = sum(
        1 for d in decomps if not d["converged"])
    out["modulation.zero_free_share"] = (
        sum(1 for d in decomps if d["zero_free"]) / len(decomps)
        if decomps else 0.0)

    attributed = sum(s.end - s.start for s in rep if s.parent is None)
    out["trace.wall_s"] = wall_s
    out["trace.attributed_s"] = attributed
    out["trace.unattributed_s"] = wall_s - attributed
    out["trace.overhead_s"] = per_span_s * len(rep)
    out["trace.spans"] = len(rep)
    out.update(extra)
    return out

