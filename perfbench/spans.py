"""Spans around calls into slicelab's layers, and the per-layer metrics.

Tracing wraps functions where they are looked up, in the module that calls
them, not where they are defined: `slicelab.oracle.run_sim` is the name
`sim_evaluate` calls, so wrapping it there catches every call without
editing `src/`. Spans stay in memory and are written out once, at the end.
A span's self time is its duration minus the part of it its child spans
cover.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (module that calls it, attribute, span name as <defining module>.<function>)
WRAPPED = (
    ("simulator", "generate_traffic", "simulator.generate_traffic"),
    ("simulator", "simulate_pipeline", "simulator.simulate_pipeline"),
    ("simulator", "delay_statistic", "simulator.delay_statistic"),
    ("oracle", "run_sim", "simulator.run_sim"),
    ("baseline", "run_sim", "simulator.run_sim"),
    ("osra", "sim_evaluate", "oracle.sim_evaluate"),
    ("osra", "probed_gradient", "penalty.probed_gradient"),
    ("osra", "analytic_gradient", "penalty.analytic_gradient"),
    ("osra", "transfer_step", "osra.transfer_step"),
    ("osra", "project_columns", "projection.project_columns"),
)

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("simulator.simulate_pipeline.self_s", "s"),
    ("simulator.simulate_pipeline.calls", "count"),
    ("simulator.simulate_pipeline.pkts_per_s", "1/s"),
    ("simulator.simulate_pipeline.pkts_per_call", "count"),
    ("simulator.simulate_pipeline.drop_frac", "fraction"),
    ("simulator.simulate_pipeline.drop_call_frac", "fraction"),
    ("simulator.generate_traffic.self_s", "s"),
    ("simulator.generate_traffic.calls", "count"),
    ("simulator.generate_traffic.pkts_per_s", "1/s"),
    ("simulator.delay_statistic.self_s", "s"),
    ("simulator.delay_statistic.calls", "count"),
    ("simulator.run_sim.self_s", "s"),
    ("simulator.run_sim.calls", "count"),
    ("oracle.sim_evaluate.self_s", "s"),
    ("oracle.sim_evaluate.calls", "count"),
    ("penalty.probed_gradient.self_s", "s"),
    ("penalty.probed_gradient.calls", "count"),
    ("penalty.probed_gradient.sims_per_call", "count"),
    ("penalty.analytic_gradient.self_s", "s"),
    ("penalty.analytic_gradient.calls", "count"),
    ("osra.transfer_step.self_s", "s"),
    ("osra.transfer_step.calls", "count"),
    ("projection.project_columns.self_s", "s"),
    ("projection.project_columns.calls", "count"),
    ("osra.run_osra.self_s", "s"),
    ("osra.run_osra.converged_frac", "fraction"),
    ("osra.run_osra.updates_mean", "count"),
    ("baseline.audit_allocation.self_s", "s"),
    ("scenario.load_scenario.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "fraction"),
)


class Tracer:
    """In-memory spans [name, start, end, parent index] plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = self.clock()
            self._open.pop()

    def count(self, key, n):
        self.counters[key] += n

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, out)
            return out
        return traced

    def dump(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _count_pipeline(tracer, args, out):
    pkts = len(args[0])
    dropped = pkts - int(out[1].sum())
    tracer.count("pipeline.pkts", pkts)
    tracer.count("pipeline.dropped", dropped)
    tracer.count("pipeline.drop_calls", dropped > 0)


def _count_traffic(tracer, args, out):
    tracer.count("traffic.pkts", len(out[0]))


COUNTERS = {
    "simulator.simulate_pipeline": _count_pipeline,
    "simulator.generate_traffic": _count_traffic,
}


@contextmanager
def instrument(slicelab, tracer):
    """Wrap every WRAPPED function for the duration of the block.

    A name a module no longer has raises AttributeError, after the functions
    already wrapped are restored: a layer that silently stopped being traced
    would read as zero calls and zero time, which looks like a speed-up.
    """
    saved = []
    try:
        for module_name, attr, name in WRAPPED:
            module = getattr(slicelab, module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, COUNTERS.get(name)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def layer_metrics(tracer, traced_wall, untraced_wall, outcomes):
    """Every PER_LAYER metric from one traced pass.

    outcomes holds each traced task's deterministic numbers; the osra ones
    give converged_frac and updates_mean.
    """
    self_s = defaultdict(float)
    calls = defaultdict(int)
    names = [s[0] for s in tracer.spans]
    for name, t in zip(names, self_times(tracer.spans)):
        self_s[name] += t
        calls[name] += 1
    sims_in_gradient = sum(
        1 for name, _, _, parent in tracer.spans
        if name == "oracle.sim_evaluate" and parent is not None
        and names[parent] == "penalty.probed_gradient")
    c = tracer.counters
    osra = [o for o in outcomes if "converged" in o]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in {n.rsplit(".", 1)[0] for n, _ in PER_LAYER if not n.startswith("trace.")}:
        values[f"{name}.self_s"] = self_s[name]
        values[f"{name}.calls"] = calls[name]
    pipe = "simulator.simulate_pipeline"
    gen = "simulator.generate_traffic"
    values.update({
        f"{pipe}.pkts_per_s": ratio(c["pipeline.pkts"], self_s[pipe]),
        f"{pipe}.pkts_per_call": ratio(c["pipeline.pkts"], calls[pipe]),
        f"{pipe}.drop_frac": ratio(c["pipeline.dropped"], c["pipeline.pkts"]),
        f"{pipe}.drop_call_frac": ratio(c["pipeline.drop_calls"], calls[pipe]),
        f"{gen}.pkts_per_s": ratio(c["traffic.pkts"], self_s[gen]),
        "penalty.probed_gradient.sims_per_call":
            ratio(sims_in_gradient, calls["penalty.probed_gradient"]),
        "osra.run_osra.converged_frac": ratio(sum(o["converged"] for o in osra), len(osra)),
        "osra.run_osra.updates_mean": ratio(sum(o["updates"] for o in osra), len(osra)),
        "trace.overhead_frac": ratio(traced_wall, untraced_wall),
        "trace.coverage_frac": ratio(sum(self_s.values()), traced_wall),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
