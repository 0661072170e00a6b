"""The benchmark's workloads: how each builds its inputs, runs one task, and
checks that task's output.

Every workload is a closed loop with one client: one task at a time, in one
process, with the serial built-in `map`. Tasks use consecutive seeds from the
workload seed. Inputs come from `scenarios/reference.yaml` and the workload
seed alone.

* osra-reference: one task is `run_osra` on the reference scenario as
  shipped, the paper's reconfiguration loop. It runs every layer and makes
  many small simulator calls of about 2k packets each.
* audit-baseline-long: one task is a single-seed `audit_allocation` of the
  M/M/1 `size_all` allocation, with the horizon stretched so that each
  pipeline call sees about 10^5 packets. Per-packet cost dominates; no probe,
  transfer or projection code runs.
* audit-overload-poisson: the same audit with Poisson arrivals for every
  slice, slice1's link share cut to 0.015 and slice3 given the rest. Slice1's
  buffer overflows throughout, so the link stage's drop path and the Poisson
  generator run on every call.
"""
from __future__ import annotations

import dataclasses
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "reference.yaml"

AUDIT_HORIZON_S = 500.0        # slice1 offers ~10^5 requests per call at 200/s
OVERLOAD_LINK_SHARE = 0.015    # slice1 needs ~0.021 of the link on average


class MissingProgram(RuntimeError):
    """The checkout holds no slicelab source or no reference scenario."""


def import_slicelab():
    """Import slicelab from this checkout's `src`, never from elsewhere."""
    package = SRC / "slicelab"
    for path in (package / "__init__.py", SCENARIO):
        if not path.is_file():
            raise MissingProgram(f"missing {path.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import slicelab

    if Path(slicelab.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"slicelab imported from {slicelab.__file__}, not {package}")
    return slicelab


def no_span(name):
    return nullcontext()


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    build(sl, span) returns the task inputs; run(sl, inputs, seed) returns
    (result, aux) and is the only timed call; offered(result, aux) counts the
    post-warmup requests the task offered; check(sl, result) lists problems;
    outcome(result) gives deterministic per-task numbers for the report.
    root_span names the traced span around run. tasks_per_10s and
    trace_tasks_per_10s size the fixed seed windows of the untraced and the
    traced run from --seconds, so every commit times the same seeds.
    """

    name: str
    why: str
    build: Callable[..., Any]
    run: Callable[..., tuple]
    offered: Callable[[Any, Any], int]
    check: Callable[[Any, Any], list]
    outcome: Callable[[Any], dict]
    root_span: str
    tasks_per_10s: int
    trace_tasks_per_10s: int


def _load(sl, span=no_span):
    with span("scenario.load_scenario"):
        return sl.load_scenario(SCENARIO)


# -- osra-reference ---------------------------------------------------------

def _osra_run(sl, sc, seed):
    memory = sl.ProbeMemory()
    result = sl.run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                         sc.new_slice_id, sc.osra, seed=seed, memory=memory)
    return result, memory


def _osra_offered(result, memory):
    monitored = sum(s.n_requests for t in result.traces for s in t.samples.values())
    probed = sum(sample.n_requests for _, sample, _ in memory)
    return monitored + probed


def _osra_check(sl, result):
    return _feasibility(sl, result.final_alloc)


def _osra_outcome(result):
    return {"converged": bool(result.converged), "updates": int(result.iterations)}


# -- audits -------------------------------------------------------------------

def _audit_build(sl, span=no_span, overload=False):
    sc = _load(sl, span)
    alloc, _ = sl.size_all(sc.slices, sc.topology)
    slices = sc.slices
    if overload:
        slices = tuple(
            dataclasses.replace(s, traffic=dataclasses.replace(s.traffic, kind="poisson"))
            for s in slices)
        flows = alloc.flows.copy()
        first, second, last = (alloc.index(s.id) for s in slices)
        flows[first] = OVERLOAD_LINK_SHARE
        flows[last] = 1.0 - flows[first] - flows[second]
        alloc = sl.AllocationMatrix(alloc.slice_ids, flows, alloc.cpu)
    sim = dataclasses.replace(sc.sim, horizon_s=AUDIT_HORIZON_S)
    sc = dataclasses.replace(sc, slices=slices, initial_alloc=alloc, sim=sim).validate()
    problems = _feasibility(sl, alloc)
    if problems:
        raise ValueError(f"audited allocation: {problems}")
    return sc


def _audit_run(sl, sc, seed):
    return sl.audit_allocation(sc.slices, sc.topology, sc.initial_alloc, sc.sim, [seed]), None


def _audit_offered(report, _aux):
    return sum(a.offered for a in report.values())


def _audit_check(sl, report):
    problems = []
    for sid, a in report.items():
        if a.success > a.offered:
            problems.append(f"{sid}: success {a.success} > offered {a.offered}")
        if a.delays_ms.size != a.success:
            problems.append(f"{sid}: {a.delays_ms.size} delays for {a.success} successes")
        if not np.isfinite(a.delays_ms).all():
            problems.append(f"{sid}: non-finite delay")
    return problems


def _audit_outcome(report):
    offered = sum(a.offered for a in report.values())
    return {"dropped": offered - sum(a.success for a in report.values())}


def _feasibility(sl, alloc):
    try:
        sl.osra.assert_feasible(alloc)
    except AssertionError as e:
        return [str(e)]
    return []


WORKLOADS = {w.name: w for w in (
    Workload(
        name="osra-reference",
        why="run_osra on the reference scenario as shipped: the paper's loop, "
            "every layer, many small ~2k-packet simulator calls",
        build=_load, run=_osra_run, offered=_osra_offered,
        check=_osra_check, outcome=_osra_outcome,
        root_span="osra.run_osra", tasks_per_10s=7, trace_tasks_per_10s=3),
    Workload(
        name="audit-baseline-long",
        why="audit of the M/M/1 size_all allocation with ~10^5 packets per "
            "pipeline call: per-packet cost dominates, no probe-side code runs",
        build=_audit_build, run=_audit_run, offered=_audit_offered,
        check=_audit_check, outcome=_audit_outcome,
        root_span="baseline.audit_allocation", tasks_per_10s=16, trace_tasks_per_10s=10),
    Workload(
        name="audit-overload-poisson",
        why="the same audit with Poisson arrivals and slice1's link cut to 0.015, "
            "so its buffer overflows: runs the drop path and the Poisson generator",
        build=lambda sl, span=no_span: _audit_build(sl, span, overload=True),
        run=_audit_run, offered=_audit_offered,
        check=_audit_check, outcome=_audit_outcome,
        root_span="baseline.audit_allocation", tasks_per_10s=20, trace_tasks_per_10s=10),
)}
