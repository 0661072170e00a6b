"""QoE oracles: map (slice, allocation) to a delay statistic and throughput.

Two kinds:

* Analytic: stationary M/M/1 formulas per stage (`analytic_parts`,
  `analytic_mm1_evaluate`). Delay is the sum of per-stage mean sojourns in
  ms; a saturated stage (lambda >= mu) marks the delay unbounded and caps
  throughput at mu_bottleneck/lambda. Exact, seed-free, and differentiable.
* Simulated: `sim_evaluate` and `sim_evaluate_all` run the event simulator
  and reduce raw delays under the configured statistic. Stochastic but
  fully reproducible per seed.
"""
from __future__ import annotations

import math

import numpy as np

from .domain import AllocationVector, QoeSample, SliceSpec, Topology
from .simulator import run_sim, summarize


class OracleFailure(RuntimeError):
    pass


def analytic_parts(spec: SliceSpec, point: AllocationVector, topology: Topology):
    """Delay/throughput plus their gradients w.r.t. the allocation vector.

    Returns (delay_ms, throughput, d_delay, d_throughput) where the
    gradient arrays are stacked [edges..., cores...]. A saturated stage
    makes delay_ms = inf with zero delay gradient (the penalty ceiling is
    flat there); throughput then responds through the bottleneck stage's
    rate, min(1, mu/lambda).
    """
    lam = spec.traffic.mean_rate
    mean_bits = 8.0 * spec.traffic.mean_size_bytes()
    edge_bps = topology.edge_bps()
    core_mips = topology.core_mips()

    mu_edges = point.flows * edge_bps / mean_bits          # packets/s per edge
    mu_srv = float(point.cpu @ core_mips) / spec.demand_mi  # requests/s

    dmu_edges = edge_bps / mean_bits
    dmu_srv = core_mips / spec.demand_mi

    n_e = edge_bps.size
    dim = n_e + core_mips.size
    d_delay = np.zeros(dim)
    d_tp = np.zeros(dim)

    stable = bool(np.all(mu_edges > lam) and mu_srv > lam)
    if stable:
        sojourn = np.sum(1.0 / (mu_edges - lam)) + 1.0 / (mu_srv - lam)
        d_delay[:n_e] = -1000.0 * dmu_edges / (mu_edges - lam) ** 2
        d_delay[n_e:] = -1000.0 * dmu_srv / (mu_srv - lam) ** 2
        return 1000.0 * sojourn, 1.0, d_delay, d_tp

    # bottleneck stage throttles throughput; ties go to the network side
    rates = np.concatenate([mu_edges, [mu_srv]])
    b = int(np.argmin(rates))
    tp = min(1.0, rates[b] / lam)
    if tp < 1.0:
        if b < n_e:
            d_tp[b] = dmu_edges[b] / lam
        else:
            d_tp[n_e:] = dmu_srv / lam
    return math.inf, tp, d_delay, d_tp


def analytic_mm1_evaluate(spec: SliceSpec, point: AllocationVector, topology: Topology) -> QoeSample:
    """Stationary two-stage M/M/1 estimate of one slice's QoE."""
    delay, tp, _, _ = analytic_parts(spec, point, topology)
    return QoeSample(delay_stat_ms=delay, throughput=tp, n_requests=0, seed=None)


def sim_evaluate_all(alloc, slices, topology, config, seed=None, statistic="max") -> dict:
    """Simulate every slice at `alloc` and reduce, keeping the raw delays."""
    results = run_sim(slices, topology, alloc, config, seed=seed)
    return summarize(results, statistic, seed=seed, keep_raw=True)


def sim_evaluate(slice_id, alloc, slices, topology, config, seed=None, statistic="max",
                 row=None) -> QoeSample:
    """Simulate one slice alone (other slices cannot affect it) and reduce.

    `row` evaluates the slice at a what-if allocation row (probing) while
    the joint allocation stays untouched.
    """
    results = run_sim(slices, topology, alloc, config, seed=seed, only_slice=slice_id,
                      row_override=None if row is None else (slice_id, row))
    if slice_id not in results:
        raise OracleFailure(f"slice {slice_id!r} not present in scenario")
    return summarize(results, statistic, seed=seed)[slice_id]


def derive_seed(*parts) -> int:
    """Deterministic, platform-stable seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])
