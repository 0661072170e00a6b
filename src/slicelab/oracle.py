"""QoE oracles: map (slice, allocation) to a delay statistic and throughput.

Two kinds:

* Analytic: stationary M/M/1 formulas per stage (`analytic_parts`).
  Delay is the sum of per-stage mean sojourns in ms; a saturated stage
  (lambda >= mu) marks the delay unbounded and caps throughput at
  mu_bottleneck/lambda. Exact, seed-free, and differentiable.
* Simulated: `sim_evaluate_all` (every slice, through `run_sim`) and
  `sim_evaluate` (one slice at one row, through `simulate_slice`) reduce raw
  delays under the configured statistic. Stochastic but fully reproducible
  per seed. `sim_evaluate` states what its memo keeps; `run_sim` keeps
  nothing.
"""
from __future__ import annotations

import math

import numpy as np

from .domain import AllocationVector, QoeSample, SliceSpec, Topology
from .simulator import run_sim, simulate_slice, stage_rates, summarize


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
    edge_bps = topology.edge_bps
    core_mips = topology.core_mips

    link_rates, srv_rate = stage_rates(point, topology)
    mu_edges = link_rates / mean_bits            # packets/s per edge
    mu_srv = srv_rate / spec.demand_mi           # requests/s

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


def sim_evaluate_all(alloc, slices, topology, config, seed, statistic) -> dict:
    """Simulate every slice at `alloc` and reduce, keeping the raw delays."""
    results = run_sim(slices, topology, alloc, config, seed=seed)
    return {sid: summarize(r, statistic, keep_raw=True) for sid, r in results.items()}


def sim_evaluate(slice_id, row, slices, topology, config, seed, statistic, memo) -> QoeSample:
    """Simulate one slice at allocation row `row` alone and reduce.

    Slices never share a queue, so no other slice could notice, and a what-if
    row (a probe) needs no allocation matrix. `memo`, a dict shared only
    between calls with the same slices, topology, config and statistic,
    keeps, read-only (the one statement of its rules):

    * each sample under its stage inputs (slice, link rates, server rate,
      seed): a repeated probe is not simulated again;
    * each traffic stream under (seed, slice index) (`generate_traffic`): a
      probe at new rates on a seed drawn before neither seeds nor draws;
    * for a stream it held before, its latest link pass (departures, survivor
      mask, created times, at their link rates and buffer) under ("links",
      seed, index) (`simulate_pipeline`): a probe at those link rates runs
      only the server stage, into a fresh array, and one at others replaces
      the pass, since in (coordinate, side, repetition) order no probe reads
      an older one. A stream just drawn keeps none, and its server is
      written over its link departures, as in `run_sim`.
    """
    link_rates, cpu_rate = stage_rates(row, topology)
    key = (slice_id, link_rates.tobytes(), cpu_rate, seed)
    if key not in memo:
        index = {s.id: k for k, s in enumerate(slices)}[slice_id]
        result = simulate_slice(slices[index], index, link_rates, cpu_rate, topology, config,
                                seed, memo)
        memo[key] = summarize(result, statistic, keep_raw=False)
    return memo[key]
