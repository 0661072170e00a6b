"""QoE oracles: map (slice, allocation) to a delay statistic and throughput
by simulation.

`sim_evaluate_all` (every slice, through `run_sim`) and `sim_evaluate` (one
slice at one row, through `simulate_slice`) reduce raw delays under the
configured statistic. Stochastic but fully reproducible per seed.
`sim_evaluate` states what its memo keeps; `run_sim` keeps nothing. The
donors' M/M/1 model is `penalty.analytic_gradient`'s alone.
"""
from __future__ import annotations

from .domain import QoeSample
from .simulator import run_sim, simulate_slice, stage_rates, summarize


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
    * each traffic stream under (seed, slice index) (`generate_traffic`),
      with its warmup index (`Stream`): a probe at new rates on a seed
      drawn before neither seeds nor draws and searches no warmup, and runs
      every stage of its pipeline.
    """
    link_rates, cpu_rate = stage_rates(row, topology)
    key = (slice_id, link_rates.tobytes(), cpu_rate, seed)
    if key not in memo:
        for index, spec in enumerate(slices):
            if spec.id == slice_id:
                break
        else:
            raise KeyError(slice_id)
        result = simulate_slice(spec, index, link_rates, cpu_rate, topology, config, seed, memo)
        memo[key] = summarize(result, statistic, keep_raw=False)
    return memo[key]
