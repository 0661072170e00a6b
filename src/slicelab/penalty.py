"""Hinge penalties on QoE violations, and gradients of those penalties.

A penalty scores a QoE outcome against a slice's requirement:

    alpha_tau * max(0, D - tau)**p  +  alpha_rho * max(0, rho - T)**p

with delay D in ms and p in {1, 2}. An unbounded tau contributes nothing.
A non-finite delay statistic (nothing survived, or a saturated analytic
queue) enters at `delay_ceiling_ms`: a large, finite, flat cost that keeps
gradients well-defined through overload and the penalty monotone across
the stability boundary. `hinge` is the one place these rules are written:
every penalty value and every gradient reads it.

Gradients come in two flavours:
* `probed_gradient`: per-coordinate central differences of width delta on
  a stochastic point oracle, averaging the delay/throughput statistics over
  `probes` seeded runs per probe point before the hinge is applied. The
  point is first clipped into [0, 1], and each probe point is clamped to
  [0, 1] per coordinate; a clamped side degrades to a one-sided difference
  over the actual spread, which is never zero. Seeds derive from
  (seed_base, repetition) only: repetition r runs on the same seed at every
  probe point and on both sides (common random numbers), so its traffic
  noise cancels in each difference. An oracle may memoize: probes with
  equal simulator inputs are one simulation, and every probe of repetition r
  draws the same traffic, so it can be drawn once. At a hinge kink the
  subgradient 0 is the one reported (the hinge factor is exactly zero
  there).
* `analytic_gradient`: chain rule through a stationary M/M/1 chain (a
  queue per edge and one for the server the cores make) fed at the slice's
  mean rate; exact, no probing cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (CAPACITY_TOL, AllocationVector, InvariantViolation, QoeRequirement,
                     SliceSpec, Topology, derive_seed, interval_violations, whole_fields)
from .simulator import stage_rates


# the probe width's bounds, shared with OsraConfig: above CAPACITY_TOL the
# spread the quotient divides by stays well clear of round-off
DELTA_INTERVAL = f"({CAPACITY_TOL}, inf)"


@dataclass(frozen=True)
class PenaltyModel:
    """Requirement plus hinge weights/exponent for one slice's penalty; the
    exponent and ceiling are the run's `OsraConfig` knobs."""

    requirement: QoeRequirement
    alpha_tau: float
    alpha_rho: float
    exponent: int
    delay_ceiling_ms: float

    def __post_init__(self):
        errs = whole_fields(self, "exponent", interval="[1, 2]")
        for name, interval in (("alpha_tau", "[0, inf)"), ("alpha_rho", "[0, inf)"),
                               ("delay_ceiling_ms", "(0, inf)")):
            errs += interval_violations(name, getattr(self, name), interval)
        InvariantViolation.check(errs)


def hinge(model: PenaltyModel, delays_ms, throughputs) -> tuple[float, float, float]:
    """The penalty at the mean outcome of one or more runs, and its slopes there.

    `delays_ms` and `throughputs` are one number each or equal-length
    sequences. Each delay is capped at the ceiling (a non-finite one enters
    at it) before the delays are averaged. Returns (penalty, d penalty / d
    delay, d penalty / d throughput) at the mean pair. A term whose hinge is
    off has slope 0.0, and so has the delay term where the ceiling binds.
    """
    ceiling = model.delay_ceiling_ms
    delays, tps = np.fmin(delays_ms, ceiling), np.asarray(throughputs, dtype=float)
    # np.mean's arithmetic, without its Python layer
    delay = float(np.add.reduce(delays, axis=None) / delays.size)
    short = max(0.0, model.requirement.rho - float(np.add.reduce(tps, axis=None) / tps.size))
    p = model.exponent
    value = slope_delay = slope_tp = 0.0
    if model.requirement.bounded:
        viol = max(0.0, delay - model.requirement.tau_ms)
        value += model.alpha_tau * viol**p
        if viol > 0 and delay < ceiling:
            slope_delay = model.alpha_tau * (p * viol ** (p - 1))
    value += model.alpha_rho * short**p
    if short > 0:
        slope_tp = -(model.alpha_rho * (p * short ** (p - 1)))
    return value, slope_delay, slope_tp


def probed_gradient(model: PenaltyModel, oracle, point: AllocationVector,
                    delta: float, probes: int, seed_base: int) -> np.ndarray:
    """Central-difference estimate of d(penalty)/d(allocation) at `point`.

    `oracle` is a callable (AllocationVector, seed) -> QoeSample, called in
    (coordinate, side, repetition) order. The point is clipped into [0, 1]
    first, so every probe point lies there. Each probe point's statistics
    are averaged over `probes` runs with distinct deterministic seeds, the
    same seeds at every probe point, then the hinge is applied; the
    difference quotient divides by the actual probe spread (2*delta, or at
    least min(delta, 1) at a clamped boundary). `delta` and `probes` obey
    `OsraConfig`'s bounds; an integer-valued float `probes` is used as its int.
    """
    InvariantViolation.check(
        interval_violations("delta", delta, DELTA_INTERVAL)
        + interval_violations("probes", probes, "[1, inf)", whole=True))

    base = np.clip(point.stacked(), 0.0, 1.0)
    lo = np.clip(base - delta, 0.0, 1.0)
    hi = np.clip(base + delta, 0.0, 1.0)

    seeds = [derive_seed(seed_base, r) for r in range(int(probes))]
    n = point.flows.size
    pen = np.empty((base.size, 2))
    for d in range(base.size):
        for side, x in enumerate((lo[d], hi[d])):
            vec = base.copy()
            vec[d] = x
            pv = AllocationVector(vec[:n], vec[n:])
            samples = [oracle(pv, seed) for seed in seeds]
            pen[d, side] = hinge(model, [s.delay_stat_ms for s in samples],
                                 [s.throughput for s in samples])[0]
    return (pen[:, 1] - pen[:, 0]) / (hi - lo)


def analytic_gradient(model: PenaltyModel, spec: SliceSpec, point: AllocationVector,
                      topology: Topology) -> np.ndarray:
    """Exact gradient of the penalty through a stationary M/M/1 chain.

    Each edge, and the server its cores make, is an M/M/1 queue whose rate
    mu is its share (`stage_rates`) over the slice's mean work per request,
    fed at the slice's mean rate lam. Only the partial the hinge can read
    is worked out:

    * a stable chain (every mu > lam) serves everything, so throughput is
      1.0 and only the delay, 1000 * sum 1/(mu - lam) ms, can slope, with
      partials -1000 * dmu/(mu - lam)**2;
    * a saturated chain's delay is unbounded and enters at the ceiling,
      where the hinge is flat, so only the throughput can slope: the
      bottleneck's min(1, mu/lam), a tie going to the network side.
    """
    lam = spec.traffic.mean_rate
    mean_bits = 8.0 * spec.traffic.mean_size_bytes()
    link_rates, srv_rate = stage_rates(point, topology)
    mu_edges, mu_srv = link_rates / mean_bits, srv_rate / spec.demand_mi
    # d mu / d share: an edge's moves its own link, every core's the one server
    dmu_edges, dmu_srv = topology.edge_bps / mean_bits, topology.core_mips / spec.demand_mi
    n_e = mu_edges.size
    # a slope of 0 adds nothing: an inactive term leaves +0.0, never a -0.0 product
    grad = np.zeros(n_e + dmu_srv.size)
    if (mu_edges > lam).all() and mu_srv > lam:
        delay = 1000.0 * (np.sum(1.0 / (mu_edges - lam)) + 1.0 / (mu_srv - lam))
        slope = hinge(model, delay, 1.0)[1]
        if slope:
            grad[:n_e] += slope * (-1000.0 * dmu_edges / (mu_edges - lam) ** 2)
            grad[n_e:] += slope * (-1000.0 * dmu_srv / (mu_srv - lam) ** 2)
        return grad
    rates = np.append(mu_edges, mu_srv)
    b = int(np.argmin(rates))  # the first minimum: a tie goes to an edge
    slope = hinge(model, math.inf, min(1.0, rates[b] / lam))[2]
    if slope:
        if b < n_e:
            grad[b] += slope * (dmu_edges[b] / lam)
        else:
            grad[n_e:] += slope * (dmu_srv / lam)
    return grad
