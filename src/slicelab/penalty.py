"""Hinge penalties on QoE violations, and gradients of those penalties.

A penalty scores a QoE outcome against a slice's requirement:

    alpha_tau * max(0, D - tau)**p  +  alpha_rho * max(0, rho - T)**p

with delay D in ms and p in {1, 2}. An unbounded tau contributes nothing.
A non-finite delay statistic (nothing survived, or a saturated analytic
queue) enters at `delay_ceiling_ms`: a large, finite, flat cost that keeps
gradients well-defined through overload and the penalty monotone across
the stability boundary.

Gradients come in two flavours:
* `probed_gradient`: per-coordinate central differences of width delta on
  a stochastic point oracle, averaging the delay/throughput statistics over
  `probes` seeded runs per probe point before the hinge is applied. Probe
  points are clamped to [0, 1] per coordinate; a clamped side degrades to a
  one-sided difference over the actual spread. Seeds derive from
  (seed_base, repetition) only: repetition r runs on the same seed at every
  probe point and on both sides (common random numbers), so its traffic
  noise cancels in each difference, and probes with equal simulator inputs
  are one simulation that an oracle may memoize. At a hinge kink the
  subgradient 0 is the one reported (the hinge factor is exactly zero
  there).
* `analytic_gradient`: chain rule through the stationary queueing model's
  closed-form partials; exact, no probing cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (AllocationVector, InvariantViolation, QoeRequirement, QoeSample,
                     SliceSpec, Topology, interval_violations, whole_fields)
from .oracle import analytic_parts, derive_seed


class DegenerateDelta(ValueError):
    pass


@dataclass(frozen=True)
class PenaltyModel:
    """Requirement plus hinge weights/exponent for one slice's penalty."""

    requirement: QoeRequirement
    alpha_tau: float
    alpha_rho: float
    exponent: int = 2
    delay_ceiling_ms: float = 1e4

    def __post_init__(self):
        errs = whole_fields(self, "exponent")
        if not errs and self.exponent not in (1, 2):
            errs.append(("exponent", f"exponent must be 1 or 2, got {self.exponent}"))
        for name, interval in (("alpha_tau", "[0, inf)"), ("alpha_rho", "[0, inf)"),
                               ("delay_ceiling_ms", "(0, inf)")):
            errs += interval_violations(name, getattr(self, name), interval)
        InvariantViolation.check(errs)

    @classmethod
    def for_slice(cls, spec: SliceSpec, exponent: int = 2, delay_ceiling_ms: float = 1e4):
        return cls(spec.requirement, spec.alpha_tau, spec.alpha_rho,
                   exponent, delay_ceiling_ms)


def effective_delay(model: PenaltyModel, delay_ms: float) -> float:
    if not math.isfinite(delay_ms):
        return model.delay_ceiling_ms
    return min(delay_ms, model.delay_ceiling_ms)


def penalty_at(model: PenaltyModel, delay_ms: float, throughput: float) -> float:
    """The hinge penalty for a (delay, throughput) pair."""
    p = model.exponent
    total = 0.0
    if model.requirement.bounded:
        viol = max(0.0, effective_delay(model, delay_ms) - model.requirement.tau_ms)
        total += model.alpha_tau * viol**p
    short = max(0.0, model.requirement.rho - throughput)
    total += model.alpha_rho * short**p
    return total


def penalty(model: PenaltyModel, sample: QoeSample) -> float:
    return penalty_at(model, sample.delay_stat_ms, sample.throughput)


def mean_statistics(model: PenaltyModel, samples) -> tuple[float, float]:
    """Average the delay statistic (ceiling-substituted) and throughput."""
    delays = [effective_delay(model, s.delay_stat_ms) for s in samples]
    tps = [s.throughput for s in samples]
    return float(np.mean(delays)), float(np.mean(tps))


def probed_gradient(model: PenaltyModel, oracle, point: AllocationVector,
                    delta: float, probes: int, seed_base: int = 0,
                    memory=None) -> np.ndarray:
    """Central-difference estimate of d(penalty)/d(allocation) at `point`.

    `oracle` is a callable (AllocationVector, seed) -> QoeSample, called in
    (coordinate, side, repetition) order. Each probe point's statistics are
    averaged over `probes` runs with distinct deterministic seeds, the same
    seeds at every probe point, then the hinge is applied; the difference
    quotient divides by the actual probe spread (2*delta, or less at a
    clamped boundary). `memory`, when given, records every probe.
    """
    if not (delta > 0):
        raise DegenerateDelta(f"delta must be > 0, got {delta}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")

    base = point.stacked()
    lo = np.clip(base - delta, 0.0, 1.0)
    hi = np.clip(base + delta, 0.0, 1.0)
    coincide = np.flatnonzero(hi - lo <= 0)
    if coincide.size:
        d = coincide[0]
        raise DegenerateDelta(
            f"coordinate {d}: probe points coincide at {lo[d]} (delta too small "
            "for the clamped boundary)")

    seeds = [derive_seed(seed_base, r) for r in range(probes)]
    pen = np.empty((base.size, 2))
    for d in range(base.size):
        for side, x in enumerate((lo[d], hi[d])):
            vec = base.copy()
            vec[d] = x
            pv = AllocationVector.from_stacked(vec, point.flows.size)
            samples = [oracle(pv, seed) for seed in seeds]
            if memory is not None:
                memory.extend((pv, sample, seed) for sample, seed in zip(samples, seeds))
            dmean, tmean = mean_statistics(model, samples)
            pen[d, side] = penalty_at(model, dmean, tmean)
    return (pen[:, 1] - pen[:, 0]) / (hi - lo)


def analytic_gradient(model: PenaltyModel, spec: SliceSpec, point: AllocationVector,
                      topology: Topology) -> np.ndarray:
    """Exact gradient of the penalty through the stationary queueing model."""
    delay, tp, d_delay, d_tp = analytic_parts(spec, point, topology)
    p = model.exponent
    grad = np.zeros_like(d_delay)
    if model.requirement.bounded:
        viol = max(0.0, effective_delay(model, delay) - model.requirement.tau_ms)
        if viol > 0 and math.isfinite(delay) and delay < model.delay_ceiling_ms:
            factor = p * viol ** (p - 1)
            grad += model.alpha_tau * factor * d_delay
        # at the ceiling (or unbounded delay) the delay term is flat
    short = max(0.0, model.requirement.rho - tp)
    if short > 0:
        factor = p * short ** (p - 1)
        grad += model.alpha_rho * factor * (-d_tp)
    return grad


class ProbeMemory(list):
    """(point, sample, seed) of every probe the algorithm ever paid for."""
