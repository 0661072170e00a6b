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
  (seed_base, coordinate, side, repetition), so any execution order or
  parallel map gives identical output. At a hinge kink the subgradient 0 is
  the one reported (the hinge factor is exactly zero there).
* `analytic_gradient`: chain rule through the stationary queueing model's
  closed-form partials; exact, no probing cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (AllocationVector, InvariantViolation, QoeRequirement, QoeSample,
                     SliceSpec, Topology)
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
        errs = []
        if self.exponent not in (1, 2):
            errs.append(("exponent", f"exponent must be 1 or 2, got {self.exponent}"))
        for name in ("alpha_tau", "alpha_rho"):
            if getattr(self, name) < 0:
                errs.append((name, "alpha weights must be >= 0"))
        if not (self.delay_ceiling_ms > 0):
            errs.append(("delay_ceiling_ms", "delay_ceiling_ms must be > 0"))
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
                    memory=None, map_fn=map) -> np.ndarray:
    """Central-difference estimate of d(penalty)/d(allocation) at `point`.

    `oracle` is a callable (AllocationVector, seed) -> QoeSample. Each
    probe point's statistics are averaged over `probes` runs with distinct
    deterministic seeds, then the hinge is applied; the difference quotient
    divides by the actual probe spread (2*delta, or less at a clamped
    boundary). `memory`, when given, records every (point, sample, seed).
    `map_fn` may be a parallel map; results do not depend on it.
    """
    if not (delta > 0):
        raise DegenerateDelta(f"delta must be > 0, got {delta}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")

    base = point.stacked()
    n_edges = point.flows.size
    dim = base.size

    tasks = []  # (coordinate, side, repetition, probe_vector, seed)
    probe_x = np.empty((dim, 2))
    for d in range(dim):
        for side, sgn in ((0, -1.0), (1, +1.0)):
            x = min(1.0, max(0.0, base[d] + sgn * delta))
            probe_x[d, side] = x
            vec = base.copy()
            vec[d] = x
            pv = AllocationVector.from_stacked(vec, n_edges)
            for r in range(probes):
                tasks.append((d, side, r, pv, derive_seed(seed_base, d, side, r)))

    samples = list(map_fn(lambda t: t[3:5] + (oracle(t[3], t[4]),), tasks))

    by_probe = {}
    for (d, side, r, pv, seed), (_, _, sample) in zip(tasks, samples):
        by_probe.setdefault((d, side), []).append(sample)
        if memory is not None:
            memory.record(pv, sample, seed)

    grad = np.zeros(dim)
    for d in range(dim):
        lo, hi = probe_x[d, 0], probe_x[d, 1]
        spread = hi - lo
        if spread <= 0:
            raise DegenerateDelta(
                f"coordinate {d}: probe points coincide at {lo} (delta too small "
                "for the clamped boundary)")
        pen = []
        for side in (0, 1):
            dmean, tmean = mean_statistics(model, by_probe[(d, side)])
            pen.append(penalty_at(model, dmean, tmean))
        grad[d] = (pen[1] - pen[0]) / spread
    return grad


def analytic_gradient(model: PenaltyModel, spec: SliceSpec, point: AllocationVector,
                      topology: Topology) -> np.ndarray:
    """Exact gradient of the penalty through the stationary queueing model."""
    delay, tp, d_delay, d_tp = analytic_parts(spec, point, topology)
    p = model.exponent
    grad = np.zeros_like(d_delay)
    if model.requirement.bounded:
        viol = max(0.0, effective_delay(model, delay) - model.requirement.tau_ms)
        if viol > 0 and math.isfinite(delay) and delay < model.delay_ceiling_ms:
            factor = p * viol ** (p - 1) if p == 2 else 1.0
            grad += model.alpha_tau * factor * d_delay
        # at the ceiling (or unbounded delay) the delay term is flat
    short = max(0.0, model.requirement.rho - tp)
    if short > 0:
        factor = p * short ** (p - 1) if p == 2 else 1.0
        grad += model.alpha_rho * factor * (-d_tp)
    return grad


class ProbeMemory:
    """Append-only record of every probe the algorithm ever paid for."""

    def __init__(self):
        self._records = []

    def record(self, point: AllocationVector, sample: QoeSample, seed: int):
        self._records.append((point, sample, seed))

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
