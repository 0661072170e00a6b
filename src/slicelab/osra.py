"""Online reconfiguration: admit a new slice by squeezing lower-priority ones.

A new slice arrives holding a starved allocation row. Each iteration
monitors every slice's QoE, turns requirement violations into penalties,
and moves resources from lower-priority slices toward the new one until
the transfer pressure drops below a threshold.

The per-donor transfer pressure couples both sides of the hand-off. For
donor slice i (ordered after the new slice j by (priority_rank, id)) with
step size eta_i(k):

    p_i = eta_i(k) * (grad pi_i(s_i) - grad pi_j(s_j))

While j is the only one hurting, grad pi_i = 0 and -grad pi_j >= 0
componentwise, so p_i >= 0: donors shed resources and j gains them. Once
a donor's own marginal penalty matches j's on some coordinate, p_i there
crosses zero and the exchange stalls: the fixed point balances marginal
penalties rather than driving any slice to zero.

The applied update withdraws delta_i from each donor and grants their sum
to j, under one of two scalings:

* "conservative": delta_i = p_i. What j receives is exactly what donors
  lose, in the raw gradient scale.
* "algorithm1" (default): delta_i = p_i / ||grad pi_j||. The whole
  transfer field is normalized by the new slice's gradient norm, so the
  grant magnitude is ~ sum_i eta_i regardless of how steep the penalty
  cliffs are; approach speed is set by the step sizes alone. A vanishing
  ||grad pi_j|| (below 1e-12) falls back to "conservative" for that step,
  recorded in the trace as rule_used "conservative-fallback".

Both scalings are exactly zero-sum per coordinate before projection. The
stopping rule always reads the unscaled pressure: stop when
||sum_i p_i|| <= epsilon, which vanishes as all hinges deactivate (the
normalized grant never would).

Rows ordered before the new slice are frozen; the donors and the new
slice are then projected jointly, column by column, onto
{x >= 0, sum(x) <= 1 - frozen mass}.

The new slice's gradient is probed from the simulator by central
differences (no model exists for a slice that never ran); donor gradients
default to the closed-form stationary model, or set
donor_gradients="probed" to pay for simulation there as well.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .domain import AllocationMatrix, AllocationVector, InvariantViolation, QoeSample, Topology
from .oracle import derive_seed, sim_evaluate, sim_evaluate_all
from .penalty import PenaltyModel, analytic_gradient, penalty, probed_gradient
from .projection import project_columns
from .simulator import SimConfig, percentile_of

TRANSFER_RULES = ("algorithm1", "conservative")
ETA_SCHEDULES = ("constant", "sqrt-decay")
DONOR_GRADIENT_MODES = ("analytic", "probed")

# below this, normalizing by the new slice's gradient is meaningless
ZERO_GRADIENT_NORM = 1e-12

FEASIBILITY_TOL = 1e-9


class NonFiniteGradient(ValueError):
    """A penalty gradient holds NaN or inf; names the slice and iteration."""


@dataclass(frozen=True)
class OsraConfig:
    """Tuning knobs for one reconfiguration run.

    eta may be one float for every donor or a {slice_id: float} map that
    must cover all donors. delta is the probe perturbation per coordinate,
    probes the number of seeded simulator runs averaged per probe point.
    """

    eta: float | Mapping[str, float] = 0.05
    eta_schedule: str = "constant"
    delta: float = 0.02
    probes: int = 10
    epsilon: float = 1e-3
    max_iters: int = 25
    transfer_rule: str = "algorithm1"
    statistic: str = "max"
    penalty_exponent: int = 2
    delay_ceiling_ms: float = 1e4
    donor_gradients: str = "analytic"

    def __post_init__(self):
        errs = []
        for name, allowed in (("transfer_rule", TRANSFER_RULES),
                              ("eta_schedule", ETA_SCHEDULES),
                              ("donor_gradients", DONOR_GRADIENT_MODES)):
            if getattr(self, name) not in allowed:
                errs.append((name, f"{name} must be one of {allowed}"))
        for name, ok, bound in (("max_iters", self.max_iters >= 1, ">= 1"),
                                ("epsilon", self.epsilon >= 0, ">= 0"),
                                ("delta", self.delta > 0, "> 0"),
                                ("probes", self.probes >= 1, ">= 1"),
                                ("penalty_exponent", self.penalty_exponent in (1, 2), "1 or 2"),
                                ("delay_ceiling_ms", self.delay_ceiling_ms > 0, "> 0")):
            if not ok:
                errs.append((name, f"{name} must be {bound}, got {getattr(self, name)}"))
        try:
            percentile_of(self.statistic)
        except ValueError as e:
            errs.append(("statistic", str(e)))
        InvariantViolation.check(errs)

    def missing_etas(self, donor_ids) -> list[str]:
        """Donors an eta map leaves out; none for a scalar eta."""
        if not isinstance(self.eta, Mapping):
            return []
        return [sid for sid in donor_ids if sid not in self.eta]

    def eta_for(self, slice_id: str, k: int) -> float:
        base = self.eta[slice_id] if isinstance(self.eta, Mapping) else self.eta
        if self.eta_schedule == "sqrt-decay":
            return base / np.sqrt(k + 1.0)
        return base


@dataclass(frozen=True)
class IterationTrace:
    """Everything observed and decided at one iteration, before the update."""

    k: int
    alloc: AllocationMatrix
    samples: dict[str, QoeSample]
    penalties: dict[str, float]
    gradients: dict[str, np.ndarray]   # per slice, stacked [edges..., cores...]
    transfer: np.ndarray               # summed unscaled pressure sum_i p_i
    stop_metric: float                 # norm of transfer
    raw_deltas: dict[str, np.ndarray]  # applied per-donor withdrawal, pre-projection
    grant: np.ndarray                  # applied grant to the new slice, pre-projection
    rule_used: str


@dataclass(frozen=True)
class OsraResult:
    final_alloc: AllocationMatrix
    traces: tuple
    converged: bool
    iterations: int    # update steps actually applied

    def penalty_history(self, slice_id: str) -> list[float]:
        return [t.penalties[slice_id] for t in self.traces]


def order_key(spec):
    """Total priority order: rank first, ties broken by id."""
    return (spec.priority_rank, spec.id)


def transfer_step(donor_grads: dict, new_grad: np.ndarray, etas: dict,
                  rule: str) -> tuple[np.ndarray, float, dict, np.ndarray, str]:
    """One transfer decision from already-evaluated gradients.

    Returns (transfer, stop_metric, applied_deltas, grant, rule_used).
    Pure: no projection, no simulator. The engine and the synthetic
    recursion tests share this piece. grant == sum(applied_deltas) exactly
    under either rule.
    """
    new_grad = np.asarray(new_grad, dtype=float)
    pressures = {
        sid: etas[sid] * (np.asarray(g, dtype=float) - new_grad)
        for sid, g in donor_grads.items()
    }
    transfer = np.zeros_like(new_grad)
    for p in pressures.values():
        transfer = transfer + p
    stop_metric = float(np.linalg.norm(transfer))

    gj_norm = float(np.linalg.norm(new_grad))
    if rule == "algorithm1" and gj_norm >= ZERO_GRADIENT_NORM:
        deltas = {sid: p / gj_norm for sid, p in pressures.items()}
        rule_used = "algorithm1"
    else:
        deltas = pressures
        rule_used = "conservative" if rule == "conservative" else "conservative-fallback"
    grant = np.zeros_like(new_grad)
    for d in deltas.values():
        grant = grant + d
    return transfer, stop_metric, deltas, grant, rule_used


def assert_feasible(alloc: AllocationMatrix, tol: float = FEASIBILITY_TOL):
    """Hard check on an iterate; the algorithm must never leave the set."""
    x = alloc.stacked()
    sums = x.sum(axis=0)
    bad = []
    if x.min() < -tol:
        bad.append(f"entry {x.min()} < 0")
    if sums.max() > 1.0 + tol:
        bad.append(f"column {int(sums.argmax())} sum {sums.max()} > 1")
    if bad:
        raise AssertionError("infeasible iterate: " + "; ".join(bad))


def run_osra(slices, topology: Topology, initial_alloc: AllocationMatrix,
             sim_config: SimConfig, new_slice_id: str, config: OsraConfig,
             seed: int = 0, memory=None, map_fn=map) -> OsraResult:
    """Run the reconfiguration loop until the transfer stalls or iters run out.

    Each iteration: monitor all slices (one full simulation), form penalty
    gradients, decide the transfer, stop if its norm is <= epsilon (the
    traced iterate is then final), otherwise apply and project. All
    randomness derives from `seed`; reruns are bit-identical, independent
    of `map_fn` parallelism.
    """
    slices = tuple(slices)
    by_id = {s.id: s for s in slices}
    if new_slice_id not in by_id:
        raise KeyError(f"new slice {new_slice_id!r} not in scenario")
    new = by_id[new_slice_id]
    donors = tuple(s for s in slices if order_key(s) > order_key(new))
    if not donors:
        raise ValueError(
            f"new slice {new_slice_id!r} has no lower-priority slices to draw from")
    frozen_ids = [s.id for s in slices
                  if s.id != new_slice_id and order_key(s) < order_key(new)]
    missing = config.missing_etas(s.id for s in donors)
    if missing:
        raise ValueError(f"eta map missing donor slices {missing}")

    models = {
        s.id: PenaltyModel.for_slice(s, config.penalty_exponent,
                                     config.delay_ceiling_ms)
        for s in slices
    }

    # rows the update may touch, and the per-column budget left after the
    # frozen higher-priority rows take their share; columns are the edges,
    # then the cores, as in every gradient
    group = [initial_alloc.index(s.id) for s in donors] + [initial_alloc.index(new_slice_id)]
    fro = [initial_alloc.index(sid) for sid in frozen_ids]
    budgets = 1.0 - initial_alloc.stacked()[fro].sum(axis=0)

    def point_oracle(slice_id):
        def _eval(point: AllocationVector, probe_seed: int) -> QoeSample:
            return sim_evaluate(slice_id, alloc, slices, topology, sim_config,
                                seed=probe_seed, statistic=config.statistic,
                                row=point)
        return _eval

    alloc = initial_alloc
    assert_feasible(alloc)
    traces = []
    converged = False
    iterations = 0

    for k in range(config.max_iters):
        samples = sim_evaluate_all(alloc, slices, topology, sim_config,
                                   seed=derive_seed(seed, 9001, k),
                                   statistic=config.statistic)
        penalties = {sid: penalty(models[sid], smp) for sid, smp in samples.items()}

        grads = {
            new_slice_id: probed_gradient(
                models[new_slice_id], point_oracle(new_slice_id),
                alloc.row(new_slice_id), config.delta, config.probes,
                seed_base=derive_seed(seed, 7001, k), memory=memory,
                map_fn=map_fn)
        }
        for di, spec in enumerate(donors):
            if config.donor_gradients == "analytic":
                grads[spec.id] = analytic_gradient(
                    models[spec.id], spec, alloc.row(spec.id), topology)
            else:
                grads[spec.id] = probed_gradient(
                    models[spec.id], point_oracle(spec.id), alloc.row(spec.id),
                    config.delta, config.probes,
                    seed_base=derive_seed(seed, 7101, k, di), memory=memory,
                    map_fn=map_fn)

        for sid, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteGradient(
                    f"gradient of slice {sid!r} at iteration {k} is not finite: {g}")

        etas = {s.id: config.eta_for(s.id, k) for s in donors}
        transfer, stop_metric, deltas, grant, rule_used = transfer_step(
            {s.id: grads[s.id] for s in donors}, grads[new_slice_id], etas,
            config.transfer_rule)

        traces.append(IterationTrace(
            k=k, alloc=alloc, samples=samples, penalties=penalties,
            gradients=grads, transfer=transfer, stop_metric=stop_metric,
            raw_deltas=deltas, grant=grant, rule_used=rule_used))

        if stop_metric <= config.epsilon:
            converged = True
            break

        x = alloc.stacked()
        for spec in donors:
            x[alloc.index(spec.id)] -= deltas[spec.id]
        x[alloc.index(new_slice_id)] += grant
        x[group] = project_columns(x[group], budgets)
        alloc = AllocationMatrix(alloc.slice_ids, x[:, :alloc.n_edges], x[:, alloc.n_edges:])
        assert_feasible(alloc)
        iterations = k + 1

    return OsraResult(final_alloc=alloc, traces=tuple(traces),
                      converged=converged, iterations=iterations)
