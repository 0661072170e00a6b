"""Online reconfiguration: admit a new slice by squeezing lower-priority ones.

A new slice arrives holding a starved allocation row. Each iteration
monitors every slice's QoE, turns requirement violations into penalties,
and moves resources from lower-priority slices toward the new one until
the transfer pressure drops below a threshold.

The per-donor transfer pressure couples both sides of the hand-off. For
donor slice i (ordered after the new slice j by (priority_rank, id)) with
step size eta:

    p_i = eta * (grad pi_i(s_i) - grad pi_j(s_j))

While j is the only one hurting, grad pi_i = 0 and -grad pi_j >= 0
componentwise, so p_i >= 0: donors shed resources and j gains them. Once
a donor's own marginal penalty matches j's on some coordinate, p_i there
crosses zero and the exchange stalls there. On the reference sweep every
run stops on gradients that are exactly zero: each donor's model meets its
bounds, and so does every probe repetition of the new slice. The one
monitored sample need not: a seed may stop with the new slice's p99 over
its bound (the `OUTCOMES` table of the loop's tests says which seeds, and
by how much). Every slice still holds a share, and no applied
update uses the fallback below; only the stopping iteration, which
applies nothing, records it.

The applied update withdraws delta_i from each donor and grants their sum
to j, under one of two scalings:

* "conservative": delta_i = p_i. What j receives is exactly what donors
  lose, in the raw gradient scale.
* "algorithm1" (the reference's): delta_i = p_i / ||grad pi_j||. The whole
  transfer field is normalized by the new slice's gradient norm, so the
  grant magnitude is ~ eta times the number of donors regardless of how
  steep the penalty cliffs are; approach speed is set by the step size
  alone. A vanishing ||grad pi_j|| (below 1e-12) falls back to
  "conservative" for that step, recorded in the trace as rule_used
  "conservative-fallback", with every delta_i scaled by
  eta * n_donors / ||sum_i p_i|| where that norm exceeds eta * n_donors,
  so the grant is no larger than algorithm1's.

Both scalings are exactly zero-sum per coordinate before projection. The
stopping rule always reads the unscaled pressure: stop when
||sum_i p_i|| <= epsilon, which vanishes as all hinges deactivate (the
normalized grant never would). A run that never stops so ends at its
max_iters-th iteration, which applies nothing either.

Rows ordered before the new slice are frozen; the donors and the new
slice are then projected jointly, column by column, onto
{x >= 0, sum(x) <= 1 - frozen mass}.

The new slice's gradient is probed from the simulator by central
differences (no model exists for a slice that never ran); every donor's
gradient is `analytic_gradient`'s, through the closed-form stationary M/M/1
model of the slice it already runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (AllocationMatrix, ArrayValue, InvariantViolation, QoeSample, Topology,
                     capacity_violations, derive_seed, interval_violations, whole_fields)
from .oracle import sim_evaluate, sim_evaluate_all
from .penalty import DELTA_INTERVAL, PenaltyModel, analytic_gradient, hinge, probed_gradient
from .projection import project_columns
from .simulator import SimConfig, percentile_of

TRANSFER_RULES = ("algorithm1", "conservative")

# below this, normalizing by the new slice's gradient is meaningless
ZERO_GRADIENT_NORM = 1e-12


class NonFiniteGradient(ValueError):
    """A penalty gradient holds NaN or inf; names the slice and iteration."""


@dataclass(frozen=True)
class OsraConfig:
    """Tuning knobs for one reconfiguration run, each set by the scenario.

    eta is the one constant step size of every donor at every iteration.
    delta is the probe perturbation per coordinate, probes the number of
    seeded simulator runs averaged per probe point.
    """

    eta: float
    delta: float
    probes: int
    epsilon: float
    max_iters: int
    transfer_rule: str
    statistic: str
    penalty_exponent: int
    delay_ceiling_ms: float

    def __post_init__(self):
        errs = []
        if self.transfer_rule not in TRANSFER_RULES:
            errs.append(("transfer_rule", f"transfer_rule must be one of {TRANSFER_RULES}"))
        errs += whole_fields(self, "max_iters", "probes", interval="[1, inf)")
        errs += whole_fields(self, "penalty_exponent", interval="[1, 2]")
        for name, interval in (("eta", "[0, inf)"), ("epsilon", "[0, inf)"),
                               ("delta", DELTA_INTERVAL),
                               ("delay_ceiling_ms", "(0, inf)")):
            errs += interval_violations(name, getattr(self, name), interval)
        try:
            percentile_of(self.statistic)
        except ValueError as e:
            errs.append(("statistic", str(e)))
        InvariantViolation.check(errs)


@dataclass(frozen=True, eq=False)
class IterationTrace(ArrayValue):
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


@dataclass(frozen=True, eq=False)
class OsraResult(ArrayValue):
    final_alloc: AllocationMatrix
    traces: tuple
    converged: bool
    iterations: int    # updates applied: len(traces) - 1


def order_key(spec):
    """Total priority order: rank first, ties broken by id."""
    return (spec.priority_rank, spec.id)


def new_slice_and_donors(slices, new_slice_id: str) -> tuple:
    """(the new slice, its donors): the slice of `slices` with id
    `new_slice_id`, and the slices ordered after it, the ones it may draw
    resources from. InvariantViolation, keyed "new_slice", if there is no
    such slice or it has no donors."""
    new = {s.id: s for s in slices}.get(new_slice_id)
    if new is None:
        raise InvariantViolation([("new_slice", f"new_slice {new_slice_id!r} is not a slice id")])
    donors = tuple(s for s in slices if order_key(s) > order_key(new))
    if not donors:
        raise InvariantViolation([("new_slice", f"new slice {new_slice_id!r} has no "
                                                f"lower-priority slices")])
    return new, donors


def transfer_step(donor_grads: dict, new_grad: np.ndarray, eta: float,
                  rule: str) -> tuple[np.ndarray, float, dict, np.ndarray, str]:
    """One transfer decision from already-evaluated gradients.

    Returns (transfer, stop_metric, applied_deltas, grant, rule_used).
    Pure: no projection, no simulator. The engine and the synthetic
    recursion tests share this piece. grant == sum(applied_deltas) exactly
    under either rule.
    """
    new_grad = np.asarray(new_grad, dtype=float)
    pressures = {
        sid: eta * (np.asarray(g, dtype=float) - new_grad)
        for sid, g in donor_grads.items()
    }
    transfer = sum(pressures.values(), np.zeros_like(new_grad))
    stop_metric = float(np.linalg.norm(transfer))

    gj_norm = float(np.linalg.norm(new_grad))
    if rule == "conservative":
        deltas, rule_used = pressures, "conservative"
    elif gj_norm >= ZERO_GRADIENT_NORM:
        deltas = {sid: p / gj_norm for sid, p in pressures.items()}
        rule_used = "algorithm1"
    else:
        # algorithm1's grant size bounds the raw pressures; the stopping
        # row's transfer is exactly 0 and never scales
        bound = eta * len(pressures)
        deltas = pressures if stop_metric <= bound else {
            sid: p * (bound / stop_metric) for sid, p in pressures.items()}
        rule_used = "conservative-fallback"
    grant = sum(deltas.values(), np.zeros_like(new_grad))
    return transfer, stop_metric, deltas, grant, rule_used


def assert_feasible(alloc: AllocationMatrix):
    """Raise AssertionError naming each capacity bound alloc breaks: the
    `capacity_violations` every AllocationMatrix is built to, so only an
    allocation made around the constructor can fail."""
    bad = capacity_violations("flows", alloc.flows) + capacity_violations("cpu", alloc.cpu)
    if bad:
        raise AssertionError("infeasible iterate: " + "; ".join(msg for _, msg in bad))


class ProbeMemory(list):
    """(row, sample, seed) of every probe of the new slice, in the order
    `run_osra` made them; a probe its memo answered is recorded too."""


def run_osra(slices, topology: Topology, initial_alloc: AllocationMatrix,
             sim_config: SimConfig, new_slice_id: str, config: OsraConfig,
             seed: int, memory=None) -> OsraResult:
    """Run the reconfiguration loop until the transfer stalls or iters run out.

    Each iteration: monitor all slices (one full simulation), form penalty
    gradients, decide the transfer, stop if its norm is <= epsilon or the
    iteration is the `max_iters`-th (the traced iterate, which the run
    measured, is then final), otherwise apply and project. All
    randomness derives from `seed`; reruns are bit-identical. `memory`, a
    `ProbeMemory` when given, receives every probe. A new slice that is
    unknown or has no donors raises `new_slice_and_donors`' InvariantViolation;
    one raised in an iteration has " at iteration k" after each message.
    """
    slices = tuple(slices)
    new, donors = new_slice_and_donors(slices, new_slice_id)

    models = {
        s.id: PenaltyModel(requirement=s.requirement, alpha_tau=s.alpha_tau,
                           alpha_rho=s.alpha_rho, exponent=config.penalty_exponent,
                           delay_ceiling_ms=config.delay_ceiling_ms)
        for s in slices
    }

    # rows the update may touch, and the per-column budget left after the
    # frozen higher-priority rows take their share; columns are the edges,
    # then the cores, as in every gradient
    group = [initial_alloc.index(s.id) for s in donors] + [initial_alloc.index(new_slice_id)]
    fro = [initial_alloc.index(s.id) for s in slices if order_key(s) < order_key(new)]
    budgets = 1.0 - initial_alloc.stacked()[fro].sum(axis=0)

    alloc = initial_alloc
    traces = []

    for k in range(config.max_iters):
        # a bad value met in the iteration is named with it
        try:
            samples = sim_evaluate_all(alloc, slices, topology, sim_config,
                                       seed=derive_seed(seed, 9001, k),
                                       statistic=config.statistic)
            penalties = {sid: hinge(models[sid], smp.delay_stat_ms, smp.throughput)[0]
                         for sid, smp in samples.items()}

            # this gradient's samples and traffic: a repeated probe is simulated
            # once, and each repetition's stream is drawn once
            memo = {}

            def probe(row, probe_seed):
                """The new slice's sample at `row`, recorded in `memory` if given."""
                sample = sim_evaluate(new_slice_id, row, slices, topology, sim_config,
                                      seed=probe_seed, statistic=config.statistic, memo=memo)
                if memory is not None:
                    memory.append((row, sample, probe_seed))
                return sample

            grads = {
                new_slice_id: probed_gradient(models[new_slice_id], probe,
                                              alloc.row(new_slice_id), config.delta,
                                              config.probes, seed_base=derive_seed(seed, 7001, k))
            }
            for spec in donors:
                grads[spec.id] = analytic_gradient(models[spec.id], spec, alloc.row(spec.id),
                                                   topology)

            for sid, g in grads.items():
                if not np.isfinite(g).all():
                    raise NonFiniteGradient(
                        f"gradient of slice {sid!r} at iteration {k} is not finite: {g}")

            transfer, stop_metric, deltas, grant, rule_used = transfer_step(
                {s.id: grads[s.id] for s in donors}, grads[new_slice_id], config.eta,
                config.transfer_rule)

            traces.append(IterationTrace(
                k=k, alloc=alloc, samples=samples, penalties=penalties,
                gradients=grads, transfer=transfer, stop_metric=stop_metric,
                raw_deltas=deltas, grant=grant, rule_used=rule_used))

            if stop_metric <= config.epsilon or k == config.max_iters - 1:
                break

            x = alloc.stacked()
            for spec in donors:
                x[alloc.index(spec.id)] -= deltas[spec.id]
            x[alloc.index(new_slice_id)] += grant
            x[group] = project_columns(x[group], budgets)
            alloc = AllocationMatrix(alloc.slice_ids, x[:, :alloc.n_edges], x[:, alloc.n_edges:])
        except InvariantViolation as err:
            raise InvariantViolation([(field, f"{msg} at iteration {k}")
                                      for field, msg in err.violations]) from None

    return OsraResult(final_alloc=traces[-1].alloc, traces=tuple(traces),
                      converged=traces[-1].stop_metric <= config.epsilon,
                      iterations=len(traces) - 1)
