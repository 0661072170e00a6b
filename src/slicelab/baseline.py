"""Sizing from stationary queueing formulas, and the audit that exposes it.

The sizing half answers "how much resource does this slice need?" with the
textbook recipe: split the delay target between the network and server
stages, give each stage the service rate a single-server Markov queue
needs to meet its share of the mean sojourn, and convert rates to
fractions. By construction the analytic mean delay at the returned
allocation equals the target exactly (when nothing clamps).

The audit half replays any allocation through the bursty simulator and
counts what the mean-based sizing ignores: requests whose end-to-end
delay exceeds the bound. Sizing for the mean under bursty arrivals is
precisely the failure mode the reconfiguration loop exists to fix, so the
two halves are meant to be run side by side.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AllocationMatrix, AllocationVector, SliceSpec, Topology
from .simulator import SimConfig, run_sim

STABILITY_MARGIN = 0.1  # rate headroom used when there is no delay bound
NETWORK_DELAY_SHARE = 0.5  # share of the delay bound given to the link stages


class InfeasibleDemand(ValueError):
    pass


def mm1_demand(spec: SliceSpec, topology: Topology) -> tuple[AllocationVector, bool]:
    """Size one slice from mean-delay formulas.

    The delay bound splits as NETWORK_DELAY_SHARE to the network (spread
    evenly over edges) and the rest to the server; each stage gets the
    service rate mu = lam + 1/W for its sojourn share W. Unbounded delay
    sizes for stability only (10% headroom). Required fractions above 1
    clip to 1, returning infeasible=True.
    """
    lam = spec.traffic.mean_rate
    mean_size = spec.traffic.mean_size_bytes()

    if spec.requirement.bounded:
        w_net_s = (spec.requirement.tau_ms / 1e3) * NETWORK_DELAY_SHARE / topology.n_edges
        w_srv_s = (spec.requirement.tau_ms / 1e3) * (1.0 - NETWORK_DELAY_SHARE)
        mu_edge = lam + 1.0 / w_net_s
        mu_srv = lam + 1.0 / w_srv_s
    else:
        mu_edge = mu_srv = lam * (1.0 + STABILITY_MARGIN)

    flows = mu_edge * 8.0 * mean_size / topology.edge_bps()
    cpu_total_ips = mu_srv * spec.demand_mi
    cpu = np.full(topology.n_cores, cpu_total_ips / topology.core_mips().sum())

    infeasible = bool(max(flows.max(), cpu.max()) > 1.0)
    return AllocationVector(np.minimum(flows, 1.0), np.minimum(cpu, 1.0)), infeasible


def size_all(slices, topology: Topology, clamp: bool = False,
             ) -> tuple[AllocationMatrix, dict[str, bool]]:
    """Size every slice independently and assemble the joint allocation.

    Per-slice clamping is reported in the flags map. If the rows jointly
    overrun a resource column, raises InfeasibleDemand; with clamp=True the
    column is scaled back to a sum of 1 instead and every slice is flagged,
    for reports that must proceed even when the sizing cannot be honored.
    """
    rows, flags = {}, {}
    for s in slices:
        rows[s.id], flags[s.id] = mm1_demand(s, topology)
    flows = np.array([rows[s.id].flows for s in slices])
    cpu = np.array([rows[s.id].cpu for s in slices])
    for name, arr in (("edge", flows), ("core", cpu)):
        sums = arr.sum(axis=0)
        over = sums > 1.0
        if not over.any():
            continue
        if not clamp:
            raise InfeasibleDemand(
                f"sized rows jointly need {sums.max():.4f} > 1 of {name} "
                f"{int(sums.argmax())}")
        arr[:, over] /= sums[over]
        flags = dict.fromkeys(flags, True)
    return AllocationMatrix(tuple(s.id for s in slices), flows, cpu), flags


@dataclass(frozen=True)
class SliceAudit:
    """Pooled-over-seeds QoE audit of one slice under one allocation."""

    slice_id: str
    offered: int
    success: int
    violation_fraction: float  # successful requests with delay > bound
    mean_delay_ms: float
    max_delay_ms: float
    throughput: float
    empty: bool                # no successful request observed
    delays_ms: np.ndarray      # pooled successful-request delays


def audit_allocation(slices, topology: Topology, alloc: AllocationMatrix,
                     sim_config: SimConfig, seeds) -> dict:
    """Measure every slice's delivered QoE under `alloc`, pooled over seeds.

    The violation fraction counts successful requests whose delay exceeds
    the slice's bound, out of all successful requests; an unbounded slice
    scores 0. No successes at all is reported as 0 with empty=True.
    """
    return pool_audits(slices, [run_sim(slices, topology, alloc, sim_config, seed=seed)
                                for seed in seeds])


def pool_audits(slices, runs) -> dict:
    """One audit report over every request of `runs`, in order.

    A run maps slice id to anything with offered, success and delays_ms: a
    run_sim result, or an audit, so per-seed audits pool without new runs.
    """
    report = {}
    for spec in slices:
        parts = [run[spec.id] for run in runs]
        pooled = np.concatenate([p.delays_ms for p in parts]) if parts else np.array([])
        offered = sum(p.offered for p in parts)
        success = sum(p.success for p in parts)
        empty = pooled.size == 0
        req = spec.requirement
        if empty:
            viol, mean_d, max_d = 0.0, float("nan"), float("nan")
        else:
            viol = float(np.mean(pooled > req.tau_ms)) if req.bounded else 0.0
            mean_d = float(pooled.mean())
            max_d = float(pooled.max())
        report[spec.id] = SliceAudit(
            slice_id=spec.id, offered=offered, success=success,
            violation_fraction=viol, mean_delay_ms=mean_d, max_delay_ms=max_d,
            throughput=success / offered if offered else 1.0,
            empty=empty, delays_ms=pooled)
    return report


def evaluate_baseline(slices, topology: Topology, sim_config: SimConfig, seeds):
    """Size every slice analytically, then audit that allocation as-is.

    Returns (report, allocation, clamp flags).
    """
    alloc, flags = size_all(slices, topology)
    report = audit_allocation(slices, topology, alloc, sim_config, seeds)
    return report, alloc, flags
