"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single "ACn <name>: PASS/FAIL (<measured numbers>)"
line; run with -s (or read captured output on failure) to see the values.
The heavyweight fixture (a 10-seed sweep of the reference scenario) is
shared across the criteria that read it.
"""
import dataclasses
import math
import pickle

import numpy as np

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    QoeRequirement,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    audit_allocation,
    project_capped_simplex,
    run_osra,
    run_sim,
    size_all,
)
from slicelab.domain import QoeSample
from slicelab.penalty import PenaltyModel, probed_gradient

from conftest import make_tiny_scenario
from reference_impls import mm1_sojourn_s, qp_capped_simplex


def check(n, name, ok, detail):
    line = f"AC{n} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def seed_avg_series(results, sid, reduce):
    """Per-iteration mean over the seeds that reached that iteration."""
    max_k = max(len(r.traces) for r in results.values())
    series = []
    for k in range(max_k):
        vals = []
        for r in results.values():
            if k >= len(r.traces):
                continue
            raw = r.traces[k].samples[sid].raw_delays_ms
            if raw is not None and raw.size:
                vals.append(reduce(raw))
        series.append(float(np.mean(vals)))
    return series


def inversions(series, direction):
    """Relative magnitude of each step that moves against `direction`."""
    bad = []
    for a, b in zip(series, series[1:]):
        drift = (b - a) * direction
        if drift < 0:
            bad.append(-drift / max(abs(a), 1e-12))
    return bad


def test_ac1_convergence_speed(reference_sweep):
    sc, results, elapsed = reference_sweep
    ok_seeds = sum(1 for r in results.values()
                   if r.converged and r.iterations <= 10)
    iters = sorted(r.iterations for r in results.values())
    ok = ok_seeds >= 9 and elapsed < 120.0
    check(1, "convergence speed", ok,
          f"{ok_seeds}/10 seeds converged within 10 updates, "
          f"iterations {iters}, sweep took {elapsed:.1f}s")


def test_ac2_qoe_handoff_direction(reference_sweep):
    sc, results, _ = reference_sweep
    s1 = seed_avg_series(results, "slice1", np.mean)
    s2 = seed_avg_series(results, "slice2", np.mean)
    inv1 = inversions(s1, -1.0)   # slice1 must fall
    inv2 = inversions(s2, +1.0)   # slice2 may only rise
    final1 = float(np.mean([r.traces[-1].samples["slice1"].raw_delays_ms.mean()
                            for r in results.values()]))
    tau2 = 5.0
    over2 = float(np.mean(
        [max(0.0, r.traces[-1].samples["slice2"].raw_delays_ms.max() - tau2)
         for r in results.values()]))
    ok = (len(inv1) <= 1 and all(v <= 0.05 for v in inv1)
          and len(inv2) <= 1 and all(v <= 0.05 for v in inv2)
          and final1 <= 2.0 and over2 <= 4.0)
    check(2, "QoE hand-off direction", ok,
          f"slice1 mean {s1[0]:.1f}->{final1:.3f} ms "
          f"({len(inv1)} inversions {[f'{v:.1%}' for v in inv1]}), "
          f"slice2 mean {s2[0]:.3f}->{s2[-1]:.3f} ms "
          f"({len(inv2)} inversions {[f'{v:.1%}' for v in inv2]}), "
          f"slice2 final max-delay overshoot {over2:.3f} ms")


def test_ac3_throughput_recovery(reference_sweep):
    sc, results, _ = reference_sweep
    t1_final = float(np.mean([r.traces[-1].samples["slice1"].throughput
                              for r in results.values()]))
    t2_init = float(np.mean([r.traces[0].samples["slice2"].throughput
                             for r in results.values()]))
    t2_final = float(np.mean([r.traces[-1].samples["slice2"].throughput
                              for r in results.values()]))
    t2_change = abs(t2_final - t2_init) / t2_init
    ok = t1_final >= 0.99 and t2_change < 0.02
    check(3, "throughput recovery", ok,
          f"slice1 final throughput {t1_final:.4f}, "
          f"slice2 {t2_init:.4f}->{t2_final:.4f} ({t2_change:.2%} change)")


def test_ac4_baseline_failure(reference_sweep):
    sc, results, _ = reference_sweep
    seeds = range(10)
    base_alloc, flags = size_all(sc.slices, sc.topology)
    base_report = audit_allocation(sc.slices, sc.topology, base_alloc, sc.sim, seeds)
    osra_report = audit_allocation(
        sc.slices, sc.topology, results[0].final_alloc, sc.sim, seeds)
    bv = base_report["slice1"].violation_fraction
    ov = osra_report["slice1"].violation_fraction
    ok = bv >= 0.5 and bv >= 10.0 * ov
    check(4, "baseline failure", ok,
          f"mean-sized violation {bv:.4f} vs reconfigured {ov:.4f} "
          f"(ratio {bv / max(ov, 1e-12):.0f}x, clamped={any(flags.values())})")


def test_ac5_projection_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_qp, worst_idem = 0.0, 0.0
    pairs = []
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        y = rng.normal(loc=0.4, scale=scale, size=dim)
        p = project_capped_simplex(y)
        worst_qp = max(worst_qp, float(np.abs(p - qp_capped_simplex(y)).max()))
        worst_idem = max(worst_idem,
                         float(np.abs(project_capped_simplex(p) - p).max()))
        pairs.append((y, p))
    worst_exp = 0.0
    for (y, py), (z, pz) in zip(pairs[::2], pairs[1::2]):
        if y.size != z.size:
            continue
        gap = np.linalg.norm(py - pz) - np.linalg.norm(y - z)
        worst_exp = max(worst_exp, float(gap))
    ok = worst_qp <= 1e-8 and worst_idem <= 1e-12 and worst_exp <= 1e-12
    check(5, "projection oracle equivalence", ok,
          f"max |sort - QP| {worst_qp:.2e}, idempotence {worst_idem:.2e}, "
          f"expansiveness excess {worst_exp:.2e} over 1000 vectors")


def test_ac6_gradient_fidelity():
    # exactness: central differences are exact on quadratics, and the
    # hinge is active everywhere (delay always above the bound)
    rng = np.random.default_rng(7)
    model = PenaltyModel(requirement=QoeRequirement(1.0, 0.0),
                         alpha_tau=1.0, alpha_rho=1.0, exponent=1,
                         delay_ceiling_ms=1e9)
    worst = 0.0
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        m = rng.normal(size=(dim, dim))
        quad = m @ m.T + np.eye(dim)
        center = rng.uniform(0.3, 0.7, size=dim)
        point = AllocationVector(rng.uniform(0.3, 0.7, size=dim), np.array([]))

        def oracle(vec, seed=None, _q=quad, _c=center):
            s = np.concatenate([vec.flows, vec.cpu]) - _c
            return QoeSample(2.0 + float(s @ _q @ s), 1.0)

        got = probed_gradient(model, oracle, point, delta=0.05, probes=3,
                              seed_base=1)
        s = np.concatenate([point.flows, point.cpu]) - center
        worst = max(worst, float(np.abs(got - 2.0 * quad @ s).max()))
    exact_ok = worst <= 1e-10

    # order: quartic truncation error shrinks 4x when delta halves
    point = AllocationVector(np.array([0.55, 0.40]), np.array([0.65]))

    def quartic(vec, seed=None):
        s = np.concatenate([vec.flows, vec.cpu])
        return QoeSample(1.0 + float((s ** 4).sum()), 1.0)

    model4 = PenaltyModel(requirement=QoeRequirement(0.5, 0.0),
                          alpha_tau=1.0, alpha_rho=1.0, exponent=1,
                          delay_ceiling_ms=1e9)
    s = np.concatenate([point.flows, point.cpu])
    true = 4.0 * s ** 3
    errs = []
    for delta in (0.2, 0.1):
        g = probed_gradient(model4, quartic, point, delta=delta, probes=2,
                            seed_base=1)
        errs.append(float(np.linalg.norm(g - true)))
    ratio = errs[0] / errs[1]
    order_ok = 3.5 <= ratio <= 4.5
    check(6, "gradient fidelity", exact_ok and order_ok,
          f"quadratic max error {worst:.2e}, quartic error ratio "
          f"{ratio:.3f} for delta 0.2 -> 0.1")


def test_ac7_simulator_vs_queueing_theory():
    # exponential packet sizes make the link an M/M/1 server with
    # mu = 1000/s at 8 Mbps; the compute stage is sized to be negligible
    spec = SliceSpec(
        id="s", requirement=QoeRequirement(math.inf, 0.0),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(kind="poisson", mean_rate=300.0,
                             size_dist="exponential", size_mean=1000.0,
                             size_min=1, size_max=10 ** 6),
        demand_mi=1.0, priority_rank=0)
    topology = Topology(edges=(("link", 8.0),), cores=(("core", 3e8),),
                        buffer_pkts=10 ** 6)
    alloc = AllocationMatrix.from_rows(
        {"s": AllocationVector(np.array([1.0]), np.array([1.0]))})
    cfg = SimConfig(horizon_s=30.0, warmup_s=3.0, propagation_ms=0.0)

    mu_net, mu_srv = 1000.0, 3e8
    lines, ok = [], True
    for lam in (300.0, 500.0, 700.0):
        sp = dataclasses.replace(
            spec, traffic=dataclasses.replace(spec.traffic, mean_rate=lam))
        pooled = np.concatenate([
            run_sim((sp,), topology, alloc, cfg, seed=seed)["s"].delays_ms
            for seed in range(10)])
        got = float(pooled.mean())
        want = 1e3 * (mm1_sojourn_s(lam, mu_net) + mm1_sojourn_s(lam, mu_srv))
        rel = abs(got - want) / want
        ok = ok and rel <= 0.15
        lines.append(f"util {lam / mu_net:.1f}: sim {got:.3f} vs "
                     f"M/M/1 {want:.3f} ms ({rel:.1%})")
    check(7, "simulator vs queueing theory", ok, "; ".join(lines))


def test_ac8_feasibility_and_determinism(reference_sweep):
    sc, results, _ = reference_sweep
    worst_neg, worst_sum = 0.0, 0.0
    for r in results.values():
        for alloc in [t.alloc for t in r.traces] + [r.final_alloc]:
            for arr in (alloc.flows, alloc.cpu):
                worst_neg = max(worst_neg, float(-arr.min()))
                worst_sum = max(worst_sum, float(arr.sum(axis=0).max() - 1.0))
    feasible = worst_neg <= 1e-9 and worst_sum <= 1e-9

    again = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     sc.new_slice_id, sc.osra, seed=0)
    identical = pickle.dumps(results[0]) == pickle.dumps(again)
    check(8, "feasibility and determinism", feasible and identical,
          f"worst negativity {worst_neg:.1e}, worst column overrun "
          f"{worst_sum:.1e}, rerun byte-identical: {identical}")


def test_ac9_conservative_rule_accounting():
    # a delay bound below the propagation floor keeps the gradient alive
    # for all 20 steps
    sc = make_tiny_scenario(tau_new=0.05, epsilon=0.0, max_iters=20,
                            transfer_rule="conservative")
    res = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                   sc.new_slice_id, sc.osra, seed=3)
    worst = 0.0
    for t in res.traces:
        withdrawn = sum(t.raw_deltas.values())
        worst = max(worst, float(np.abs(withdrawn - t.grant).max()))
    ok = len(res.traces) == 20 and worst <= 1e-12
    check(9, "conservative-rule accounting", ok,
          f"{len(res.traces)} steps, max |withdrawn - granted| {worst:.1e} "
          f"pre-projection")
