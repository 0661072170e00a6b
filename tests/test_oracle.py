"""Analytic queueing oracle and the simulator-backed oracle functions."""
import math

import numpy as np
import pytest

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    QoeRequirement,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
)
from slicelab.oracle import (
    analytic_mm1_evaluate,
    analytic_parts,
    derive_seed,
    sim_evaluate,
    sim_evaluate_all,
)


def spec_with(rate=100.0, demand=5e4, size=1000):
    return SliceSpec(
        id="s", requirement=QoeRequirement(tau_ms=10.0, rho=0.9),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(kind="poisson", mean_rate=rate,
                             size_min=size, size_max=size),
        demand_mi=demand, priority_rank=0,
    )


class TestAnalyticModel:
    def test_two_stage_sojourn_sums(self):
        # both stage rates 1100 req/s against lambda=100: 1 ms each, 2 ms total
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),))
        phi = 1100.0 * 5e4 / 3e8
        point = AllocationVector(np.array([1.0]), np.array([phi]))
        sample = analytic_mm1_evaluate(spec, point, topo)
        assert sample.delay_stat_ms == pytest.approx(2.0, rel=1e-12)
        assert sample.throughput == 1.0

    def test_full_core_service_rates(self):
        topo = Topology(edges=(("e", 1e5),), cores=(("c", 3e8),))
        point = AllocationVector(np.array([1.0]), np.array([1.0]))
        for demand, want in ((5e4, 6000.0), (8e4, 3750.0)):
            spec = spec_with(demand=demand)
            delay, tp, _, _ = analytic_parts(spec, point, topo)
            # back out mu_srv from the server sojourn after removing the link term
            mu_net = 1e5 * 1e6 / (8 * 1000)
            srv_sojourn_s = delay / 1000 - 1 / (mu_net - 100.0)
            assert 1 / srv_sojourn_s + 100.0 == pytest.approx(want, rel=1e-9)

    def test_saturated_server_is_unstable(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),))
        phi = 100.0 * 5e4 / 3e8  # mu_srv exactly lambda
        sample = analytic_mm1_evaluate(
            spec, AllocationVector(np.array([1.0]), np.array([phi])), topo)
        assert math.isinf(sample.delay_stat_ms)
        assert sample.throughput == 1.0  # mu/lambda = 1 caps at 1

    def test_bottleneck_caps_throughput(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),))
        phi = 50.0 * 5e4 / 3e8  # server can only draw 50 req/s
        sample = analytic_mm1_evaluate(
            spec, AllocationVector(np.array([1.0]), np.array([phi])), topo)
        assert math.isinf(sample.delay_stat_ms)
        assert sample.throughput == pytest.approx(0.5, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 20.0),), cores=(("c", 3e8),))
        point = AllocationVector(np.array([0.5]), np.array([0.2]))
        delay, tp, d_delay, d_tp = analytic_parts(spec, point, topo)
        h = 1e-7
        for d in range(2):
            x = point.stacked()
            up, dn = x.copy(), x.copy()
            up[d] += h
            dn[d] -= h
            f = lambda v: analytic_parts(
                spec, AllocationVector.from_stacked(v, 1), topo)[0]
            numeric = (f(up) - f(dn)) / (2 * h)
            assert numeric == pytest.approx(d_delay[d], rel=1e-5)
        assert np.all(d_tp == 0.0)  # stable: throughput locally flat at 1

    def test_monotone_in_every_coordinate(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 20.0),), cores=(("c", 3e8),))
        base = AllocationVector(np.array([0.3]), np.array([0.2]))
        d0, t0, _, _ = analytic_parts(spec, base, topo)
        for d in range(2):
            x = base.stacked()
            x[d] = min(1.0, x[d] + 0.1)
            d1, t1, _, _ = analytic_parts(
                spec, AllocationVector.from_stacked(x, 1), topo)
            assert d1 <= d0
            assert t1 >= t0


class TestOracles:
    def scenario(self):
        spec = spec_with(rate=200.0)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),))
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.2]), np.array([0.3]))})
        return spec, topo, alloc

    def test_sim_oracle_deterministic(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        at = lambda seed: sim_evaluate("s", alloc, [spec], topo, cfg, seed=seed)
        assert at(5) == at(5)
        assert at(5) != at(6)

    def test_statistic_changes_the_reduction(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        mx = sim_evaluate("s", alloc, [spec], topo, cfg, seed=5, statistic="max")
        mean = sim_evaluate("s", alloc, [spec], topo, cfg, seed=5, statistic="mean")
        assert mx.delay_stat_ms > mean.delay_stat_ms

    def test_row_argument_probes_without_moving_the_matrix(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        probe = AllocationVector(np.array([0.9]), np.array([0.9]))
        got = sim_evaluate("s", alloc, [spec], topo, cfg, seed=5, row=probe)
        direct = sim_evaluate("s", AllocationMatrix.from_rows({"s": probe}),
                              [spec], topo, cfg, seed=5)
        assert got == direct

    def test_analytic_oracle_interface(self):
        spec, topo, alloc = self.scenario()
        s = analytic_mm1_evaluate(spec, alloc.row("s"), topo)
        assert s.throughput == 1.0
        assert s.delay_stat_ms > 0

    def test_evaluate_all_keeps_raw_delays(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        samples = sim_evaluate_all(alloc, [spec], topo, cfg, seed=4)
        assert samples["s"].raw_delays_ms is not None
        assert samples["s"].raw_delays_ms.size > 0
        one = sim_evaluate("s", alloc, [spec], topo, cfg, seed=4)
        assert samples["s"].delay_stat_ms == one.delay_stat_ms


class TestSeedDerivation:
    def test_deterministic_and_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_fits_in_uint64(self):
        s = derive_seed(123456789, 987654321, 42)
        assert 0 <= s < 2 ** 64
