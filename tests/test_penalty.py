"""Hinge penalties, probed and analytic gradients, probe memory."""
import math

import numpy as np
import pytest

from slicelab import (
    AllocationVector,
    DegenerateDelta,
    PenaltyModel,
    ProbeMemory,
    QoeRequirement,
    QoeSample,
    SliceSpec,
    Topology,
    TrafficModel,
    UNBOUNDED,
    analytic_gradient,
    mean_statistics,
    penalty,
    penalty_at,
    probed_gradient,
)
from slicelab.oracle import analytic_parts
from slicelab.penalty import effective_delay


def model(tau=5.0, rho=0.9, a_tau=1.0, a_rho=1.0, p=2, ceiling=1e4):
    return PenaltyModel(QoeRequirement(tau_ms=tau, rho=rho), a_tau, a_rho,
                        exponent=p, delay_ceiling_ms=ceiling)


def quadratic_oracle(vec: AllocationVector, seed=None) -> QoeSample:
    """Deterministic delay 1 + |s|^2, perfect throughput."""
    s = vec.stacked()
    return QoeSample(delay_stat_ms=1.0 + float(s @ s), throughput=1.0)


class TestPenaltyValues:
    def test_no_violation_is_zero(self):
        m = model(tau=2.0, rho=0.999)
        assert penalty_at(m, 1.5, 1.0) == 0.0

    def test_quadratic_delay_hinge(self):
        m = model(tau=5.0, a_tau=1.0, a_rho=0.0, p=2)
        assert penalty_at(m, 7.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_linear_delay_hinge(self):
        m = model(tau=5.0, a_tau=1.0, a_rho=0.0, p=1)
        assert penalty_at(m, 7.0, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_throughput_hinge(self):
        m = model(tau=5.0, rho=0.9, a_tau=0.0, a_rho=2.0, p=2)
        assert penalty_at(m, 1.0, 0.8) == pytest.approx(2 * 0.1 ** 2, abs=1e-12)

    def test_unbounded_tau_has_no_delay_term(self):
        m = PenaltyModel(QoeRequirement(UNBOUNDED, 0.5), 3.0, 1.0)
        assert penalty_at(m, math.inf, 0.6) == 0.0
        assert penalty_at(m, math.inf, 0.4) == pytest.approx(0.01, abs=1e-12)

    def test_penalty_reads_the_sample(self):
        m = model(tau=2.0, a_rho=0.0, p=1)
        s = QoeSample(delay_stat_ms=3.5, throughput=1.0)
        assert penalty(m, s) == pytest.approx(1.5, abs=1e-12)

    def test_kink_has_zero_penalty(self):
        m = model(tau=5.0, rho=0.9)
        assert penalty_at(m, 5.0, 0.9) == 0.0

    def test_exponent_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            model(p=3)

    def test_for_slice_copies_everything(self):
        spec = SliceSpec(
            id="x", requirement=QoeRequirement(2.0, 0.999),
            alpha_tau=3.0, alpha_rho=2.5,
            traffic=TrafficModel(kind="poisson", mean_rate=10.0),
            demand_mi=1e4, priority_rank=0)
        m = PenaltyModel.for_slice(spec, exponent=1, delay_ceiling_ms=250.0)
        assert (m.alpha_tau, m.alpha_rho) == (3.0, 2.5)
        assert m.requirement == spec.requirement
        assert m.exponent == 1 and m.delay_ceiling_ms == 250.0


class TestDelayCeiling:
    def test_nonfinite_maps_to_ceiling(self):
        m = model(ceiling=250.0)
        assert effective_delay(m, math.inf) == 250.0

    def test_huge_but_finite_is_capped(self):
        m = model(ceiling=250.0)
        assert effective_delay(m, 3e5) == 250.0

    def test_ordinary_delay_passes_through(self):
        m = model(ceiling=250.0)
        assert effective_delay(m, 7.5) == 7.5

    def test_mean_statistics_substitutes_before_averaging(self):
        m = model(ceiling=10.0)
        samples = [QoeSample(1.0, 1.0), QoeSample(math.inf, 0.5)]
        dmean, tmean = mean_statistics(m, samples)
        assert dmean == pytest.approx(5.5, abs=1e-12)
        assert tmean == pytest.approx(0.75, abs=1e-12)


class TestProbedGradient:
    def test_exact_on_quadratic(self):
        # linear hinge of (1 + |s|^2) against tau=1 is quadratic in s
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([0.6]), np.array([0.3]))
        g = probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=1)
        assert g == pytest.approx([1.2, 0.6], abs=1e-10)

    def test_constant_oracle_gives_zero(self):
        const = lambda vec, seed=None: QoeSample(3.0, 1.0)
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        g = probed_gradient(m, const, point, delta=0.1, probes=3)
        assert np.all(g == 0.0)

    def test_boundary_switches_to_one_sided(self):
        # at (1, 0) both coordinates clamp; hand-computed one-sided quotients
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([1.0]), np.array([0.0]))
        g = probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=1)
        assert g[0] == pytest.approx((1.0 - 0.81) / 0.1, abs=1e-10)  # 1.9
        assert g[1] == pytest.approx(0.01 / 0.1, abs=1e-10)          # 0.1

    def test_stochastic_oracle_within_monte_carlo_tolerance(self):
        m = model(tau=0.05, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([0.5]), np.array([0.4]))

        def noisy(vec, seed):
            s = vec.stacked()
            noise = np.random.default_rng(seed).normal(0.0, 0.01)
            return QoeSample(max(0.0, 1.0 + float(s @ s) + noise), 1.0)

        g = probed_gradient(m, noisy, point, delta=0.25, probes=100, seed_base=17)
        assert g == pytest.approx([1.0, 0.8], abs=0.02)

    def test_halving_delta_quarters_the_error(self):
        # composite penalty 0.5 + sum(s^4): central-difference error is 4*x*d^2
        m = model(tau=0.5, a_tau=1.0, a_rho=0.0, p=1)
        quartic = lambda vec, seed=None: QoeSample(
            1.0 + float(np.sum(vec.stacked() ** 4)), 1.0)
        point = AllocationVector(np.array([0.5]), np.array([0.3]))
        truth = 4.0 * point.stacked() ** 3
        errs = []
        for delta in (0.2, 0.1):
            g = probed_gradient(m, quartic, point, delta=delta, probes=1)
            errs.append(np.linalg.norm(g - truth))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_statistics_averaged_before_the_hinge(self):
        # alternating delays 1 and 9 against tau=6: the per-point average (5)
        # violates nothing, so the gradient must be exactly zero
        m = model(tau=6.0, a_tau=1.0, a_rho=0.0, p=1)
        state = {"n": 0}

        def flip(vec, seed):
            state["n"] += 1
            return QoeSample(1.0 if state["n"] % 2 else 9.0, 1.0)

        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        g = probed_gradient(m, flip, point, delta=0.1, probes=2)
        assert np.all(g == 0.0)

    def test_degenerate_delta(self):
        m = model()
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        with pytest.raises(DegenerateDelta):
            probed_gradient(m, quadratic_oracle, point, delta=0.0, probes=1)
        with pytest.raises(ValueError, match="probes"):
            probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=0)

    def test_seed_base_shifts_every_probe_seed(self):
        seen = []
        probe = lambda vec, seed: (seen.append(seed),
                                   QoeSample(1.0, 1.0))[1]
        m = model()
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        probed_gradient(m, probe, point, delta=0.1, probes=2, seed_base=1)
        first = list(seen)
        seen.clear()
        probed_gradient(m, probe, point, delta=0.1, probes=2, seed_base=2)
        assert set(first).isdisjoint(seen)


class TestProbeMemory:
    def test_records_every_probe(self):
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        mem = ProbeMemory()
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=3,
                        memory=mem)
        assert len(mem) == 2 * 2 * 3  # dim * sides * probes
        pt, sample, seed = mem[0]
        assert isinstance(pt, AllocationVector)

    def test_replay_reproduces_samples(self):
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        mem = ProbeMemory()
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=2,
                        memory=mem)
        replays = lambda oracle: all(oracle(pt, seed) == sample
                                     for pt, sample, seed in mem)
        assert replays(quadratic_oracle)
        shifted = lambda vec, seed=None: QoeSample(
            2.0 + float(vec.stacked() @ vec.stacked()), 1.0)
        assert not replays(shifted)


class TestAnalyticGradient:
    def spec_topo(self):
        spec = SliceSpec(
            id="s", requirement=QoeRequirement(tau_ms=2.0, rho=0.999),
            alpha_tau=2.0, alpha_rho=2.0,
            traffic=TrafficModel(kind="poisson", mean_rate=100.0,
                                 size_min=1000, size_max=1000),
            demand_mi=5e4, priority_rank=0)
        topo = Topology(edges=(("e", 20.0),), cores=(("c", 3e8),))
        return spec, topo

    def composite(self, m, spec, topo, x):
        point = AllocationVector.from_stacked(x, 1)
        delay, tp, _, _ = analytic_parts(spec, point, topo)
        return penalty_at(m, delay, tp)

    def test_matches_numeric_gradient_when_delay_hinge_active(self):
        spec, topo = self.spec_topo()
        m = PenaltyModel.for_slice(spec, exponent=2)
        # tight allocation: stable but above the 2 ms bound
        point = AllocationVector(np.array([0.06]), np.array([0.03]))
        g = analytic_gradient(m, spec, point, topo)
        h = 1e-7
        for d in range(2):
            up, dn = point.stacked(), point.stacked()
            up[d] += h
            dn[d] -= h
            num = (self.composite(m, spec, topo, up)
                   - self.composite(m, spec, topo, dn)) / (2 * h)
            assert g[d] == pytest.approx(num, rel=1e-5)
        assert np.all(g < 0)  # more resources always reduce this penalty

    def test_flat_delay_term_at_the_ceiling(self):
        spec, topo = self.spec_topo()
        m = PenaltyModel.for_slice(spec, exponent=2)
        # starved server: unstable, delay unbounded, throughput capped
        point = AllocationVector(np.array([0.06]), np.array([0.01]))
        delay, tp, _, d_tp = analytic_parts(spec, point, topo)
        assert math.isinf(delay)
        g = analytic_gradient(m, spec, point, topo)
        short = m.requirement.rho - tp
        want = m.alpha_rho * 2 * short * (-d_tp)
        assert g == pytest.approx(want, rel=1e-12)

    def test_zero_when_satisfied(self):
        spec, topo = self.spec_topo()
        m = PenaltyModel.for_slice(spec, exponent=2)
        point = AllocationVector(np.array([0.9]), np.array([0.9]))
        assert np.all(analytic_gradient(m, spec, point, topo) == 0.0)
