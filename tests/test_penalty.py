"""Hinge penalties, probed and analytic gradients."""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicelab import (
    UNBOUNDED,
    AllocationVector,
    InvariantViolation,
    QoeRequirement,
    SliceSpec,
    Topology,
    TrafficModel,
    run_osra,
)
from slicelab.domain import CAPACITY_TOL, QoeSample, derive_seed
from slicelab.oracle import sim_evaluate
from slicelab.osra import new_slice_and_donors
from slicelab.penalty import (
    PenaltyModel,
    analytic_gradient,
    hinge,
    probed_gradient,
)

from conftest import make_tiny_scenario
from reference_impls import many_repetition_gradient, mean_hinge, mm1_delay_throughput


def model(tau=5.0, rho=0.9, a_tau=1.0, a_rho=1.0, p=2, ceiling=1e4):
    return PenaltyModel(QoeRequirement(tau_ms=tau, rho=rho), a_tau, a_rho,
                        exponent=p, delay_ceiling_ms=ceiling)


def penalty_at(m, delay, tp):
    return hinge(m, delay, tp)[0]


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
        m = PenaltyModel(QoeRequirement(UNBOUNDED, 0.5), 3.0, 1.0, 2, 1e4)
        assert penalty_at(m, math.inf, 0.6) == 0.0
        assert penalty_at(m, math.inf, 0.4) == pytest.approx(0.01, abs=1e-12)

    def test_penalty_reads_the_sample(self):
        # each penalty run_osra records is the hinge at that slice's sample,
        # under the run's exponent and delay ceiling
        sc = make_tiny_scenario(max_iters=2, tau_new=1.0)
        result = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                          sc.new_slice_id, sc.osra, seed=0)
        for trace in result.traces:
            for spec in sc.slices:
                m = PenaltyModel(spec.requirement, spec.alpha_tau, spec.alpha_rho,
                                 sc.osra.penalty_exponent, sc.osra.delay_ceiling_ms)
                s = trace.samples[spec.id]
                assert trace.penalties[spec.id] == hinge(m, s.delay_stat_ms, s.throughput)[0]
        assert any(trace.penalties["new"] > 0 for trace in result.traces)

    def test_kink_has_zero_penalty(self):
        m = model(tau=5.0, rho=0.9)
        assert penalty_at(m, 5.0, 0.9) == 0.0

    def test_exponent_validation(self):
        for p in (3, 0, 1.5, True):
            with pytest.raises(InvariantViolation, match=re.escape(
                    f"exponent must be a whole number in [1, 2], got {p!r}")):
                model(p=p)
        assert type(model(p=2.0).exponent) is int

    def test_nonfinite_weights_name_both_fields(self):
        with pytest.raises(InvariantViolation) as exc:
            PenaltyModel(QoeRequirement(5.0, 0.9), math.nan, math.inf, 2, 1e4)
        assert [field for field, _ in exc.value.violations] == ["alpha_tau", "alpha_rho"]
        assert str(exc.value) == ("alpha_tau must be in [0, inf), got nan; "
                                  "alpha_rho must be in [0, inf), got inf")

    @pytest.mark.parametrize("ceiling", [0.0, -1.0, math.inf, math.nan])
    def test_delay_ceiling_positive_and_finite(self, ceiling):
        with pytest.raises(InvariantViolation, match=r"delay_ceiling_ms must be in \(0, inf\)"):
            model(ceiling=ceiling)


class TestDelayCeiling:
    # linear delay hinge from tau=1 with unit weight: the penalty is the
    # delay the hinge reads, less 1
    def ceiling_model(self, ceiling):
        return model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1, ceiling=ceiling)

    def test_nonfinite_maps_to_ceiling(self):
        assert hinge(self.ceiling_model(250.0), math.inf, 1.0) == (249.0, 0.0, 0.0)

    def test_huge_but_finite_is_capped(self):
        assert hinge(self.ceiling_model(250.0), 3e5, 1.0) == (249.0, 0.0, 0.0)

    def test_ordinary_delay_passes_through(self):
        assert hinge(self.ceiling_model(250.0), 7.5, 1.0) == (6.5, 1.0, 0.0)

    def test_mean_statistics_substitutes_before_averaging(self):
        m = model(tau=1.0, rho=1.0, a_tau=1.0, a_rho=1.0, p=1, ceiling=10.0)
        value, d_delay, d_tp = hinge(m, [1.0, math.inf], [1.0, 0.5])
        # mean delay 5.5 is 4.5 over tau; mean throughput 0.75 is 0.25 short
        assert value == pytest.approx(4.5 + 0.25, abs=1e-12)
        assert (d_delay, d_tp) == (1.0, -1.0)


def bits(values):
    """The bytes of a tuple of floats: equal iff every float is equal to the bit."""
    return np.array(values, dtype=float).tobytes()


# delays as the hinge may see them: the edges of its rules drawn often
HINGE_CEILING = 250.0
DELAYS = st.floats(0.0, 1e6) | st.sampled_from([0.0, HINGE_CEILING, math.inf, math.nan])


class TestHingeAgainstMean:
    """`hinge` averages by np.add.reduce over the array, np.mean's arithmetic."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("delay, tp", [(0.0, 1.0), (7.5, 0.5), (HINGE_CEILING, 0.0),
                                           (math.inf, 1.0), (math.nan, 0.95), (3e5, 0.25)])
    def test_scalars(self, delay, tp, p):
        m = model(tau=1.0, rho=0.9, p=p, ceiling=HINGE_CEILING)
        assert bits(hinge(m, delay, tp)) == bits(mean_hinge(m, delay, tp))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(DELAYS, st.floats(0.0, 1.0)), min_size=1, max_size=20),
           st.sampled_from([1, 2]))
    @example([(0.1, 1.0), (0.2, 1.0), (0.3, 0.5)], 2)
    @example([(math.nan, 0.0), (math.inf, 1.0), (HINGE_CEILING, 1.0), (0.0, 0.3)], 1)
    def test_lists(self, pairs, p):
        m = model(tau=1.0, rho=0.9, p=p, ceiling=HINGE_CEILING)
        delays, tps = [d for d, _ in pairs], [t for _, t in pairs]
        assert bits(hinge(m, delays, tps)) == bits(mean_hinge(m, delays, tps))


# every entry AllocationVector admits, both edges included
ENTRIES = st.floats(-CAPACITY_TOL, 1 + CAPACITY_TOL)


def recording_oracle(rows):
    """quadratic_oracle, appending each probe point's stacked row to `rows`."""
    def oracle(vec, seed):
        rows.append(vec.stacked())
        return quadratic_oracle(vec, seed)
    return oracle


class TestProbedGradient:
    def test_exact_on_quadratic(self):
        # linear hinge of (1 + |s|^2) against tau=1 is quadratic in s
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([0.6]), np.array([0.3]))
        g = probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=1, seed_base=0)
        assert g == pytest.approx([1.2, 0.6], abs=1e-10)

    def test_constant_oracle_gives_zero(self):
        const = lambda vec, seed=None: QoeSample(3.0, 1.0)
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        g = probed_gradient(m, const, point, delta=0.1, probes=3, seed_base=0)
        assert np.all(g == 0.0)

    def test_boundary_switches_to_one_sided(self):
        # at (1, 0) both coordinates clamp; hand-computed one-sided quotients
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        point = AllocationVector(np.array([1.0]), np.array([0.0]))
        g = probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=1, seed_base=0)
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
            g = probed_gradient(m, quartic, point, delta=delta, probes=1, seed_base=0)
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
        g = probed_gradient(m, flip, point, delta=0.1, probes=2, seed_base=0)
        assert np.all(g == 0.0)

    def test_degenerate_delta(self):
        m = model()
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        with pytest.raises(InvariantViolation, match=r"delta must be in \(1e-09, inf\), got 0.0"):
            probed_gradient(m, quadratic_oracle, point, delta=0.0, probes=1, seed_base=0)
        with pytest.raises(ValueError, match="probes"):
            probed_gradient(m, quadratic_oracle, point, delta=0.1, probes=0, seed_base=0)

    @pytest.mark.parametrize("field, delta, probes", [
        ("delta", None, 1), ("delta", 1e-20, 1), ("delta", math.inf, 1),
        ("probes", 0.1, "3"), ("probes", 0.1, 2.5), ("probes", 0.1, True),
    ])
    def test_probe_knobs_name_their_field(self, field, delta, probes):
        # the bounds OsraConfig puts on the same two knobs
        point = AllocationVector(np.array([0.5]), np.array([0.5]))
        with pytest.raises(InvariantViolation) as exc:
            probed_gradient(model(), quadratic_oracle, point, delta=delta, probes=probes,
                            seed_base=0)
        assert [f for f, _ in exc.value.violations] == [field]

    @pytest.mark.parametrize("probes", [2.0, pytest.param(np.float64(2.0), id="np.float64(2.0)")])
    def test_whole_float_probes_is_used_as_its_int(self, probes):
        # the oracle reads its seed, so each repetition must see the int call's
        point = AllocationVector(np.array([0.5]), np.array([0.4]))
        oracle = lambda vec, seed: QoeSample(1.0 + float(vec.stacked().sum()) + seed % 7, 1.0)
        want = probed_gradient(model(), oracle, point, delta=0.1, probes=2, seed_base=5)
        got = probed_gradient(model(), oracle, point, delta=0.1, probes=probes, seed_base=5)
        assert got.tobytes() == want.tobytes()

    def test_point_just_past_the_box_gets_a_one_sided_quotient(self):
        # an entry one CAPACITY_TOL above 1 and a delta just wider than it:
        # unclipped, the lower probe point would round onto the upper one
        rows = []
        point = AllocationVector(np.array([1 + 1e-9]), np.array([0.5]))
        g = probed_gradient(model(), recording_oracle(rows), point,
                            delta=np.nextafter(1e-9, 1.0), probes=3, seed_base=0)
        assert np.isfinite(g).all()
        assert len(rows) == 2 * 2 * 3
        assert all(row.min() >= 0.0 and row.max() <= 1.0 for row in rows)

    @settings(max_examples=200, deadline=None)
    @given(flows=st.lists(ENTRIES, min_size=1, max_size=3),
           cpu=st.lists(ENTRIES, min_size=1, max_size=3),
           delta=st.floats(CAPACITY_TOL, 2.0, exclude_min=True),
           probes=st.integers(1, 2))
    @example(flows=[1 + CAPACITY_TOL], cpu=[-CAPACITY_TOL],
             delta=float(np.nextafter(CAPACITY_TOL, 1.0)), probes=1)
    def test_every_admitted_point_and_delta_probe_inside_the_box(self, flows, cpu, delta,
                                                                  probes):
        rows = []
        point = AllocationVector(np.array(flows), np.array(cpu))
        m = model(tau=1.0, a_tau=1.0, a_rho=0.0, p=1)
        g = probed_gradient(m, recording_oracle(rows), point, delta=delta, probes=probes,
                            seed_base=0)
        assert np.isfinite(g).all()
        assert len(rows) == 2 * (len(flows) + len(cpu)) * probes
        assert all(row.min() >= 0.0 and row.max() <= 1.0 for row in rows)

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


# a derive_seed namespace of this file's own: run_osra seeds from 9001 and 7001
FIDELITY_SEEDS = 5003


class TestProbedGradientFidelity:
    """The estimator as run_osra runs it, graded against a slow reference.

    The acceptance gate passes with 1 repetition in place of the shipped 10,
    so this is the check that tells the estimators apart. At iterates 2, 4
    and 6 of reference seeds 0 and 1, 8 estimates at the shipped `probes`,
    each with its own seed base, are compared with a 200-repetition one.
    """

    def test_shipped_probes_track_the_reference(self, reference_sweep):
        sc, results, _ = reference_sweep
        new, cfg = new_slice_and_donors(sc.slices, sc.new_slice_id)[0], sc.osra
        m = PenaltyModel(new.requirement, new.alpha_tau, new.alpha_rho,
                         cfg.penalty_exponent, cfg.delay_ceiling_ms)
        norm = np.linalg.norm

        def estimate(row, seed_base):
            memo = {}
            oracle = lambda point, seed: sim_evaluate(
                new.id, point, sc.slices, sc.topology, sc.sim, seed, cfg.statistic, memo=memo)
            return probed_gradient(m, oracle, row, cfg.delta, cfg.probes, seed_base=seed_base)

        cosines, median_errors = [], []
        for seed in (0, 1):
            for k in (2, 4, 6):
                row = results[seed].traces[k].alloc.row(new.id)
                ref, se = many_repetition_gradient(
                    m, new.id, row, sc.slices, sc.topology, sc.sim, cfg.statistic,
                    cfg.delta, seed_base=derive_seed(seed, FIDELITY_SEEDS, k, 0))
                # the reference's own noise is well inside the tolerance below
                assert norm(se) <= 0.05 * norm(ref), (seed, k)
                estimates = [estimate(row, derive_seed(seed, FIDELITY_SEEDS, k, i))
                             for i in range(1, 9)]
                cosines += [g @ ref / (norm(g) * norm(ref)) for g in estimates]
                median_errors.append(np.median([norm(g - ref) / norm(ref) for g in estimates]))
        assert min(cosines) >= 0.99
        assert max(median_errors) <= 0.25


# TestAnalyticGradient's points: (topology fields, flows, cpu, exponent,
# ceiling). On the one 20 Mbps edge and one 3e8 MIPS core, the slice's edge
# serves 2500 f and its server 6000 c requests/s against lambda = 100. A
# saturated point's delay enters at a 50 ms ceiling: under 1e4 its flat term,
# 2e8, would drown a difference quotient of the throughput term in round-off.
TWO_BY_TWO = dict(edges=(("e1", 20.0), ("e2", 30.0)), cores=(("c1", 3e8), ("c2", 2e8)))
GRADIENT_POINTS = {
    # stable at 32.5 ms against the 2 ms bound
    "delay-p1": ({}, (0.06,), (0.03,), 1, 1e4),
    "delay-p2": ({}, (0.06,), (0.03,), 2, 1e4),
    "saturated-server": ({}, (0.06,), (0.01,), 2, 50.0),
    "saturated-edge": ({}, (0.03,), (0.9,), 2, 50.0),
    # both stages at exactly 39.0625 requests/s
    "tie": ({}, (0.015625,), (39.0625 * 5e4 / 3e8,), 2, 50.0),
    "satisfied": ({}, (0.9,), (0.9,), 2, 1e4),
    "ceiling-below-delay": ({}, (0.06,), (0.03,), 2, 20.0),
    # edges at 250 and 300, the server at 240 and at 70 requests/s
    "2x2-delay": (TWO_BY_TWO, (0.1, 0.08), (0.02, 0.03), 2, 1e4),
    "2x2-saturated-server": (TWO_BY_TWO, (0.1, 0.08), (0.005, 0.01), 1, 50.0),
}
# the gradient at each point as float.hex(), signs included: no golden pin
# reads a nonzero donor gradient of the reference sweep, so a change that
# means to move these updates them and states the drift
GRADIENT_BITS = {
    "delay-p1": ["-0x1.f400000000000p+10", "-0x1.d4c0000000000p+10"],
    "delay-p2": ["-0x1.dc90000000000p+16", "-0x1.bec7000000000p+16"],
    "saturated-server": ["0x0.0p+0", "-0x1.7f0a3d70a3d71p+6"],
    "saturated-edge": ["-0x1.8e66666666666p+4", "0x0.0p+0"],
    "tie": ["-0x1.e6b3333333333p+5", "0x0.0p+0"],
    "satisfied": ["0x0.0p+0", "0x0.0p+0"],
    "ceiling-below-delay": ["0x0.0p+0", "0x0.0p+0"],
    "2x2-delay": ["-0x1.d2ee643b990efp+12", "-0x1.89f9249249249p+12",
                  "-0x1.419c5c8c509b4p+14", "-0x1.acd07b65c0cf0p+13"],
    "2x2-saturated-server": ["0x0.0p+0", "0x0.0p+0", "-0x1.e000000000000p+6",
                             "-0x1.4000000000000p+6"],
}


class TestAnalyticGradient:
    """`analytic_gradient` against difference quotients of the hinge on the
    tests' M/M/1 model, `mm1_delay_throughput`, in both regimes, and bit for
    bit at GRADIENT_POINTS."""

    def spec_topo(self, edges=(("e", 20.0),), cores=(("c", 3e8),)):
        spec = SliceSpec(
            id="s", requirement=QoeRequirement(tau_ms=2.0, rho=0.999),
            alpha_tau=2.0, alpha_rho=2.0,
            traffic=TrafficModel(kind="poisson", mean_rate=100.0,
                                 size_min=1000, size_max=1000, size_dist="uniform"),
            demand_mi=5e4, priority_rank=0)
        return spec, Topology(edges=edges, cores=cores, buffer_pkts=100)

    def at(self, name):
        """(model, spec, point, topology) at GRADIENT_POINTS[name]."""
        fields, flows, cpu, exponent, ceiling = GRADIENT_POINTS[name]
        spec, topo = self.spec_topo(**fields)
        m = PenaltyModel(spec.requirement, spec.alpha_tau, spec.alpha_rho, exponent, ceiling)
        return m, spec, AllocationVector(np.array(flows), np.array(cpu)), topo

    def quotient(self, m, spec, point, topo, d, side, h=1e-7):
        """The hinge on the reference, differenced along coordinate d:
        central (side 0), forward (+1) or backward (-1)."""
        up, dn = point.stacked(), point.stacked()
        up[d] += h * (side >= 0)
        dn[d] -= h * (side <= 0)
        n = point.flows.size
        pen = [penalty_at(m, *mm1_delay_throughput(
            spec, AllocationVector(x[:n], x[n:]), topo)) for x in (up, dn)]
        return (pen[0] - pen[1]) / (up[d] - dn[d])

    def test_matches_numeric_gradient_when_delay_hinge_active(self):
        # tight allocations: stable but above the 2 ms bound
        for name in ("delay-p1", "delay-p2", "2x2-delay"):
            m, spec, point, topo = self.at(name)
            g = analytic_gradient(m, spec, point, topo)
            for d in range(g.size):
                assert g[d] == pytest.approx(self.quotient(m, spec, point, topo, d, 0),
                                             rel=1e-5), (name, d)
            assert np.all(g < 0)  # more resources always reduce this penalty

    @pytest.mark.parametrize("name, sides", [
        ("saturated-server", (0, 0)), ("saturated-edge", (0, 0)),
        ("2x2-saturated-server", (0, 0, 0, 0)),
        # a tie goes to the edge: the quotients are taken where it is the
        # strict bottleneck, its own share lowered or the server's raised
        ("tie", (-1, 1)),
    ])
    def test_matches_numeric_gradient_when_saturated(self, name, sides):
        m, spec, point, topo = self.at(name)
        assert math.isinf(mm1_delay_throughput(spec, point, topo)[0])
        g = analytic_gradient(m, spec, point, topo)
        want = [self.quotient(m, spec, point, topo, d, side) for d, side in enumerate(sides)]
        assert g == pytest.approx(want, rel=1e-5)
        assert np.count_nonzero(g) == (2 if name.startswith("2x2") else 1)

    def test_flat_delay_term_at_the_ceiling(self):
        # starved server: the delay enters at the ceiling, so only its
        # throughput, 6000 c / 100, slopes
        m, spec, point, topo = self.at("saturated-server")
        delay, tp = mm1_delay_throughput(spec, point, topo)
        assert math.isinf(delay)
        g = analytic_gradient(m, spec, point, topo)
        short = m.requirement.rho - tp
        assert g == pytest.approx(m.alpha_rho * 2 * short * -np.array([0.0, 60.0]), rel=1e-12)

        # stable, with a finite 32.5 ms delay above a 20 ms ceiling; under the
        # 1e4 ceiling the same point has a negative gradient
        low, spec, point, topo = self.at("ceiling-below-delay")
        delay, tp = mm1_delay_throughput(spec, point, topo)
        assert delay == pytest.approx(32.5) and tp == 1.0
        assert np.all(analytic_gradient(*self.at("delay-p2")) < 0)
        g = analytic_gradient(low, spec, point, topo)
        assert g.tolist() == [0.0, 0.0] and not np.signbit(g).any()
        assert penalty_at(low, delay, tp) == 2.0 * (20.0 - 2.0) ** 2

    def test_zero_when_satisfied(self):
        g = analytic_gradient(*self.at("satisfied"))
        assert g.tolist() == [0.0, 0.0] and not np.signbit(g).any()

    @pytest.mark.parametrize("name", GRADIENT_POINTS)
    def test_pinned_bit_for_bit(self, name):
        assert [v.hex() for v in analytic_gradient(*self.at(name))] == GRADIENT_BITS[name]
