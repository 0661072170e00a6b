"""The M/M/1 reference the analytic gradient is checked against, and the
simulator-backed oracle functions."""
import dataclasses
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
from slicelab import oracle, simulator
from slicelab.domain import derive_seed
from slicelab.oracle import sim_evaluate, sim_evaluate_all

from reference_impls import mm1_delay_throughput


def spec_with(rate=100.0, demand=5e4, size=1000):
    return SliceSpec(
        id="s", requirement=QoeRequirement(tau_ms=10.0, rho=0.9),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(kind="poisson", mean_rate=rate,
                             size_min=size, size_max=size, size_dist="uniform"),
        demand_mi=demand, priority_rank=0,
    )


class TestAnalyticModel:
    """`mm1_delay_throughput`, the tests' M/M/1 model, on hand cases."""

    def test_two_stage_sojourn_sums(self):
        # both stage rates 1100 req/s against lambda=100: 1 ms each, 2 ms total
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),), buffer_pkts=100)
        phi = 1100.0 * 5e4 / 3e8
        point = AllocationVector(np.array([1.0]), np.array([phi]))
        delay, tp = mm1_delay_throughput(spec, point, topo)
        assert delay == pytest.approx(2.0, rel=1e-12)
        assert tp == 1.0

    def test_full_core_service_rates(self):
        topo = Topology(edges=(("e", 1e5),), cores=(("c", 3e8),), buffer_pkts=100)
        point = AllocationVector(np.array([1.0]), np.array([1.0]))
        for demand, want in ((5e4, 6000.0), (8e4, 3750.0)):
            spec = spec_with(demand=demand)
            delay, tp = mm1_delay_throughput(spec, point, topo)
            # back out mu_srv from the server sojourn after removing the link term
            mu_net = 1e5 * 1e6 / (8 * 1000)
            srv_sojourn_s = delay / 1000 - 1 / (mu_net - 100.0)
            assert 1 / srv_sojourn_s + 100.0 == pytest.approx(want, rel=1e-9)

    def test_saturated_server_is_unstable(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),), buffer_pkts=100)
        phi = 100.0 * 5e4 / 3e8  # mu_srv exactly lambda
        delay, tp = mm1_delay_throughput(
            spec, AllocationVector(np.array([1.0]), np.array([phi])), topo)
        assert math.isinf(delay)
        assert tp == 1.0  # mu/lambda = 1 caps at 1

    def test_bottleneck_caps_throughput(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 8.8),), cores=(("c", 3e8),), buffer_pkts=100)
        phi = 50.0 * 5e4 / 3e8  # server can only draw 50 req/s
        delay, tp = mm1_delay_throughput(
            spec, AllocationVector(np.array([1.0]), np.array([phi])), topo)
        assert math.isinf(delay)
        assert tp == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_every_coordinate(self):
        spec = spec_with(rate=100.0, demand=5e4)
        topo = Topology(edges=(("e", 20.0),), cores=(("c", 3e8),), buffer_pkts=100)
        # a stable base, and a saturated one whose server is the bottleneck
        for base in (AllocationVector(np.array([0.3]), np.array([0.2])),
                     AllocationVector(np.array([0.03]), np.array([0.01]))):
            d0, t0 = mm1_delay_throughput(spec, base, topo)
            for d in range(2):
                x = base.stacked()
                x[d] = min(1.0, x[d] + 0.1)
                d1, t1 = mm1_delay_throughput(spec, AllocationVector(x[:1], x[1:]), topo)
                assert d1 <= d0
                assert t1 >= t0


class TestOracles:
    def scenario(self):
        spec = spec_with(rate=200.0)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=100)
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.2]), np.array([0.3]))})
        return spec, topo, alloc

    def test_sim_oracle_deterministic(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        at = lambda seed: sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, seed, "max", {})
        assert at(5) == at(5)
        assert at(5) != at(6)

    def test_statistic_changes_the_reduction(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        mx = sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "max", {})
        mean = sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "mean", {})
        assert mx.delay_stat_ms > mean.delay_stat_ms

    def test_row_argument_probes_without_moving_the_matrix(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        probe = AllocationVector(np.array([0.9]), np.array([0.9]))
        got = sim_evaluate("s", probe, [spec], topo, cfg, 5, "max", {})
        direct = sim_evaluate_all(AllocationMatrix.from_rows({"s": probe}),
                                  [spec], topo, cfg, 5, "max")["s"]
        assert got == dataclasses.replace(direct, raw_delays_ms=None)
        assert got != sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "max", {})

    def test_memo_answers_a_repeated_probe_without_simulating(self, monkeypatch):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        seeds = []
        real = oracle.simulate_slice
        monkeypatch.setattr(oracle, "simulate_slice",
                            lambda *a: seeds.append(a[-2]) or real(*a))
        memo = {}
        at = lambda seed, row=alloc.row("s"): sim_evaluate("s", row, [spec], topo, cfg,
                                                          seed, "max", memo)
        first = at(5)
        assert at(5) is first
        at(6)
        at(5, AllocationVector(np.array([0.21]), np.array([0.3])))
        assert seeds == [5, 6, 5]
        assert first == sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "max", {})

    def test_one_stage_rates_call_per_miss_and_per_hit(self, monkeypatch):
        # the memo key and the simulated rates come from one computation
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        calls = []
        real = simulator.stage_rates
        counted = lambda *a: calls.append(a) or real(*a)
        monkeypatch.setattr(oracle, "stage_rates", counted)
        monkeypatch.setattr(simulator, "stage_rates", counted)
        memo = {}
        sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "max", memo)
        assert len(calls) == 1
        sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 5, "max", memo)
        assert len(calls) == 2

    def test_unknown_slice_names_it(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        with pytest.raises(KeyError, match="'nope'"):
            sim_evaluate("nope", alloc.row("s"), [spec], topo, cfg, 5, "max", {})

    def test_evaluate_all_keeps_raw_delays(self):
        spec, topo, alloc = self.scenario()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        samples = sim_evaluate_all(alloc, [spec], topo, cfg, 4, "max")
        assert samples["s"].raw_delays_ms is not None
        assert samples["s"].raw_delays_ms.size > 0
        one = sim_evaluate("s", alloc.row("s"), [spec], topo, cfg, 4, "max", {})
        assert samples["s"].delay_stat_ms == one.delay_stat_ms


class TestSeedDerivation:
    def test_deterministic_and_sensitive(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert derive_seed(0, 1) != derive_seed(1, 0)

    def test_parts_are_not_folded_modulo_2_32(self):
        assert derive_seed(2**32, 1) != derive_seed(0, 1)
        # every part below 2**32 keeps the seed it always had
        assert derive_seed(2**32 - 1, 9001, 3) == 1527336926
        assert derive_seed(0, 7001, 0) == 51449577

    def test_fits_in_uint64(self):
        s = derive_seed(123456789, 987654321, 42)
        assert 0 <= s < 2 ** 64

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_bad_part_is_named(self, bad):
        with pytest.raises(ValueError, match=f"seed must be a whole number >= 0, got {bad!r}"):
            derive_seed(bad, 9001, 0)

    def test_numpy_integers_are_seeds(self):
        assert derive_seed(np.int64(3), np.uint32(1)) == derive_seed(3, 1)

    @pytest.mark.parametrize("parts", [(0,), (0, 0), (2**32 - 1, 9001, 3), (5, 7001, 0),
                                       (2**32,), (2**32, 1), (2**40 + 3, 9001, 0),
                                       (2**64, 0, 2**32 - 1)])
    def test_equals_the_list_form_seed_sequence(self, parts):
        want = np.random.SeedSequence(list(parts)).generate_state(1, np.uint32)[0]
        assert derive_seed(*parts) == int(want)
