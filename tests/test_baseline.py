"""Mean-delay sizing, its failure flags, and the simulation audit."""
import math
from dataclasses import replace

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
    audit_allocation,
    reference_scenario,
    run_sim,
    size_all,
)
from slicelab.baseline import mm1_demand, pool_audits

from reference_impls import mm1_delay_throughput


def make_spec(sid="s", tau=2.0, rho=0.5, rate=100.0, size=1000,
              demand=5e4, rank=0):
    return SliceSpec(
        id=sid, requirement=QoeRequirement(tau, rho),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(kind="poisson", mean_rate=rate,
                             size_min=size, size_max=size, size_dist="uniform"),
        demand_mi=demand, priority_rank=rank)


def one_link(bw_mbps, mips=3e8):
    return Topology(edges=(("link", bw_mbps),), cores=(("core", mips),), buffer_pkts=100)


class TestMm1Demand:
    def test_hand_sized_fractions(self):
        # tau 2 ms split in half -> each stage gets mu = 100 + 1/1ms = 1100/s;
        # 1100 pkt/s of 1000 B needs exactly all of an 8.8 Mbps link, and
        # 1100 req/s of 5e4 instructions needs 5.5e7 of 3e8 per second
        vec, infeasible = mm1_demand(make_spec(), one_link(8.8))
        assert vec.flows[0] == pytest.approx(1.0, abs=1e-12)
        assert vec.cpu[0] == pytest.approx(5.5e7 / 3e8, rel=1e-12)
        assert not infeasible

    def test_sizing_meets_the_target_exactly(self):
        # by construction the analytic mean at the sized point is tau
        topo = one_link(40.0)
        for tau, rate, demand in [(2.0, 100.0, 5e4), (7.5, 340.0, 2e4),
                                  (0.8, 55.0, 9e4)]:
            spec = make_spec(tau=tau, rate=rate, demand=demand)
            vec, infeasible = mm1_demand(spec, topo)
            assert not infeasible
            delay, tp = mm1_delay_throughput(spec, vec, topo)
            assert delay == pytest.approx(tau, abs=1e-9)
            assert tp == 1.0

    def test_unbounded_delay_sizes_for_stability(self):
        spec = make_spec(tau=math.inf)
        vec, infeasible = mm1_demand(spec, one_link(40.0))
        assert vec.flows[0] == pytest.approx(110 * 8000 / 40e6, rel=1e-12)
        assert vec.cpu[0] == pytest.approx(110 * 5e4 / 3e8, rel=1e-12)
        assert not infeasible

    def test_overrun_clamps_and_flags(self):
        vec, infeasible = mm1_demand(make_spec(), one_link(4.4))
        assert infeasible
        assert vec.flows[0] == 1.0


class TestSizeAll:
    def test_rows_stack_into_a_matrix(self):
        slices = (make_spec("a"), make_spec("b", tau=4.0, rate=50.0, rank=1))
        alloc, flags = size_all(slices, one_link(100.0))
        assert alloc.slice_ids == ("a", "b")
        assert flags == {"a": False, "b": False}
        va, _ = mm1_demand(slices[0], one_link(100.0))
        assert alloc.row("a") == va

    def test_joint_overrun_scales_back_and_flags(self):
        # each slice alone fits (0.88) but together they want 1.76 links
        slices = (make_spec("a"), make_spec("b", rank=1))
        alloc, flags = size_all(slices, one_link(10.0))
        assert flags == {"a": True, "b": True}
        # the column that fits is left alone
        assert np.array_equal(alloc.row("a").cpu, mm1_demand(slices[0], one_link(10.0))[0].cpu)

    def test_clamped_variant_scales_back(self):
        slices = (make_spec("a"), make_spec("b", rank=1))
        alloc, flags = size_all(slices, one_link(10.0))
        assert alloc.flows.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-12)
        assert flags == {"a": True, "b": True}
        # proportions survive the scaling
        assert alloc.row("a").flows[0] == pytest.approx(alloc.row("b").flows[0])


class TestAudit:
    def setup_method(self):
        self.slices = (make_spec("a", tau=5.0, rate=200.0),
                       make_spec("b", tau=50.0, rate=100.0, rank=1))
        self.topo = one_link(40.0)
        self.alloc = AllocationMatrix.from_rows({
            "a": AllocationVector(np.array([0.5]), np.array([0.4])),
            "b": AllocationVector(np.array([0.3]), np.array([0.3])),
        })
        self.cfg = SimConfig(horizon_s=1.0, warmup_s=0.1, propagation_ms=0.1)

    def test_report_shape_and_ranges(self):
        report = audit_allocation(self.slices, self.topo, self.alloc,
                                  self.cfg, seeds=[0, 1])
        assert set(report) == {"a", "b"}
        for audit in report.values():
            assert 0.0 <= audit.violation_fraction <= 1.0
            assert 0.0 <= audit.throughput <= 1.0
            assert audit.success <= audit.offered
            assert audit.delays_ms.size == audit.success
            assert audit.delays_ms.size != 0

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_seed_is_named(self, bad):
        with pytest.raises(ValueError, match=f"seed must be a whole number >= 0, got {bad!r}"):
            audit_allocation(self.slices, self.topo, self.alloc, self.cfg, seeds=[0, bad])

    def test_pooling_over_seeds(self):
        single = {s: audit_allocation(self.slices, self.topo, self.alloc,
                                      self.cfg, seeds=[s]) for s in (0, 1)}
        pooled = audit_allocation(self.slices, self.topo, self.alloc,
                                  self.cfg, seeds=[0, 1])
        for sid in ("a", "b"):
            assert pooled[sid].offered == sum(single[s][sid].offered
                                              for s in (0, 1))
            assert pooled[sid].success == sum(single[s][sid].success
                                              for s in (0, 1))
        # per-seed reports pool to the same report, field for field
        repooled = pool_audits(self.slices, [single[0], single[1]])
        for sid in ("a", "b"):
            a, b = repooled[sid], pooled[sid]
            assert np.array_equal(a.delays_ms, b.delays_ms)
            assert replace(a, delays_ms=None) == replace(b, delays_ms=None)

    def test_a_single_run_is_pooled_as_it_is(self):
        run = run_sim(self.slices, self.topo, self.alloc, self.cfg, seed=0)
        report = pool_audits(self.slices, [run])
        for spec in self.slices:
            audit, delays = report[spec.id], run[spec.id].delays_ms
            assert audit.delays_ms is delays
            # a plain float, as np.mean gave: audits pickle byte for byte
            assert type(audit.violation_fraction) is float
            assert audit.violation_fraction == float(np.mean(delays > spec.requirement.tau_ms))

    def test_deterministic(self):
        r1 = audit_allocation(self.slices, self.topo, self.alloc, self.cfg,
                              seeds=[3])
        r2 = audit_allocation(self.slices, self.topo, self.alloc, self.cfg,
                              seeds=[3])
        for sid in r1:
            assert np.array_equal(r1[sid].delays_ms, r2[sid].delays_ms)

    def test_starved_slice_is_empty(self):
        # a zero link share strands every request of slice a: it served
        # nothing, so it is not scored as never late
        alloc = AllocationMatrix.from_rows({
            "a": AllocationVector(np.array([0.0]), np.array([0.4])),
            "b": AllocationVector(np.array([0.3]), np.array([0.3])),
        })
        report = audit_allocation(self.slices, self.topo, alloc, self.cfg,
                                  seeds=[0, 1])
        a = report["a"]
        assert a.delays_ms.size == 0
        assert math.isnan(a.violation_fraction)
        assert math.isnan(a.mean_delay_ms) and math.isnan(a.max_delay_ms)
        assert a.throughput == 0.0
        assert report["b"].offered > 0 and report["b"].delays_ms.size != 0

    def test_unbounded_slice_never_violates(self):
        slices = (make_spec("a", tau=math.inf, rate=500.0),)
        alloc = AllocationMatrix.from_rows(
            {"a": AllocationVector(np.array([0.2]), np.array([0.2]))})
        report = audit_allocation(slices, self.topo, alloc, self.cfg,
                                  seeds=[0])
        assert report["a"].violation_fraction == 0.0


class TestEvaluateBaseline:
    def test_reference_scenario_sizes_strictly(self):
        sc = reference_scenario()
        cfg = SimConfig(horizon_s=2.0, warmup_s=0.2,
                        propagation_ms=sc.sim.propagation_ms)
        alloc, flags = size_all(sc.slices, sc.topology)
        report = audit_allocation(sc.slices, sc.topology, alloc, cfg, seeds=[0])
        assert set(flags.values()) == {False}
        assert alloc.flows.sum(axis=0).max() <= 1.0 + 1e-9
        assert alloc.cpu.sum(axis=0).max() <= 1.0 + 1e-9
        assert set(report) == {s.id for s in sc.slices}

    def test_a_joint_overrun_is_audited_clamped(self):
        slices = (make_spec("a"), make_spec("b", rank=1))
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.1, propagation_ms=0.1)
        topo = one_link(10.0)
        alloc, flags = size_all(slices, topo)
        report = audit_allocation(slices, topo, alloc, cfg, seeds=[0])
        assert flags == {"a": True, "b": True}
        assert alloc.flows.sum(axis=0)[0] == pytest.approx(1.0, abs=1e-12)
        assert set(report) == {"a", "b"}
