"""Domain type invariants, validation messages, and value semantics."""
import dataclasses
import math
import pickle

import numpy as np
import pytest

from slicelab import (
    UNBOUNDED,
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    OsraConfig,
    QoeRequirement,
    ScenarioConfig,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
)
from slicelab.domain import QoeSample


def make_slice(sid="s1", tau=5.0, rho=0.9, rank=0, **traffic_kw):
    traffic = dict(kind="poisson", mean_rate=100.0)
    traffic.update(traffic_kw)
    return SliceSpec(
        id=sid,
        requirement=QoeRequirement(tau_ms=tau, rho=rho),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(**traffic),
        demand_mi=5e4, priority_rank=rank,
    )


class TestQoeRequirement:
    def test_valid(self):
        r = QoeRequirement(tau_ms=2.0, rho=0.999)
        assert r.bounded

    def test_unbounded_tau(self):
        r = QoeRequirement(tau_ms=UNBOUNDED, rho=1.0)
        assert not r.bounded
        assert math.isinf(r.tau_ms)

    def test_rho_out_of_range(self):
        with pytest.raises(InvariantViolation, match=r"rho out of \[0,1\]"):
            QoeRequirement(tau_ms=2.0, rho=1.3)

    def test_nonpositive_tau(self):
        with pytest.raises(InvariantViolation, match="tau must be > 0"):
            QoeRequirement(tau_ms=0.0, rho=0.5)


class TestTrafficModel:
    def test_mean_size_is_uniform_midpoint(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0, size_min=20, size_max=65535)
        assert tm.mean_size_bytes() == (20 + 65535) / 2.0

    def test_exponential_mean_size(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0, size_dist="exponential",
                          size_mean=1000.0)
        assert tm.mean_size_bytes() == 1000.0

    def test_intra_burst_gap(self):
        # cycle = burst_len*gap + off  =>  gap = 1/rate - off/burst_len
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0)
        assert tm.intra_burst_gap_s() == pytest.approx(1 / 200 - 0.038 / 8, abs=1e-15)

    def test_gap_undefined_for_poisson(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0)
        with pytest.raises(ValueError):
            tm.intra_burst_gap_s()

    def test_unknown_kind(self):
        with pytest.raises(InvariantViolation, match="unknown traffic kind"):
            TrafficModel(kind="constant", mean_rate=10.0)

    def test_bursty_needs_burst_fields(self):
        with pytest.raises(InvariantViolation, match="burst_len"):
            TrafficModel(kind="bursty-onoff", mean_rate=10.0, off_time_ms=5.0)

    def test_rate_beyond_burst_envelope(self):
        # 8-packet bursts every 38 ms cannot average more than 210.5 req/s
        with pytest.raises(InvariantViolation, match="burst envelope"):
            TrafficModel(kind="bursty-onoff", mean_rate=250.0, burst_len=8.0,
                         off_time_ms=38.0)

    def test_size_bounds(self):
        with pytest.raises(InvariantViolation, match="size_min"):
            TrafficModel(kind="poisson", mean_rate=10.0, size_min=100, size_max=50)


class TestSliceSpec:
    def test_negative_alpha(self):
        with pytest.raises(InvariantViolation, match="alpha weights"):
            SliceSpec(id="x", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=-1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0),
                      demand_mi=1e4, priority_rank=0)

    def test_nonpositive_demand(self):
        with pytest.raises(InvariantViolation, match="demand_mi"):
            SliceSpec(id="x", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0),
                      demand_mi=0.0, priority_rank=0)

    def test_errors_name_the_slice(self):
        with pytest.raises(InvariantViolation, match="slice bad:"):
            SliceSpec(id="bad", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=1.0, alpha_rho=-0.5,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0),
                      demand_mi=1e4, priority_rank=0)


class TestTopology:
    def test_unit_conversions(self):
        t = Topology(edges=(("link", 2500.0),), cores=(("c0", 3e8), ("c1", 3e8)))
        assert t.n_edges == 1 and t.n_cores == 2
        assert t.edge_bps() == pytest.approx([2.5e9])
        assert t.core_mips() == pytest.approx([3e8, 3e8])

    def test_needs_an_edge_and_a_core(self):
        with pytest.raises(InvariantViolation, match="at least one edge"):
            Topology(edges=(), cores=(("c", 1e8),))
        with pytest.raises(InvariantViolation, match="at least one core"):
            Topology(edges=(("e", 10.0),), cores=())

    def test_nonpositive_capacity(self):
        with pytest.raises(InvariantViolation, match="capacity must be > 0"):
            Topology(edges=(("e", 0.0),), cores=(("c", 1e8),))

    def test_duplicate_ids(self):
        with pytest.raises(InvariantViolation, match="unique"):
            Topology(edges=(("x", 10.0),), cores=(("x", 1e8),))

    def test_buffer_floor(self):
        with pytest.raises(InvariantViolation, match="buffer_pkts"):
            Topology(edges=(("e", 10.0),), cores=(("c", 1e8),), buffer_pkts=0)


class TestAllocationVector:
    def test_stacked_round_trip(self):
        v = AllocationVector(np.array([0.1, 0.2]), np.array([0.3]))
        assert v.stacked().tolist() == [0.1, 0.2, 0.3]
        assert AllocationVector.from_stacked(v.stacked(), n_edges=2) == v

    def test_entries_clamped_to_unit_box(self):
        with pytest.raises(InvariantViolation, match=r"lie in \[0,1\]"):
            AllocationVector(np.array([1.2]), np.array([0.5]))

    def test_arrays_are_read_only(self):
        v = AllocationVector(np.array([0.1]), np.array([0.2]))
        with pytest.raises(ValueError):
            v.flows[0] = 0.9


class TestAllocationMatrix:
    def test_three_slices_within_capacity(self):
        # column sums 0.9 (edge), 0.8 and 0.7 (cores): all legal
        m = AllocationMatrix(
            slice_ids=("a", "b", "c"),
            flows=np.array([[0.4], [0.3], [0.2]]),
            cpu=np.array([[0.3, 0.2], [0.3, 0.3], [0.2, 0.2]]),
        )
        assert m.flows.sum(axis=0) == pytest.approx([0.9])
        assert m.cpu.sum(axis=0) == pytest.approx([0.8, 0.7])

    def test_edge_overcommit_names_the_column(self):
        with pytest.raises(InvariantViolation, match="edge 0 sum 1.2 > 1"):
            AllocationMatrix(
                slice_ids=("a", "b"),
                flows=np.array([[0.6], [0.6]]),
                cpu=np.array([[0.1], [0.1]]),
            )

    def test_core_overcommit(self):
        with pytest.raises(InvariantViolation, match="core 0 sum"):
            AllocationMatrix(
                slice_ids=("a", "b"),
                flows=np.array([[0.1], [0.1]]),
                cpu=np.array([[0.7], [0.7]]),
            )

    def test_unknown_slice(self):
        m = AllocationMatrix.from_rows(
            {"a": AllocationVector(np.array([0.2]), np.array([0.2]))})
        with pytest.raises(KeyError):
            m.row("zz")


class TestInvariantViolation:
    def test_every_violation_names_its_field(self):
        with pytest.raises(InvariantViolation) as exc:
            Topology(edges=(("e", 0.0),), cores=(("c", 1e8),), buffer_pkts=0)
        assert [field for field, _ in exc.value.violations] == ["edges.e", "buffer_pkts"]

    def test_pickles_with_its_fields(self):
        err = InvariantViolation([("rho", "rho out of [0,1]: 2"), ("tau_ms", "tau must be > 0")])
        back = pickle.loads(pickle.dumps(err))
        assert back.violations == err.violations
        assert str(back) == str(err) == "rho out of [0,1]: 2; tau must be > 0"


class TestQoeSample:
    def test_inf_delay_allowed(self):
        s = QoeSample(delay_stat_ms=math.inf, throughput=0.0)
        assert math.isinf(s.delay_stat_ms)

    def test_nan_delay_rejected(self):
        with pytest.raises(InvariantViolation):
            QoeSample(delay_stat_ms=math.nan, throughput=1.0)

    def test_throughput_bounds(self):
        with pytest.raises(InvariantViolation, match="throughput"):
            QoeSample(delay_stat_ms=1.0, throughput=1.5)

    def test_exact_equality(self):
        a = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.0]), seed=7)
        b = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.0]), seed=7)
        c = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.1]), seed=7)
        assert a == b and a != c


class TestValidateScenario:
    """The checks across slices, topology and allocation, in ScenarioConfig.validate."""

    topo = Topology(edges=(("e", 100.0),), cores=(("c", 3e8),))

    def scenario(self, slices, rows):
        return ScenarioConfig(
            name="t", slices=slices, topology=self.topo,
            initial_alloc=AllocationMatrix.from_rows(rows), sim=SimConfig(),
            osra=OsraConfig(), new_slice_id="a")

    def row(self):
        return AllocationVector(np.array([0.4]), np.array([0.4]))

    def test_accepts_consistent_triple(self):
        new = dataclasses.replace(make_slice("a", rank=0), alpha_tau=2.0, alpha_rho=2.0)
        sc = self.scenario([new, make_slice("b", rank=1)], {"a": self.row(), "b": self.row()})
        assert sc.validate() is sc

    def test_collects_every_violation(self):
        slices = [make_slice("a"), make_slice("a")]  # duplicate ids
        with pytest.raises(InvariantViolation) as exc:
            self.scenario(slices, {"a": self.row()}).validate()
        text = str(exc.value)
        assert "duplicate slice ids" in text
        assert "no lower-priority slices" in text

    def test_alloc_must_cover_the_slice_set(self):
        slices = [make_slice("a"), make_slice("b", rank=1)]
        with pytest.raises(InvariantViolation, match="do not match slices"):
            self.scenario(slices, {"a": self.row()}).validate()

    def test_alloc_columns_match_the_topology(self):
        two_edges = AllocationVector(np.array([0.4, 0.4]), np.array([0.4]))
        with pytest.raises(InvariantViolation, match="2 edge columns, topology 1"):
            self.scenario([make_slice("a")], {"a": two_edges}).validate()
