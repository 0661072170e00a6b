"""Domain type invariants, validation messages, and value semantics."""
import collections
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    audit_allocation,
    reference_scenario,
    run_osra,
    run_sim,
)
from slicelab import domain
from slicelab.domain import CAPACITY_TOL, QoeSample
from slicelab.penalty import PenaltyModel
from slicelab.simulator import summarize

from conftest import SIZES, make_tiny_scenario
from reference_impls import fully_checked


def make_slice(sid="s1", tau=5.0, rho=0.9, rank=0, **traffic_kw):
    traffic = dict(kind="poisson", mean_rate=100.0, **SIZES)
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
        with pytest.raises(InvariantViolation, match=r"rho must be in \[0, 1\], got 1.3"):
            QoeRequirement(tau_ms=2.0, rho=1.3)

    def test_nonpositive_tau(self):
        with pytest.raises(InvariantViolation, match=r"tau_ms must be in \(0, inf\], got 0.0"):
            QoeRequirement(tau_ms=0.0, rho=0.5)


class TestTrafficModel:
    def test_mean_size_is_uniform_midpoint(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0, size_min=20, size_max=65535,
                          size_dist="uniform")
        assert tm.mean_size_bytes() == (20 + 65535) / 2.0

    def test_exponential_mean_size(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0, size_min=20, size_max=65535,
                          size_dist="exponential", size_mean=1000.0)
        assert tm.mean_size_bytes() == 1000.0

    def test_intra_burst_gap(self):
        # cycle = burst_len*gap + off  =>  gap = 1/rate - off/burst_len
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0, **SIZES)
        assert tm.intra_burst_gap_s() == pytest.approx(1 / 200 - 0.038 / 8, abs=1e-15)

    def test_gap_undefined_for_poisson(self):
        tm = TrafficModel(kind="poisson", mean_rate=10.0, **SIZES)
        with pytest.raises(ValueError):
            tm.intra_burst_gap_s()

    def test_unknown_kind(self):
        with pytest.raises(InvariantViolation, match="unknown traffic kind"):
            TrafficModel(kind="constant", mean_rate=10.0, **SIZES)

    def test_bursty_needs_burst_fields(self):
        with pytest.raises(InvariantViolation, match="burst_len"):
            TrafficModel(kind="bursty-onoff", mean_rate=10.0, off_time_ms=5.0, **SIZES)

    def test_burst_fields_checked_when_given_to_poisson(self):
        TrafficModel(kind="poisson", mean_rate=10.0, burst_len=8.0, off_time_ms=0.0, **SIZES)
        with pytest.raises(InvariantViolation) as exc:
            TrafficModel(kind="poisson", mean_rate=10.0, burst_len="x", off_time_ms=-1.0,
                         **SIZES)
        assert [field for field, _ in exc.value.violations] == ["burst_len", "off_time_ms"]

    def test_rate_beyond_burst_envelope(self):
        # 8-packet bursts every 38 ms cannot average more than 210.5 req/s
        with pytest.raises(InvariantViolation, match="burst envelope"):
            TrafficModel(kind="bursty-onoff", mean_rate=250.0, burst_len=8.0,
                         off_time_ms=38.0, **SIZES)

    def test_size_bounds(self):
        with pytest.raises(InvariantViolation, match="size_min"):
            TrafficModel(kind="poisson", mean_rate=10.0, size_min=100, size_max=50,
                         size_dist="uniform")

    @pytest.mark.parametrize("size_max", [2**63, 2**64, 2.0**63])
    @pytest.mark.parametrize("size_dist", ["uniform", "exponential"])
    def test_a_size_past_int64_is_refused(self, size_max, size_dist):
        # the compiled draw holds a size as an int64; the bound is an exact
        # integer one, so 2**63 is refused where 2**63 - 1 passes
        mean = dict(size_mean=1e3) if size_dist == "exponential" else {}
        with pytest.raises(InvariantViolation, match=rf"^size_max must be at most 2\*\*63 - 1, "
                                                     rf"the largest size a draw holds, got "
                                                     rf"{int(size_max)}$") as exc:
            TrafficModel(kind="poisson", mean_rate=10.0, size_min=1, size_max=size_max,
                         size_dist=size_dist, **mean)
        assert exc.value.violations == [("size_max", exc.value.violations[0][1])]
        assert TrafficModel(kind="poisson", mean_rate=10.0, size_min=1, size_max=2**63 - 1,
                            size_dist=size_dist, **mean).size_max == 2**63 - 1

    @pytest.mark.parametrize("field, value", [("size_min", 20.5), ("size_max", 100.5),
                                              ("size_max", True)])
    def test_sizes_are_whole_numbers(self, field, value):
        with pytest.raises(InvariantViolation, match=f"{field} must be a whole number") as exc:
            TrafficModel(kind="poisson", mean_rate=10.0, **{**SIZES, field: value})
        assert exc.value.violations[0][0] == field


class TestSliceSpec:
    def test_negative_alpha(self):
        with pytest.raises(InvariantViolation, match=r"alpha_tau must be in \[0, inf\), got -1.0"):
            SliceSpec(id="x", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=-1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0, **SIZES),
                      demand_mi=1e4, priority_rank=0)

    def test_nonpositive_demand(self):
        with pytest.raises(InvariantViolation, match="demand_mi"):
            SliceSpec(id="x", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0, **SIZES),
                      demand_mi=0.0, priority_rank=0)

    @pytest.mark.parametrize("rank", [True, 0.5])  # a string or None: TestNumericFields
    def test_priority_rank_is_a_whole_number(self, rank):
        with pytest.raises(InvariantViolation, match="slice s1: priority_rank must be") as exc:
            make_slice(rank=rank)
        assert [field for field, _ in exc.value.violations] == ["priority_rank"]
        assert type(make_slice(rank=np.int64(3)).priority_rank) is int

    def test_errors_name_the_slice(self):
        with pytest.raises(InvariantViolation, match="slice bad:"):
            SliceSpec(id="bad", requirement=QoeRequirement(5.0, 0.9),
                      alpha_tau=1.0, alpha_rho=-0.5,
                      traffic=TrafficModel(kind="poisson", mean_rate=10.0, **SIZES),
                      demand_mi=1e4, priority_rank=0)


class TestTopology:
    def test_unit_conversions(self):
        t = Topology(edges=(("link", 2500.0),), cores=(("c0", 3e8), ("c1", 3e8)), buffer_pkts=100)
        assert t.n_edges == 1 and t.n_cores == 2
        assert t.edge_bps == pytest.approx([2.5e9])
        assert t.core_mips == pytest.approx([3e8, 3e8])

    def test_needs_an_edge_and_a_core(self):
        with pytest.raises(InvariantViolation, match="at least one edge"):
            Topology(edges=(), cores=(("c", 1e8),), buffer_pkts=100)
        with pytest.raises(InvariantViolation, match="at least one core"):
            Topology(edges=(("e", 10.0),), cores=(), buffer_pkts=100)

    def test_nonpositive_capacity(self):
        with pytest.raises(InvariantViolation, match=r"edges.e must be in \(0, inf\), got 0.0"):
            Topology(edges=(("e", 0.0),), cores=(("c", 1e8),), buffer_pkts=100)

    @pytest.mark.parametrize("capacity", ["10", True])  # once cast to 10.0 and 1.0
    def test_capacity_is_a_number(self, capacity):
        with pytest.raises(InvariantViolation) as exc:
            Topology(edges=(("e", capacity),), cores=(("c", 1e8),), buffer_pkts=100)
        assert exc.value.violations == [
            ("edges.e", f"edges.e must be in (0, inf), got {capacity!r}")]

    @pytest.mark.parametrize("key", ["edges", "cores"])
    @pytest.mark.parametrize("bad", [(5,), ("link",), None], ids=["bare-number", "bare-id", "none"])
    def test_pairs_have_a_shape(self, key, bad):
        kw = dict(edges=(("e", 10.0),), cores=(("c", 1e8),), buffer_pkts=100)
        kw[key] = bad
        with pytest.raises(InvariantViolation) as exc:
            Topology(**kw)
        assert exc.value.violations == [(key, f"{key} must be (id, capacity) pairs, got {bad!r}")]

    def test_duplicate_ids(self):
        with pytest.raises(InvariantViolation, match="unique"):
            Topology(edges=(("x", 10.0),), cores=(("x", 1e8),), buffer_pkts=100)

    def test_buffer_floor(self):
        with pytest.raises(InvariantViolation, match="buffer_pkts"):
            Topology(edges=(("e", 10.0),), cores=(("c", 1e8),), buffer_pkts=0)

    @pytest.mark.parametrize("buffer_pkts", [2.5, True])
    def test_buffer_is_a_whole_number(self, buffer_pkts):
        with pytest.raises(InvariantViolation, match="buffer_pkts must be a whole number") as exc:
            Topology(edges=(("e", 10.0),), cores=(("c", 1e8),), buffer_pkts=buffer_pkts)
        assert [field for field, _ in exc.value.violations] == ["buffer_pkts"]
        assert Topology(edges=(("e", 10.0),), cores=(("c", 1e8),),
                        buffer_pkts=np.int64(4)).buffer_pkts == 4


class TestAllocationVector:
    def test_stacked_round_trip(self):
        v = AllocationVector(np.array([0.1, 0.2]), np.array([0.3]))
        assert v.stacked().tolist() == [0.1, 0.2, 0.3]

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

    @pytest.mark.parametrize("entry, ok", [(-CAPACITY_TOL, True), (-3 * CAPACITY_TOL, False)])
    def test_negative_entry_bound(self, entry, ok):
        # the column sums stay below 1, so only the entry bound can reject it
        args = dict(slice_ids=("a", "b"), flows=np.array([[entry], [0.5]]),
                    cpu=np.array([[0.1], [0.1]]))
        if ok:
            AllocationMatrix(**args)
        else:
            with pytest.raises(InvariantViolation) as exc:
                AllocationMatrix(**args)
            assert exc.value.violations == [("flows", "flows entries must lie in [0,1]")]

    @pytest.mark.parametrize("ids, violation", [
        (("a", "a"), ("slice_ids", "duplicate slice ids in allocation")),
        (("a",), ("flows", "flows has 2 rows for 1 slice ids")),
    ], ids=["duplicate", "too-few"])
    def test_slice_ids_match_the_rows(self, ids, violation):
        with pytest.raises(InvariantViolation) as exc:
            AllocationMatrix(ids, [[0.1], [0.2]], [[0.1]] * len(ids))
        assert exc.value.violations == [violation]

    def test_unknown_slice(self):
        m = AllocationMatrix.from_rows(
            {"a": AllocationVector(np.array([0.2]), np.array([0.2]))})
        with pytest.raises(KeyError):
            m.row("zz")

    def test_ragged_rows_name_the_field_and_row(self):
        rows = {"a": AllocationVector(np.array([0.1, 0.2]), np.array([0.1])),
                "b": AllocationVector(np.array([0.1]), np.array([0.1, 0.2]))}
        with pytest.raises(InvariantViolation) as exc:
            AllocationMatrix.from_rows(rows)
        assert exc.value.violations == [
            ("flows", "flows of row 'b' has 1 entries, row 'a' has 2"),
            ("cpu", "cpu of row 'b' has 2 entries, row 'a' has 1"),
        ]


# a valid instance of each config and value type, with every numeric field read
VALID = {
    SimConfig: dict(horizon_s=10.0, warmup_s=1.0, propagation_ms=0.1),
    OsraConfig: dataclasses.asdict(reference_scenario().osra),
    PenaltyModel: dict(requirement=QoeRequirement(5.0, 0.9), alpha_tau=1.0, alpha_rho=1.0,
                       exponent=2, delay_ceiling_ms=1e4),
    QoeRequirement: dict(tau_ms=5.0, rho=0.9),
    TrafficModel: dict(kind="bursty-onoff", mean_rate=100.0, burst_len=8.0,
                       off_time_ms=38.0, size_min=20, size_max=65535,
                       size_dist="exponential", size_mean=1000.0),
    SliceSpec: dict(id="s", requirement=QoeRequirement(5.0, 0.9), alpha_tau=1.0,
                    alpha_rho=1.0, traffic=TrafficModel(kind="poisson", mean_rate=100.0, **SIZES),
                    demand_mi=5e4, priority_rank=0),
}

# every float- or int-annotated field, given a non-number; None is legal
# where the annotation allows it
NON_NUMBERS = [(cls, f.name, bad) for cls in VALID for f in dataclasses.fields(cls)
               if f.type.partition(" | ")[0] in ("float", "int")
               for bad in ("x", None) if not (bad is None and f.type.endswith("| None"))]


class TestNumericFields:
    def test_valid_bases(self):
        for cls, kw in VALID.items():
            cls(**kw)

    @pytest.mark.parametrize("cls, field, bad", NON_NUMBERS, ids=[
        f"{cls.__name__}.{field}={bad!r}" for cls, field, bad in NON_NUMBERS])
    def test_non_number_names_the_field(self, cls, field, bad):
        with pytest.raises(InvariantViolation) as exc:
            cls(**{**VALID[cls], field: bad})
        assert field in [f for f, _ in exc.value.violations]

    @pytest.mark.parametrize("field", ["edges.e", "cores.c", "buffer_pkts"])
    @pytest.mark.parametrize("bad", ["x", None])
    def test_topology_non_number_names_the_field(self, field, bad):
        kw = dict(edges=(("e", 10.0),), cores=(("c", 1e8),), buffer_pkts=100)
        key, _, name = field.partition(".")
        kw[key] = ((name, bad),) if name else bad
        with pytest.raises(InvariantViolation) as exc:
            Topology(**kw)
        assert field in [f for f, _ in exc.value.violations]

    @pytest.mark.parametrize("warmup_s", [10.0, 12.0])
    def test_warmup_ends_before_the_horizon(self, warmup_s):
        with pytest.raises(InvariantViolation) as exc:
            SimConfig(horizon_s=10.0, warmup_s=warmup_s, propagation_ms=0.1)
        assert exc.value.violations == [
            ("warmup_s", f"need warmup_s < horizon_s, got {warmup_s} vs 10.0")]

    @pytest.mark.parametrize("value", [np.float64(2.5), np.float32(2.5), np.int64(2)])
    def test_numpy_scalars_pass_unchanged(self, value):
        assert SimConfig(horizon_s=value, warmup_s=1.0, propagation_ms=0.1).horizon_s is value


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

    def test_delay_is_a_number(self):
        with pytest.raises(InvariantViolation, match=r"delay_stat_ms must be in \[0, inf\]"):
            QoeSample(delay_stat_ms="1", throughput=1.0)

    def test_throughput_bounds(self):
        with pytest.raises(InvariantViolation, match="throughput"):
            QoeSample(delay_stat_ms=1.0, throughput=1.5)

    @pytest.mark.parametrize("n", [2.5, -1, True, "3", math.inf])
    def test_n_requests_is_a_whole_number(self, n):
        with pytest.raises(InvariantViolation) as exc:
            QoeSample(1.0, 1.0, n_requests=n)
        assert exc.value.violations == [
            ("n_requests", f"n_requests must be a whole number in [0, inf), got {n!r}")]

    @pytest.mark.parametrize("n", [3.0, np.int64(3), 1e300])
    def test_n_requests_is_stored_as_an_int(self, n):
        stored = QoeSample(1.0, 1.0, n_requests=n).n_requests
        assert type(stored) is int and stored == n

    def test_exact_equality(self):
        a = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.0]))
        b = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.0]))
        c = QoeSample(1.5, 0.9, 10, np.array([1.0, 2.1]))
        assert a == b and a != c


def _tiny_run(seed):
    sc = make_tiny_scenario()
    return run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim, sc.new_slice_id,
                    sc.osra, seed=seed)


@pytest.fixture(scope="module")
def array_values():
    """One instance of each value type that holds arrays, from the tiny scenario."""
    sc = make_tiny_scenario()
    run = run_sim(sc.slices, sc.topology, sc.initial_alloc, sc.sim, seed=0)["new"]
    result = _tiny_run(0)
    return [sc.initial_alloc.row("new"), sc.initial_alloc,
            summarize(run, "max", keep_raw=True), run,
            audit_allocation(sc.slices, sc.topology, sc.initial_alloc, sc.sim, (0, 1))["new"],
            result.traces[0], result]


def _arrays(obj):
    """Every array inside `obj`: in its fields, dict values and tuple items."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, tuple):
        for value in obj:
            yield from _arrays(value)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


class TestArrayValues:
    """The value types that hold arrays compare field by field, arrays by content."""

    TYPES = ["AllocationVector", "AllocationMatrix", "QoeSample", "SliceRunResult",
             "SliceAudit", "IterationTrace", "OsraResult"]

    @pytest.mark.parametrize("i", range(len(TYPES)), ids=TYPES)
    def test_equal_to_its_pickle_and_unequal_after_one_entry_changes(self, array_values, i):
        value = array_values[i]
        assert type(value).__name__ == self.TYPES[i]
        blob = pickle.dumps(value)
        assert value == pickle.loads(blob)
        assert value != object()
        n = sum(1 for arr in _arrays(value) if arr.size)
        assert n
        for k in range(n):
            changed = pickle.loads(blob)
            arr = [arr for arr in _arrays(changed) if arr.size][k]
            if not arr.flags.writeable:  # read-only, like any array a value type checked
                arr.setflags(write=True)
            arr.flat[0] += 1.0
            assert value != changed and pickle.dumps(changed) != blob

    @pytest.mark.parametrize("i", range(3), ids=TYPES[:3])
    def test_unpickled_copy_is_equal_and_read_only(self, array_values, i):
        back = pickle.loads(pickle.dumps(array_values[i]))
        assert back == array_values[i]
        arrays = list(_arrays(back))
        assert arrays and not any(arr.flags.writeable for arr in arrays)

    @pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_topology_copy_is_equal_and_its_rates_read_only(self, clone):
        # the rates every simulation reads are not fields, so == and hash
        # cannot see a write to them: a copy must rebuild them read-only
        topo = reference_scenario().topology
        back = clone(topo)
        assert back == topo and hash(back) == hash(topo)
        for name in ("edge_bps", "core_mips"):
            arr = getattr(back, name)
            assert np.array_equal(arr, getattr(topo, name)) and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_unpickling_runs_the_checks_again(self):
        v = AllocationVector([0.1], [0.2])
        object.__setattr__(v, "flows", np.array([1.5]))
        blob = pickle.dumps(v)
        with pytest.raises(InvariantViolation) as exc:
            pickle.loads(blob)
        assert [field for field, _ in exc.value.violations] == ["flows"]

    def test_runs_equal_by_seed(self, array_values):
        assert array_values[-1] == _tiny_run(0)
        assert array_values[-1] != _tiny_run(1)

    @pytest.mark.parametrize("bad", [True, "0.5", None])
    @pytest.mark.parametrize("make, field", [
        (lambda bad: AllocationVector([bad], [0.1]), "flows"),
        (lambda bad: AllocationVector([0.1], [0.2, bad]), "cpu"),
        (lambda bad: AllocationMatrix(("a",), [[bad]], [[0.1]]), "flows"),
        (lambda bad: AllocationMatrix(("a", "b"), [[0.1], [0.2]], [[0.1], [bad]]), "cpu"),
        (lambda bad: QoeSample(1.0, 1.0, raw_delays_ms=[1.0, bad]), "raw_delays_ms"),
    ], ids=["row.flows", "row.cpu", "matrix.flows", "matrix.cpu", "raw_delays_ms"])
    def test_array_entries_are_real_numbers(self, make, field, bad):
        with pytest.raises(InvariantViolation) as exc:
            make(bad)
        assert exc.value.violations == [
            (field, f"{field} entries must be real numbers, got {bad!r}")]

    def test_ragged_nested_arrays_name_the_field(self):
        with pytest.raises(InvariantViolation) as exc:
            AllocationVector([np.zeros((2, 2)), np.zeros(2)], [0.1])
        assert exc.value.violations == [("flows", "flows must be 1-D")]

    @pytest.mark.parametrize("make, violation", [
        (lambda: AllocationVector([[0.1]], [0.1]), ("flows", "flows must be 1-D")),
        (lambda: AllocationMatrix(("a",), [0.1], [[0.1]]), ("flows", "flows must be 2-D")),
        (lambda: AllocationVector([math.nan], [0.1]), ("flows", "flows has non-finite entries")),
        (lambda: AllocationMatrix(("a",), [[0.1]], [[math.inf]]),
         ("cpu", "cpu has non-finite entries")),
        (lambda: QoeSample(1.0, 1.0, raw_delays_ms=[-math.inf]),
         ("raw_delays_ms", "raw_delays_ms has non-finite entries")),
    ], ids=["row-2d", "matrix-1d", "row-nan", "matrix-inf", "raw_delays_ms-inf"])
    def test_malformed_arrays_name_the_field(self, make, violation):
        with pytest.raises(InvariantViolation) as exc:
            make()
        assert exc.value.violations == [violation]

    def test_slice_run_result_is_frozen(self, array_values):
        with pytest.raises(dataclasses.FrozenInstanceError):
            array_values[3].offered = 0


# entries at and past each bound of [0, 1] within CAPACITY_TOL, and the
# floats no bound admits
EDGE_FLOATS = [0.0, -0.0, 0.5, 1.0, 2.0, -1.0, -CAPACITY_TOL, 1 + CAPACITY_TOL,
               float(np.nextafter(-CAPACITY_TOL, -1.0)), float(np.nextafter(1 + CAPACITY_TOL, 2.0)),
               float(np.nextafter(0.0, -1.0)), float(np.nextafter(1.0, 2.0)),
               5e-324, 1e-310, math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-0.1, 1.1))
SCALARS = st.one_of(FLOATS, FLOATS.map(np.float64), FLOATS.map(np.float32),
                    st.integers(-1, 2), st.integers(-1, 2).map(np.int64),
                    st.booleans(), st.booleans().map(np.bool_))
# what each array form is drawn from, and the dtype numpy gives it
FORMS = {"float64": (FLOATS, float), "float32": (FLOATS, np.float32),
         "big-endian": (FLOATS, ">f8"), "int64": (st.integers(-1, 2), np.int64),
         "bool": (st.booleans(), bool), "object": (SCALARS, object)}
# the layouts an array of those entries comes in
LAYOUTS = {"fresh": lambda a: a,
           "strided": lambda a: np.stack([a, a], axis=-1)[..., 0],
           "reversed": lambda a: np.flip(np.flip(a).copy()) if a.ndim else a,
           "fortran": np.asfortranarray,
           "read-only": lambda a: _read_only(a[...])}


def _read_only(view):
    view.setflags(write=False)
    return view


@st.composite
def field_values(draw, shape):
    """An array field as a caller might pass it: a nested list of any
    scalars, or an array of one of `FORMS` in one of `LAYOUTS`, of `shape`."""
    form = draw(st.sampled_from(["list", *FORMS]))
    entries, dtype = FORMS.get(form, (SCALARS, object))
    n = math.prod(shape)
    arr = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=dtype).reshape(shape)
    if form == "list":
        return arr.tolist()
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](arr)


def _outcome(cls, **values):
    """The fields `cls` stores for `values`, as a dict, or the violations it raises."""
    try:
        value = cls(**values)
    except InvariantViolation as err:
        return err.violations
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}


def _stored_alike(a, b):
    """Two stored field values are one: arrays of one dtype, shape, layout and
    bytes, read-only; anything else of one type and repr."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) is np.ndarray and a.dtype == b.dtype and a.shape == b.shape
                and a.strides == b.strides and a.tobytes() == b.tobytes()
                and not (a.flags.writeable or b.flags.writeable))
    return type(a) is type(b) and repr(a) == repr(b)


def assert_as_the_full_checks(cls, **values):
    got, want = _outcome(cls, **values), fully_checked(cls, **values)
    if isinstance(want, list):
        assert got == want
    else:
        assert isinstance(got, dict) and got.keys() == want.keys()
        for name in got:
            assert _stored_alike(got[name], want[name]), name


VECTOR_SHAPES = [(0,), (1,), (2,), (3,), (), (1, 2)]
# a valid value of each type with an accept test, its arrays float64
VALID_VALUES = {
    AllocationVector: dict(flows=np.array([0.5, 0.25]), cpu=np.array([0.5])),
    AllocationMatrix: dict(slice_ids=("a", "b"), flows=np.array([[0.5], [0.25]]),
                           cpu=np.array([[0.5, 0.1], [0.25, 0.1]])),
    QoeSample: dict(delay_stat_ms=2.0, throughput=0.5, n_requests=3, raw_delays_ms=None),
}


class TestAcceptTests:
    """A valid AllocationVector, AllocationMatrix or raw-less QoeSample is
    admitted by one test in plain floats; every input is stored, or refused,
    exactly as the full checks (`reference_impls.fully_checked`) would."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), shapes=st.tuples(st.sampled_from(VECTOR_SHAPES),
                                            st.sampled_from(VECTOR_SHAPES)))
    def test_vector_as_the_full_checks(self, data, shapes):
        flows, cpu = (data.draw(field_values(shape)) for shape in shapes)
        assert_as_the_full_checks(AllocationVector, flows=flows, cpu=cpu)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), ids=st.lists(st.sampled_from("abc"), max_size=3),
           rows=st.integers(0, 3), widths=st.tuples(st.integers(0, 3), st.integers(0, 3)),
           ndims=st.tuples(*[st.sampled_from([2, 2, 2, 0, 1, 3])] * 2))
    def test_matrix_as_the_full_checks(self, data, ids, rows, widths, ndims):
        flows, cpu = (data.draw(field_values(((), (w,), (rows, w), (1, rows, w))[ndim]))
                      for w, ndim in zip(widths, ndims))
        assert_as_the_full_checks(AllocationMatrix, slice_ids=tuple(ids), flows=flows, cpu=cpu)

    @settings(max_examples=400, deadline=None)
    @given(delay=st.one_of(SCALARS, st.sampled_from(["x", None])),
           throughput=st.one_of(SCALARS, st.sampled_from(["x", None])),
           n=st.one_of(st.integers(-1, 10**20), SCALARS, st.just(10**400)),
           raw=st.one_of(st.none(), st.sampled_from(VECTOR_SHAPES).flatmap(field_values)))
    def test_qoe_sample_as_the_full_checks(self, delay, throughput, n, raw):
        assert_as_the_full_checks(QoeSample, delay_stat_ms=delay, throughput=throughput,
                                  n_requests=n, raw_delays_ms=raw)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("cls", VALID_VALUES, ids=lambda cls: cls.__name__)
    def test_a_valid_value_in_every_layout_is_stored_alike(self, cls, layout):
        values = {name: LAYOUTS[layout](v) if isinstance(v, np.ndarray) else v
                  for name, v in VALID_VALUES[cls].items()}
        assert isinstance(fully_checked(cls, **values), dict)
        assert_as_the_full_checks(cls, **values)

    @pytest.mark.parametrize("v", EDGE_FLOATS, ids=repr)
    @pytest.mark.parametrize("cls, field", [
        (cls, field) for cls in VALID_VALUES for field in ("flows", "cpu", "delay_stat_ms",
                                                           "throughput") if field in VALID_VALUES[cls]
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_an_edge_float_in_a_valid_value(self, cls, field, v):
        values = dict(VALID_VALUES[cls])
        if isinstance(values[field], np.ndarray):
            values[field] = values[field].copy()
            values[field].flat[0] = v
        else:
            values[field] = v
        assert_as_the_full_checks(cls, **values)

    @pytest.mark.parametrize("over", [False, True])
    @pytest.mark.parametrize("field", ["flows", "cpu"])
    def test_column_sums_at_the_bound(self, field, over):
        # top - 0.25 is exact, so column 0 sums to top, or to one ulp past it
        top = 1 + CAPACITY_TOL
        column = np.array([[(np.nextafter(top, 2.0) if over else top) - 0.25], [0.25]])
        assert (column.sum(axis=0) > top).tolist() == [over]
        values = {**VALID_VALUES[AllocationMatrix], field: column}
        assert isinstance(fully_checked(AllocationMatrix, **values), list) == over
        assert_as_the_full_checks(AllocationMatrix, **values)

    def test_duplicate_ids_over_valid_rows(self):
        assert_as_the_full_checks(AllocationMatrix,
                                  **{**VALID_VALUES[AllocationMatrix], "slice_ids": ("a", "a")})

    def test_valid_values_take_no_full_check_in_a_run(self, monkeypatch):
        # a reference run builds 96 rows, 7 matrices and 344 samples; only
        # the 24 monitored samples, which keep their raw delays, and the
        # three penalty models' exponents reach the full checks
        sc = reference_scenario()
        fields_checked, arrays_checked = [], []

        def interval_spy(field, *args, **kw):
            fields_checked.append(field)
            return interval_violations(field, *args, **kw)

        def array_spy(obj, name, ndim):
            arrays_checked.append((type(obj).__name__, name))
            return array_field(obj, name, ndim)

        interval_violations, array_field = domain.interval_violations, domain.array_field
        monkeypatch.setattr(domain, "interval_violations", interval_spy)
        monkeypatch.setattr(domain, "array_field", array_spy)
        run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim, sc.new_slice_id, sc.osra,
                 seed=0)
        assert collections.Counter(fields_checked) == {
            "delay_stat_ms": 24, "throughput": 24, "n_requests": 24, "exponent": 3}
        assert collections.Counter(arrays_checked) == {("QoeSample", "raw_delays_ms"): 24}


class TestValidateScenario:
    """The checks across slices, topology and allocation, in ScenarioConfig.validate."""

    topo = Topology(edges=(("e", 100.0),), cores=(("c", 3e8),), buffer_pkts=100)

    def scenario(self, slices, rows):
        return ScenarioConfig(
            name="t", slices=slices, topology=self.topo,
            initial_alloc=AllocationMatrix.from_rows(rows),
            sim=SimConfig(horizon_s=10.0, warmup_s=1.0, propagation_ms=0.1),
            osra=reference_scenario().osra, new_slice_id="a")

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
        with pytest.raises(InvariantViolation,
                           match=r"flows must hold one entry per topology edge \(1\), got 2"):
            self.scenario([make_slice("a")], {"a": two_edges}).validate()
