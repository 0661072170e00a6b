"""YAML round-trips, cross-cutting validation, and the shipped scenario."""
import copy
import math
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from slicelab import (
    UNBOUNDED,
    AllocationMatrix,
    InvariantViolation,
    OsraConfig,
    QoeRequirement,
    ScenarioConfig,
    ScenarioError,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    load_scenario,
    reference_scenario,
)
from slicelab.scenario import (
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)

REPO = Path(__file__).resolve().parent.parent


def ref_dict():
    return copy.deepcopy(scenario_to_dict(reference_scenario()))


def number(lo, hi):
    """Floats in [lo, hi], integer-valued ones included."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(float),
                     st.floats(lo, hi))


@st.composite
def traffic_models(draw):
    size_min = draw(st.integers(1, 1500))
    sizes = dict(size_min=size_min, size_max=size_min + draw(st.integers(0, 64000)))
    if draw(st.booleans()):
        sizes.update(size_dist="exponential",
                     size_mean=draw(st.none() | number(1.0, 1e4)))
    if draw(st.booleans()):
        return TrafficModel(kind="poisson", mean_rate=draw(number(1.0, 1e4)), **sizes)
    burst_len, off_time_ms = draw(number(4.0, 50.0)), draw(number(1.0, 100.0))
    # at most burst_len per off time, or the burst envelope is exceeded
    mean_rate = draw(st.floats(0.01, 1.0)) * burst_len / (off_time_ms / 1e3)
    return TrafficModel(kind="bursty-onoff", mean_rate=mean_rate, burst_len=burst_len,
                        off_time_ms=off_time_ms, **sizes)


@st.composite
def scenarios(draw):
    """Valid scenarios: the new slice ranks first and outweighs every donor."""
    n = draw(st.integers(2, 4))
    ids = [f"s{i}" for i in range(n)]
    alphas = [(draw(number(0.0, 10.0)), draw(number(0.0, 10.0))) for _ in ids[1:]]
    alphas.insert(0, tuple(max(a) + 1.0 for a in zip(*alphas)))
    slices = tuple(
        SliceSpec(id=sid,
                  requirement=QoeRequirement(
                      tau_ms=draw(st.just(UNBOUNDED) | number(0.5, 100.0)),
                      rho=draw(st.floats(0.0, 1.0))),
                  alpha_tau=a_tau, alpha_rho=a_rho, traffic=draw(traffic_models()),
                  demand_mi=draw(number(1.0, 1e6)), priority_rank=i)
        for i, (sid, (a_tau, a_rho)) in enumerate(zip(ids, alphas)))
    edges = tuple((f"e{k}", draw(number(1.0, 1e5)))
                  for k in range(draw(st.integers(1, 2))))
    cores = tuple((f"c{k}", draw(number(1.0, 1e9)))
                  for k in range(draw(st.integers(1, 2))))
    dim = len(edges) + len(cores)
    shares = np.reshape(draw(st.lists(st.floats(0.0, 1.0), min_size=n * dim,
                                      max_size=n * dim)), (n, dim))
    shares /= np.maximum(shares.sum(axis=0), 1.0)
    horizon_s = draw(number(0.5, 100.0))
    eta = draw(number(0.0, 1.0)
               | st.fixed_dictionaries({d: number(0.0, 1.0) for d in ids[1:]}))
    return ScenarioConfig(
        name=draw(st.text("abcxyz_019", min_size=1, max_size=8)),
        slices=slices,
        topology=Topology(edges=edges, cores=cores, buffer_pkts=draw(st.integers(1, 1000))),
        initial_alloc=AllocationMatrix(tuple(ids), shares[:, :len(edges)],
                                       shares[:, len(edges):]),
        sim=SimConfig(horizon_s=horizon_s, warmup_s=draw(st.floats(0.0, 0.9)) * horizon_s,
                      propagation_ms=draw(number(0.0, 5.0)),
                      seed=draw(st.integers(0, 2**32 - 1))),
        osra=OsraConfig(
            eta=eta,
            eta_schedule=draw(st.sampled_from(["constant", "sqrt-decay"])),
            delta=draw(st.floats(1e-4, 0.5)), probes=draw(st.integers(1, 20)),
            epsilon=draw(number(0.0, 10.0)), max_iters=draw(st.integers(1, 50)),
            transfer_rule=draw(st.sampled_from(["algorithm1", "conservative"])),
            statistic=draw(st.sampled_from(["max", "mean", "p50", "p99", "p99.9"])),
            penalty_exponent=draw(st.sampled_from([1, 2])),
            delay_ceiling_ms=draw(number(1.0, 1e5)),
            donor_gradients=draw(st.sampled_from(["analytic", "probed"]))),
        new_slice_id="s0",
    ).validate()


def integer_valued_as_int(node):
    """YAML data with every integer-valued float written as an int."""
    if isinstance(node, dict):
        return {k: integer_valued_as_int(v) for k, v in node.items()}
    if isinstance(node, list):
        return [integer_valued_as_int(v) for v in node]
    if isinstance(node, float) and node.is_integer():
        return int(node)
    return node


class TestReferenceScenario:
    def test_validates(self):
        sc = reference_scenario()
        assert sc.validate() is sc

    def test_new_slice_and_donors(self):
        sc = reference_scenario()
        assert sc.new_slice_id == "slice1"
        assert tuple(d.id for d in sc.donors()) == ("slice2", "slice3")

    def test_shipped_yaml_matches_the_builtin(self):
        sc = load_scenario(REPO / "scenarios" / "reference.yaml")
        assert scenario_to_dict(sc) == scenario_to_dict(reference_scenario())

    def test_initial_alloc_has_headroom_for_no_one(self):
        # every resource is fully committed at the start: the new slice
        # can only grow by degrading someone
        sc = reference_scenario()
        assert sc.initial_alloc.flows.sum(axis=0) == pytest.approx(1.0)
        assert sc.initial_alloc.cpu.sum(axis=0) == pytest.approx(1.0)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        sc = reference_scenario()
        p = tmp_path / "sc.yaml"
        save_scenario(sc, p)
        rt = load_scenario(p)
        assert scenario_to_dict(rt) == scenario_to_dict(sc)
        assert rt.initial_alloc == sc.initial_alloc
        assert rt.slices == sc.slices
        assert rt.osra == sc.osra

    def test_unbounded_tau_survives(self, tmp_path):
        data = ref_dict()
        data["slices"][2]["tau_ms"] = "unbounded"
        sc = scenario_from_dict(data)
        assert math.isinf(sc.slices[2].requirement.tau_ms)
        p = tmp_path / "u.yaml"
        save_scenario(sc, p)
        assert math.isinf(load_scenario(p).slices[2].requirement.tau_ms)

    def test_null_tau_means_unbounded(self):
        data = ref_dict()
        data["slices"][2]["tau_ms"] = None
        sc = scenario_from_dict(data)
        assert not sc.slices[2].requirement.bounded

    def test_eta_map_round_trips(self, tmp_path):
        data = ref_dict()
        data["osra"]["eta"] = {"slice2": 0.04, "slice3": 0.08}
        sc = scenario_from_dict(data)
        p = tmp_path / "m.yaml"
        save_scenario(sc, p)
        rt = load_scenario(p)
        assert rt.osra.eta == {"slice2": 0.04, "slice3": 0.08}


class TestGeneratedRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios())
    def test_load_save_identity(self, sc, tmp_path_factory):
        p = tmp_path_factory.getbasetemp() / "generated.yaml"
        save_scenario(sc, p)
        assert load_scenario(p) == sc
        p.write_text(yaml.safe_dump(integer_valued_as_int(scenario_to_dict(sc))))
        assert load_scenario(p) == sc


class TestMalformed:
    def test_empty_document(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(ScenarioError, match="top level must be a mapping"):
            load_scenario(p)

    def test_missing_topology(self):
        data = ref_dict()
        del data["topology"]
        with pytest.raises(ScenarioError, match="missing key 'topology'"):
            scenario_from_dict(data)

    def test_missing_slice_field_names_the_slice(self):
        data = ref_dict()
        del data["slices"][0]["tau_ms"]
        with pytest.raises(ScenarioError,
                           match="missing key 'tau_ms' in slice 'slice1'"):
            scenario_from_dict(data)

    def test_garbage_tau(self):
        data = ref_dict()
        data["slices"][0]["tau_ms"] = "soon"
        with pytest.raises(ScenarioError, match="tau_ms must be a number"):
            scenario_from_dict(data)

    def test_stray_traffic_key(self):
        data = ref_dict()
        data["slices"][0]["traffic"]["color"] = "red"
        with pytest.raises(ScenarioError, match=r"unknown key\(s\) \['color'\]"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path, where", [
        ((), "scenario"),
        (("topology",), "topology"),
        (("slices", 1), "slice 'slice2'"),
        (("initial_alloc", "slice3"), "initial_alloc.slice3"),
        (("sim",), "sim"),
        (("osra",), "osra"),
    ])
    def test_stray_key_in_every_section(self, path, where):
        data = ref_dict()
        section = data
        for key in path:
            section = section[key]
        section["max_iter"] = 3
        with pytest.raises(ScenarioError,
                           match=rf"unknown key\(s\) \['max_iter'\] in {re.escape(where)}"):
            scenario_from_dict(data)

    def test_uncastable_value_names_the_key(self):
        data = ref_dict()
        data["osra"]["probes"] = "many"
        with pytest.raises(ScenarioError, match="osra.probes must be int"):
            scenario_from_dict(data)
        data = ref_dict()
        data["sim"]["horizon_s"] = None
        with pytest.raises(ScenarioError, match="sim.horizon_s must be float, got None"):
            scenario_from_dict(data)

    def test_alloc_row_missing_cpu(self):
        data = ref_dict()
        del data["initial_alloc"]["slice2"]["cpu"]
        with pytest.raises(ScenarioError,
                           match="missing key 'cpu' in initial_alloc.slice2"):
            scenario_from_dict(data)

    def test_overcommitted_alloc(self):
        data = ref_dict()
        data["initial_alloc"]["slice1"]["flows"] = [0.9]
        with pytest.raises(ScenarioError, match="initial_alloc"):
            scenario_from_dict(data)

    def test_unknown_new_slice(self):
        data = ref_dict()
        data["new_slice"] = "slice9"
        with pytest.raises(InvariantViolation, match="not a slice id"):
            scenario_from_dict(data)


class TestCrossCuttingInvariants:
    def test_new_slice_needs_donors(self):
        data = ref_dict()
        for s in data["slices"]:
            s["priority_rank"] = 0
        data["slices"][0]["priority_rank"] = 5
        with pytest.raises(InvariantViolation, match="no lower-priority"):
            scenario_from_dict(data)

    def test_weight_dominance_enforced(self):
        data = ref_dict()
        data["slices"][1]["alpha_rho"] = 999.0
        with pytest.raises(InvariantViolation,
                           match="alpha_rho of new slice"):
            scenario_from_dict(data)

    def test_eta_map_must_cover_donors(self):
        data = ref_dict()
        data["osra"]["eta"] = {"slice2": 0.05}
        with pytest.raises(InvariantViolation,
                           match=r"eta map missing donor slices \['slice3'\]"):
            scenario_from_dict(data)

    def test_read_only_eta_map(self):
        # any Mapping is an eta map: checked against the donors, and written out
        sc = reference_scenario()
        with pytest.raises(InvariantViolation,
                           match=r"eta map missing donor slices \['slice3'\]"):
            with_overrides(sc, eta=MappingProxyType({"slice2": 0.05}))
        full = with_overrides(sc, eta=MappingProxyType({"slice2": 0.04, "slice3": 0.08}))
        data = scenario_to_dict(full)
        assert data["osra"]["eta"] == {"slice2": 0.04, "slice3": 0.08}
        assert scenario_from_dict(data).osra.eta == full.osra.eta

    def test_bad_statistic(self):
        data = ref_dict()
        data["osra"]["statistic"] = "p105"
        with pytest.raises(ScenarioError, match=r"osra\.statistic: percentile out of"):
            scenario_from_dict(data)


class TestWithOverrides:
    def test_overrides_only_named_fields(self):
        sc = reference_scenario()
        out = with_overrides(sc, max_iters=3, statistic="mean")
        assert out.osra.max_iters == 3
        assert out.osra.statistic == "mean"
        assert out.osra.eta == sc.osra.eta
        assert out.slices == sc.slices
        assert sc.osra.max_iters != 3  # original untouched

    def test_result_is_validated(self):
        with pytest.raises(ScenarioError, match=r"osra\.statistic: unknown statistic 'nope'"):
            with_overrides(reference_scenario(), statistic="nope")
