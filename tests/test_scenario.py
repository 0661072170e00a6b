"""YAML round-trips, cross-cutting validation, and the shipped scenario."""
import copy
import dataclasses
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

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
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    load_scenario,
    reference_scenario,
    run_osra,
)
from slicelab.scenario import scenario_from_dict, scenario_to_dict
from slicelab.simulator import stage_rates

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
    sizes = dict(size_min=size_min, size_max=size_min + draw(st.integers(0, 64000)),
                 size_dist="uniform")
    if draw(st.booleans()):
        sizes.update(size_dist="exponential", size_mean=draw(number(1.0, 1e4)))
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
    return ScenarioConfig(
        name=draw(st.text("abcxyz_019", min_size=1, max_size=8)),
        slices=slices,
        topology=Topology(edges=edges, cores=cores, buffer_pkts=draw(st.integers(1, 1000))),
        initial_alloc=AllocationMatrix(tuple(ids), shares[:, :len(edges)],
                                       shares[:, len(edges):]),
        sim=SimConfig(horizon_s=horizon_s, warmup_s=draw(st.floats(0.0, 0.9)) * horizon_s,
                      propagation_ms=draw(number(0.0, 5.0))),
        osra=OsraConfig(
            eta=draw(number(0.0, 1.0)),
            delta=draw(st.floats(1e-4, 0.5)), probes=draw(st.integers(1, 20)),
            epsilon=draw(number(0.0, 10.0)), max_iters=draw(st.integers(1, 50)),
            transfer_rule=draw(st.sampled_from(["algorithm1", "conservative"])),
            statistic=draw(st.sampled_from(["max", "mean", "p50", "p99", "p99.9"])),
            penalty_exponent=draw(st.sampled_from([1, 2])),
            delay_ceiling_ms=draw(number(1.0, 1e5))),
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
        # equal is not enough: runs are compared by the digest of their pickle
        sc = load_scenario(REPO / "scenarios" / "reference.yaml")
        assert pickle.dumps(reference_scenario()) == pickle.dumps(sc)
        # nor is the same scenario: a comment or layout edit to one copy shows here
        shipped = (REPO / "scenarios" / "reference.yaml").read_bytes()
        assert shipped == (REPO / "src" / "slicelab" / "reference.yaml").read_bytes()

    def test_package_carries_its_own_copy(self, tmp_path):
        # a copy of the package alone, outside the checkout, still finds the scenario
        shutil.copytree(REPO / "src" / "slicelab", tmp_path / "slicelab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from slicelab import reference_scenario; print(reference_scenario().name)"],
            capture_output=True, text=True, cwd=tmp_path, timeout=300,
            env={**os.environ, "PYTHONPATH": str(tmp_path)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "reference\n"

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
        p.write_text(yaml.safe_dump(scenario_to_dict(sc)))
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
        p.write_text(yaml.safe_dump(scenario_to_dict(sc)))
        assert math.isinf(load_scenario(p).slices[2].requirement.tau_ms)

    def test_null_tau_means_unbounded(self):
        data = ref_dict()
        data["slices"][2]["tau_ms"] = None
        sc = scenario_from_dict(data)
        assert not sc.slices[2].requirement.bounded

    def test_integer_valued_floats_run_alike(self):
        # the reader casts nothing: 10 stays an int where the file has 10.0,
        # and the run pickles byte for byte as from the shipped file
        data = yaml.safe_load((REPO / "scenarios" / "reference.yaml").read_text())
        shipped, as_ints = (scenario_from_dict(d) for d in (data, integer_valued_as_int(data)))
        assert type(as_ints.sim.horizon_s) is int and as_ints == shipped
        runs = [run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                         sc.new_slice_id, sc.osra, seed=0) for sc in (shipped, as_ints)]
        assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])

    def test_numpy_scalars_are_written_as_python_scalars(self):
        sc = reference_scenario()
        new = sc.slices[0]
        new = dataclasses.replace(
            new, alpha_tau=np.float64(3.0),
            requirement=QoeRequirement(np.float64(2.0), np.float64(0.999)),
            traffic=dataclasses.replace(new.traffic, mean_rate=np.float64(200.0)))
        sc = dataclasses.replace(sc, slices=(new,) + sc.slices[1:],
                                 sim=dataclasses.replace(sc.sim, horizon_s=np.float64(10.0)),
                                 osra=dataclasses.replace(sc.osra, eta=np.float64(0.06)))
        assert scenario_from_dict(yaml.safe_load(yaml.safe_dump(scenario_to_dict(sc)))) == sc

    def test_exponential_sizes_need_a_size_mean(self):
        # no midpoint stands in for the mean a file leaves out
        data = ref_dict()
        data["slices"][0]["traffic"].update(size_dist="exponential")
        with pytest.raises(InvariantViolation,
                           match=r"slice 'slice1'\.traffic\.size_mean: "
                                 r"size_mean must be in \(0, inf\), got None") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.traffic.size_mean"

    @pytest.mark.parametrize("size_max", [2**63, 2**64])
    def test_a_size_past_int64_is_refused_naming_the_slice(self, size_max):
        data = ref_dict()
        data["slices"][0]["traffic"].update(size_max=size_max)
        with pytest.raises(InvariantViolation,
                           match=rf"slice 'slice1'\.traffic\.size_max: size_max must be at most "
                                 rf"2\*\*63 - 1, the largest size a draw holds, "
                                 rf"got {size_max}") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.traffic.size_max"

    def test_uniform_sizes_refuse_a_size_mean(self):
        # a value the run would never read
        data = ref_dict()
        data["slices"][0]["traffic"].update(size_mean=5.0)
        with pytest.raises(InvariantViolation,
                           match=r"slice 'slice1'\.traffic\.size_mean: "
                                 r"only exponential sizes read size_mean, "
                                 r"got 5\.0 with size_dist 'uniform'") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.traffic.size_mean"


class TestGeneratedRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios())
    def test_load_save_identity(self, sc, tmp_path_factory):
        p = tmp_path_factory.getbasetemp() / "generated.yaml"
        p.write_text(yaml.safe_dump(scenario_to_dict(sc)))
        assert load_scenario(p) == sc
        p.write_text(yaml.safe_dump(integer_valued_as_int(scenario_to_dict(sc))))
        assert load_scenario(p) == sc


class TestMalformed:
    def test_empty_document(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("- just\n- a list\n")
        with pytest.raises(InvariantViolation, match="top level must be a mapping") as exc:
            load_scenario(p)
        assert exc.value.violations == [(str(p), f"{p}: top level must be a mapping")]

    def test_missing_topology(self):
        data = ref_dict()
        del data["topology"]
        with pytest.raises(InvariantViolation, match="missing key 'topology'") as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [("topology", "missing key 'topology' in scenario")]

    def test_missing_slice_field_names_the_slice(self):
        data = ref_dict()
        del data["slices"][0]["tau_ms"]
        with pytest.raises(InvariantViolation,
                           match="missing key 'tau_ms' in slice 'slice1'") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.tau_ms"

    def test_garbage_tau(self):
        data = ref_dict()
        data["slices"][0]["tau_ms"] = "soon"
        with pytest.raises(InvariantViolation, match=re.escape(
                "slice 'slice1'.tau_ms: tau_ms must be in (0, inf], got 'soon'")) as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.tau_ms"

    def test_a_bad_slice_value_names_the_slice_once(self):
        # SliceSpec's message names the slice, and so does the reader's key
        data = ref_dict()
        data["slices"][0]["alpha_tau"] = -1
        with pytest.raises(InvariantViolation) as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [(
            "slice 'slice1'.alpha_tau",
            "slice 'slice1'.alpha_tau: alpha_tau must be in [0, inf), got -1")]

    def test_every_failing_section_and_slice_is_named(self):
        data = ref_dict()
        for spec in data["slices"]:
            spec["alpha_tau"] = -1
        data["sim"]["horizon_s"] = -1
        data["osra"]["probes"] = 0
        with pytest.raises(InvariantViolation) as exc:
            scenario_from_dict(data)
        assert [field for field, _ in exc.value.violations] == [
            "slice 'slice1'.alpha_tau", "slice 'slice2'.alpha_tau", "slice 'slice3'.alpha_tau",
            "sim.horizon_s", "osra.probes"]

    def test_stray_traffic_key(self):
        data = ref_dict()
        data["slices"][0]["traffic"]["color"] = "red"
        with pytest.raises(InvariantViolation, match=r"unknown key\(s\) \['color'\]") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "slice 'slice1'.traffic"

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
        with pytest.raises(InvariantViolation,
                           match=rf"unknown key\(s\) \['max_iter'\] in {re.escape(where)}") as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [(where, f"unknown key(s) ['max_iter'] in {where}")]

    def test_uncastable_value_names_the_key(self):
        data = ref_dict()
        data["osra"]["probes"] = "many"
        with pytest.raises(InvariantViolation, match=re.escape(
                "osra.probes: probes must be a whole number in [1, inf), got 'many'")) as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "osra.probes"
        data = ref_dict()
        data["sim"]["horizon_s"] = None
        with pytest.raises(InvariantViolation, match=re.escape(
                "sim.horizon_s: horizon_s must be in (0, inf), got None")) as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "sim.horizon_s"

    @pytest.mark.parametrize("mutate, key, message", [
        (lambda d: d["osra"].pop("epsilon"), "osra.epsilon", "missing key 'epsilon' in osra"),
        (lambda d: d["slices"][0]["traffic"].pop("size_dist"),
         "slice 'slice1'.traffic.size_dist", "missing key 'size_dist' in slice 'slice1'.traffic"),
    ], ids=["epsilon", "size_dist"])
    def test_a_missing_key_is_keyed_by_its_path(self, mutate, key, message):
        data = ref_dict()
        mutate(data)
        with pytest.raises(InvariantViolation) as exc:
            scenario_from_dict(data)
        assert exc.value.violations == [(key, message)]

    def test_unreadable_file_is_keyed_by_its_path(self, tmp_path):
        p = tmp_path / "nope.yaml"
        with pytest.raises(InvariantViolation) as exc:
            load_scenario(p)
        assert exc.value.violations[0][0] == str(p)
        assert str(exc.value).startswith(f"{p}: ")

    def test_alloc_row_missing_cpu(self):
        data = ref_dict()
        del data["initial_alloc"]["slice2"]["cpu"]
        with pytest.raises(InvariantViolation,
                           match="missing key 'cpu' in initial_alloc.slice2") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "initial_alloc.slice2.cpu"

    def test_overcommitted_alloc(self):
        data = ref_dict()
        data["initial_alloc"]["slice1"]["flows"] = [0.9]
        with pytest.raises(InvariantViolation, match="initial_alloc"):
            scenario_from_dict(data)

    def test_unknown_new_slice(self):
        data = ref_dict()
        data["new_slice"] = "slice9"
        with pytest.raises(InvariantViolation, match="not a slice id"):
            scenario_from_dict(data)


class TestCrossCuttingInvariants:
    @pytest.mark.parametrize("field, text", [
        ("flows", "flows must hold one entry per topology edge (1), got 2"),
        ("cpu", "cpu must hold one entry per topology core (2), got 3"),
    ], ids=["flows", "cpu"])
    def test_a_row_of_another_width_gets_one_message(self, field, text):
        # the reader, validate and stage_rates word the mismatch alike
        data = ref_dict()
        data["initial_alloc"]["slice1"][field].append(0.0)
        with pytest.raises(InvariantViolation) as read:
            scenario_from_dict(data)
        sc = reference_scenario()
        a = sc.initial_alloc
        pad = lambda x: np.hstack([x, np.zeros((len(x), 1))])
        wide = AllocationMatrix(a.slice_ids, pad(a.flows) if field == "flows" else a.flows,
                                pad(a.cpu) if field == "cpu" else a.cpu)
        with pytest.raises(InvariantViolation) as validated:
            dataclasses.replace(sc, initial_alloc=wide).validate()
        with pytest.raises(InvariantViolation) as rated:
            stage_rates(wide.row("slice1"), sc.topology)
        key = f"initial_alloc.slice1.{field}"
        assert read.value.violations == [(key, f"{key}: {text}")]
        assert validated.value.violations == [(f"initial_alloc.{field}", text)]
        assert rated.value.violations == [(field, text)]

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

    def test_bad_statistic(self):
        data = ref_dict()
        data["osra"]["statistic"] = "p105"
        with pytest.raises(InvariantViolation, match=r"osra\.statistic: percentile out of") as exc:
            scenario_from_dict(data)
        assert exc.value.violations[0][0] == "osra.statistic"

    def test_statistic_just_above_100_is_refused_by_the_loader(self, tmp_path):
        data = ref_dict()
        data["osra"]["statistic"] = "p100.0000000000000001"
        p = tmp_path / "above.yaml"
        p.write_text(yaml.safe_dump(data))
        with pytest.raises(InvariantViolation, match=r"osra\.statistic: percentile out of "
                                                     r"\(0,100\]: p100\.0000000000000001"):
            load_scenario(p)


