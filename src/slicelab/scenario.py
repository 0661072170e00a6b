"""Scenario files: everything one reconfiguration experiment needs, in YAML.

A scenario bundles the slice set, the substrate, the starting allocation,
simulation knobs, and algorithm knobs, plus which slice is the new
arrival. Files round-trip exactly: load(save(sc)) == sc, floats included.
An unbounded delay requirement is written as the string "unbounded".
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping

import numpy as np
import yaml

from .domain import (
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    QoeRequirement,
    SliceSpec,
    Topology,
    TrafficModel,
    UNBOUNDED,
)
from .osra import OsraConfig, order_key
from .simulator import SimConfig


class ScenarioError(ValueError):
    """A scenario file that cannot be interpreted; message names the key."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    slices: tuple
    topology: Topology
    initial_alloc: AllocationMatrix
    sim: SimConfig
    osra: OsraConfig
    new_slice_id: str

    def __post_init__(self):
        object.__setattr__(self, "slices", tuple(self.slices))

    def slice_by_id(self, slice_id: str) -> SliceSpec:
        for s in self.slices:
            if s.id == slice_id:
                return s
        raise KeyError(f"unknown slice id {slice_id!r}")

    @property
    def new_slice(self) -> SliceSpec:
        return self.slice_by_id(self.new_slice_id)

    def donors(self) -> tuple:
        me = self.new_slice
        return tuple(s for s in self.slices if order_key(s) > order_key(me))

    def validate(self) -> "ScenarioConfig":
        """Every cross-cutting invariant; raises listing all failures, each by its key."""
        errs = []
        ids = [s.id for s in self.slices]
        alloc, topo = self.initial_alloc, self.topology
        if len(set(ids)) != len(ids):
            errs.append(("slices", "duplicate slice ids"))
        if set(alloc.slice_ids) != set(ids):
            errs.append(("initial_alloc", f"allocation rows {sorted(alloc.slice_ids)} "
                                          f"do not match slices {sorted(ids)}"))
        for kind, have, want in (("edge", alloc.n_edges, topo.n_edges),
                                 ("core", alloc.n_cores, topo.n_cores)):
            if have != want:
                errs.append(("initial_alloc",
                             f"allocation has {have} {kind} columns, topology {want}"))
        if self.new_slice_id not in ids:
            errs.append(("new_slice", f"new_slice {self.new_slice_id!r} is not a slice id"))
        else:
            new = self.new_slice
            where = f"slice {new.id!r}"
            donors = self.donors()
            if not donors:
                errs.append(("new_slice",
                             f"new slice {self.new_slice_id!r} has no lower-priority slices"))
            for d in donors:
                if new.alpha_rho <= d.alpha_rho:
                    errs.append((f"{where}.alpha_rho",
                                 f"alpha_rho of new slice ({new.alpha_rho}) must exceed "
                                 f"lower-priority {d.id!r} ({d.alpha_rho})"))
                if (new.requirement.bounded and d.requirement.bounded
                        and new.alpha_tau <= d.alpha_tau):
                    errs.append((f"{where}.alpha_tau",
                                 f"alpha_tau of new slice ({new.alpha_tau}) must exceed "
                                 f"lower-priority {d.id!r} ({d.alpha_tau})"))
            missing = self.osra.missing_etas(d.id for d in donors)
            if missing:
                errs.append(("osra.eta", f"osra.eta map missing donor slices {missing}"))
        InvariantViolation.check(errs)
        return self


def _mapping(d, where, known=None):
    """d itself, after checking it is a mapping with no key outside `known`."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(d).__name__}")
    stray = set() if known is None else set(d) - set(known)
    if stray:
        raise ScenarioError(f"unknown key(s) {sorted(stray, key=str)} in {where}")
    return d


def _req(mapping, key, where):
    if key not in _mapping(mapping, where):
        raise ScenarioError(f"missing key {key!r} in {where}")
    return mapping[key]


_CASTS = {"float": float, "int": int, "str": str}


def _floats(value, where):
    """A YAML list of numbers, each cast to float."""
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list of float, got {value!r}")
    return [_cast("float", v, where) for v in value]


def _capacities(value, where):
    """A YAML mapping of id to number, as ((id, float), ...)."""
    return tuple((k, _cast("float", v, f"{where}.{k}")) for k, v in _mapping(value, where).items())


def _cast(annotation, value, where):
    """Cast a YAML value by a field annotation: float, int, str or X | None."""
    base, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return None
    try:
        return _CASTS[base](value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where} must be {base}, got {value!r}") from None


def _from_dict(cls, d, where, **by_hand):
    """Build dataclass `cls` from a YAML mapping, one key per field.

    Missing keys take the field default; `by_hand` maps a field name to a
    function (value, where) -> field value used in place of the cast.
    """
    fields = dataclasses.fields(cls)
    _mapping(d, where, [f.name for f in fields])
    kw = {}
    for f in fields:
        if f.name in d:
            cast = by_hand.get(f.name) or partial(_cast, f.type)
            kw[f.name] = cast(d[f.name], f"{where}.{f.name}")
        elif f.default is dataclasses.MISSING:
            raise ScenarioError(f"missing key {f.name!r} in {where}")
    return _build(cls, where, **kw)


def _build(make, where, **kw):
    """make(**kw), its violations re-raised as one ScenarioError naming <where>.<field>."""
    try:
        return make(**kw)
    except InvariantViolation as e:
        raise ScenarioError(
            "; ".join(f"{where}.{field}: {msg}" for field, msg in e.violations)) from None


def _to_dict(obj, **by_hand) -> dict:
    """The YAML mapping `_from_dict` reads back; None fields are left out."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in by_hand:
            out[f.name] = by_hand[f.name](value)
        elif value is not None:
            out[f.name] = _CASTS[f.type.partition(" | ")[0]](value)
    return out


def _tau_from_yaml(value, where):
    if value is None or value == "unbounded":
        return UNBOUNDED
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(
            f"{where}.tau_ms must be a number or \"unbounded\", got {value!r}") from None


def _tau_to_yaml(tau_ms):
    return "unbounded" if math.isinf(tau_ms) else float(tau_ms)


def _eta_from_yaml(value, where):
    if isinstance(value, dict):
        return {str(k): _cast("float", v, f"{where}.{k}") for k, v in value.items()}
    return _cast("float", value, where)


def _eta_to_yaml(eta):
    if isinstance(eta, Mapping):
        return {k: float(v) for k, v in eta.items()}
    return float(eta)


def _slice_from_dict(d) -> SliceSpec:
    sid = str(_req(d, "id", "slices[]"))
    where = f"slice {sid!r}"
    _mapping(d, where, ("id", "priority_rank", "tau_ms", "rho", "alpha_tau",
                        "alpha_rho", "demand_mi", "traffic"))

    def num(key, kind="float"):
        return _cast(kind, _req(d, key, where), f"{where}.{key}")

    tau_ms = _tau_from_yaml(_req(d, "tau_ms", where), where)
    return _build(
        SliceSpec, where,
        id=sid,
        requirement=_build(QoeRequirement, where, tau_ms=tau_ms, rho=num("rho")),
        alpha_tau=num("alpha_tau"),
        alpha_rho=num("alpha_rho"),
        traffic=_from_dict(TrafficModel, _req(d, "traffic", where), f"{where}.traffic"),
        demand_mi=num("demand_mi"),
        priority_rank=num("priority_rank", "int"),
    )


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build an (already validated) ScenarioConfig from plain YAML data."""
    _mapping(data, "scenario", ("name", "new_slice", "topology", "slices",
                                "initial_alloc", "sim", "osra"))
    topology = _from_dict(Topology, _req(data, "topology", "scenario"), "topology",
                          edges=_capacities, cores=_capacities)
    slices = tuple(_slice_from_dict(d) for d in _req(data, "slices", "scenario"))

    alloc_d = _mapping(_req(data, "initial_alloc", "scenario"), "initial_alloc")
    rows = {str(sid): _from_dict(AllocationVector, row, f"initial_alloc.{sid}",
                                 flows=_floats, cpu=_floats)
            for sid, row in alloc_d.items()}
    alloc = _build(AllocationMatrix.from_rows, "initial_alloc", rows=rows)

    sc = ScenarioConfig(
        name=str(data.get("name", "scenario")),
        slices=slices,
        topology=topology,
        initial_alloc=alloc,
        sim=_from_dict(SimConfig, data.get("sim", {}), "sim"),
        osra=_from_dict(OsraConfig, data.get("osra", {}), "osra", eta=_eta_from_yaml),
        new_slice_id=str(_req(data, "new_slice", "scenario")),
    )
    return sc.validate()


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    return {
        "name": sc.name,
        "new_slice": sc.new_slice_id,
        "topology": _to_dict(sc.topology, edges=dict, cores=dict),
        "slices": [
            {
                "id": s.id,
                "priority_rank": int(s.priority_rank),
                "tau_ms": _tau_to_yaml(s.requirement.tau_ms),
                "rho": float(s.requirement.rho),
                "alpha_tau": float(s.alpha_tau),
                "alpha_rho": float(s.alpha_rho),
                "demand_mi": float(s.demand_mi),
                "traffic": _to_dict(s.traffic),
            }
            for s in sc.slices
        ],
        "initial_alloc": {
            sid: _to_dict(sc.initial_alloc.row(sid), flows=np.ndarray.tolist,
                          cpu=np.ndarray.tolist)
            for sid in sc.initial_alloc.slice_ids
        },
        "sim": _to_dict(sc.sim),
        "osra": _to_dict(sc.osra, eta=_eta_to_yaml),
    }


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return scenario_from_dict(data)


def save_scenario(sc: ScenarioConfig, path):
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(sc), fh, sort_keys=False)


def with_overrides(sc: ScenarioConfig, **osra_fields) -> ScenarioConfig:
    """Copy a scenario with some algorithm knobs replaced (CLI flags)."""
    osra = _build(partial(replace, sc.osra), "osra", **osra_fields)
    return replace(sc, osra=osra).validate()


def reference_scenario() -> ScenarioConfig:
    """The built-in three-slice hand-off scenario.

    Slice 1 is the new arrival: 2 ms / 99.9% with 5e4 MI per request.
    Slice 2 runs 5 ms / 95% at 8e4 MI; slice 3 is best-effort (unbounded
    delay, zero-loss target). The server has two 3e8 MIPS cores; packet
    sizes are uniform on [20, 65535] bytes. Remaining numbers (rates,
    burst shape, link capacity, starting split, algorithm knobs) are lab
    defaults, tuned so the hand-off needs roughly half the link and most
    of a core; they carry no outside meaning.
    """
    traffic = dict(kind="bursty-onoff", burst_len=8.0, off_time_ms=38.0,
                   size_min=20, size_max=65535)
    slices = (
        SliceSpec(
            id="slice1",
            requirement=QoeRequirement(tau_ms=2.0, rho=0.999),
            alpha_tau=3.0, alpha_rho=3.0,
            traffic=TrafficModel(mean_rate=200.0, **traffic),
            demand_mi=5e4, priority_rank=0,
        ),
        SliceSpec(
            id="slice2",
            requirement=QoeRequirement(tau_ms=5.0, rho=0.95),
            alpha_tau=1.0, alpha_rho=1.0,
            traffic=TrafficModel(mean_rate=150.0, **traffic),
            demand_mi=8e4, priority_rank=1,
        ),
        SliceSpec(
            id="slice3",
            requirement=QoeRequirement(tau_ms=UNBOUNDED, rho=1.0),
            alpha_tau=0.25, alpha_rho=0.5,
            traffic=TrafficModel(mean_rate=100.0, **traffic),
            demand_mi=6e4, priority_rank=2,
        ),
    )
    topology = Topology(edges=(("link", 2500.0),),
                        cores=(("core0", 3e8), ("core1", 3e8)),
                        buffer_pkts=100)
    alloc = AllocationMatrix.from_rows({
        "slice1": AllocationVector(np.array([0.04]), np.array([0.02, 0.02])),
        "slice2": AllocationVector(np.array([0.60]), np.array([0.55, 0.55])),
        "slice3": AllocationVector(np.array([0.36]), np.array([0.43, 0.43])),
    })
    sc = ScenarioConfig(
        name="reference",
        slices=slices,
        topology=topology,
        initial_alloc=alloc,
        sim=SimConfig(horizon_s=10.0, warmup_s=1.0, propagation_ms=0.1, seed=0),
        osra=OsraConfig(
            eta=0.06, eta_schedule="constant", delta=0.02, probes=10,
            epsilon=0.05, max_iters=15, transfer_rule="algorithm1",
            statistic="p99", penalty_exponent=1, delay_ceiling_ms=250.0,
            donor_gradients="analytic",
        ),
        new_slice_id="slice1",
    )
    return sc.validate()
