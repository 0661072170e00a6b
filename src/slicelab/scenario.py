"""Scenario files: everything one reconfiguration experiment needs, in YAML.

A scenario bundles the slice set, the substrate, the starting allocation,
simulation knobs, and algorithm knobs, plus which slice is the new
arrival. Files round-trip exactly, floats included:
scenario_from_dict(yaml.safe_load(yaml.safe_dump(scenario_to_dict(sc)))) == sc,
and `slicelab validate` prints that YAML. An unbounded delay
requirement is written as the string "unbounded".

The reader casts nothing but str() of the name, slice ids and initial_alloc
keys. It checks the file's shape (mappings, lists, known and required keys)
and hands each value as it is to its value type, whose checks are the one
rule for every value: a quoted number such as "200.0" is refused like any
string. Each violation is an InvariantViolation keyed by the path its message
names: <section>.<field>, a section of a bad shape, a missing key, or the file.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

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
from .osra import OsraConfig, new_slice_and_donors
from .simulator import SimConfig


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

    def donors(self) -> tuple:
        return new_slice_and_donors(self.slices, self.new_slice_id)[1]

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
        errs += [(f"initial_alloc.{field}", msg)
                 for field, msg in topo.width_violations(alloc.n_edges, alloc.n_cores)]
        try:
            new, donors = new_slice_and_donors(self.slices, self.new_slice_id)
        except InvariantViolation as e:
            errs += e.violations
            donors = ()
        where = f"slice {self.new_slice_id!r}"
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
        InvariantViolation.check(errs)
        return self


def _mapping(d, where, known=None):
    """d itself, after checking it is a mapping with no key outside `known`."""
    if not isinstance(d, dict):
        raise InvariantViolation([(where, f"{where} must be a mapping, got {type(d).__name__}")])
    stray = set() if known is None else set(d) - set(known)
    if stray:
        raise InvariantViolation([(where, f"unknown key(s) {sorted(stray, key=str)} in {where}")])
    return d


def _req(mapping, key, where):
    if key not in _mapping(mapping, where):
        path = key if where == "scenario" else f"{where}.{key}"  # a top-level key: its name
        raise InvariantViolation([(path, f"missing key {key!r} in {where}")])
    return mapping[key]


def _capacities(value, where):
    """A YAML mapping of id to capacity, as ((id, capacity), ...)."""
    return tuple(_mapping(value, where).items())


def _from_dict(cls, d, where, **by_hand):
    """Build dataclass `cls` from a YAML mapping, one key per field.

    Each value goes to `cls` as it is, and `cls` checks it. A key may be
    missing only where its field defaults to None; `by_hand` maps a field
    name to a function (value, where) -> field value used in its place.
    """
    fields = dataclasses.fields(cls)
    _mapping(d, where, [f.name for f in fields])
    kw = {}
    for f in fields:
        if f.name in d or f.default is dataclasses.MISSING:
            value, make = _req(d, f.name, where), by_hand.get(f.name)
            kw[f.name] = make(value, f"{where}.{f.name}") if make else value
    return _build(cls, where, **kw)


def _build(make, where, **kw):
    """make(**kw), each of its violations re-keyed, and its message prefixed, <where>.<field>."""
    try:
        return make(**kw)
    except InvariantViolation as e:
        raise InvariantViolation([(f"{where}.{field}", f"{where}.{field}: {msg}")
                                  for field, msg in e.violations]) from None


def _plain(value):
    """value, a numpy scalar turned into the Python scalar yaml.safe_dump writes."""
    return value.item() if isinstance(value, np.generic) else value


def _to_dict(obj, **by_hand) -> dict:
    """The YAML mapping `_from_dict` reads back; None fields are left out."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in by_hand:
            out[f.name] = by_hand[f.name](value)
        elif value is not None:
            out[f.name] = _plain(value)
    return out


def _slice_from_dict(d) -> SliceSpec:
    sid = str(_req(d, "id", "slices[]"))
    where = f"slice {sid!r}"
    _mapping(d, where, ("id", "priority_rank", "tau_ms", "rho", "alpha_tau",
                        "alpha_rho", "demand_mi", "traffic"))
    tau = _req(d, "tau_ms", where)  # null and "unbounded" are UNBOUNDED
    return _build(
        SliceSpec, where,
        id=sid,
        requirement=_build(QoeRequirement, where,
                           tau_ms=UNBOUNDED if tau is None or tau == "unbounded" else tau,
                           rho=_req(d, "rho", where)),
        alpha_tau=_req(d, "alpha_tau", where),
        alpha_rho=_req(d, "alpha_rho", where),
        traffic=_from_dict(TrafficModel, _req(d, "traffic", where), f"{where}.traffic"),
        demand_mi=_req(d, "demand_mi", where),
        priority_rank=_req(d, "priority_rank", where),
    )


def _alloc_row_from_dict(d, where, topology) -> AllocationVector:
    """One initial_alloc row, with one entry per edge and per core of `topology`."""
    row = _from_dict(AllocationVector, d, where)
    _build(InvariantViolation.check, where,
           violations=topology.width_violations(row.flows.size, row.cpu.size))
    return row


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build an (already validated) ScenarioConfig from plain YAML data."""
    _mapping(data, "scenario", ("name", "new_slice", "topology", "slices",
                                "initial_alloc", "sim", "osra"))
    topology = _from_dict(Topology, _req(data, "topology", "scenario"), "topology",
                          edges=_capacities, cores=_capacities)
    slices_d = _req(data, "slices", "scenario")
    if not isinstance(slices_d, list):
        raise InvariantViolation([("slices", f"slices must be a list of slice mappings, "
                                             f"got {slices_d!r}")])
    slices = tuple(_slice_from_dict(d) for d in slices_d)

    alloc_d = _mapping(_req(data, "initial_alloc", "scenario"), "initial_alloc")
    rows = {str(sid): _alloc_row_from_dict(row, f"initial_alloc.{sid}", topology)
            for sid, row in alloc_d.items()}
    alloc = _build(AllocationMatrix.from_rows, "initial_alloc", rows=rows)

    return ScenarioConfig(
        name=str(data.get("name", "scenario")),
        slices=slices,
        topology=topology,
        initial_alloc=alloc,
        sim=_from_dict(SimConfig, _req(data, "sim", "scenario"), "sim"),
        osra=_from_dict(OsraConfig, _req(data, "osra", "scenario"), "osra"),
        new_slice_id=str(_req(data, "new_slice", "scenario")),
    ).validate()


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    return {
        "name": sc.name,
        "new_slice": sc.new_slice_id,
        "topology": _to_dict(sc.topology, edges=dict, cores=dict),
        "slices": [
            {
                "id": s.id,
                "priority_rank": s.priority_rank,
                "tau_ms": _plain(s.requirement.tau_ms) if s.requirement.bounded else "unbounded",
                "rho": _plain(s.requirement.rho),
                "alpha_tau": _plain(s.alpha_tau),
                "alpha_rho": _plain(s.alpha_rho),
                "demand_mi": _plain(s.demand_mi),
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
        "osra": _to_dict(sc.osra),
    }


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
        raise InvariantViolation([(str(path), f"{path}: {e}")]) from None
    if not isinstance(data, dict):
        raise InvariantViolation([(str(path), f"{path}: top level must be a mapping")])
    return scenario_from_dict(data)


def reference_scenario() -> ScenarioConfig:
    """The built-in three-slice hand-off scenario: the package's
    reference.yaml, shipped also as scenarios/reference.yaml."""
    return load_scenario(Path(__file__).with_name("reference.yaml"))
