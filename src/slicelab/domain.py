"""Core value types: QoE requirements, traffic models, slices, topology,
allocations, and measured QoE samples.

All types are immutable values that check their own bounds at
construction; :func:`validate_scenario` adds the checks that span a whole
(slices, topology, allocation) triple and reports all violations at once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

UNBOUNDED = math.inf

# Allocations coming out of the projection carry float round-off; validation
# must never reject them.
CAPACITY_TOL = 1e-9

TRAFFIC_KINDS = ("bursty-onoff", "poisson")
SIZE_DISTS = ("uniform", "exponential")


class InvariantViolation(ValueError):
    """One or more domain invariants failed. ``violations`` lists them all."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _raise_if(errs):
    if errs:
        raise InvariantViolation(errs)


def _ro_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QoeRequirement:
    """Delay bound tau (ms) and throughput floor rho for one slice.

    tau_ms may be math.inf ("unbounded") for best-effort slices.
    """

    tau_ms: float
    rho: float

    def __post_init__(self):
        _raise_if(check_requirement(self))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.tau_ms)


def check_requirement(req) -> list[str]:
    errs = []
    if not (req.tau_ms > 0):
        errs.append(f"tau must be > 0 or unbounded, got {req.tau_ms}")
    if not (0.0 <= req.rho <= 1.0):
        errs.append(f"rho out of [0,1]: {req.rho}")
    return errs


@dataclass(frozen=True)
class TrafficModel:
    """Request arrival process and packet-size law for one slice.

    kind "bursty-onoff": bursts of geometric(mean burst_len) packets whose
    in-burst spacing is derived from mean_rate, separated by exponential
    gaps of mean off_time_ms. kind "poisson": memoryless arrivals.
    Sizes are uniform integers on [size_min, size_max] by default, or a
    truncated exponential with mean size_mean when size_dist="exponential".
    """

    kind: str
    mean_rate: float                 # requests per second
    burst_len: float | None = None   # mean packets per burst (bursty only)
    off_time_ms: float | None = None  # mean inter-burst gap (bursty only)
    size_min: int = 20
    size_max: int = 65535
    size_dist: str = "uniform"
    size_mean: float | None = None   # exponential only; defaults to midpoint

    def __post_init__(self):
        _raise_if(check_traffic(self))

    def mean_size_bytes(self) -> float:
        if self.size_dist == "exponential" and self.size_mean is not None:
            return float(self.size_mean)
        return (self.size_min + self.size_max) / 2.0

    def intra_burst_gap_s(self) -> float:
        """In-burst packet spacing consistent with the long-run mean rate.

        mean cycle = burst_len*gap + off_time, packets per cycle = burst_len.
        """
        if self.kind != "bursty-onoff":
            raise ValueError("intra_burst_gap_s only defined for bursty-onoff")
        gap = 1.0 / self.mean_rate - (self.off_time_ms / 1000.0) / self.burst_len
        return max(0.0, gap)


def check_traffic(tm) -> list[str]:
    errs = []
    if tm.kind not in TRAFFIC_KINDS:
        errs.append(f"unknown traffic kind {tm.kind!r}")
    if not (tm.mean_rate > 0):
        errs.append(f"mean_rate must be > 0, got {tm.mean_rate}")
    if tm.kind == "bursty-onoff":
        if tm.burst_len is None or not (tm.burst_len >= 1):
            errs.append(f"burst_len must be >= 1 for bursty-onoff, got {tm.burst_len}")
        if tm.off_time_ms is None or not (tm.off_time_ms >= 0):
            errs.append(f"off_time_ms must be >= 0, got {tm.off_time_ms}")
        if (
            tm.burst_len is not None
            and tm.off_time_ms is not None
            and tm.burst_len >= 1
            and tm.mean_rate > 0
        ):
            gap = 1.0 / tm.mean_rate - (tm.off_time_ms / 1000.0) / tm.burst_len
            if gap < -1e-12:
                errs.append(
                    "mean_rate exceeds the burst envelope: need "
                    f"mean_rate <= burst_len/off_time ({tm.mean_rate} vs "
                    f"{tm.burst_len / (tm.off_time_ms / 1000.0):.3f}/s)"
                )
    if not (1 <= tm.size_min <= tm.size_max):
        errs.append(f"need 1 <= size_min <= size_max, got [{tm.size_min}, {tm.size_max}]")
    if tm.size_dist not in SIZE_DISTS:
        errs.append(f"unknown size_dist {tm.size_dist!r}")
    if tm.size_mean is not None and not (tm.size_mean > 0):
        errs.append(f"size_mean must be > 0, got {tm.size_mean}")
    return errs


@dataclass(frozen=True)
class SliceSpec:
    """One slice: identity, QoE requirement, penalty weights, traffic, demand.

    Lower priority_rank = higher priority. alpha_tau/alpha_rho weight the
    delay and throughput hinge terms of the slice's penalty.
    """

    id: str
    requirement: QoeRequirement
    alpha_tau: float
    alpha_rho: float
    traffic: TrafficModel
    demand_mi: float          # processing demand per request, million instructions
    priority_rank: int

    def __post_init__(self):
        _raise_if(check_slice(self))


def check_slice(s) -> list[str]:
    errs = []
    if not s.id:
        errs.append("slice id must be non-empty")
    if s.alpha_tau < 0 or s.alpha_rho < 0:
        errs.append(f"slice {s.id}: alpha weights must be >= 0")
    if not (s.demand_mi > 0):
        errs.append(f"slice {s.id}: demand_mi must be > 0, got {s.demand_mi}")
    errs += [f"slice {s.id}: {e}" for e in check_requirement(s.requirement)]
    errs += [f"slice {s.id}: {e}" for e in check_traffic(s.traffic)]
    return errs


@dataclass(frozen=True)
class Topology:
    """Shared substrate: link edges (Mbps), server cores (MIPS), buffer size.

    buffer_pkts is the per-slice router queue capacity in packets, counting
    the packet in transmission. The server-side queue is unbounded.
    """

    edges: tuple    # ((edge_id, capacity_mbps), ...)
    cores: tuple    # ((core_id, mips), ...)
    buffer_pkts: int = 100

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((str(e), float(c)) for e, c in self.edges))
        object.__setattr__(self, "cores", tuple((str(c), float(m)) for c, m in self.cores))
        _raise_if(check_topology(self))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def edge_bps(self) -> np.ndarray:
        return np.array([c * 1e6 for _, c in self.edges])

    def core_mips(self) -> np.ndarray:
        return np.array([m for _, m in self.cores])


def check_topology(t) -> list[str]:
    errs = []
    if not t.edges:
        errs.append("topology needs at least one edge")
    if not t.cores:
        errs.append("topology needs at least one core")
    for name, cap in t.edges:
        if not (cap > 0):
            errs.append(f"edge {name}: capacity must be > 0, got {cap}")
    for name, mips in t.cores:
        if not (mips > 0):
            errs.append(f"core {name}: MIPS must be > 0, got {mips}")
    if not (t.buffer_pkts >= 1):
        errs.append(f"buffer_pkts must be >= 1, got {t.buffer_pkts}")
    ids = [e for e, _ in t.edges] + [c for c, _ in t.cores]
    if len(set(ids)) != len(ids):
        errs.append("edge/core ids must be unique")
    return errs


@dataclass(frozen=True, eq=False)
class AllocationVector:
    """One slice's share of every resource: link fractions + core fractions.

    flows[e] is the fraction of edge e's bandwidth, cpu[c] the fraction of
    core c. Every entry lies in [0, 1].
    """

    flows: np.ndarray
    cpu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flows", _ro_array(self.flows))
        object.__setattr__(self, "cpu", _ro_array(self.cpu))
        _raise_if(check_alloc_vector(self))

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.flows, self.cpu])

    @classmethod
    def from_stacked(cls, vec, n_edges: int) -> "AllocationVector":
        vec = np.asarray(vec, dtype=float)
        return cls(flows=vec[:n_edges], cpu=vec[n_edges:])

    def __eq__(self, other):
        return (
            isinstance(other, AllocationVector)
            and np.array_equal(self.flows, other.flows)
            and np.array_equal(self.cpu, other.cpu)
        )

    def __repr__(self):
        return f"AllocationVector(flows={self.flows.tolist()}, cpu={self.cpu.tolist()})"


def check_alloc_vector(v) -> list[str]:
    errs = []
    for name, arr in (("flows", v.flows), ("cpu", v.cpu)):
        if arr.ndim != 1:
            errs.append(f"{name} must be 1-D")
            continue
        if not np.all(np.isfinite(arr)):
            errs.append(f"{name} has non-finite entries")
        elif arr.size and (arr.min() < -CAPACITY_TOL or arr.max() > 1 + CAPACITY_TOL):
            errs.append(f"{name} entries must lie in [0,1]: {arr.tolist()}")
    return errs


@dataclass(frozen=True, eq=False)
class AllocationMatrix:
    """Allocation rows for every slice, with per-resource capacity sums <= 1."""

    slice_ids: tuple
    flows: np.ndarray   # (n_slices, n_edges)
    cpu: np.ndarray     # (n_slices, n_cores)

    def __post_init__(self):
        object.__setattr__(self, "slice_ids", tuple(str(s) for s in self.slice_ids))
        object.__setattr__(self, "flows", _ro_array(np.atleast_2d(self.flows)))
        object.__setattr__(self, "cpu", _ro_array(np.atleast_2d(self.cpu)))
        _raise_if(check_alloc_matrix(self))

    @classmethod
    def from_rows(cls, rows: Mapping[str, AllocationVector]) -> "AllocationMatrix":
        ids = tuple(rows)
        return cls(
            slice_ids=ids,
            flows=np.array([rows[s].flows for s in ids]),
            cpu=np.array([rows[s].cpu for s in ids]),
        )

    def index(self, slice_id: str) -> int:
        try:
            return self.slice_ids.index(slice_id)
        except ValueError:
            raise KeyError(f"unknown slice id {slice_id!r}") from None

    def row(self, slice_id: str) -> AllocationVector:
        i = self.index(slice_id)
        return AllocationVector(flows=self.flows[i], cpu=self.cpu[i])

    @property
    def n_edges(self) -> int:
        return self.flows.shape[1]

    @property
    def n_cores(self) -> int:
        return self.cpu.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, AllocationMatrix)
            and self.slice_ids == other.slice_ids
            and np.array_equal(self.flows, other.flows)
            and np.array_equal(self.cpu, other.cpu)
        )

    def __repr__(self):
        return (
            f"AllocationMatrix(slice_ids={self.slice_ids}, "
            f"flows={self.flows.tolist()}, cpu={self.cpu.tolist()})"
        )


def check_alloc_matrix(m) -> list[str]:
    errs = []
    n = len(m.slice_ids)
    if len(set(m.slice_ids)) != n:
        errs.append("duplicate slice ids in allocation")
    if m.flows.shape[0] != n or m.cpu.shape[0] != n:
        errs.append(
            f"row count mismatch: {n} slices vs flows {m.flows.shape[0]}, cpu {m.cpu.shape[0]}"
        )
        return errs
    for name, arr in (("flows", m.flows), ("cpu", m.cpu)):
        if not np.all(np.isfinite(arr)):
            errs.append(f"{name} has non-finite entries")
            continue
        if arr.size and (arr.min() < -CAPACITY_TOL or arr.max() > 1 + CAPACITY_TOL):
            errs.append(f"{name} entries must lie in [0,1]")
        kind = "edge" if name == "flows" else "core"
        for j, s in enumerate(arr.sum(axis=0)):
            if s > 1 + CAPACITY_TOL:
                errs.append(f"{kind} {j} sum {s:.6g} > 1")
    return errs


@dataclass(frozen=True, eq=False)
class QoeSample:
    """Measured (or modeled) QoE for one slice at one allocation.

    delay_stat_ms is the configured statistic over successful requests'
    E2E delays; math.inf marks "no request survived". throughput is the
    fraction of offered requests that were served.
    """

    delay_stat_ms: float
    throughput: float
    n_requests: int = 0
    raw_delays_ms: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.raw_delays_ms is not None:
            object.__setattr__(self, "raw_delays_ms", _ro_array(self.raw_delays_ms))
        errs = []
        if math.isnan(self.delay_stat_ms) or self.delay_stat_ms < 0:
            errs.append(f"delay_stat_ms must be >= 0 (inf allowed), got {self.delay_stat_ms}")
        if not (0.0 <= self.throughput <= 1.0):
            errs.append(f"throughput out of [0,1]: {self.throughput}")
        if self.n_requests < 0:
            errs.append(f"n_requests must be >= 0, got {self.n_requests}")
        _raise_if(errs)

    def __eq__(self, other):
        if not isinstance(other, QoeSample):
            return NotImplemented
        raw_eq = (
            self.raw_delays_ms is None and other.raw_delays_ms is None
        ) or (
            self.raw_delays_ms is not None
            and other.raw_delays_ms is not None
            and np.array_equal(self.raw_delays_ms, other.raw_delays_ms)
        )
        return (
            self.delay_stat_ms == other.delay_stat_ms
            and self.throughput == other.throughput
            and self.n_requests == other.n_requests
            and self.seed == other.seed
            and raw_eq
        )


def validate_scenario(slices, topology, alloc):
    """Cross-check a full (slices, topology, allocation) triple.

    Each type checked itself when built; this adds the cross-cutting
    invariants (unique ids, allocation rows match the slice set, dimensions
    match the topology) and raises InvariantViolation listing every failure.
    Returns the inputs unchanged when everything holds.
    """
    errs = []
    ids = [s.id for s in slices]
    if len(set(ids)) != len(ids):
        errs.append("duplicate slice ids")
    if set(alloc.slice_ids) != set(ids):
        errs.append(
            f"allocation rows {sorted(alloc.slice_ids)} do not match slices {sorted(ids)}"
        )
    if alloc.n_edges != topology.n_edges:
        errs.append(f"allocation has {alloc.n_edges} edge columns, topology {topology.n_edges}")
    if alloc.n_cores != topology.n_cores:
        errs.append(f"allocation has {alloc.n_cores} core columns, topology {topology.n_cores}")
    _raise_if(errs)
    return slices, topology, alloc
