"""Core value types: QoE requirements, traffic models, slices, topology,
allocations, and measured QoE samples.

All types are immutable values that check their own bounds at
construction and report every violation at once, each with the field it
concerns; the checks that span a whole scenario live in
`ScenarioConfig.validate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

UNBOUNDED = math.inf

# Allocations coming out of the projection carry float round-off; validation
# must never reject them.
CAPACITY_TOL = 1e-9

TRAFFIC_KINDS = ("bursty-onoff", "poisson")
SIZE_DISTS = ("uniform", "exponential")


class InvariantViolation(ValueError):
    """Failed invariants as (field, message) pairs; a field is a key path (``edges.link``)."""

    def __init__(self, violations: Sequence[tuple[str, str]]):
        self.violations = list(violations)
        super().__init__(self.violations)

    def __str__(self):
        return "; ".join(msg for _, msg in self.violations)

    @classmethod
    def check(cls, violations):
        """Raise one InvariantViolation listing `violations`, if there are any."""
        if violations:
            raise cls(violations)


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
        errs = []
        if not (self.tau_ms > 0):
            errs.append(("tau_ms", f"tau must be > 0 or unbounded, got {self.tau_ms}"))
        if not (0.0 <= self.rho <= 1.0):
            errs.append(("rho", f"rho out of [0,1]: {self.rho}"))
        InvariantViolation.check(errs)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.tau_ms)


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
        errs = []
        if self.kind not in TRAFFIC_KINDS:
            errs.append(("kind", f"unknown traffic kind {self.kind!r}"))
        if not (self.mean_rate > 0):
            errs.append(("mean_rate", f"mean_rate must be > 0, got {self.mean_rate}"))
        if self.kind == "bursty-onoff":
            if self.burst_len is None or not (self.burst_len >= 1):
                errs.append(("burst_len",
                             f"burst_len must be >= 1 for bursty-onoff, got {self.burst_len}"))
            if self.off_time_ms is None or not (self.off_time_ms >= 0):
                errs.append(("off_time_ms", f"off_time_ms must be >= 0, got {self.off_time_ms}"))
            if (
                self.burst_len is not None
                and self.off_time_ms is not None
                and self.burst_len >= 1
                and self.mean_rate > 0
            ):
                gap = 1.0 / self.mean_rate - (self.off_time_ms / 1000.0) / self.burst_len
                if gap < -1e-12:
                    errs.append(("mean_rate",
                        "mean_rate exceeds the burst envelope: need "
                        f"mean_rate <= burst_len/off_time ({self.mean_rate} vs "
                        f"{self.burst_len / (self.off_time_ms / 1000.0):.3f}/s)"))
        if not (1 <= self.size_min <= self.size_max):
            errs.append(("size_min" if self.size_min < 1 else "size_max", "need 1 <= size_min "
                         f"<= size_max, got [{self.size_min}, {self.size_max}]"))
        if self.size_dist not in SIZE_DISTS:
            errs.append(("size_dist", f"unknown size_dist {self.size_dist!r}"))
        if self.size_mean is not None and not (self.size_mean > 0):
            errs.append(("size_mean", f"size_mean must be > 0, got {self.size_mean}"))
        InvariantViolation.check(errs)

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
        errs = []
        if not self.id:
            errs.append(("id", "slice id must be non-empty"))
        for name in ("alpha_tau", "alpha_rho"):
            if getattr(self, name) < 0:
                errs.append((name, f"slice {self.id}: alpha weights must be >= 0"))
        if not (self.demand_mi > 0):
            errs.append(("demand_mi",
                         f"slice {self.id}: demand_mi must be > 0, got {self.demand_mi}"))
        InvariantViolation.check(errs)


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
        errs = []
        if not self.edges:
            errs.append(("edges", "topology needs at least one edge"))
        if not self.cores:
            errs.append(("cores", "topology needs at least one core"))
        for name, cap in self.edges:
            if not (cap > 0):
                errs.append((f"edges.{name}", f"edge {name}: capacity must be > 0, got {cap}"))
        for name, mips in self.cores:
            if not (mips > 0):
                errs.append((f"cores.{name}", f"core {name}: MIPS must be > 0, got {mips}"))
        if not (self.buffer_pkts >= 1):
            errs.append(("buffer_pkts", f"buffer_pkts must be >= 1, got {self.buffer_pkts}"))
        ids = [("edges", e) for e, _ in self.edges] + [("cores", c) for c, _ in self.cores]
        for i, (key, name) in enumerate(ids):
            if any(name == seen for _, seen in ids[:i]):
                errs.append((f"{key}.{name}", "edge/core ids must be unique"))
        InvariantViolation.check(errs)

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
        errs = []
        for name, arr in (("flows", self.flows), ("cpu", self.cpu)):
            if arr.ndim != 1:
                errs.append((name, f"{name} must be 1-D"))
                continue
            if not np.all(np.isfinite(arr)):
                errs.append((name, f"{name} has non-finite entries"))
            elif arr.size and (arr.min() < -CAPACITY_TOL or arr.max() > 1 + CAPACITY_TOL):
                errs.append((name, f"{name} entries must lie in [0,1]: {arr.tolist()}"))
        InvariantViolation.check(errs)

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
        errs = []
        n = len(self.slice_ids)
        if len(set(self.slice_ids)) != n:
            errs.append(("slice_ids", "duplicate slice ids in allocation"))
        if self.flows.shape[0] != n or self.cpu.shape[0] != n:
            errs.append(("slice_ids",
                         f"row count mismatch: {n} slices vs flows {self.flows.shape[0]}, "
                         f"cpu {self.cpu.shape[0]}"))
            raise InvariantViolation(errs)
        for name, arr in (("flows", self.flows), ("cpu", self.cpu)):
            if not np.all(np.isfinite(arr)):
                errs.append((name, f"{name} has non-finite entries"))
                continue
            if arr.size and (arr.min() < -CAPACITY_TOL or arr.max() > 1 + CAPACITY_TOL):
                errs.append((name, f"{name} entries must lie in [0,1]"))
            kind = "edge" if name == "flows" else "core"
            for j, s in enumerate(arr.sum(axis=0)):
                if s > 1 + CAPACITY_TOL:
                    errs.append((name, f"{kind} {j} sum {s:.6g} > 1"))
        InvariantViolation.check(errs)

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

    def stacked(self) -> np.ndarray:
        """Writable (n_slices, n_edges + n_cores) copy, edges first as in a row."""
        return np.hstack([self.flows, self.cpu])

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
            errs.append(("delay_stat_ms",
                         f"delay_stat_ms must be >= 0 (inf allowed), got {self.delay_stat_ms}"))
        if not (0.0 <= self.throughput <= 1.0):
            errs.append(("throughput", f"throughput out of [0,1]: {self.throughput}"))
        if self.n_requests < 0:
            errs.append(("n_requests", f"n_requests must be >= 0, got {self.n_requests}"))
        InvariantViolation.check(errs)

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

