"""Core value types (QoE requirements, traffic models, slices, topology,
allocations, measured QoE samples) and the seeds of every random stream
(`derive_seed`, and `_entropy`, the words each drawn stream is seeded from).

All types are immutable values that check their own bounds at
construction and report every violation at once, each with the field it
concerns; the checks that span a whole scenario live in
`ScenarioConfig.validate`. Every numeric field obeys one rule,
`interval_violations`: the value is a real number, not a bool, inside
the field's interval, written as in the message it reports
(`horizon_s must be in (0, inf), got 'x'`). Every array field obeys
another, `array_field`: it holds a read-only float copy of real, finite
entries with a fixed number of dimensions. A valid `AllocationVector`,
`AllocationMatrix` or raw-less `QoeSample` is admitted by one accept test
in plain Python numbers first; any value it does not admit runs the full
checks, which name the field. Value types compare by value, field by
field, with arrays compared by content (`ArrayValue`).
"""
from __future__ import annotations

import functools
import math
import numbers
import struct
from dataclasses import KW_ONLY, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import native

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


# the types a value type's accept test takes as numbers: exactly these, so
# never a bool or a numpy scalar, which the full checks judge
_PLAIN = (float, int)


def _real(value) -> bool:
    """A real number (numpy scalars included), not a bool."""
    if isinstance(value, (float, int)):  # cheaper than the numbers.Real lookup
        return not isinstance(value, bool)
    return isinstance(value, numbers.Real)


def _whole(value) -> bool:
    """An int or an integer-valued float; not a bool, inf, NaN or a non-number."""
    return _real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


@functools.lru_cache(maxsize=None)
def _bounds(interval: str) -> tuple:
    """(lo, hi, lo_open, hi_open) of interval notation such as "(0, inf]"."""
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "(", interval[-1] == ")"


def interval_violations(field, value, interval, whole=False) -> list:
    """[(field, message)] if `value` is not a real number (a whole one if
    `whole`; never a bool) inside `interval`, written like "(0, inf]";
    else []."""
    if (_whole if whole else _real)(value):
        lo, hi, lo_open, hi_open = _bounds(interval)
        if (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi):
            return []
    kind = "a whole number in" if whole else "in"
    return [(field, f"{field} must be {kind} {interval}, got {value!r}")]


def whole_fields(obj, *names, interval) -> list:
    """Replace each named field of frozen dataclass `obj` by its int; the
    (field, message) of every one that is not a whole number in `interval`."""
    errs = []
    for name in names:
        value = getattr(obj, name)
        bad = interval_violations(name, value, interval, whole=True)
        if not bad:
            object.__setattr__(obj, name, int(value))
        errs += bad
    return errs


def _entropy(parts) -> bytes:
    """The 32-bit words numpy's SeedSequence reads from a list of whole
    numbers >= 0, as their bytes: each part's little-endian words, 0 as one
    word, so no part is folded modulo 2**32. ValueError
    names a bad part. `derive_seed` and every stream draw
    (`simulator.generate_traffic`) seed from them, through the compiled
    `seed_state`, the one place a seed is made."""
    words = []
    for value in parts:
        if type(value) is not int or value < 0:  # an int >= 0 obeys the rule
            if not (_whole(value) and value >= 0):
                raise ValueError(f"seed must be a whole number >= 0, got {value!r}")
            value = int(value)
        words.append(value & 0xFFFFFFFF)
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
    return struct.pack(f"={len(words)}I", *words)


def derive_seed(*parts) -> int:
    """Deterministic, platform-stable seed from a tuple of non-negative integers:
    the one word numpy's SeedSequence(list(parts)).generate_state(1) makes.

    Distinct tuples give distinct entropy: no part is folded modulo 2**32.
    A negative, bool or fractional part raises ValueError naming it.
    """
    return native.LIBRARY.seed_state(_entropy(parts), None)


def array_field(obj, name, ndim) -> list:
    """Replace array field `name` of frozen dataclass `obj` by a read-only
    float copy; [(name, message)] if an entry is not a real number (never a
    bool or a str), the array is not `ndim`-D, or an entry is not finite."""
    value = getattr(obj, name)
    try:
        arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    except ValueError:  # nested arrays of shapes numpy cannot stack
        return [(name, f"{name} must be {ndim}-D")]
    if arr.dtype.kind not in "fiu":
        bad = [v for v in arr.flat if not _real(v)]
        if bad:
            return [(name, f"{name} entries must be real numbers, got {bad[0]!r}")]
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    if arr.ndim != ndim:
        return [(name, f"{name} must be {ndim}-D")]
    if not np.isfinite(arr).all():
        return [(name, f"{name} has non-finite entries")]
    return []


def _same(a, b) -> bool:
    """a == b as a generated dataclass __eq__ compares fields (identity
    first), with numpy arrays compared by content, also inside dicts and
    tuples."""
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if isinstance(a, tuple) and type(a) is type(b):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


class ArrayValue:
    """Base of the value types that hold numpy arrays. A subclass declared
    with eq=False gets this ==, which compares every field, arrays by
    content; `Topology`, whose fields are tuples, keeps the dataclass == and
    hash. An unpickled or deep-copied value runs its construction checks
    again, so its arrays are read-only and within bounds like those of any
    other instance."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __setstate__(self, state):
        self.__dict__.update(state)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()


@dataclass(frozen=True)
class QoeRequirement:
    """Delay bound tau (ms) and throughput floor rho for one slice.

    tau_ms may be math.inf ("unbounded") for best-effort slices.
    """

    tau_ms: float
    rho: float

    def __post_init__(self):
        InvariantViolation.check(interval_violations("tau_ms", self.tau_ms, "(0, inf]")
                                 + interval_violations("rho", self.rho, "[0, 1]"))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.tau_ms)


@dataclass(frozen=True)
class TrafficModel:
    """Request arrival process and packet-size law for one slice.

    kind "bursty-onoff": bursts of geometric(mean burst_len) packets whose
    in-burst spacing is derived from mean_rate, separated by exponential
    gaps of mean off_time_ms. kind "poisson": memoryless arrivals.
    size_dist "uniform" draws integer sizes on [size_min, size_max], and
    "exponential" a truncated exponential with mean size_mean.

    size_mean is required for "exponential" sizes and refused otherwise.
    burst_len and off_time_ms are accepted, and checked, under "poisson",
    which ignores them, so `dataclasses.replace(model, kind="poisson")`
    makes a Poisson variant of a bursty model.
    """

    kind: str
    mean_rate: float                 # requests per second
    burst_len: float | None = None   # mean packets per burst (bursty only)
    off_time_ms: float | None = None  # mean inter-burst gap (bursty only)
    _: KW_ONLY
    size_min: int
    size_max: int
    size_dist: str
    size_mean: float | None = None   # exponential only, and required there

    def __post_init__(self):
        errs = interval_violations("mean_rate", self.mean_rate, "(0, inf)")
        if self.kind not in TRAFFIC_KINDS:
            errs.append(("kind", f"unknown traffic kind {self.kind!r}"))
        bursty = self.kind == "bursty-onoff"
        on_off = []
        for name, interval in (("burst_len", "[1, inf)"), ("off_time_ms", "[0, inf)")):
            if bursty or getattr(self, name) is not None:
                on_off += interval_violations(name, getattr(self, name), interval)
        if bursty and not (errs or on_off) and self._unclamped_gap_s() < -1e-12:
            on_off.append(("mean_rate",
                "mean_rate exceeds the burst envelope: need "
                f"mean_rate <= burst_len/off_time ({self.mean_rate} vs "
                f"{self.burst_len / (self.off_time_ms / 1000.0):.3f}/s)"))
        errs += on_off
        sizes = whole_fields(self, "size_min", "size_max", interval="[1, inf)")
        # an int64, as the compiled draw holds it; ints, so compared exactly
        if not sizes and self.size_max > 2**63 - 1:
            sizes.append(("size_max", f"size_max must be at most 2**63 - 1, the largest size "
                                      f"a draw holds, got {self.size_max}"))
        elif not sizes and self.size_min > self.size_max:
            sizes.append(("size_max", "need size_min <= size_max, "
                                      f"got [{self.size_min}, {self.size_max}]"))
        errs += sizes
        if self.size_dist not in SIZE_DISTS:
            errs.append(("size_dist", f"unknown size_dist {self.size_dist!r}"))
        if self.size_dist == "exponential":
            errs += interval_violations("size_mean", self.size_mean, "(0, inf)")
        elif self.size_mean is not None:
            errs.append(("size_mean", "only exponential sizes read size_mean, got "
                                      f"{self.size_mean!r} with size_dist {self.size_dist!r}"))
        InvariantViolation.check(errs)

    def mean_size_bytes(self) -> float:
        if self.size_dist == "exponential":
            return float(self.size_mean)
        return (self.size_min + self.size_max) / 2.0

    def intra_burst_gap_s(self) -> float:
        """In-burst packet spacing consistent with the long-run mean rate.

        mean cycle = burst_len*gap + off_time, packets per cycle = burst_len.
        """
        if self.kind != "bursty-onoff":
            raise ValueError("intra_burst_gap_s only defined for bursty-onoff")
        return max(0.0, self._unclamped_gap_s())

    def _unclamped_gap_s(self) -> float:
        """The gap before the clamp at 0; below 0 above the burst envelope."""
        return 1.0 / self.mean_rate - (self.off_time_ms / 1000.0) / self.burst_len


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
        for name, interval in (("alpha_tau", "[0, inf)"), ("alpha_rho", "[0, inf)"),
                               ("demand_mi", "(0, inf)")):
            errs += interval_violations(name, getattr(self, name), interval)
        errs += whole_fields(self, "priority_rank", interval="(-inf, inf)")
        InvariantViolation.check(([] if self.id else [("id", "slice id must be non-empty")])
                                 + [(name, f"slice {self.id}: {msg}") for name, msg in errs])


@dataclass(frozen=True)
class Topology(ArrayValue):
    """Shared substrate: link edges (Mbps), server cores (MIPS), buffer size.

    buffer_pkts is the per-slice router queue capacity in packets, counting
    the packet in transmission. The server-side queue is unbounded. The
    read-only arrays edge_bps (bps) and core_mips hold the capacities in
    order; they are not fields.
    """

    edges: tuple    # ((edge_id, capacity_mbps), ...)
    cores: tuple    # ((core_id, mips), ...)
    buffer_pkts: int

    def __post_init__(self):
        errs = []
        for key in ("edges", "cores"):
            value = getattr(self, key)
            try:
                pairs = tuple((str(i), c) for i, c in value)
            except (TypeError, ValueError):
                errs.append((key, f"{key} must be (id, capacity) pairs, got {value!r}"))
                pairs = ()
            else:
                if not pairs:
                    errs.append((key, f"topology needs at least one {key[:-1]}"))
            bad = [e for i, c in pairs for e in interval_violations(f"{key}.{i}", c, "(0, inf)")]
            object.__setattr__(self, key, pairs if bad else tuple((i, float(c)) for i, c in pairs))
            errs += bad
        errs += whole_fields(self, "buffer_pkts", interval="[1, inf)")
        ids = [("edges", e) for e, _ in self.edges] + [("cores", c) for c, _ in self.cores]
        for i, (key, name) in enumerate(ids):
            if any(name == seen for _, seen in ids[:i]):
                errs.append((f"{key}.{name}", "edge/core ids must be unique"))
        InvariantViolation.check(errs)
        # the rates every simulation reads, made once and read-only
        for name, rates in (("edge_bps", [c * 1e6 for _, c in self.edges]),
                            ("core_mips", [m for _, m in self.cores])):
            arr = np.array(rates)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def width_violations(self, n_flows: int, n_cpu: int) -> list[tuple[str, str]]:
        """(field, message) for "flows" unless n_flows is the number of edges,
        and for "cpu" unless n_cpu is the number of cores: the one width rule
        of an allocation row or matrix."""
        return [(name, f"{name} must hold one entry per topology {kind} ({want}), got {have}")
                for name, have, want, kind in (("flows", n_flows, self.n_edges, "edge"),
                                               ("cpu", n_cpu, self.n_cores, "core"))
                if have != want]


@dataclass(frozen=True, eq=False)
class AllocationVector(ArrayValue):
    """One slice's share of every resource: link fractions + core fractions.

    flows[e] is the fraction of edge e's bandwidth, cpu[c] the fraction of
    core c. Every entry lies in [0, 1].
    """

    flows: np.ndarray
    cpu: np.ndarray

    def __post_init__(self):
        flows, cpu = _unit_copy(self.flows, 1), _unit_copy(self.cpu, 1)
        if flows is not None and cpu is not None:
            object.__setattr__(self, "flows", flows)
            object.__setattr__(self, "cpu", cpu)
            return
        errs = []
        for name in ("flows", "cpu"):
            errs += array_field(self, name, 1) or _entry_violations(name, getattr(self, name))
        InvariantViolation.check(errs)

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.flows, self.cpu])


def _unit_copy(value, ndim):
    """The read-only float copy `array_field` stores for `value`, if `value`
    is an `ndim`-D float array whose entries all lie in [0, 1] within
    CAPACITY_TOL, tested as plain floats (NaN and +-inf fail); else None,
    and the full checks decide and name the field."""
    if type(value) is not np.ndarray or value.ndim != ndim or value.dtype.kind != "f":
        return None
    arr = value.astype(float)  # as np.array(value, dtype=float) copies it
    for v in arr.ravel().tolist():
        if not -CAPACITY_TOL <= v <= 1 + CAPACITY_TOL:
            return None
    arr.setflags(write=False)
    return arr


def _entry_violations(name: str, shares: np.ndarray) -> list[tuple[str, str]]:
    """[(name, message)] if an entry of shares lies outside [0, 1] by more
    than CAPACITY_TOL, else []."""
    if shares.size and (shares.min() < -CAPACITY_TOL or shares.max() > 1 + CAPACITY_TOL):
        return [(name, f"{name} entries must lie in [0,1]")]
    return []


def capacity_violations(name: str, shares: np.ndarray) -> list[tuple[str, str]]:
    """(name, message) for each capacity bound a (slices, edges) "flows" or
    (slices, cores) "cpu" array breaks: entries in [0, 1] and column sums
    at most 1, within CAPACITY_TOL."""
    errs = _entry_violations(name, shares)
    kind = "edge" if name == "flows" else "core"
    errs += [(name, f"{kind} {j} sum {s:.6g} > 1")
             for j, s in enumerate(shares.sum(axis=0)) if s > 1 + CAPACITY_TOL]
    return errs


@dataclass(frozen=True, eq=False)
class AllocationMatrix(ArrayValue):
    """Allocation rows for every slice, with per-resource capacity sums <= 1."""

    slice_ids: tuple
    flows: np.ndarray   # (n_slices, n_edges)
    cpu: np.ndarray     # (n_slices, n_cores)

    def __post_init__(self):
        object.__setattr__(self, "slice_ids", tuple(str(s) for s in self.slice_ids))
        n = len(self.slice_ids)
        flows, cpu = _unit_copy(self.flows, 2), _unit_copy(self.cpu, 2)
        if (flows is not None and cpu is not None and len(flows) == n == len(cpu)
                and len(set(self.slice_ids)) == n  # and capacity_violations' column sums:
                and max(flows.sum(axis=0).tolist() + cpu.sum(axis=0).tolist(),
                        default=0.0) <= 1 + CAPACITY_TOL):
            object.__setattr__(self, "flows", flows)
            object.__setattr__(self, "cpu", cpu)
            return
        errs = []
        if len(set(self.slice_ids)) != n:
            errs.append(("slice_ids", "duplicate slice ids in allocation"))
        for name in ("flows", "cpu"):
            bad = array_field(self, name, 2)
            if not bad and len(getattr(self, name)) != n:
                bad = [(name, f"{name} has {len(getattr(self, name))} rows for {n} slice ids")]
            errs += bad or capacity_violations(name, getattr(self, name))
        InvariantViolation.check(errs)

    @classmethod
    def from_rows(cls, rows: Mapping[str, AllocationVector]) -> "AllocationMatrix":
        ids = tuple(rows)
        errs = []
        for name in ("flows", "cpu"):
            widths = {s: getattr(rows[s], name).size for s in ids}
            errs += [(name, f"{name} of row {s!r} has {w} entries, row {ids[0]!r} has "
                            f"{widths[ids[0]]}") for s, w in widths.items() if w != widths[ids[0]]]
        InvariantViolation.check(errs)
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


@dataclass(frozen=True, eq=False)
class QoeSample(ArrayValue):
    """Measured (or modeled) QoE for one slice at one allocation.

    delay_stat_ms is the configured statistic over successful requests' E2E
    delays: math.inf if requests were offered and none survived, 0.0 if none
    were. throughput is the fraction of offered requests served, 1.0 if none.
    """

    delay_stat_ms: float
    throughput: float
    n_requests: int = 0
    raw_delays_ms: np.ndarray | None = None

    def __post_init__(self):
        delay, throughput = self.delay_stat_ms, self.throughput
        # the accept test: NaN fails every comparison, and no float exceeds inf
        if (self.raw_delays_ms is None and type(delay) in _PLAIN and type(throughput) in _PLAIN
                and type(self.n_requests) is int and 0 <= delay and 0 <= throughput <= 1
                and self.n_requests >= 0):
            return
        InvariantViolation.check(
            interval_violations("delay_stat_ms", delay, "[0, inf]")
            + interval_violations("throughput", throughput, "[0, 1]")
            + whole_fields(self, "n_requests", interval="[0, inf)")
            + ([] if self.raw_delays_ms is None else array_field(self, "raw_delays_ms", 1)))

