"""Two-stage tandem-queue simulator for sliced traffic.

Each slice owns a dedicated FIFO queue at every link edge, draining at its
bandwidth share f*B with a finite packet buffer, followed by an unbounded
FIFO server queue draining at its CPU share sum(phi_c * MIPS_c). Slices
never share a queue, so each slice's pipeline is simulated independently
in arrival order; a departure at time t frees its buffer slot before an
arrival at the same instant claims one. A departure at most TIE_S after an
arrival counts as one at the same instant, since the same departure time
summed in another order can land a rounding error later.

Both stages run Lindley's recursion packet by packet in compiled C
(`pipeline.c`, built and loaded by `native`), and so does the on/off
generator's burst expansion; `pipeline.c`'s header describes how the link
finds its buffer full and runs each overflow episode.

A request's E2E delay is (service completion - creation) + propagation.
Requests created during the warmup window are simulated but excluded from
statistics. Every offered request is either served or dropped: the run
drains all queues after the horizon, and slices with a zero-rate stage
count their stranded requests as dropped. A share so small that a delay
overflows ends the simulation with an InvariantViolation that names the
slice (`simulate_slice`).
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .domain import (AllocationMatrix, ArrayValue, InvariantViolation, QoeSample, Topology,
                     TrafficModel, interval_violations, seed_sequence)
from .native import load_pipeline


# packets per link window after an overflow; a window that drops nothing
# is followed by one twice as long
_RESTART_WINDOW = 256

# a departure at most this long (s) after an arrival frees its slot first
TIE_S = 1e-9

_INT32_MAX = 2**31 - 1

# the compiled per-packet passes (`pipeline.c`)
_PIPELINE = load_pipeline()

_PERCENTILE = re.compile(r"p[0-9]+(\.[0-9]+)?")  # "pNN", NN a plain decimal


@dataclass(frozen=True)
class SimConfig:
    """Run-level knobs, all stated by the scenario: horizon/warmup (s), propagation (ms)."""

    horizon_s: float
    warmup_s: float
    propagation_ms: float

    def __post_init__(self):
        errs = (interval_violations("horizon_s", self.horizon_s, "(0, inf)")
                + interval_violations("propagation_ms", self.propagation_ms, "[0, inf)"))
        warmup = interval_violations("warmup_s", self.warmup_s, "[0, inf)")
        if not (errs or warmup) and self.warmup_s >= self.horizon_s:
            warmup.append(("warmup_s", f"need warmup_s < horizon_s, "
                                       f"got {self.warmup_s} vs {self.horizon_s}"))
        InvariantViolation.check(errs + warmup)


@dataclass(frozen=True, eq=False)
class SliceRunResult(ArrayValue):
    """Per-slice outcome of one run: post-warmup counters and raw delays. An
    offered request that is not a success was dropped."""

    delays_ms: np.ndarray       # E2E delays of successful post-warmup requests
    offered: int
    success: int


def generate_traffic(model: TrafficModel, horizon_s: float, seed: int, index: int,
                     memo) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times (s, sorted) and packet sizes (bytes) over [0, horizon),
    drawn from the PCG64 stream seeded by seed_sequence(seed, index).

    `memo`, a dict, keeps each stream it draws, read-only, under (seed, index)
    and answers it again without seeding or drawing (its rules: see
    `oracle.sim_evaluate`).
    """
    key = (seed, index)
    if key not in memo:
        rng = np.random.Generator(np.random.PCG64(seed_sequence(seed, index)))
        if model.kind == "poisson":
            arrivals = _poisson_arrivals(model.mean_rate, horizon_s, rng)
        else:
            arrivals = _onoff_arrivals(model, horizon_s, rng)
        sizes = _draw_sizes(model, arrivals.size, rng)
        arrivals.setflags(write=False)
        sizes.setflags(write=False)
        memo[key] = arrivals, sizes
    return memo[key]


def _poisson_arrivals(rate, horizon_s, rng):
    chunks = []
    t = 0.0
    n = max(64, int(rate * horizon_s * 1.2) + 16)
    while t < horizon_s:
        # the recursion t += E / rate, carried into each chunk's first step
        arr = rng.exponential(1.0 / rate, size=n)
        arr[0] += t
        np.add.accumulate(arr, out=arr)
        chunks.append(arr)
        t = arr[-1]
    return _before(_joined(chunks), horizon_s)


def _joined(chunks):
    """The chunks end to end; the one chunk itself, uncopied, in the common case."""
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _before(arrivals, horizon_s):
    """The arrivals before the horizon: a prefix, since rounding is monotone
    and every generator sums non-negative steps, so arrivals never decrease."""
    return arrivals[:arrivals.searchsorted(horizon_s)]


def _onoff_arrivals(model, horizon_s, rng):
    gap = model.intra_burst_gap_s()
    p = 1.0 / model.burst_len
    off_mean = model.off_time_ms / 1000.0
    # The source is one standard-exponential stream E: an optional leading
    # off time, then per burst a geometric size ceil(-E / log1p(-p)) (one
    # packet when p is 1) and an off time off_mean * E, drawn in bulk.
    per_burst = 2 if off_mean > 0 else 1
    t = off_mean * rng.standard_exponential() if off_mean > 0 else 0.0
    starts, counts = [], []
    while t < horizon_s:
        m = int((horizon_s - t) / (model.burst_len * gap + off_mean) * 1.1) + 16
        e = rng.standard_exponential((m, per_burst))
        if p < 1.0:
            # E / -log1p(-p) is -E / log1p(-p) to the bit: only the sign moved
            n = e[:, 0] / -math.log1p(-p)
            np.ceil(n, out=n)
        else:
            n = np.ones(m)
        step = n * gap
        if off_mean > 0:
            step += off_mean * e[:, 1]
        # burst starts, summed in the loop's order; the last one is the next t
        s = np.add.accumulate(np.concatenate(([t], step)))
        b = min(m, int(s.searchsorted(horizon_s)))
        t = s.item(b)
        if t >= horizon_s and gap > 0:
            # only the last burst can reach past the horizon: cap its size,
            # before the int64 cast, at the packets that can arrive before
            # the horizon, plus one for rounding, and `_before` cuts the same.
            # The expansion below puts the first packet left out at or past the
            # horizon unless gap < 2.2e-16 times the time left, when the cap
            # is above 4.5e15 packets, more than fits in memory. Python
            # scalars: numpy's cost a microsecond here.
            cap = (horizon_s - s.item(b - 1)) // gap + 2
            if cap < n.item(b - 1):
                n[b - 1] = cap
        starts.append(s[:b])
        counts.append(n[:b].astype(np.int64))
    if not starts:
        return np.empty(0)
    starts, counts = _joined(starts), _joined(counts)
    # expand each burst into gap-spaced packets: packet k of a burst that
    # starts at time s arrives at k * gap + s
    arrivals = np.empty(int(counts.sum()))
    _PIPELINE.expand_bursts(starts.ctypes.data, counts.ctypes.data, starts.size, gap,
                            arrivals.ctypes.data)
    return _before(arrivals, horizon_s)


def _draw_sizes(model, n, rng):
    if model.size_dist == "exponential":
        mean = model.mean_size_bytes()
        sizes = rng.exponential(mean, size=n)
        return np.clip(sizes, model.size_min, model.size_max, out=sizes)
    # int32 draws the values int64 does, by the same 32-bit draw, in half the time
    dtype = np.int32 if model.size_max < _INT32_MAX else np.int64
    return rng.integers(model.size_min, model.size_max + 1, size=n, dtype=dtype).astype(float)


def simulate_pipeline(arrivals, sizes_bytes, link_rates_bps, buffer_pkts,
                      service_rate_ips, demand_mi, propagation_ms):
    """Push one slice's packets through its link queues and server queue.

    arrivals must be sorted and as long as sizes_bytes; neither is written
    to. Returns (delays_ms of served packets in arrival order of survivors,
    served_mask over all offered packets). A zero-rate stage strands every
    packet (served_mask all False). buffer_pkts is a whole number >= 1 (a
    float one is used as its int), else InvariantViolation names it. A
    delay that is not finite (a share so small that a time overflows)
    raises OverflowError.
    """
    InvariantViolation.check(interval_violations("buffer_pkts", buffer_pkts, "[1, inf)",
                                                 whole=True))
    buffer_pkts = int(buffer_pkts)
    # contiguous, since the compiled passes read arrays by address
    arrivals = np.ascontiguousarray(arrivals, dtype=float)
    sizes = np.ascontiguousarray(sizes_bytes, dtype=float)
    if arrivals.shape != sizes.shape:
        raise ValueError(f"arrivals and sizes_bytes differ in length: "
                         f"{len(arrivals)} vs {len(sizes)}")
    if not (arrivals[1:] >= arrivals[:-1]).all():
        raise ValueError("arrivals must be sorted in non-decreasing order")
    if service_rate_ips <= 0.0 or any(rate <= 0.0 for rate in link_rates_bps):
        return np.empty(0), np.zeros(len(arrivals), dtype=bool)
    served_mask = np.ones(arrivals.size, dtype=bool)
    times, created = arrivals, arrivals
    # link stages in series, each a FIFO with its own finite buffer: `link_pass`
    # runs one packet by packet, in windows and overflow episodes (see
    # `pipeline.c`), and gives each packet it drops a NaN departure
    last = len(link_rates_bps) - 1
    for e, rate in enumerate(link_rates_bps):
        n = times.size
        dep = np.empty(n)
        # rate / 8 is exact, so a transmission time is sizes * 8 / rate to the
        # bit; a buffer of n or more never fills, and min keeps it an int64
        if _PIPELINE.link_pass(times.ctypes.data, sizes.ctypes.data, rate / 8.0, dep.ctypes.data,
                               n, min(buffer_pkts, n), _RESTART_WINDOW, TIE_S):
            # only an overflow episode drops a packet
            survived = ~np.isnan(dep)
            served_mask[served_mask] = survived
            dep, created = dep[survived], created[survived]
            if e < last:  # the server reads no size
                sizes = sizes[survived]
        times = dep

    # the server stage, an unbounded FIFO: its delays (ms) are written over
    # the link departures unless they are the arrivals
    out = times if times is not arrivals else np.empty(times.size)
    if _PIPELINE.server_pass(times.ctypes.data, created.ctypes.data,
                             demand_mi / service_rate_ips, propagation_ms / 1000.0,
                             out.ctypes.data, times.size):
        raise OverflowError(f"a delay overflows at link rates "
                            f"{np.asarray(link_rates_bps, dtype=float).tolist()} bps and "
                            f"server rate {service_rate_ips} MIPS")
    return out, served_mask


def stage_rates(row, topology: Topology) -> tuple[np.ndarray, float]:
    """A row's link rates (bps) and server rate (MIPS): all a simulation takes from it.

    The server rate is an exactly rounded sum, so it does not depend on the
    order of the cores: (c + d, c) and (c, c + d) on two equal cores give
    the same rate to the last bit. A row must have one flows entry per edge
    and one cpu entry per core; a row is not broadcast over another chain.
    """
    edge_bps, core_mips = topology.edge_bps, topology.core_mips
    if row.flows.size != edge_bps.size or row.cpu.size != core_mips.size:
        raise InvariantViolation(topology.width_violations(row.flows.size, row.cpu.size))
    return row.flows * edge_bps, math.fsum((row.cpu * core_mips).tolist())


def simulate_slice(spec, index: int, link_rates, cpu_rate: float, topology: Topology,
                   config: SimConfig, seed: int, memo) -> SliceRunResult:
    """Simulate one slice at the given stage rates (see `stage_rates`).

    Its traffic is generate_traffic's stream (seed, index), index being its
    position among the slices, so no other slice's presence shifts it.
    `memo` keeps the stream (see `oracle.sim_evaluate`). A delay that
    overflows raises InvariantViolation naming the slice.
    """
    arrivals, sizes = generate_traffic(spec.traffic, config.horizon_s, seed, index, memo)
    try:
        delays, served = simulate_pipeline(
            arrivals, sizes, link_rates, topology.buffer_pkts,
            cpu_rate, spec.demand_mi, config.propagation_ms,
        )
    except OverflowError as err:
        raise InvariantViolation([("delays_ms", f"slice {spec.id!r}: {err}")]) from None
    # arrivals are sorted, so the post-warmup requests are a suffix
    w = int(arrivals.searchsorted(config.warmup_s))
    success = int(np.count_nonzero(served[w:]))
    return SliceRunResult(
        delays_ms=delays[delays.size - success:],
        offered=arrivals.size - w,
        success=success,
    )


def run_sim(slices, topology: Topology, alloc: AllocationMatrix, config: SimConfig,
            seed: int) -> dict:
    """Simulate every slice at its row of the given allocation.

    Returns {slice_id: SliceRunResult}. Identical inputs and seed give
    identical results. Each slice gets a memo of its own, so no slice's
    traffic is kept past its simulation.
    """
    results = {}
    for k, spec in enumerate(slices):
        link_rates, cpu_rate = stage_rates(alloc.row(spec.id), topology)
        results[spec.id] = simulate_slice(spec, k, link_rates, cpu_rate, topology, config, seed,
                                          memo={})
    return results


def percentile_of(statistic: str) -> tuple[int, int] | None:
    """The one "pNN" parser: NN/100, NN a plain decimal in (0, 100], as the exact
    fraction (num, den) of NN's digits less its leading and trailing zeros; None
    for "max" and "mean"; else ValueError. Each string is parsed once."""
    if not isinstance(statistic, str):
        raise ValueError(f"unknown statistic {statistic!r}")
    return _parsed_percentile(statistic)


@functools.lru_cache(maxsize=64)
def _parsed_percentile(statistic):
    if statistic in ("max", "mean"):
        return None
    if not _PERCENTILE.fullmatch(statistic):
        raise ValueError(f"unknown statistic {statistic!r}")
    whole, _, frac = statistic[1:].partition(".")
    whole, frac = whole.lstrip("0"), frac.rstrip("0")  # NN/100 is unchanged
    # a whole part of over 3 digits is above 100, and int() never reads it;
    # no interpreter setting keeps int() from converting 640 digits
    if len(whole) <= 3 and len(whole + frac) > 640:
        raise ValueError(f"percentile has too many digits: {statistic}")
    num = int(whole + frac or "0") if len(whole) <= 3 else math.inf
    den = 10 ** (len(frac) + 2)
    if not 0 < num <= den:
        raise ValueError(f"percentile out of (0,100]: {statistic}")
    return num, den


def delay_statistic(delays_ms: np.ndarray, statistic: str) -> float:
    """Reduce raw delays to one number: "max", "mean", or "pNN" percentile.

    Percentile is the exact nearest rank ceil(n * num / den) of percentile_of's
    fraction, in integers. Empty input yields inf (no request survived).
    """
    p = percentile_of(statistic)
    if delays_ms.size == 0:
        return math.inf
    if p is None:
        return float(delays_ms.max() if statistic == "max" else delays_ms.mean())
    k = -(-p[0] * delays_ms.size // p[1])
    ranked = delays_ms.copy()  # partitioned in place: the caller's order stays
    ranked.partition(k - 1)
    return float(ranked[k - 1])


def summarize(result: SliceRunResult, statistic: str, keep_raw: bool) -> QoeSample:
    """Collapse one SliceRunResult into a QoeSample under `statistic`; no offer reads delay 0.0."""
    return QoeSample(
        delay_stat_ms=delay_statistic(result.delays_ms, statistic) if result.offered else 0.0,
        throughput=result.success / result.offered if result.offered else 1.0,
        n_requests=result.offered,
        raw_delays_ms=result.delays_ms if keep_raw else None,
    )

