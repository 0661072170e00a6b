"""Two-stage tandem-queue simulator for sliced traffic.

Each slice owns a dedicated FIFO queue at every link edge, draining at its
bandwidth share f*B with a finite packet buffer, followed by an unbounded
FIFO server queue draining at its CPU share sum(phi_c * MIPS_c). Slices
never share a queue, so each slice's pipeline is simulated independently
in arrival order; a departure at time t frees its buffer slot before an
arrival at the same instant claims one. A departure at most TIE_S after an
arrival counts as one at the same instant, since the same departure time
summed in another order can land a rounding error later.

A request's E2E delay is (service completion - creation) + propagation.
Requests created during the warmup window are simulated but excluded from
statistics. Every offered request is either served or dropped: the run
drains all queues after the horizon, and slices with a zero-rate stage
count their stranded requests as dropped.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .domain import AllocationMatrix, InvariantViolation, QoeSample, Topology, TrafficModel


class SimulationError(RuntimeError):
    pass


# packets per link window after an overflow, and per chunk of the
# per-packet loop; a window that drops nothing is followed by one twice
# as long
_RESTART_WINDOW = 256

# a departure at most this long (s) after an arrival frees its slot first
TIE_S = 1e-9


@dataclass(frozen=True)
class SimConfig:
    """Run-level knobs: horizon/warmup (s), propagation (ms), default seed."""

    horizon_s: float = 10.0
    warmup_s: float = 1.0
    propagation_ms: float = 0.1
    seed: int = 0

    def __post_init__(self):
        errs = []
        if not (self.horizon_s > 0):
            errs.append(("horizon_s", f"horizon_s must be > 0, got {self.horizon_s}"))
        if not (0 <= self.warmup_s < self.horizon_s):
            errs.append(("warmup_s", f"need 0 <= warmup_s < horizon_s, "
                                     f"got {self.warmup_s} vs {self.horizon_s}"))
        if self.propagation_ms < 0:
            errs.append(("propagation_ms", "propagation_ms must be >= 0"))
        InvariantViolation.check(errs)


@dataclass
class SliceRunResult:
    """Per-slice outcome of one run: post-warmup counters and raw delays."""

    delays_ms: np.ndarray       # E2E delays of successful post-warmup requests
    offered: int
    success: int
    dropped: int


def slice_rng(seed: int, slice_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(slice_index)]))


def generate_traffic(model: TrafficModel, horizon_s: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Arrival times (s, sorted) and packet sizes (bytes) over [0, horizon)."""
    if model.kind == "poisson":
        arrivals = _poisson_arrivals(model.mean_rate, horizon_s, rng)
    else:
        arrivals = _onoff_arrivals(model, horizon_s, rng)
    sizes = _draw_sizes(model, arrivals.size, rng)
    return arrivals, sizes


def _poisson_arrivals(rate, horizon_s, rng):
    chunks = []
    t = 0.0
    n = max(64, int(rate * horizon_s * 1.2) + 16)
    while t < horizon_s:
        gaps = rng.exponential(1.0 / rate, size=n)
        arr = t + np.cumsum(gaps)
        chunks.append(arr)
        t = arr[-1]
    arrivals = np.concatenate(chunks)
    return arrivals[arrivals < horizon_s]


def _onoff_arrivals(model, horizon_s, rng):
    gap = model.intra_burst_gap_s()
    p = 1.0 / model.burst_len
    off_mean = model.off_time_ms / 1000.0
    if off_mean == 0.0 and gap == 0.0:
        raise SimulationError("on/off source with zero gap and zero off time cannot advance")
    # The source is one standard-exponential stream E: an optional leading
    # off time, then per burst a geometric size ceil(-E / log1p(-p)) (how
    # numpy draws geometric(p) for p < 1/3) and an off time off_mean * E.
    # Draw E in bulk, then rewind and consume only the draws a per-burst
    # loop would have made, so the packet sizes drawn next see its stream.
    state = rng.bit_generator.state
    per_burst = 2 if off_mean > 0 else 1
    t = off_mean * rng.standard_exponential() if off_mean > 0 else 0.0
    used = per_burst - 1
    starts, counts = [], []
    while t < horizon_s:
        m = int((horizon_s - t) / (model.burst_len * gap + off_mean) * 1.1) + 16
        e = rng.standard_exponential((m, per_burst))
        n = np.ceil(-e[:, 0] / math.log1p(-p)) if p < 1.0 else np.ones(m)
        step = n * gap
        if off_mean > 0:
            step += off_mean * e[:, 1]
        # burst starts, summed in the loop's order; the last one is the next t
        s = np.cumsum(np.concatenate(([t], step)))
        b = min(m, int(np.searchsorted(s, horizon_s)))
        starts.append(s[:b])
        counts.append(n[:b].astype(np.int64))
        used += per_burst * b
        t = s[b]
    rng.bit_generator.state = state
    rng.standard_exponential(used)
    if not starts:
        return np.empty(0)
    starts = np.concatenate(starts)
    counts = np.concatenate(counts)
    # expand each burst into gap-spaced packets
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    arrivals = np.repeat(starts, counts) + within * gap
    return arrivals[arrivals < horizon_s]


def _draw_sizes(model, n, rng):
    if model.size_dist == "exponential":
        mean = model.mean_size_bytes()
        return np.clip(rng.exponential(mean, size=n), model.size_min, model.size_max)
    return rng.integers(model.size_min, model.size_max + 1, size=n).astype(float)


def simulate_pipeline(arrivals, sizes_bytes, link_rates_bps, buffer_pkts,
                      service_rate_ips, demand_mi, propagation_ms):
    """Push one slice's packets through its link queues and server queue.

    arrivals must be sorted and as long as sizes_bytes. Returns (delays_ms
    of served packets in arrival order of survivors, served_mask over all
    offered packets). Zero-rate stages strand everything behind them
    (served_mask False).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    bits = np.asarray(sizes_bytes, dtype=float) * 8.0
    if arrivals.shape != bits.shape:
        raise ValueError(
            f"arrivals and sizes_bytes differ in length: {len(arrivals)} vs {len(bits)}")
    if not np.all(arrivals[1:] >= arrivals[:-1]):
        raise ValueError("arrivals must be sorted in non-decreasing order")
    served_mask = np.ones(arrivals.size, dtype=bool)
    times, created = arrivals, arrivals

    # link stages in series, each with its own finite buffer
    for rate in link_rates_bps:
        if rate <= 0.0:
            served_mask[:] = False
            return np.empty(0), served_mask
        times = _link_stage(times, bits / rate, buffer_pkts)
        kept = ~np.isnan(times)
        if not kept.all():
            served_mask[served_mask] = kept
            times, bits, created = times[kept], bits[kept], created[kept]

    # server stage: unbounded FIFO with the same service time proc for every
    # request, so end_i = (i+1)*proc + max_{k<=i}(t_k - k*proc)
    if service_rate_ips <= 0.0:
        served_mask[:] = False
        return np.empty(0), served_mask
    proc = demand_mi / service_rate_ips
    prop_s = propagation_ms / 1000.0
    k = np.arange(times.size)
    ends = (k + 1) * proc + np.maximum.accumulate(times - k * proc)
    return (ends - created + prop_s) * 1000.0, served_mask


def _link_stage(t, tx, buffer_pkts):
    """Departure times from one FIFO link that holds at most buffer_pkts packets.

    t are the sorted arrival times and tx the transmission times. Lindley's
    recursion dep_i = max(t_i, dep_{i-1}) + tx_i runs as the running max
    dep = C + max.accumulate(t - C_prev) over cumulative transmission time
    C, one window of packets at a time. An arrival at t finds
    i - #{dep <= t} packets queued, so a departure at t frees its slot
    first. The count leaves TIE_S out, so it may see the buffer full too
    early, never too late: from the first arrival it sees the buffer full,
    the exact per-packet loop, which applies TIE_S, takes over until an
    arrival finds the link idle. Dropped packets get a NaN departure time.
    """
    n = t.size
    dep = np.empty(n)
    pend = np.empty(0)   # departures after the last arrival handled so far
    i, width = 0, n
    while i < n:
        j = min(n, i + width)
        tw, cw = t[i:j], np.cumsum(tx[i:j])
        lead = np.maximum.accumulate(tw - np.concatenate(([0.0], cw[:-1])))
        if pend.size:
            lead = np.maximum(lead, pend[-1])
        d = cw + lead
        queued = np.arange(j - i) - np.searchsorted(d, tw, side="right")
        if pend.size:
            queued += pend.size - np.searchsorted(pend, tw, side="right")
        full = queued >= buffer_pkts
        f = int(full.argmax()) if full.any() else j - i
        dep[i:i + f] = d[:f]
        at = tw[f] if f < j - i else tw[-1]
        pend = np.concatenate((pend[np.searchsorted(pend, at, side="right"):],
                               d[np.searchsorted(d[:f], at, side="right"):f]))
        if f < j - i:
            i = _overflow_loop(t, tx, i + f, deque(pend.tolist()), buffer_pkts, dep)
            pend, width = np.empty(0), _RESTART_WINDOW
        else:
            i, width = j, 2 * width
    return dep


def _overflow_loop(t, tx, k, queue, buffer_pkts, dep):
    """Per-packet link loop from arrival k, which may find the buffer full.

    queue holds the pending departure times. Writes dep (NaN for a drop)
    and returns the index of the first arrival that finds the link idle,
    with no departure after it, or t.size. A departure at most TIE_S after
    an arrival leaves the queue first but still delays the arrival's start.
    """
    n = t.size
    prev_out = queue[-1]
    while k < n:
        out = []
        stop = min(n, k + _RESTART_WINDOW)
        # arrival times shifted by TIE_S once per chunk, not once per packet
        for tie_k, tx_k in zip((t[k:stop] + TIE_S).tolist(), tx[k:stop].tolist()):
            while queue and queue[0] <= tie_k:
                queue.popleft()
            if not queue and prev_out <= t[k + len(out)]:
                break
            if len(queue) >= buffer_pkts:
                out.append(math.nan)
            else:
                prev_out += tx_k
                queue.append(prev_out)
                out.append(prev_out)
        dep[k:k + len(out)] = out
        k += len(out)
        if not queue:
            return k
    return n


def run_sim(slices, topology: Topology, alloc: AllocationMatrix, config: SimConfig,
            seed: int | None = None, only=None) -> dict:
    """Simulate every slice at the given allocation.

    Returns {slice_id: SliceRunResult}. Identical inputs and seed give
    identical results; each slice draws from its own seeded stream, so a
    slice's traffic does not depend on which other slices are simulated.
    only, a (slice_id, AllocationVector) pair, simulates that one slice at
    that row instead, which answers what-if queries without touching the
    joint allocation (slices are isolated, so no other slice could notice).
    """
    if seed is None:
        seed = config.seed
    edge_bps = topology.edge_bps()
    core_mips = topology.core_mips()
    results = {}
    for k, spec in enumerate(slices):
        if only is None:
            row = alloc.row(spec.id)
        elif spec.id == only[0]:
            row = only[1]
        else:
            continue
        rng = slice_rng(seed, k)
        arrivals, sizes = generate_traffic(spec.traffic, config.horizon_s, rng)
        link_rates = row.flows * edge_bps
        cpu_rate = float(row.cpu @ core_mips)
        delays, served = simulate_pipeline(
            arrivals, sizes, link_rates, topology.buffer_pkts,
            cpu_rate, spec.demand_mi, config.propagation_ms,
        )
        keep = arrivals >= config.warmup_s
        offered = int(keep.sum())
        kept_served = served & keep
        success = int(kept_served.sum())
        served_delays = delays[keep[served]] if delays.size else delays
        if success + int((~served & keep).sum()) != offered:
            raise SimulationError("request accounting lost packets")
        results[spec.id] = SliceRunResult(
            delays_ms=served_delays,
            offered=offered,
            success=success,
            dropped=offered - success,
        )
    return results


def percentile_of(statistic: str) -> float | None:
    """The p of a "pNN" statistic, None for "max" and "mean"; ValueError for any other."""
    if statistic in ("max", "mean"):
        return None
    if not statistic.startswith("p"):
        raise ValueError(f"unknown statistic {statistic!r}")
    p = float(statistic[1:])
    if not (0 < p <= 100):
        raise ValueError(f"percentile out of (0,100]: {statistic}")
    return p


def delay_statistic(delays_ms: np.ndarray, statistic: str) -> float:
    """Reduce raw delays to one number: "max", "mean", or "pNN" percentile.

    Percentile is nearest-rank. Empty input yields inf (no request
    survived, the unbounded marker).
    """
    p = percentile_of(statistic)
    if delays_ms.size == 0:
        return math.inf
    if p is None:
        return float(delays_ms.max() if statistic == "max" else delays_ms.mean())
    k = max(1, math.ceil(p / 100.0 * delays_ms.size))
    return float(np.sort(delays_ms)[k - 1])


def summarize(results: dict, statistic: str = "max", seed: int | None = None,
              keep_raw: bool = False) -> dict:
    """Collapse SliceRunResults into QoeSamples under the chosen statistic."""
    samples = {}
    for sid, r in results.items():
        throughput = r.success / r.offered if r.offered else 1.0
        samples[sid] = QoeSample(
            delay_stat_ms=delay_statistic(r.delays_ms, statistic),
            throughput=throughput,
            n_requests=r.offered,
            raw_delays_ms=r.delays_ms if keep_raw else None,
            seed=seed,
        )
    return samples

