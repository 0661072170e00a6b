"""Two-stage tandem-queue simulator for sliced traffic.

Each slice owns a dedicated FIFO queue at every link edge, draining at its
bandwidth share f*B with a finite packet buffer, followed by an unbounded
FIFO server queue draining at its CPU share sum(phi_c * MIPS_c). Slices
never share a queue, so each slice's pipeline is simulated independently
in arrival order; a departure at time t frees its buffer slot before an
arrival at the same instant claims one. A departure at most TIE_S after an
arrival counts as one at the same instant, since the same departure time
summed in another order can land a rounding error later.

A simulation is one call of the compiled `run_pipeline` (`pipeline.c`,
built and loaded by `native`). It runs Lindley's recursion packet by packet
through each link and then the server, drops and compacts the packets a full
buffer refuses, and checks the order of the arrivals and the sizes as the
first link reads them. `pipeline.c` describes how a link finds its buffer
full and runs each overflow episode. A stream is drawn whole in C too:
`draw_arrivals` seeds numpy's PCG64 and draws the arrivals, and
`draw_sizes` the sizes, each with numpy's own distribution code, so every
stream is numpy's to the bit and no run imports `numpy.random`. A drawn
stream is a `Stream`, which holds its warmup index, so a simulation of a
stream held in a memo does not search for it again. Every compiled call
passes its arrays as buffers, whose lengths and types it checks.

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

from . import native
from .domain import (AllocationMatrix, ArrayValue, InvariantViolation, QoeSample, Topology,
                     TrafficModel, _entropy, interval_violations)


# packets per link window after an overflow; a window that drops nothing
# is followed by one twice as long
_RESTART_WINDOW = 256

# a departure at most this long (s) after an arrival frees its slot first
TIE_S = 1e-9

_NOT_SORTED = "arrivals must be sorted in non-decreasing order"

# what `run_pipeline` returns in place of a count of served packets
_UNSORTED, _OVERFLOW, _NO_MEMORY, _BAD_SIZE = -1, -2, -3, -4

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


class Stream(tuple):
    """A drawn stream, (arrivals, sizes), two read-only float arrays of one
    length, with `warmup`, the index of its first arrival at or after the
    warmup, found once when it is drawn."""

    def __new__(cls, arrivals, sizes, warmup_s):
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        if arrivals.ndim != 1 or arrivals.shape != sizes.shape:
            raise ValueError(f"a stream's arrivals and sizes must be two arrays of one "
                             f"length, got shapes {arrivals.shape} and {sizes.shape}")
        stream = super().__new__(cls, (arrivals, sizes))
        arrivals.setflags(write=False)
        sizes.setflags(write=False)
        # arrivals are sorted, so the post-warmup requests are a suffix
        stream.warmup = int(arrivals.searchsorted(warmup_s))
        return stream


# the bytes of the stream state `draw_arrivals` leaves for `draw_sizes`
# (`pipeline.c`'s pcg64_t)
_RNG_STATE_BYTES = 40


def generate_traffic(model: TrafficModel, horizon_s: float, warmup_s: float, seed: int,
                     index: int, memo) -> Stream:
    """Arrival times (s, sorted) and packet sizes (bytes) over [0, horizon),
    drawn from numpy's PCG64 stream seeded by SeedSequence([seed, index]),
    as a `Stream` that holds its warmup index. One compiled call draws the
    arrivals and another the sizes (`draw_arrivals`, `draw_sizes`), each
    numpy's draw to the bit.

    `memo`, a dict, keeps each stream it draws under (seed, index) and
    answers it again without seeding or drawing (its rules: see
    `oracle.sim_evaluate`).
    """
    key = (seed, index)
    stream = memo.get(key)
    if stream is None:
        stream = memo[key] = _drawn(model, horizon_s, warmup_s, _entropy(key))
    return stream


def _drawn(model, horizon_s, warmup_s, entropy):
    """The stream `entropy` seeds. The arrivals are drawn into room for
    numpy's first Poisson chunk, about 1.2 times their mean count, and drawn
    again from the seed where they need more. A stream holds a copy of its
    arrivals, no spare room, made after its sizes array, and the room is
    freed whole. In perfbench's audit-baseline-long, that order takes no
    page fault per task; with the copy made first, or the room cut in place
    (`resize`), glibc trims the heap between tasks and each task faults
    about 700 pages back in (glibc's heap layout, not the draw's work)."""
    library, rng = native.LIBRARY, bytearray(_RNG_STATE_BYTES)
    if model.kind == "poisson":
        shape = (0, model.mean_rate, 0.0, 0.0, 0.0)
    else:
        shape = (1, 0.0, model.burst_len, model.intra_burst_gap_s(), model.off_time_ms / 1000.0)
    room = max(64, int(model.mean_rate * horizon_s * 1.2) + 16)
    while True:
        arrivals = np.empty(room)
        n = library.draw_arrivals(entropy, *shape, horizon_s, arrivals, rng)
        if n <= room:
            break
        room = n
    if n < 0:
        raise MemoryError(f"no memory to draw {model.kind} arrivals over {horizon_s} s")
    sizes = np.empty(n)
    if n < room:
        arrivals = arrivals[:n].copy()
    library.draw_sizes(rng, model.size_dist == "exponential", model.size_min, model.size_max,
                       model.mean_size_bytes(), sizes)
    return Stream(arrivals, sizes, warmup_s)


def simulate_pipeline(arrivals, sizes_bytes, link_rates_bps, buffer_pkts,
                      service_rate_ips, demand_mi, propagation_ms):
    """Push one slice's packets through its link queues and server queue.

    arrivals must be sorted and as long as sizes_bytes, whose entries must
    be >= 0; neither is written to. Returns (delays_ms of served packets in
    arrival order of survivors, served_mask over all offered packets). A
    zero-rate stage strands every packet (served_mask all False).
    buffer_pkts is a whole number >= 1 (a float one is used as its int),
    else InvariantViolation names it. A delay that is not finite (a share so
    small that a time overflows) raises OverflowError.
    """
    if not (type(buffer_pkts) is int and buffer_pkts >= 1):  # an int >= 1 obeys the rule
        InvariantViolation.check(interval_violations("buffer_pkts", buffer_pkts, "[1, inf)",
                                                     whole=True))
        buffer_pkts = int(buffer_pkts)
    # contiguous float arrays, the only buffers the compiled pipeline takes
    arrivals = np.ascontiguousarray(arrivals, dtype=float)
    sizes = np.ascontiguousarray(sizes_bytes, dtype=float)
    if arrivals.shape != sizes.shape:
        raise ValueError(f"arrivals and sizes_bytes differ in length: "
                         f"{len(arrivals)} vs {len(sizes)}")
    rates = np.ascontiguousarray(link_rates_bps, dtype=float)
    n = arrivals.size
    stranded = service_rate_ips <= 0.0 or any(rate <= 0.0 for rate in rates.tolist())
    # the first link pass checks the order and the sizes; where none runs,
    # numpy does, in its order: packet k's order, then its size, then k + 1's
    if stranded or not rates.size:
        unsorted = ~(arrivals >= np.concatenate(([-math.inf], arrivals[:-1])))
        bad = unsorted | ~(sizes >= 0.0)
        if bad.any():
            raise ValueError(_NOT_SORTED) if unsorted[bad.argmax()] else _bad_size(sizes)
    if stranded or not n:
        return np.empty(0), np.zeros(n, dtype=bool)
    # every link and the server in one call (`pipeline.c`): the delays land
    # in out[:m], m being the packets served
    out, served = np.empty(n), np.empty(n, dtype=bool)
    # a buffer of n or more never fills, and min keeps it an int64
    m = native.LIBRARY.run_pipeline(arrivals, sizes, rates, min(buffer_pkts, n),
                                    _RESTART_WINDOW, TIE_S, demand_mi / service_rate_ips,
                                    propagation_ms / 1000.0, out, served)
    if m < 0:
        if m == _OVERFLOW:
            raise OverflowError(f"a delay overflows at link rates {rates.tolist()} bps and "
                                f"server rate {service_rate_ips} MIPS")
        if m == _NO_MEMORY:
            raise MemoryError(f"no memory to compact the survivors of {n} packets")
        if m == _BAD_SIZE:
            raise _bad_size(sizes)
        raise ValueError(_NOT_SORTED)
    return out[:m], served


def _bad_size(sizes):
    """The ValueError that names the first size that is negative or NaN."""
    k = int(np.flatnonzero(~(sizes >= 0.0))[0])
    return ValueError(f"sizes_bytes[{k}] must be >= 0, got {sizes[k]}")


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
    stream = generate_traffic(spec.traffic, config.horizon_s, config.warmup_s, seed, index,
                              memo)
    arrivals, sizes = stream
    try:
        delays, served = simulate_pipeline(
            arrivals, sizes, link_rates, topology.buffer_pkts,
            cpu_rate, spec.demand_mi, config.propagation_ms,
        )
    except OverflowError as err:
        raise InvariantViolation([("delays_ms", f"slice {spec.id!r}: {err}")]) from None
    success = int(np.count_nonzero(served[stream.warmup:]))
    return SliceRunResult(
        delays_ms=delays[delays.size - success:],
        offered=arrivals.size - stream.warmup,
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

