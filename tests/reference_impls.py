"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written from first principles and
kept separate from the package under test: brute-force QP for the capped
simplex, textbook M/M/1 formulas, a by-hand single-packet delay trace,
a scalar re-implementation of the transfer recursion, and the simulator's
original per-packet link/server loop and per-burst on/off generator. Test expectations are
frozen from these, never from the library.
"""
import itertools
import math

import numpy as np

from slicelab.simulator import TIE_S, SimulationError


def qp_capped_simplex(y):
    """Projection onto {x >= 0, sum(x) <= 1} by active-set enumeration.

    Tries every subset Z of coordinates pinned at zero, with the sum
    constraint either slack or tight, solves the equality-constrained
    least-squares candidate in closed form, and keeps the feasible
    candidate with the smallest objective. Exponential in dimension;
    meant for n <= 4.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_obj = None, np.inf
    for zeros in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        free = [i for i in range(n) if i not in zeros]
        for tight in (False, True):
            x = np.zeros(n)
            if free:
                if tight:
                    theta = (y[free].sum() - 1.0) / len(free)
                    x[free] = y[free] - theta
                else:
                    x[free] = y[free]
            elif tight:
                continue  # sum(x)=1 impossible with every coordinate zero
            if (x < -1e-12).any() or x.sum() > 1.0 + 1e-12:
                continue
            obj = 0.5 * np.sum((x - y) ** 2)
            if obj < best_obj - 1e-15:
                best, best_obj = x, obj
    return best


def mm1_sojourn_s(lam, mu):
    """Mean time in system for a stable M/M/1 queue (seconds)."""
    assert mu > lam
    return 1.0 / (mu - lam)


def two_stage_delay_ms(lam, rate_bps, mean_size_bytes, phi_mips_sum, demand_mi):
    """Mean E2E sojourn (ms) across link M/M/1 plus server M/M/1."""
    mu_net = rate_bps / (8.0 * mean_size_bytes)
    mu_srv = phi_mips_sum / demand_mi
    return 1000.0 * (mm1_sojourn_s(lam, mu_net) + mm1_sojourn_s(lam, mu_srv))


def single_packet_delay_ms(size_bytes, link_bps, demand_mi, mips_sum, prop_ms):
    """Delay of one packet through an empty two-stage pipeline.

    transmission + processing + propagation; no queueing.
    """
    tx = size_bytes * 8.0 / link_bps
    proc = demand_mi / mips_sum
    return (tx + proc) * 1000.0 + prop_ms


# Frozen hand calculation (also worked on paper): 1000-byte packet on an
# 8 Mb/s share, 5e4 MI job on a full 3e8 MIPS core, no propagation:
#   tx = 8000 / 8e6 s = 1.000 ms
#   proc = 5e4 / 3e8 s = 0.16667 ms
HAND_SINGLE_PACKET_MS = 1.0 + (5e4 / 3e8) * 1000.0  # = 1.1666666...


def scalar_transfer_recursion(x1, xj, eta, steps):
    """Hand-rolled scalar version of the coupled transfer recursion.

    One resource, one donor with penalty (x-0.3)^2 and a new slice with
    hinge penalty max(0, 0.6-x)^2, conservative hand-off, joint projection
    of the (donor, new) pair onto the capped simplex.
    """
    def g_donor(x):
        return 2.0 * (x - 0.3)

    def g_new(x):
        return -2.0 * max(0.0, 0.6 - x)

    hist = [(x1, xj)]
    for _ in range(steps):
        d = eta * (g_donor(x1) - g_new(xj))
        x1_raw = x1 - d
        xj_raw = xj + d
        proj = qp_capped_simplex(np.array([x1_raw, xj_raw]))
        x1, xj = float(proj[0]), float(proj[1])
        hist.append((x1, xj))
    return hist


# The simulator's original loops, kept unchanged as differential oracles for
# its vectorized link/server stages and on/off generator.

def loop_pipeline(arrivals, sizes_bytes, link_rates_bps, buffer_pkts,
                  service_rate_ips, demand_mi, propagation_ms):
    """Push one slice's packets through its link queues and server queue.

    arrivals must be sorted. Returns (delays_ms of served packets in
    arrival order of survivors, served_mask over all offered packets).
    Zero-rate stages strand everything behind them (served_mask False).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    n = len(arrivals)
    served_mask = np.ones(n, dtype=bool)
    times = arrivals.tolist()
    sizes = (np.asarray(sizes_bytes, dtype=float) * 8.0).tolist()  # bits
    created = arrivals.tolist()
    idx = list(range(n))

    # link stages in series, each with its own finite buffer
    for rate in link_rates_bps:
        if rate <= 0.0:
            for i in idx:
                served_mask[i] = False
            times, sizes, created, idx = [], [], [], []
            break
        out_times = []
        head = 0
        prev_out = -math.inf
        keep_t, keep_s, keep_c, keep_i = [], [], [], []
        for t, bits, c, i in zip(times, sizes, created, idx):
            while head < len(out_times) and out_times[head] <= t + TIE_S:
                head += 1
            if len(out_times) - head >= buffer_pkts:
                served_mask[i] = False
                continue
            start = t if t > prev_out else prev_out
            prev_out = start + bits / rate
            out_times.append(prev_out)
            keep_t.append(prev_out)
            keep_s.append(bits)
            keep_c.append(c)
            keep_i.append(i)
        times, sizes, created, idx = keep_t, keep_s, keep_c, keep_i

    # server stage: unbounded FIFO, deterministic per-request service time
    if service_rate_ips <= 0.0:
        for i in idx:
            served_mask[i] = False
        return np.empty(0), served_mask

    proc = demand_mi / service_rate_ips
    prop_s = propagation_ms / 1000.0
    delays = []
    prev_end = -math.inf
    for t, c in zip(times, created):
        start = t if t > prev_end else prev_end
        prev_end = start + proc
        delays.append((prev_end - c + prop_s) * 1000.0)
    return np.array(delays), served_mask


def loop_onoff_arrivals(model, horizon_s, rng):
    gap = model.intra_burst_gap_s()
    p = 1.0 / model.burst_len
    off_mean = model.off_time_ms / 1000.0
    starts = []
    counts = []
    t = rng.exponential(off_mean) if off_mean > 0 else 0.0
    while t < horizon_s:
        n = int(rng.geometric(p))
        starts.append(t)
        counts.append(n)
        t += n * gap + (rng.exponential(off_mean) if off_mean > 0 else 0.0)
        if off_mean == 0.0 and gap == 0.0:
            raise SimulationError("on/off source with zero gap and zero off time cannot advance")
    if not starts:
        return np.empty(0)
    starts = np.array(starts)
    counts = np.array(counts)
    # expand each burst into gap-spaced packets
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    arrivals = np.repeat(starts, counts) + within * gap
    return arrivals[arrivals < horizon_s]
