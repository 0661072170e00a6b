"""Independent reference implementations used as test oracles.

Everything in this file is deliberately written from first principles and
kept separate from the package under test: brute-force QP for the capped
simplex, the textbook M/M/1 sojourn time and a slice's delay and throughput
through a chain of such queues, a frozen hand calculation of one packet's
delay, a scalar re-implementation of the transfer recursion, the
simulator's original per-packet link/server loop, a per-arrival Poisson
generator and a per-burst on/off generator, a slice's random stream seeded by
numpy alone and drawn by numpy's Generator in bulk (`numpy_stream`, the
reference of the compiled draw), and the plain numpy forms of two formulas the library computes
another way: the hinge's averages by `np.mean` and uniform packet sizes drawn
as int64. Test expectations are frozen from these, never from the library.
The exceptions read the library's oracle: `many_repetition_gradient`, a
slow reference for the probed gradient (the library's estimator at a
repetition count no run can afford, so only its precision is independent),
and `least_cpu_frontier` with `least_fitting_link`, a slow reference for the
loop: a grid search for the least resources each slice needs, and whether
the slices fit together there, and `reprobed_stop`, a slow reference for the
loop's stop: the last iterate of a finished run probed again from scratch,
which `stop_state` reads as the reason the run stopped, and `fully_checked`,
a slow reference for the value types' accept tests: the construction checks
of `AllocationVector`, `AllocationMatrix` and `QoeSample` with no accept test
in front, built from the library's own rules.
"""
import itertools
import math
import types

import numpy as np

from slicelab.domain import (AllocationMatrix, AllocationVector, InvariantViolation, QoeSample,
                             _entry_violations, array_field, capacity_violations, derive_seed,
                             interval_violations, whole_fields)
from slicelab.oracle import sim_evaluate
from slicelab.penalty import PenaltyModel, hinge, probed_gradient
from slicelab.simulator import TIE_S


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


def mm1_delay_throughput(spec, point, topology):
    """A slice's M/M/1 mean delay (ms) and throughput at allocation `point`.

    Each edge is a queue that sends the slice's mean packet at its share of
    the link's Mbps, and the cores make one server whose rate is their
    shares' summed instructions per second over the slice's demand; every
    stage is fed at the slice's mean rate. A stable chain gives its summed
    mean sojourns and 1.0; otherwise inf and the slowest stage's
    min(1, mu / lam). Plain Python floats throughout.
    """
    lam = float(spec.traffic.mean_rate)
    bits = 8.0 * spec.traffic.mean_size_bytes()
    mus = [float(f) * mbps * 1e6 / bits for f, (_, mbps) in zip(point.flows, topology.edges)]
    mus.append(sum(float(c) * mips for c, (_, mips) in zip(point.cpu, topology.cores))
               / spec.demand_mi)
    if min(mus) > lam:
        return 1000.0 * sum(mm1_sojourn_s(lam, mu) for mu in mus), 1.0
    return math.inf, min(1.0, min(mus) / lam)


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


# Per-packet, per-arrival and per-burst loops, differential oracles for the
# simulator's vectorized link/server stages and arrival generators.

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


def stream(seed, index):
    """Slice `index`'s random stream under `seed`: PCG64 seeded by the
    SeedSequence of the list [seed, index]."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def loop_poisson_arrivals(rate, horizon_s, rng):
    """Poisson arrivals one at a time: t += an exponential step of mean
    1 / rate until t reaches the horizon."""
    arrivals = []
    t = rng.exponential(1.0 / rate)
    while t < horizon_s:
        arrivals.append(t)
        t += rng.exponential(1.0 / rate)
    return np.array(arrivals)


def loop_onoff_arrivals(model, horizon_s, rng):
    """On/off arrivals one burst at a time, from one standard-exponential
    stream E: a leading off time, then per burst a size ceil(-E / log1p(-p))
    (one packet when p is 1) and an off time."""
    gap = model.intra_burst_gap_s()
    p = 1.0 / model.burst_len
    off_mean = model.off_time_ms / 1000.0
    starts = []
    counts = []
    t = off_mean * rng.standard_exponential() if off_mean > 0 else 0.0
    while t < horizon_s:
        e = rng.standard_exponential()
        n = math.ceil(-e / math.log1p(-p)) if p < 1.0 else 1
        starts.append(t)
        counts.append(n)
        t += n * gap + (off_mean * rng.standard_exponential() if off_mean > 0 else 0.0)
    if not starts:
        return np.empty(0)
    starts = np.array(starts)
    counts = np.array(counts)
    # expand each burst into gap-spaced packets
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    arrivals = np.repeat(starts, counts) + within * gap
    return arrivals[arrivals < horizon_s]


def numpy_stream(model, horizon_s, seed, index):
    """Slice `index`'s (arrivals, sizes) under `seed`, drawn by numpy's
    Generator in bulk: the slow reference of the compiled draw, which must
    match it bit for bit. Every arrival generator sums non-negative steps,
    so the arrivals never decrease and those before the horizon are a
    prefix."""
    rng = stream(seed, index)
    if model.kind == "poisson":
        arrivals = numpy_poisson_arrivals(model.mean_rate, horizon_s, rng)
    else:
        arrivals = numpy_onoff_arrivals(model, horizon_s, rng)
    return arrivals, numpy_sizes(model, arrivals.size, rng)


def numpy_poisson_arrivals(rate, horizon_s, rng):
    """The recursion t += E / rate in chunks of numpy draws, each chunk's
    cumulative sum carried on from the last chunk's final time."""
    chunks = []
    t = 0.0
    n = max(64, int(rate * horizon_s * 1.2) + 16)
    while t < horizon_s:
        arr = rng.exponential(1.0 / rate, size=n)
        arr[0] += t
        np.add.accumulate(arr, out=arr)
        chunks.append(arr)
        t = arr[-1]
    arrivals = np.concatenate(chunks)
    return arrivals[:arrivals.searchsorted(horizon_s)]


def numpy_onoff_arrivals(model, horizon_s, rng):
    """On/off arrivals from one standard-exponential stream E drawn in
    chunks of m bursts: an optional leading off time, then per burst a
    geometric size ceil(E / -log1p(-p)) (one packet when p is 1) and an off
    time off_mean * E; the burst starts summed in order, and packet k of a
    burst that starts at s at k * gap + s."""
    gap = model.intra_burst_gap_s()
    p = 1.0 / model.burst_len
    off_mean = model.off_time_ms / 1000.0
    per_burst = 2 if off_mean > 0 else 1
    t = off_mean * rng.standard_exponential() if off_mean > 0 else 0.0
    starts, counts = [], []
    while t < horizon_s:
        m = int((horizon_s - t) / (model.burst_len * gap + off_mean) * 1.1) + 16
        e = rng.standard_exponential((m, per_burst))
        n = np.ceil(e[:, 0] / -math.log1p(-p)) if p < 1.0 else np.ones(m)
        step = n * gap
        if off_mean > 0:
            step += off_mean * e[:, 1]
        s = np.add.accumulate(np.concatenate(([t], step)))
        b = min(m, int(s.searchsorted(horizon_s)))
        t = s[b]
        if t >= horizon_s and gap > 0:
            # only the last burst reaches past the horizon: cap it, before
            # the int64 cast, at the packets that can arrive before the
            # horizon, plus one for rounding
            n[b - 1] = min(n[b - 1], (horizon_s - s[b - 1]) // gap + 2)
        starts.append(s[:b])
        counts.append(n[:b].astype(np.int64))
    if not starts:
        return np.empty(0)
    starts, counts = np.concatenate(starts), np.concatenate(counts)
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    arrivals = within * gap + np.repeat(starts, counts)
    return arrivals[:arrivals.searchsorted(horizon_s)]


def numpy_sizes(model, n, rng):
    """n packet sizes as numpy draws them: exponential ones clipped to
    [size_min, size_max], and uniform whole ones by `integers`, as int32
    below 2**31 - 1 and int64 from there, widened to floats."""
    if model.size_dist == "exponential":
        sizes = rng.exponential(model.mean_size_bytes(), size=n)
        return np.clip(sizes, model.size_min, model.size_max, out=sizes)
    dtype = np.int32 if model.size_max < 2**31 - 1 else np.int64
    return rng.integers(model.size_min, model.size_max + 1, size=n, dtype=dtype).astype(float)


def many_repetition_gradient(model, slice_id, row, slices, topology, sim_config,
                             statistic, delta, seed_base, repetitions=200):
    """A probed gradient precise enough to grade a cheaper one against.

    `probed_gradient` at `repetitions` CRN repetitions, through a
    `sim_evaluate` oracle with a fresh memo. Returns (gradient, se): se is
    each coordinate's standard error, from the spread of the per-repetition
    difference quotients (the hinge applied to each repetition alone, a
    proxy, since the estimator applies it to the mean).
    """
    memo, penalties = {}, []

    def oracle(point, seed):
        sample = sim_evaluate(slice_id, point, slices, topology, sim_config, seed,
                              statistic, memo=memo)
        penalties.append(hinge(model, sample.delay_stat_ms, sample.throughput)[0])
        return sample

    grad = probed_gradient(model, oracle, row, delta, repetitions, seed_base=seed_base)
    # calls come in (coordinate, side, repetition) order; a side clamped to
    # [0, 1] narrows its coordinate's spread
    pen = np.reshape(penalties, (grad.size, 2, repetitions))
    base = row.stacked()
    spread = np.clip(base + delta, 0.0, 1.0) - np.clip(base - delta, 0.0, 1.0)
    quotients = (pen[:, 1] - pen[:, 0]) / spread[:, None]
    return grad, quotients.std(axis=1, ddof=1) / math.sqrt(repetitions)


def mean_hinge(model, delays_ms, throughputs):
    """The hinge with its averages taken by `np.mean`: (penalty, d penalty /
    d delay, d penalty / d throughput) at the mean outcome, each delay
    capped at the ceiling (a non-finite one enters at it) first."""
    ceiling = model.delay_ceiling_ms
    delay = float(np.mean(np.fmin(delays_ms, ceiling)))
    short = max(0.0, model.requirement.rho - float(np.mean(throughputs)))
    p = model.exponent
    value = slope_delay = slope_tp = 0.0
    if model.requirement.bounded:
        viol = max(0.0, delay - model.requirement.tau_ms)
        value += model.alpha_tau * viol**p
        if viol > 0 and delay < ceiling:
            slope_delay = model.alpha_tau * (p * viol ** (p - 1))
    value += model.alpha_rho * short**p
    if short > 0:
        slope_tp = -(model.alpha_rho * (p * short ** (p - 1)))
    return value, slope_delay, slope_tp


def int64_uniform_sizes(model, n, rng):
    """n uniform packet sizes on [size_min, size_max], drawn as int64, as floats."""
    return rng.integers(model.size_min, model.size_max + 1, size=n).astype(float)


# link and per-core cpu shares the frontier search visits
SHARE_GRID = tuple(k / 40 for k in range(1, 41))


def least_cpu_frontier(spec, topology, sim_config, osra_config, seeds):
    """{link share: the least per-core cpu share, or None} on SHARE_GRID.

    A point (f, c) gives the slice share f of every edge and c of every
    core; its penalty is the hinge at the mean outcome over `seeds` (common
    random numbers, each the stream a lone slice draws), as a probe point's
    is. For each f, a binary search over c finds the least c whose penalty
    is 0, None where no c up to 1 has one. The search assumes the penalty
    never rises with either share, and an AssertionError says where a point
    it visited breaks that.
    """
    model = PenaltyModel(requirement=spec.requirement, alpha_tau=spec.alpha_tau,
                         alpha_rho=spec.alpha_rho, exponent=osra_config.penalty_exponent,
                         delay_ceiling_ms=osra_config.delay_ceiling_ms)
    memo, visited = {}, {}

    def served(f, c):
        row = AllocationVector(np.full(topology.n_edges, f), np.full(topology.n_cores, c))
        samples = [sim_evaluate(spec.id, row, (spec,), topology, sim_config, seed,
                                osra_config.statistic, memo) for seed in seeds]
        visited[f, c] = hinge(model, [s.delay_stat_ms for s in samples],
                              [s.throughput for s in samples])[0] == 0.0
        return visited[f, c]

    frontier = {}
    for f in SHARE_GRID:
        lo, hi = -1, len(SHARE_GRID)   # SHARE_GRID[hi] is served, when hi is in range
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if served(f, SHARE_GRID[mid]):
                hi = mid
            else:
                lo = mid
        frontier[f] = SHARE_GRID[hi] if hi < len(SHARE_GRID) else None

    # no visited point that gets at least a served point's shares is unserved
    for (f, c), ok in visited.items():
        if ok:
            worse = [p for p, q in visited.items() if p[0] >= f and p[1] >= c and not q]
            assert not worse, f"{spec.id}: served at {(f, c)}, not at {worse}"
    return frontier


def least_fitting_link(frontiers):
    """The least total link share over one point on each slice's frontier,
    among the choices whose link shares and cpu shares each sum to at most
    1; None when no choice fits, so no allocation serves every slice."""
    best = None
    points = [[(f, c) for f, c in frontier.items() if c is not None] for frontier in frontiers]
    for choice in itertools.product(*points):
        link, cpu = (math.fsum(share) for share in zip(*choice))
        if link <= 1.0 + 1e-9 and cpu <= 1.0 + 1e-9 and (best is None or link < best):
            best = link
    return best


def reprobed_stop(result, slices, topology, sim_config, osra_config, new_slice_id, seed):
    """The new slice's probes at the last iterate of `result`, a finished
    `run_osra(..., seed=seed)`, made again: (difference quotients, (dim, 2)
    probe-point penalties, centre penalty).

    The row is clipped into [0, 1], and each coordinate in turn is set to
    its clipped x - delta, then x + delta. Each point, and the row itself
    (the centre), is simulated on the last iteration's probe seeds with a
    fresh memo, and its penalty is the hinge at the mean outcome, as the
    loop's probes are, so the quotients are its last gradient.
    """
    spec = {s.id: s for s in slices}[new_slice_id]
    model = PenaltyModel(requirement=spec.requirement, alpha_tau=spec.alpha_tau,
                         alpha_rho=spec.alpha_rho, exponent=osra_config.penalty_exponent,
                         delay_ceiling_ms=osra_config.delay_ceiling_ms)
    last = result.traces[-1]
    seeds = [derive_seed(derive_seed(seed, 7001, last.k), r) for r in range(osra_config.probes)]
    row = last.alloc.row(new_slice_id)
    centre = np.clip(np.concatenate([row.flows, row.cpu]), 0.0, 1.0)
    n_edges = row.flows.size
    memo = {}

    def penalty(x):
        point = AllocationVector(x[:n_edges], x[n_edges:])
        samples = [sim_evaluate(new_slice_id, point, slices, topology, sim_config, s,
                                osra_config.statistic, memo) for s in seeds]
        return hinge(model, [s.delay_stat_ms for s in samples],
                     [s.throughput for s in samples])[0]

    sides = np.empty((centre.size, 2))
    pen = np.empty((centre.size, 2))
    for d, x in enumerate(centre):
        for side, step in enumerate((-osra_config.delta, osra_config.delta)):
            sides[d, side] = min(max(x + step, 0.0), 1.0)
            point = centre.copy()
            point[d] = sides[d, side]
            pen[d, side] = penalty(point)
    return (pen[:, 1] - pen[:, 0]) / (sides[:, 1] - sides[:, 0]), pen, penalty(centre)


def stop_state(result, stop, new_slice_id):
    """Why `result`, a finished `run_osra`, stopped, read from `stop`, its
    `reprobed_stop`:

    - "max_iters": it did not converge, so the iteration cap ended it;
    - "stalled at <p>": every probe point and the centre read the same
      positive penalty p, so the new slice's gradient is flat above its
      bound;
    - "donor <id> hurts": every probe point and the centre read 0, while
      donor <id>'s monitored penalty is positive under a gradient of
      exactly 0 (one such phrase per hurting donor, joined by ", ");
    - "satisfied": every probe point and the centre read 0, and no donor's
      monitored penalty is positive.

    Any other stop reads "unclassified", with the penalties it read.
    """
    if not result.converged:
        return "max_iters"
    _, pen, centre = stop
    read = {*pen.ravel().tolist(), float(centre)}
    if len(read) == 1 and centre > 0.0:
        return f"stalled at {float(centre)!r}"
    last = result.traces[-1]
    hurting = [sid for sid, p in last.penalties.items() if sid != new_slice_id and p > 0.0]
    if read == {0.0} and all((last.gradients[sid] == 0.0).all() for sid in hurting):
        return ", ".join(f"donor {sid} hurts" for sid in hurting) or "satisfied"
    return f"unclassified: probes and centre read {sorted(read)}"


def _allocation_vector_checks(self):
    errs = []
    for name in ("flows", "cpu"):
        errs += array_field(self, name, 1) or _entry_violations(name, getattr(self, name))
    InvariantViolation.check(errs)


def _allocation_matrix_checks(self):
    object.__setattr__(self, "slice_ids", tuple(str(s) for s in self.slice_ids))
    errs = []
    n = len(self.slice_ids)
    if len(set(self.slice_ids)) != n:
        errs.append(("slice_ids", "duplicate slice ids in allocation"))
    for name in ("flows", "cpu"):
        bad = array_field(self, name, 2)
        if not bad and len(getattr(self, name)) != n:
            bad = [(name, f"{name} has {len(getattr(self, name))} rows for {n} slice ids")]
        errs += bad or capacity_violations(name, getattr(self, name))
    InvariantViolation.check(errs)


def _qoe_sample_checks(self):
    InvariantViolation.check(
        interval_violations("delay_stat_ms", self.delay_stat_ms, "[0, inf]")
        + interval_violations("throughput", self.throughput, "[0, 1]")
        + whole_fields(self, "n_requests", interval="[0, inf)")
        + ([] if self.raw_delays_ms is None else array_field(self, "raw_delays_ms", 1)))


FULL_CHECKS = {AllocationVector: _allocation_vector_checks,
               AllocationMatrix: _allocation_matrix_checks,
               QoeSample: _qoe_sample_checks}


def fully_checked(cls, **values):
    """What `cls` (AllocationVector, AllocationMatrix or QoeSample) makes of
    field `values` through its full construction checks alone: the fields
    as they would be stored, as a dict, or the violations it would raise.
    Each check body is the type's own from before it took an accept test in
    plain floats, with `n_requests` a whole number."""
    obj = types.SimpleNamespace(**values)
    try:
        FULL_CHECKS[cls](obj)
    except InvariantViolation as err:
        return err.violations
    return vars(obj)
