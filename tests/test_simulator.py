"""Simulator behavior against hand calculations and queueing sanity."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    QoeRequirement,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
)
from slicelab.simulator import (
    _draw_sizes,
    delay_statistic,
    generate_traffic,
    run_sim,
    simulate_pipeline,
    slice_rng,
    summarize,
)
from reference_impls import HAND_SINGLE_PACKET_MS, loop_onoff_arrivals, loop_pipeline

# largest delay difference allowed between the running-max pipeline and the
# per-packet loop: they sum the same times in a different order
LOOP_DELAY_TOL_MS = 1e-6


def one_slice(rate=300.0, kind="poisson", **kw):
    traffic = dict(kind=kind, mean_rate=rate, size_min=1000, size_max=1000)
    traffic.update(kw)
    return SliceSpec(
        id="s", requirement=QoeRequirement(tau_ms=50.0, rho=0.9),
        alpha_tau=1.0, alpha_rho=1.0,
        traffic=TrafficModel(**traffic), demand_mi=1e4, priority_rank=0,
    )


class TestPipeline:
    def test_single_packet_closed_form(self):
        delays, served = simulate_pipeline(
            arrivals=np.array([0.0]), sizes_bytes=np.array([1000.0]),
            link_rates_bps=np.array([8e6]), buffer_pkts=10,
            service_rate_ips=3e8, demand_mi=5e4, propagation_ms=0.0,
        )
        assert served.all()
        assert delays[0] == pytest.approx(HAND_SINGLE_PACKET_MS, abs=1e-9)

    def test_propagation_added_once(self):
        delays, _ = simulate_pipeline(
            np.array([0.0]), np.array([1000.0]), np.array([8e6]), 10,
            3e8, 5e4, propagation_ms=0.1,
        )
        assert delays[0] == pytest.approx(HAND_SINGLE_PACKET_MS + 0.1, abs=1e-9)

    def test_two_packets_queue_in_series(self):
        # tx = 1 ms each, proc = 1/6 ms: the second packet leaves the link
        # at 2 ms, after the server went idle, so both queue only at the link
        delays, served = simulate_pipeline(
            np.array([0.0, 0.0]), np.array([1000.0, 1000.0]), np.array([8e6]),
            10, 3e8, 5e4, propagation_ms=0.0,
        )
        assert served.all()
        assert delays[0] == pytest.approx(1.0 + 1e3 * 5e4 / 3e8, abs=1e-9)
        assert delays[1] == pytest.approx(2.0 + 1e3 * 5e4 / 3e8, abs=1e-9)

    def test_two_link_stages_in_series(self):
        delays, _ = simulate_pipeline(
            np.array([0.0]), np.array([1000.0]), np.array([8e6, 8e6]), 10,
            3e8, 5e4, propagation_ms=0.0,
        )
        assert delays[0] == pytest.approx(1.0 + HAND_SINGLE_PACKET_MS, abs=1e-9)

    def test_buffer_overflow_drops_the_second_arrival(self):
        # buffer of 1 holds only the packet in transmission (1 ms long)
        delays, served = simulate_pipeline(
            np.array([0.0, 0.0001]), np.array([1000.0, 1000.0]), np.array([8e6]),
            1, 3e8, 5e4, propagation_ms=0.0,
        )
        assert served.tolist() == [True, False]
        assert delays.size == 1

    def test_departure_frees_the_slot_for_a_later_arrival(self):
        # third packet arrives after the first left the link: kept
        delays, served = simulate_pipeline(
            np.array([0.0, 0.0001, 0.0015]), np.array([1000.0] * 3),
            np.array([8e6]), 1, 3e8, 5e4, propagation_ms=0.0,
        )
        assert served.tolist() == [True, False, True]

    def test_zero_link_rate_strands_everything(self):
        delays, served = simulate_pipeline(
            np.array([0.0, 1.0]), np.array([1000.0, 1000.0]), np.array([0.0]),
            10, 3e8, 5e4, propagation_ms=0.0,
        )
        assert not served.any()
        assert delays.size == 0

    def test_zero_cpu_rate_strands_everything(self):
        delays, served = simulate_pipeline(
            np.array([0.0]), np.array([1000.0]), np.array([8e6]), 10,
            0.0, 5e4, propagation_ms=0.0,
        )
        assert not served.any()

    def test_departure_at_an_arrival_instant_frees_the_slot_first(self):
        # 1 byte at 16 b/s takes exactly 0.5 s: the first packet leaves at
        # the second one's arrival, so a one-packet buffer still takes it
        delays, served = simulate_pipeline(
            np.array([0.0, 0.5]), np.array([1.0, 1.0]), np.array([16.0]), 1,
            1.0, 0.25, propagation_ms=0.0,
        )
        assert served.tolist() == [True, True]
        assert delays.tolist() == [750.0, 750.0]

    def test_departure_just_after_an_arrival_counts_as_a_tie(self):
        # the first packet leaves 5e-10 s after the third one arrives, inside
        # TIE_S: it frees the one-packet buffer, and the third packet starts
        # transmitting when it has left
        size0 = 2.0 * (0.5 + 5e-10)
        args = (np.array([0.0, 0.25, 0.5]), np.array([size0, 1.0, 1.0]),
                np.array([16.0]), 1, 1.0, 0.0, 0.0)
        delays, served = simulate_pipeline(*args)
        assert served.tolist() == [True, False, True]
        dep0 = size0 * 8.0 / 16.0
        assert delays[1] == pytest.approx((dep0 + 0.5 - 0.5) * 1000.0, rel=0, abs=1e-9)
        assert_matches_loop(*args, tol_ms=0.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="differ in length: 3 vs 1"):
            simulate_pipeline(np.array([0.0, 0.1, 0.2]), np.array([1000.0]),
                              np.array([8e6]), 10, 3e8, 5e4, 0.0)

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate_pipeline(np.array([0.2, 0.1]), np.array([1000.0, 1000.0]),
                              np.array([8e6]), 10, 3e8, 5e4, 0.0)


def assert_matches_loop(arrivals, sizes, link_rates, buffer_pkts, cpu_rate,
                        demand_mi, propagation_ms, tol_ms=LOOP_DELAY_TOL_MS):
    args = (np.asarray(arrivals, dtype=float), np.asarray(sizes, dtype=float),
            np.asarray(link_rates, dtype=float), buffer_pkts, cpu_rate,
            demand_mi, propagation_ms)
    want_delays, want_served = loop_pipeline(*args)
    delays, served = simulate_pipeline(*args)
    assert np.array_equal(served, want_served)
    assert delays.shape == want_delays.shape
    np.testing.assert_allclose(delays, want_delays, rtol=0.0, atol=tol_ms)


link_rate = st.one_of(st.just(0.0), st.floats(1e4, 1e7))
cpu_rate = st.one_of(st.just(0.0), st.floats(1e5, 1e9))


class TestPipelineAgainstLoop:
    """The running-max pipeline against the per-packet loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        packets=st.lists(st.tuples(st.floats(0.0, 2.0), st.integers(1, 3000)),
                         max_size=120),
        link_rates=st.lists(link_rate, min_size=1, max_size=2),
        buffer_pkts=st.integers(1, 50),
        cpu=cpu_rate,
        demand_mi=st.floats(1e2, 1e5),
        propagation_ms=st.floats(0.0, 5.0),
    )
    def test_random_inputs(self, packets, link_rates, buffer_pkts, cpu,
                           demand_mi, propagation_ms):
        packets = sorted(packets)
        assert_matches_loop([t for t, _ in packets], [b for _, b in packets],
                            link_rates, buffer_pkts, cpu, demand_mi, propagation_ms)

    @settings(max_examples=200, deadline=None)
    @given(
        packets=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 8)),
                         max_size=120),
        stages=st.integers(1, 2),
        buffer_pkts=st.integers(1, 50),
        proc_ticks=st.integers(0, 8),
    )
    def test_arrivals_at_departure_instants(self, packets, stages, buffer_pkts,
                                            proc_ticks):
        # every time is a multiple of 1/64 s and exact in binary, so arrivals
        # land exactly on departures and both versions must agree exactly
        packets = sorted(packets)
        assert_matches_loop([t / 64.0 for t, _ in packets], [b for _, b in packets],
                            [512.0] * stages, buffer_pkts, 64.0, float(proc_ticks),
                            0.0, tol_ms=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 4000),
        load=st.floats(0.3, 2.0),
        stages=st.integers(1, 2),
        buffer_pkts=st.integers(1, 50),
    )
    # at the second link, a departure summed in another order lands 4.4e-16 s
    # after an arrival it ties with in the loop, and the buffer of 2 is full
    @example(seed=1619986, n=3999, load=1.8125, stages=2, buffer_pkts=2)
    def test_long_calls_cross_windows(self, seed, n, load, stages, buffer_pkts):
        # long enough for several overflow episodes and the windows between
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1e-3, n))
        sizes = rng.integers(20, 2000, n)
        rate = 8.0 * sizes.mean() / 1e-3 / load if n else 1e6
        assert_matches_loop(arrivals, sizes, [rate] * stages, buffer_pkts,
                            3e8, 1e4, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 4000),
        stages=st.integers(1, 2),
        buffer_pkts=st.integers(1, 50),
    )
    def test_long_calls_on_a_binary_grid(self, seed, n, stages, buffer_pkts):
        # as above, but with every time a multiple of 1/64 s, so that
        # arrivals land exactly on departures inside overflow episodes too
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.integers(0, 8, n)) / 64.0
        assert_matches_loop(arrivals, rng.integers(1, 8, n), [512.0] * stages,
                            buffer_pkts, 64.0, 1.0, 0.0, tol_ms=0.0)

    @pytest.mark.parametrize("link_share", [0.03, 0.015])
    def test_audit_horizon(self, link_share):
        # ~10^5 bursty packets over 500 s: a few overflow episodes on 3% of
        # the link, an overflow that rarely drains on 1.5%
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0)
        arrivals, sizes = generate_traffic(tm, 500.0, np.random.default_rng(1))
        assert_matches_loop(arrivals, sizes, [link_share * 2.5e9], 100,
                            0.3 * 3e8, 1e4, 0.1)


@st.composite
def lossless_calls(draw):
    """simulate_pipeline arguments whose buffer holds every packet offered."""
    packets = sorted(draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 3000)),
                                   min_size=1, max_size=150)))
    return dict(
        arrivals=np.array([t for t, _ in packets]),
        sizes_bytes=np.array([b for _, b in packets], dtype=float),
        link_rates_bps=np.array(draw(st.lists(st.floats(1e4, 1e8), min_size=1, max_size=3))),
        buffer_pkts=len(packets) + draw(st.integers(0, 5)),
        service_rate_ips=draw(st.floats(1e5, 1e9)),
        demand_mi=draw(st.floats(1e2, 1e5)),
        propagation_ms=draw(st.floats(0.0, 5.0)),
    )


class TestPipelineProperties:
    """Pathwise laws of a lossless tandem of FIFO queues."""

    @settings(max_examples=150, deadline=None)
    @given(call=lossless_calls())
    def test_delay_is_at_least_propagation_plus_service(self, call):
        delays, served = simulate_pipeline(**call)
        assert served.all()
        service_s = (8.0 * call["sizes_bytes"][:, None] / call["link_rates_bps"]).sum(axis=1)
        service_s += call["demand_mi"] / call["service_rate_ips"]
        assert np.all(delays >= call["propagation_ms"] + 1000.0 * service_s - 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(call=lossless_calls())
    def test_completions_keep_arrival_order(self, call):
        delays, _ = simulate_pipeline(**call)
        completion_ms = 1000.0 * call["arrivals"] + delays
        assert np.all(np.diff(completion_ms) >= -1e-9)

    @settings(max_examples=150, deadline=None)
    @given(call=lossless_calls(), stage=st.integers(0, 3), factor=st.floats(1.0, 10.0))
    def test_a_faster_stage_delays_no_packet(self, call, stage, factor):
        before, _ = simulate_pipeline(**call)
        links = call["link_rates_bps"].copy()
        if stage < links.size:
            links[stage] *= factor
            call["link_rates_bps"] = links
        else:
            call["service_rate_ips"] *= factor
        after, _ = simulate_pipeline(**call)
        assert np.all(after <= before + 1e-9)


class TestStatistics:
    def test_max(self):
        assert delay_statistic(np.array([1.0, 3.0, 2.0]), "max") == 3.0

    def test_mean(self):
        assert delay_statistic(np.array([1.0, 3.0, 2.0]), "mean") == 2.0

    def test_percentile_nearest_rank(self):
        delays = np.arange(1.0, 101.0)  # 1..100
        assert delay_statistic(delays, "p95") == 95.0
        assert delay_statistic(np.array([4.0, 1.0, 3.0, 2.0]), "p50") == 2.0

    def test_empty_is_unbounded(self):
        assert math.isinf(delay_statistic(np.array([]), "max"))

    def test_bad_statistic(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            delay_statistic(np.array([1.0]), "median")
        with pytest.raises(ValueError, match="percentile"):
            delay_statistic(np.array([1.0]), "p0")

    def test_summarize_throughput(self):
        spec = one_slice()
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),))
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.0]), np.array([0.5]))})
        config = SimConfig(horizon_s=0.5, warmup_s=0.0)
        results = run_sim([spec], topo, alloc, config, seed=1)
        samples = summarize(results, "max", seed=1)
        # zero link share: nothing survives
        assert results["s"].offered > 0
        assert samples["s"].throughput == 0.0
        assert math.isinf(samples["s"].delay_stat_ms)


class TestRunSim:
    def topo_alloc(self, f=0.1, phi=0.5):
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),))
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([f]), np.array([phi]))})
        return topo, alloc

    def test_conservation_exact(self):
        spec = one_slice(rate=200.0, kind="bursty-onoff", burst_len=6.0,
                         off_time_ms=20.0)
        topo, alloc = self.topo_alloc(f=0.08)
        res = run_sim([spec], topo, alloc, SimConfig(horizon_s=3.0, warmup_s=0.5),
                      seed=3)["s"]
        assert res.offered == res.success + res.dropped
        assert res.delays_ms.size == res.success

    def test_deterministic_given_seed(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        a = run_sim([spec], topo, alloc, cfg, seed=11)["s"]
        b = run_sim([spec], topo, alloc, cfg, seed=11)["s"]
        assert np.array_equal(a.delays_ms, b.delays_ms)
        assert (a.offered, a.success, a.dropped) == (b.offered, b.success, b.dropped)

    def test_warmup_requests_excluded(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.4)
        res = run_sim([spec], topo, alloc, cfg, seed=5)["s"]
        # the same packets, pushed through the pipeline by hand
        arrivals, sizes = generate_traffic(spec.traffic, cfg.horizon_s, slice_rng(5, 0))
        row = alloc.row("s")
        delays, served = simulate_pipeline(
            arrivals, sizes, row.flows * topo.edge_bps(), topo.buffer_pkts,
            float(row.cpu @ topo.core_mips()), spec.demand_mi, cfg.propagation_ms)
        kept = arrivals >= cfg.warmup_s
        assert 0 < res.offered == int(kept.sum()) < arrivals.size
        assert res.success == int((kept & served).sum())
        assert np.array_equal(res.delays_ms, delays[kept[served]])

    def test_slice_traffic_independent_of_other_slices(self):
        # a slice's stream must not shift when another slice is present
        s1, s2 = one_slice(), one_slice()
        s2 = SliceSpec(id="t", requirement=s2.requirement, alpha_tau=1.0,
                       alpha_rho=1.0, traffic=s2.traffic, demand_mi=1e4,
                       priority_rank=1)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),))
        both = AllocationMatrix.from_rows({
            "s": AllocationVector(np.array([0.1]), np.array([0.4])),
            "t": AllocationVector(np.array([0.1]), np.array([0.4])),
        })
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        paired = run_sim([s1, s2], topo, both, cfg, seed=6)["s"]
        only = run_sim([s1, s2], topo, both, cfg, seed=6, only=("s", both.row("s")))
        assert list(only) == ["s"]
        only = only["s"]
        assert np.array_equal(paired.delays_ms, only.delays_ms)

    def test_row_override_answers_what_if(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc(f=0.05)
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2)
        asked = AllocationVector(np.array([0.2]), np.array([0.5]))
        via_override = run_sim([spec], topo, alloc, cfg, seed=7, only=("s", asked))["s"]
        direct = run_sim([spec], topo, AllocationMatrix.from_rows({"s": asked}),
                         cfg, seed=7)["s"]
        assert np.array_equal(via_override.delays_ms, direct.delays_ms)

    def test_more_bandwidth_never_hurts_on_average(self):
        spec = one_slice(rate=300.0)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),))
        lo = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.08]), np.array([0.5]))})
        hi = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.16]), np.array([0.5]))})
        cfg = SimConfig(horizon_s=2.0, warmup_s=0.4)
        means = []
        for alloc in (lo, hi):
            pooled = np.concatenate([
                run_sim([spec], topo, alloc, cfg, seed=s)["s"].delays_ms
                for s in range(10)
            ])
            means.append(pooled.mean())
        assert means[1] <= means[0]


class TestTraffic:
    def test_poisson_rate(self):
        tm = TrafficModel(kind="poisson", mean_rate=500.0)
        rng = np.random.default_rng(1)
        arrivals, sizes = generate_traffic(tm, 40.0, rng)
        assert arrivals.size / 40.0 == pytest.approx(500.0, rel=0.03)
        assert np.all(np.diff(arrivals) >= 0)
        assert sizes.size == arrivals.size

    def test_bursty_long_run_rate(self):
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0)
        rng = np.random.default_rng(2)
        arrivals, _ = generate_traffic(tm, 40.0, rng)
        assert arrivals.size / 40.0 == pytest.approx(200.0, rel=0.05)
        assert np.all(np.diff(arrivals) >= -1e-15)

    def test_uniform_sizes_within_bounds(self):
        tm = TrafficModel(kind="poisson", mean_rate=2000.0, size_min=20,
                          size_max=65535)
        rng = np.random.default_rng(3)
        _, sizes = generate_traffic(tm, 10.0, rng)
        assert sizes.min() >= 20 and sizes.max() <= 65535
        assert sizes.mean() == pytest.approx(tm.mean_size_bytes(), rel=0.02)

    def test_exponential_sizes(self):
        tm = TrafficModel(kind="poisson", mean_rate=2000.0, size_dist="exponential",
                          size_mean=1000.0, size_min=20, size_max=65535)
        rng = np.random.default_rng(4)
        _, sizes = generate_traffic(tm, 10.0, rng)
        assert sizes.min() >= 20 and sizes.max() <= 65535
        assert sizes.mean() == pytest.approx(1000.0, rel=0.05)


def bursty(burst_len, off_time_ms, mean_rate=200.0):
    return TrafficModel(kind="bursty-onoff", mean_rate=mean_rate,
                        burst_len=burst_len, off_time_ms=off_time_ms)


def burst_sizes(arrivals, gap):
    """Packets per burst: a new burst starts after any spacing above gap."""
    starts = np.flatnonzero(np.diff(arrivals) > gap * (1 + 1e-9))
    return np.diff(np.concatenate(([0], starts + 1, [arrivals.size])))


class TestOnOffAgainstLoop:
    """The bulk on/off generator against the per-burst loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        burst_len=st.floats(3.0, 40.0, exclude_min=True),
        off_time_ms=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        horizon_s=st.sampled_from([10.0, 500.0]),
    )
    @example(seed=0, burst_len=8.0, off_time_ms=38.0, horizon_s=10.0)
    @example(seed=1, burst_len=8.0, off_time_ms=38.0, horizon_s=500.0)
    @example(seed=2, burst_len=8.0, off_time_ms=0.0, horizon_s=10.0)
    @example(seed=3, burst_len=8.0, off_time_ms=0.0, horizon_s=500.0)
    def test_arrivals_and_sizes_bit_identical(self, seed, burst_len,
                                              off_time_ms, horizon_s):
        # the mean rate is kept under the burst envelope burst_len/off_time
        tm = bursty(burst_len, off_time_ms,
                    mean_rate=min(200.0, 0.9e3 * burst_len / max(off_time_ms, 1e-9)))
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = loop_onoff_arrivals(tm, horizon_s, want_rng)
        want_sizes = _draw_sizes(tm, want.size, want_rng)
        arrivals, sizes = generate_traffic(tm, horizon_s, rng)
        assert np.array_equal(arrivals, want)
        assert np.array_equal(sizes, want_sizes)

    def test_burst_len_one_sends_single_packets(self):
        tm = bursty(1.0, 2.0)
        arrivals, _ = generate_traffic(tm, 20.0, np.random.default_rng(8))
        assert (burst_sizes(arrivals, tm.intra_burst_gap_s()) == 1).all()
        assert arrivals.size / 20.0 == pytest.approx(200.0, rel=0.05)

    @pytest.mark.parametrize("burst_len", [1.5, 2.0, 3.0])
    def test_short_bursts_keep_their_mean(self, burst_len):
        # numpy draws geometric(p >= 1/3) by search, so these streams differ
        # from the loop's; only the burst-length distribution must hold
        tm = bursty(burst_len, 2.0)
        arrivals, _ = generate_traffic(tm, 200.0, np.random.default_rng(9))
        assert burst_sizes(arrivals, tm.intra_burst_gap_s()).mean() == \
            pytest.approx(burst_len, rel=0.03)

