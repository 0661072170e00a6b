"""Simulator behavior against hand calculations and queueing sanity."""
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    QoeRequirement,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    audit_allocation,
    reference_scenario,
    run_osra,
    size_all,
)
from slicelab import simulator
from slicelab.penalty import PenaltyModel, hinge
from slicelab.simulator import (
    _draw_sizes,
    _onoff_arrivals,
    delay_statistic,
    generate_traffic,
    percentile_of,
    run_sim,
    simulate_pipeline,
    simulate_slice,
    stage_rates,
    summarize,
)
from conftest import SIZES
from reference_impls import (HAND_SINGLE_PACKET_MS, int64_uniform_sizes, loop_onoff_arrivals,
                             loop_pipeline, loop_poisson_arrivals, stream)

# largest delay difference allowed between the compiled pipeline and the
# per-packet loop: they sum the same times in a different order
LOOP_DELAY_TOL_MS = 1e-6


def one_slice(rate=300.0, kind="poisson", **kw):
    traffic = dict(kind=kind, mean_rate=rate, size_min=1000, size_max=1000, size_dist="uniform")
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

    def test_a_zero_link_behind_a_dropping_one_strands_everything(self):
        # packets 0.1 ms apart overflow a 10-packet buffer at 4 Mbps, so the
        # first link drops before the zero-rate second one strands the rest
        args = (np.arange(50) * 1e-4, np.full(50, 1000.0), np.array([4e6, 0.0]), 10,
                3e8, 5e4, 0.0)
        assert np.isnan(link(args[0], args[1], 4e6, 10)[0]).any()
        delays, served = simulate_pipeline(*args)
        assert delays.dtype == float and delays.size == 0
        assert served.shape == (50,) and not served.any()
        assert_matches_loop(*args, tol_ms=0.0)

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

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_bad_buffer_is_named(self, bad):
        # an overloaded link, so the link stage would reach its buffer test
        arrivals = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 200))
        msg = re.escape(f"buffer_pkts must be a whole number in [1, inf), got {bad!r}")
        with pytest.raises(InvariantViolation, match=msg):
            simulate_pipeline(arrivals, np.full(200, 1000.0), np.array([1e5]), bad,
                              3e8, 5e4, 0.0)

    # 5000 packets of ~1 kB, one per ms on average, so ~8 Mbps offered
    @pytest.mark.parametrize("link_rates, cpu_rate, lossless", [
        ([1e8], 3e8, True),
        ([4e6], 3e8, False),
        ([1e8, 5e7], 3e8, True),
        ([], 3e8, True),
        ([0.0], 3e8, False),
        ([1e8], 0.0, False),
    ], ids=["lossless", "overflowing", "two-link", "no-link", "zero-link-rate",
            "zero-cpu-rate"])
    def test_inputs_are_never_written(self, link_rates, cpu_rate, lossless):
        # the stages update their own arrays in place, never the caller's
        rng = np.random.default_rng(3)
        arrivals = np.cumsum(rng.exponential(1e-3, 5000))
        sizes = rng.uniform(20.0, 2000.0, arrivals.size)
        before = arrivals.tobytes(), sizes.tobytes()
        _, served = simulate_pipeline(arrivals, sizes, np.array(link_rates), 10,
                                      cpu_rate, 1e4, 0.1)
        assert served.all() == lossless
        assert (arrivals.tobytes(), sizes.tobytes()) == before

    def test_one_pass_transmission_times_are_bit_identical(self):
        # 8 is a power of two, so rate / 8 and sizes * 8 are exact and both
        # forms are one correctly rounded quotient of the same numbers
        rng = np.random.default_rng(0)
        rates = 10.0 ** rng.uniform(-3.0, 12.0, 100_000)
        sizes = np.concatenate([10.0 ** rng.uniform(0.0, 6.0, 50_000),
                                rng.integers(1, 10**6 + 1, 50_000).astype(float)])
        assert (sizes / (rates / 8.0)).tobytes() == (sizes * 8.0 / rates).tobytes()


def assert_matches_loop(arrivals, sizes, link_rates, buffer_pkts, cpu_rate,
                        demand_mi, propagation_ms, tol_ms=LOOP_DELAY_TOL_MS):
    args = (np.asarray(arrivals, dtype=float), np.asarray(sizes, dtype=float),
            np.asarray(link_rates, dtype=float), buffer_pkts, cpu_rate,
            demand_mi, propagation_ms)
    want_delays, want_served = loop_pipeline(*args)
    delays, served = simulate_pipeline(*args)
    # one outcome per offered request, one delay per served one
    assert served.shape == args[0].shape
    assert delays.size == np.count_nonzero(served)
    assert np.array_equal(served, want_served)
    assert delays.shape == want_delays.shape
    np.testing.assert_allclose(delays, want_delays, rtol=0.0, atol=tol_ms)


link_rate = st.one_of(st.just(0.0), st.floats(1e4, 1e7))
cpu_rate = st.one_of(st.just(0.0), st.floats(1e5, 1e9))


class TestPipelineAgainstLoop:
    """The compiled pipeline against the per-packet loop."""

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
        buffer_pkts=st.integers(1, 400),
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
        buffer_pkts=st.integers(1, 400),
    )
    def test_long_calls_on_a_binary_grid(self, seed, n, stages, buffer_pkts):
        # as above, but with every time a multiple of 1/64 s, so that
        # arrivals land exactly on departures inside overflow episodes too
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.integers(0, 8, n)) / 64.0
        assert_matches_loop(arrivals, rng.integers(1, 8, n), [512.0] * stages,
                            buffer_pkts, 64.0, 1.0, 0.0, tol_ms=0.0)

    @pytest.mark.parametrize("buffer_pkts", [1, 39, 40, 1000])
    def test_long_overflow_matches_the_loop(self, buffer_pkts):
        # Poisson arrivals at 1.5x the link rate: the buffer fills within the
        # first few thousand packets and stays full for over 10^4 more
        rng = np.random.default_rng(7)
        arrivals = np.cumsum(rng.exponential(1e-3, 20_000))
        sizes = rng.uniform(20.0, 2000.0, arrivals.size)
        rate = 8.0 * sizes.mean() / 1e-3 / 1.5
        assert_matches_loop(arrivals, sizes, [rate], buffer_pkts, 3e8, 1e4, 0.1)
        dropped = np.flatnonzero(np.isnan(link(arrivals, sizes, rate, buffer_pkts)[0]))
        assert dropped[-1] - dropped[0] >= 10_000

    @pytest.mark.parametrize("buffer_pkts", [
        1, 40, 1000, 3, 3.0, pytest.param(np.float64(3.0), id="np.float64(3.0)")])
    def test_blocked_episode_sums_departures_in_the_loop_order(self, buffer_pkts):
        # one packet per ms from t = 0, each taking 1.5 to 4.5 ms: the link
        # never idles, so the first window's cumsum and the episode's sum
        # from the last departure before it are the loop's sums, to the bit
        rng = np.random.default_rng(11)
        n = 20_000
        assert_matches_loop(np.arange(n) * 1e-3, rng.uniform(1.5, 4.5, n), [8e3],
                            buffer_pkts, 1.0, 0.0, 0.0, tol_ms=0.0)

    @pytest.mark.parametrize("buffer_pkts", [300, 1000])
    def test_buffer_full_test_looks_back_across_an_episode_end(self, buffer_pkts):
        # bursts of buffer_pkts + 50 packets at one instant, each taking 1 or
        # 2 ticks of 1/64 s, far enough apart for the link to drain: each
        # burst keeps its first buffer_pkts packets and drops the rest, and
        # the next burst ends the episode. Its arrivals then find the buffer
        # full only after buffer_pkts of them, and the ones before look back
        # past the episode's end, over more than one window, at departed
        # slots and then at the 50 drops
        b, bursts = buffer_pkts, 5
        assert b > simulator._RESTART_WINDOW
        per = b + 50
        arrivals = np.repeat(np.arange(bursts) * (2 * b + 8) / 64.0, per)
        sizes = np.random.default_rng(3).integers(1, 3, arrivals.size)
        args = (arrivals, sizes, [512.0], b, 64.0, 1.0, 0.0)
        assert_matches_loop(*args, tol_ms=0.0)
        _, served = simulate_pipeline(*args)
        assert (served.reshape(bursts, per) == (np.arange(per) < b)).all()

    def test_departures_just_after_arrivals_in_a_blocked_episode(self):
        # one packet every 0.25 s on a link that needs 0.5 s each, the first
        # 5e-10 s longer: in the overflow every departure lands inside TIE_S
        # after an arrival, which it lets in
        n = 400
        sizes = np.ones(n)
        sizes[0] += 1e-9
        args = (np.arange(n) * 0.25, sizes, [16.0], 40, 1.0, 0.0, 0.0)
        assert_matches_loop(*args)
        _, served = simulate_pipeline(*args)
        assert served[-200:].tolist() == [True, False] * 100

    @pytest.mark.parametrize("link_share", [0.03, 0.015])
    def test_audit_horizon(self, link_share):
        # ~10^5 bursty packets over 500 s: a few overflow episodes on 3% of
        # the link, an overflow that rarely drains on 1.5%
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0, **SIZES)
        arrivals, sizes = generate_traffic(tm, 500.0, 1, 0, {})
        assert_matches_loop(arrivals, sizes, [link_share * 2.5e9], 100,
                            0.3 * 3e8, 1e4, 0.1)


def assert_link_agrees(arrivals, sizes, rate, b, tol_ms):
    """One link's pass against the per-packet loop: it drops exactly the
    loop's drops, and it ran an overflow episode if it dropped any. Its
    survivors leave as numpy's running max (Lindley's recursion) over them
    alone, within tol_ms, and the pipeline agrees with the loop
    (`assert_matches_loop`). Returns (whether an episode ran, the served
    mask)."""
    t, sizes = np.asarray(arrivals, dtype=float), np.asarray(sizes, dtype=float)
    dep, blocked = link(t, sizes, rate, b)
    served = loop_pipeline(t, sizes, [rate], b, 64.0, 1.0, 0.0)[1]
    assert np.array_equal(np.isnan(dep), ~served)
    assert blocked or served.all()
    tx = np.add.accumulate(sizes[served] * 8.0 / rate)
    lag = t[served] - np.concatenate(([0.0], tx[:-1]))
    np.testing.assert_allclose(dep[served], np.maximum.accumulate(lag) + tx, rtol=0.0,
                               atol=tol_ms / 1000.0)
    # a server of 1/64 s per packet: its sums are exact, so on a binary
    # grid only the link can part the delays from the loop's
    assert_matches_loop(t, sizes, [rate], b, 64.0, 1.0, 0.0, tol_ms=tol_ms)
    return blocked, served


class TestEpisodeAgainstNumpyAndLoop:
    """The compiled link pass, overflow episodes included, against the
    per-packet loop and numpy's running max over its survivors
    (`assert_link_agrees`)."""

    @pytest.mark.parametrize("buffer_pkts", range(1, 51))
    def test_every_buffer_from_1_to_50(self, buffer_pkts):
        rng = np.random.default_rng(buffer_pkts)
        arrivals = np.add.accumulate(rng.exponential(1e-3, 3000))
        sizes = rng.uniform(20.0, 2000.0, arrivals.size)
        rate = 8.0 * sizes.mean() / 1e-3 / 1.5
        blocked, served = assert_link_agrees(arrivals, sizes, rate, buffer_pkts, 1e-6)
        assert blocked and not served.all()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000),
           buffer_pkts=st.integers(1, 50))
    def test_arrivals_on_departure_instants(self, seed, n, buffer_pkts):
        # every time a multiple of 1/64 s: arrivals land exactly on
        # departures, the ties TIE_S settles, and every check is exact
        rng = np.random.default_rng(seed)
        arrivals = np.add.accumulate(rng.integers(0, 8, n)) / 64.0
        assert_link_agrees(arrivals, rng.integers(1, 8, n), 512.0, buffer_pkts, 0.0)

    @pytest.mark.parametrize("buffer_pkts", [1, 2, 40])
    def test_departures_just_after_arrivals(self, buffer_pkts):
        # a packet every 0.25 s on a link that takes 0.5 s each, the first
        # 5e-10 s longer: every departure in the overflow lands inside TIE_S
        # after an arrival, and lets it in; the last arrival is dropped, so
        # the last episode runs to the end of the array
        sizes = np.ones(400)
        sizes[0] += 1e-9
        blocked, served = assert_link_agrees(np.arange(400) * 0.25, sizes, 16.0, buffer_pkts,
                                             1e-6)
        assert blocked and served[-200:].tolist() == [True, False] * 100

    @pytest.mark.parametrize("later", [0, 1], ids=["at-TIE_S", "past-TIE_S"])
    @pytest.mark.parametrize("buffer_pkts", [1, 2])
    def test_a_departure_at_most_TIE_S_after_an_arrival_frees_its_slot(self, buffer_pkts,
                                                                         later):
        # at 8 b/s a packet's tx is its size: the first one departs exactly
        # at the last arrival plus TIE_S, as rounded, or one ulp later
        tie = 0.25 + simulator.TIE_S
        size0 = np.nextafter(tie, 1.0) if later else tie
        arrivals = np.array([0.0] * buffer_pkts + [0.25])
        sizes = np.array([size0] + [0.5] * buffer_pkts)
        blocked, served = assert_link_agrees(arrivals, sizes, 8.0, buffer_pkts, 1e-6)
        assert blocked and served[-1] == (not later)

    @pytest.mark.parametrize("buffer_pkts", [1, 2, 7, 50, 10**6])
    def test_an_episode_that_reaches_the_end_of_the_array(self, buffer_pkts):
        # a packet per ms, each taking 2.5 ms, and 60 more at the last
        # instant: the link is busy when they come, so the last episode drops
        # the last of them and ends with the array; a buffer longer than the
        # stream never overflows
        arrivals = np.append(np.arange(3000), np.full(60, 2999)) * 1e-3
        blocked, served = assert_link_agrees(arrivals, np.full(arrivals.size, 312.5), 1e6,
                                             buffer_pkts, 1e-6)
        overflows = buffer_pkts < arrivals.size
        assert blocked == overflows and served[-1] == (not overflows)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**20), kind=st.sampled_from(["poisson", "bursty-onoff"]),
           load=st.floats(0.5, 3.0), buffer_pkts=st.integers(1, 50))
    def test_two_edges_in_series(self, seed, kind, load, buffer_pkts):
        # the second link takes the first one's survivors at a lower load
        bursts = dict(burst_len=8.0, off_time_ms=38.0) if kind == "bursty-onoff" else {}
        tm = TrafficModel(kind=kind, mean_rate=200.0, **bursts, **SIZES)
        arrivals, sizes = generate_traffic(tm, 8.0, seed, 0, {})
        rate = 8.0 * tm.mean_size_bytes() * tm.mean_rate / load
        assert_matches_loop(arrivals, sizes, [rate, 0.9 * rate], buffer_pkts, 3e8, 1e4, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**20), kind=st.sampled_from(["poisson", "bursty-onoff"]),
           load=st.floats(0.5, 3.0), buffer_pkts=st.integers(1, 50))
    def test_random_streams(self, seed, kind, load, buffer_pkts):
        bursts = dict(burst_len=8.0, off_time_ms=38.0) if kind == "bursty-onoff" else {}
        tm = TrafficModel(kind=kind, mean_rate=200.0, **bursts, **SIZES)
        arrivals, sizes = generate_traffic(tm, 8.0, seed, 0, {})
        rate = 8.0 * tm.mean_size_bytes() * tm.mean_rate / load
        assert_link_agrees(arrivals, sizes, rate, buffer_pkts, 1e-6)

    def test_strided_arrivals_run_as_their_contiguous_copy(self):
        # the kernel reads arrays by address, so a strided view must not reach it
        rng = np.random.default_rng(5)
        arrivals = np.add.accumulate(rng.exponential(1e-3, 4000))
        sizes = rng.uniform(20.0, 2000.0, arrivals.size)
        rate = 8.0 * sizes.mean() / 1e-3 / 2.0
        args = ([rate], 3, 3e8, 1e4, 0.1)
        got = simulate_pipeline(arrivals[::2], sizes[::2], *args)
        want = simulate_pipeline(arrivals[::2].copy(), sizes[::2].copy(), *args)
        assert not got[1].all()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def held(value):
    """An array argument as the memo holds a stream: a read-only copy."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.setflags(write=False)
    return value


def twice_on_a_held_stream(*args, **kwargs):
    """simulate_pipeline twice on read-only copies of its array arguments,
    as a gradient's probes read a stream `oracle.sim_evaluate`'s memo holds:
    both calls give the same bytes and leave the arrays as they were."""
    args, kwargs = [held(a) for a in args], {k: held(v) for k, v in kwargs.items()}
    arrays = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    before = [a.tobytes() for a in arrays]
    first = simulator.simulate_pipeline(*args, **kwargs)
    again = simulator.simulate_pipeline(*args, **kwargs)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
    assert [a.tobytes() for a in arrays] == before
    return again


@pytest.fixture(scope="class")
def held_streams():
    """This module's simulate_pipeline runs `twice_on_a_held_stream`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "simulate_pipeline", twice_on_a_held_stream)
        yield


@pytest.mark.usefixtures("held_streams")
class TestPipelineWithNumpyEpisodes(TestPipeline):
    """TestPipeline's hand cases on held streams (`twice_on_a_held_stream`).
    The class ran them on numpy's passes until those were removed, and
    keeps its name so that its test IDs stay."""


def scalar_lindley(t, s, before):
    """dep_i = max(t_i, dep_{i-1}) + s_i one packet at a time, from dep_{-1} = before."""
    dep, prev = [], before
    for ti, si in zip(t, s):
        prev = (ti if math.isnan(prev) else max(ti, prev)) + si
        dep.append(prev)
    return dep


def link(t, sizes, rate, b):
    """`link_pass` on float copies of t and sizes, at rate (bps) with a
    buffer of b: (the departures, NaN where a packet is dropped; whether an
    overflow episode ran)."""
    t, sizes = np.array(t, dtype=float), np.array(sizes, dtype=float)
    assert t.shape == sizes.shape  # the pass would read past the shorter one
    dep = np.empty(t.size)
    blocked = simulator._PIPELINE.link_pass(t.ctypes.data, sizes.ctypes.data, rate / 8.0,
                                            dep.ctypes.data, t.size, min(b, t.size),
                                            simulator._RESTART_WINDOW, simulator.TIE_S)
    return dep, blocked != 0


def server(t, created, proc, prop_s, out_is_t):
    """`server_pass` on a copy of t: (the delays' bytes, whether all are finite)."""
    t = t.copy()
    out = t if out_is_t else np.empty(t.size)
    overflow = simulator._PIPELINE.server_pass(t.ctypes.data, created.ctypes.data, proc,
                                               prop_s, out.ctypes.data, t.size)
    return out.tobytes(), not overflow


class TestLindley:
    """Lindley's recursion in both compiled passes against the scalar
    recursion. Every time and service is a multiple of 1/64 s, so every sum
    is exact and the two must agree to the bit. A departure `before` the
    first arrival is that of one more packet ahead of it."""

    @pytest.mark.parametrize("out_is_t", [False, True], ids=["out", "out-is-t"])
    @pytest.mark.parametrize("before", ["nan", "below", "above"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_scalar_recursion(self, seed, before, out_is_t):
        rng = np.random.default_rng(seed)
        n = 300
        t = 1.0 + np.add.accumulate(rng.integers(0, 8, n)) / 64.0
        s = rng.integers(0, 8, n) / 64.0
        prev = {"nan": math.nan, "below": t[0] - 0.5, "above": t[0] + 2.0}[before]
        want = scalar_lindley(t.tolist(), s.tolist(), prev)
        # the link at 8 b/s, where a packet's tx is its size, with a buffer
        # longer than the stream; the packet ahead comes 3 s early
        ahead = [] if before == "nan" else [t[0] - 3.0]
        dep, blocked = link(np.append(ahead, t), np.append([prev - a for a in ahead], s), 8.0,
                            n + 1)
        assert not blocked and dep[len(ahead):].tolist() == want
        # the server at proc s a packet, each created at 0 with no
        # propagation, so its delays are its departures times 1000; the
        # packet ahead comes proc before it departs
        proc = 3 / 64.0
        times = np.append([prev - proc for _ in ahead], t)
        want = [d * 1000.0 for d in scalar_lindley(t.tolist(), [proc] * n, prev)]
        got, finite = server(times, np.zeros(times.size), proc, 0.0, out_is_t)
        assert finite and np.frombuffer(got)[len(ahead):].tolist() == want

    def test_an_empty_call_returns_at_once(self):
        dep, blocked = link(np.empty(0), np.empty(0), 8.0, 1)
        assert dep.size == 0 and not blocked
        assert server(np.empty(0), np.empty(0), 1.0, 0.0, False) == (b"", True)


class TestServerPass:
    """The compiled server pass: Lindley's recursion, then the creation,
    propagation and x1000 steps, against the scalar recursion."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000), load=st.floats(0.2, 3.0),
           out_is_t=st.booleans())
    def test_random_inputs_match_the_scalar_recursion(self, seed, n, load, out_is_t):
        rng = np.random.default_rng(seed)
        created = np.add.accumulate(rng.exponential(1e-3, n))
        # link departures: after their creation, and never decreasing
        t = np.maximum.accumulate(created + rng.uniform(0.0, 5e-3, n))
        proc, prop_s = 1e-3 * load, rng.uniform(0.0, 5e-3)
        got, finite = server(t, created, proc, prop_s, out_is_t)
        dep = scalar_lindley(t.tolist(), [proc] * n, math.nan)
        want = [((d - c) + prop_s) * 1000.0 for d, c in zip(dep, created)]
        assert finite
        np.testing.assert_allclose(np.frombuffer(got), want, rtol=0.0, atol=LOOP_DELAY_TOL_MS)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_scalar_recursion_on_a_binary_grid(self, seed):
        # every time a multiple of 1/64 s: every sum is exact
        rng = np.random.default_rng(seed)
        n = 500
        created = np.add.accumulate(rng.integers(0, 8, n)) / 64.0
        t = np.maximum.accumulate(created + rng.integers(0, 8, n) / 64.0)
        proc, prop_s = int(rng.integers(1, 8)) / 64.0, 3 / 64.0
        dep = scalar_lindley(t.tolist(), [proc] * n, math.nan)
        want = np.array([((d - c) + prop_s) * 1000.0 for d, c in zip(dep, created)])
        assert server(t, created, proc, prop_s, False) == (want.tobytes(), True)

    @pytest.mark.parametrize("proc", [1e306, math.inf])
    def test_a_delay_that_overflows_is_flagged_without_a_warning(self, proc):
        # tier-1 turns a RuntimeWarning into an error
        t = np.array([0.0, 1.0, 2.0])
        assert not server(t, t, proc, 0.0, False)[1]


class TestBurstExpansion:
    """The compiled burst expansion against numpy's: the per-burst loop's,
    and where a capped burst is too long for the loop to expand, numpy's
    placing of its packets before the horizon."""

    @pytest.mark.parametrize("burst_len, off_time_ms, horizon_s", [
        (1.0, 2.0, 20.0), (8.0, 38.0, 500.0), (8.0, 0.0, 10.0), (1e6, 38.0, 10.0),
        (1e19, 38.0, 10.0)], ids=["one-packet", "reference", "no-off-time", "capped",
                                  "capped-past-int64"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_for_bit_with_numpy(self, seed, burst_len, off_time_ms, horizon_s):
        tm = bursty(burst_len, off_time_ms)
        arrivals = _onoff_arrivals(tm, horizon_s, stream(seed, 0))
        if burst_len < 1e6:  # the loop expands a burst in full
            want = loop_onoff_arrivals(tm, horizon_s, stream(seed, 0))
        else:
            want = first_burst_before(tm, horizon_s, stream(seed, 0))
        assert arrivals.size and arrivals.tobytes() == want.tobytes()


def first_burst_before(tm, horizon_s, rng):
    """The on/off stream's packets before the horizon where its first burst
    outlasts it, as numpy places them: packet k at k * gap + s for a burst
    that starts at s, after the leading off time."""
    gap = tm.intra_burst_gap_s()
    start = tm.off_time_ms / 1000.0 * rng.standard_exponential()
    size = math.ceil(-rng.standard_exponential() / math.log1p(-1.0 / tm.burst_len))
    # no packet after the first (horizon_s - start) / gap + 1 arrives in time
    k = np.arange(int((horizon_s - start) / gap) + 2)
    assert size > k.size
    arrivals = k * gap + start
    return arrivals[arrivals < horizon_s]


class TestSmallBuffers:
    def test_a_buffer_of_one_matches_the_loop(self):
        # 10^5 Poisson packets at link load 1.05: a buffer of 1 ends an
        # overflow episode at every accepted arrival
        tm = TrafficModel(kind="poisson", mean_rate=200.0, **SIZES)
        arrivals, sizes = generate_traffic(tm, 500.0, 0, 0, {})
        rate = 8.0 * tm.mean_size_bytes() * tm.mean_rate / 1.05
        assert_matches_loop(arrivals, sizes, [rate], 1, 9e7, 1e4, 0.1)
        served = simulate_pipeline(arrivals, sizes, [rate], 1, 9e7, 1e4, 0.1)[1]
        assert arrivals.size > 10**5 and 0 < np.count_nonzero(served) < arrivals.size

    def test_an_episode_ends_at_an_arrival_on_the_last_departure(self):
        # 8 bps, so a size in bytes is its transmission time in s. Packet 2
        # finds the buffer full, so an overflow episode starts; packet 3
        # departs at 0.6 + 0.3 = 0.8999999999999999, the very time packet 4
        # arrives, so the episode ends at packet 4 (`prev <= t[k]` in
        # pipeline.c) and a window's sums take over. Had the episode run on,
        # packet 5's delay would round differently: the sizes are not
        # dyadic, so the two orders of the sums differ in the last bits
        arrivals = np.array([0.0, 0.3, 0.3, 0.6, 0.8999999999999999, 1.0])
        sizes = np.array([0.3, 0.3, 0.1, 0.3, 0.1, 0.3])
        delays, served = simulate_pipeline(arrivals, sizes, [8.0], 1, 1e9, 1e-3, 0.0)
        assert served.tolist() == [True, True, False, True, True, True]
        assert [d.hex() for d in delays] == [
            "0x1.2c000000044b8p+8", "0x1.2c000000044b8p+8", "0x1.2c000000044b9p+8",
            "0x1.90000000112dep+6", "0x1.2c000000044b7p+8"]

    def test_the_windows_after_an_episode_double(self):
        # 8 bps, so a size in bytes is its transmission time in s. Packet 1
        # finds the buffer of 1 full, packet 2 ends that episode, and windows
        # of w and then 2w packets follow. Every packet finds the link idle,
        # yet a window sums the transmission times from its start, so packet
        # 2 + 2w, inside the second window, departs at (t - c) + (c + 0.2),
        # c being w sizes of 0.2 summed: not t + 0.2, as it would at a
        # window's start
        w = simulator._RESTART_WINDOW
        arrivals = np.append(0.0, 0.3 * np.arange(1 + 3 * w))
        dep, blocked = link(arrivals, np.full(arrivals.size, 0.2), 8.0, 1)
        assert blocked and np.flatnonzero(np.isnan(dep)).tolist() == [1]
        c = 0.0
        for _ in range(w):
            c += 0.2
        t = arrivals[2 + 2 * w]
        assert dep[2 + 2 * w] == (t - c) + (c + 0.2) != t + 0.2


class TestDelayOverflow:
    """A share so small that a delay overflows ends a run with one named
    error, not a warning or an inf read as a delay."""

    @pytest.mark.parametrize("field, share", [("cpu", 1e-308), ("flows", 5e-324)])
    def test_run_osra_names_the_slice(self, field, share):
        sc = reference_scenario()
        shares = {"flows": sc.initial_alloc.flows.copy(), "cpu": sc.initial_alloc.cpu.copy()}
        shares[field][sc.initial_alloc.index("slice1")] = share
        alloc = AllocationMatrix(sc.initial_alloc.slice_ids, **shares)
        with pytest.raises(InvariantViolation,
                           match="^slice 'slice1': a delay overflows at .* at iteration 0$"):
            run_osra(sc.slices, sc.topology, alloc, sc.sim, sc.new_slice_id, sc.osra, seed=0)

    def test_simulate_pipeline_raises_overflow_error(self):
        with pytest.raises(OverflowError, match=r"link rates \[8e-300\] bps and server rate"):
            simulate_pipeline(np.arange(3.0), np.full(3, 1e10), [8e-300], 10, 3e8, 5e4, 0.0)

    def test_two_edges_whose_times_overflow_name_the_slice(self):
        # the first link's inf departures meet inf - inf at the second
        topo = Topology(edges=(("e0", 40.0), ("e1", 40.0)), cores=(("c", 3e8),), buffer_pkts=10)
        link_rates, cpu_rate = stage_rates(
            AllocationVector(np.array([5e-324, 5e-324]), np.array([0.5])), topo)
        cfg = SimConfig(horizon_s=0.5, warmup_s=0.0, propagation_ms=0.1)
        with pytest.raises(InvariantViolation, match="^slice 's': a delay overflows at "):
            simulate_slice(one_slice(), 0, link_rates, cpu_rate, topo, cfg, 0, {})


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

    @pytest.mark.parametrize("statistic", ["p99.9", "p0.1", "p95.25", "p99.99", "p100"])
    def test_decimal_percentile_is_the_exact_nearest_rank(self, statistic):
        # in floats, p99.9 of 1..1000 ranks 1000 and of 1..10^4 ranks 9991
        for n in (*range(1, 1100), 10**4, 10**5):
            want = math.ceil(Fraction(statistic[1:]) * n / 100)
            assert delay_statistic(np.arange(1.0, n + 1.0), statistic) == want, n

    def test_empty_is_unbounded(self):
        assert math.isinf(delay_statistic(np.array([]), "max"))

    @pytest.mark.parametrize("statistic, fraction", [
        ("p99", (99, 100)), ("p99.9", (999, 1000)), ("p0.01", (1, 10**4)),
        ("p100.0", (100, 100)), ("p007", (7, 100)), ("max", None), ("mean", None),
        # 5001 digits, more than int() converts; the zeros do not change NN/100
        pytest.param("p1." + "0" * 5000, (1, 100), id="trailing-zeros-past-int-limit"),
        pytest.param("p" + "0" * 4999 + "5", (5, 100), id="leading-zeros-past-int-limit")])
    def test_percentile_is_an_exact_fraction(self, statistic, fraction):
        assert percentile_of(statistic) == fraction

    @pytest.mark.parametrize("statistic, message", [
        pytest.param("p" + "1" * 5000, r"percentile out of \(0,100\]: p1+$", id="whole"),
        pytest.param("p1." + "1" * 5000, r"percentile has too many digits: p1\.1+$",
                     id="fraction")])
    def test_more_digits_than_int_converts_are_refused_by_name(self, statistic, message):
        with pytest.raises(ValueError, match=message):
            percentile_of(statistic)

    def test_the_verdicts_do_not_depend_on_int_s_digit_limit(self):
        # int() converts up to 4300 digits by default, up to 640 or more, or
        # any number (0) as set; 640 and 641 digits sit on the check's edge
        strings = ["p1." + "1" * 639, "p1." + "1" * 640, "p1." + "1" * 700,
                   "p1." + "1" * 5000, "p" + "1" * 5000, "p1." + "0" * 5000]
        script = ("import sys\nfrom slicelab.simulator import percentile_of\n"
                  "for s in sys.stdin.read().split():\n"
                  "    try:\n        print(percentile_of(s) is not None)\n"
                  "    except ValueError as e:\n        print(str(e).split(':')[0])\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(simulator.__file__).parents[1])
        verdicts = [subprocess.run([sys.executable, "-c", script], input=" ".join(strings),
                                   capture_output=True, text=True, check=True, timeout=60,
                                   env={**env, **limit}).stdout.split("\n")
                    for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"},
                                  {"PYTHONINTMAXSTRDIGITS": "640"})]
        assert verdicts[0][:-1] == ["True", "percentile has too many digits",
                                    "percentile has too many digits",
                                    "percentile has too many digits",
                                    "percentile out of (0,100]", "True"]
        assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]

    def test_percentile_just_above_100_is_refused(self):
        # read as a float it is 100.0, yet its nearest rank is one past the last delay
        with pytest.raises(ValueError, match=r"percentile out of \(0,100\]: p100\.0+1$"):
            delay_statistic(np.arange(1.0, 1855.0), "p100.0000000000000001")

    def test_a_slice_offered_nothing_is_not_starved(self):
        # a 10 ms window after the warmup: slice1 offers no request at seed 0
        sc = reference_scenario()
        config = SimConfig(horizon_s=1.01, warmup_s=1.0, propagation_ms=0.1)
        result = run_sim(sc.slices, sc.topology, sc.initial_alloc, config, seed=0)["slice1"]
        assert result.offered == 0
        sample = summarize(result, sc.osra.statistic, keep_raw=False)
        assert (sample.delay_stat_ms, sample.throughput) == (0.0, 1.0)
        spec = sc.slices[0]
        model = PenaltyModel(requirement=spec.requirement, alpha_tau=spec.alpha_tau,
                             alpha_rho=spec.alpha_rho, exponent=sc.osra.penalty_exponent,
                             delay_ceiling_ms=sc.osra.delay_ceiling_ms)
        assert hinge(model, sample.delay_stat_ms, sample.throughput)[0] == 0.0

    @pytest.mark.parametrize("statistic", ["max", "mean", "p50", "p99", "p99.9"])
    def test_the_delays_keep_their_order(self, statistic):
        # a run's delays are writable and an audit pools them after the
        # reduction, so a partition in place would reorder what it pools
        sc = reference_scenario()
        result = run_sim(sc.slices[:1], sc.topology, sc.initial_alloc, sc.sim, seed=0)["slice1"]
        before = result.delays_ms.copy()
        assert result.delays_ms.flags.writeable and before.size > 1000
        summarize(result, statistic, keep_raw=True)
        assert np.array_equal(result.delays_ms, before)

    @pytest.mark.parametrize("statistic", [["p99"], {"p": 99}, 99, None, b"p99"])
    def test_a_statistic_that_is_no_string_is_unknown(self, statistic):
        with pytest.raises(ValueError, match="unknown statistic"):
            percentile_of(statistic)

    def test_each_statistic_string_is_parsed_once(self, monkeypatch):
        parsed = []
        real = simulator._PERCENTILE
        monkeypatch.setattr(simulator, "_PERCENTILE", SimpleNamespace(
            fullmatch=lambda s: parsed.append(s) or real.fullmatch(s)))
        for _ in range(3):
            assert percentile_of("p42.4242") == (424242, 10**6)
            with pytest.raises(ValueError, match="unknown statistic"):
                percentile_of("p42,4242")
        # a refused string is parsed again on each call, to raise again
        assert parsed == ["p42.4242", "p42,4242", "p42,4242", "p42,4242"]

    def test_bad_statistic(self):
        with pytest.raises(ValueError, match="unknown statistic"):
            delay_statistic(np.array([1.0]), "median")
        with pytest.raises(ValueError, match="percentile"):
            delay_statistic(np.array([1.0]), "p0")

    def test_summarize_throughput(self):
        spec = one_slice()
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=100)
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.0]), np.array([0.5]))})
        config = SimConfig(horizon_s=0.5, warmup_s=0.0, propagation_ms=0.1)
        result = run_sim([spec], topo, alloc, config, seed=1)["s"]
        sample = summarize(result, "max", keep_raw=False)
        # zero link share: nothing survives
        assert result.offered > 0
        assert sample.throughput == 0.0
        assert math.isinf(sample.delay_stat_ms)


class TestKeptLinkPass:
    """A simulation runs its own link pass: the memo keeps the stream alone."""

    def test_a_fresh_stream_keeps_no_link_pass(self):
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=10)
        cfg = SimConfig(horizon_s=2.0, warmup_s=0.2, propagation_ms=0.1)
        memo = {}
        for f in (0.2, 0.25, 0.06):  # 2.4 Mbps offered: 8, 10 and 2.4 Mbps links
            link_rates, cpu_rate = stage_rates(
                AllocationVector(np.array([f]), np.array([0.5])), topo)
            simulate_slice(one_slice(rate=300.0), 0, link_rates, cpu_rate, topo, cfg, 3, memo)
        assert list(memo) == [(3, 0)]


class TestRunSim:
    def topo_alloc(self, f=0.1, phi=0.5):
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=100)
        alloc = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([f]), np.array([phi]))})
        return topo, alloc

    def test_conservation_exact(self):
        spec = one_slice(rate=200.0, kind="bursty-onoff", burst_len=6.0,
                         off_time_ms=20.0)
        topo, alloc = self.topo_alloc(f=0.08)
        cfg = SimConfig(horizon_s=3.0, warmup_s=0.5, propagation_ms=0.1)
        res = run_sim([spec], topo, alloc, cfg, seed=3)["s"]
        assert 0 < res.success <= res.offered
        assert res.delays_ms.size == res.success

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_seed_is_named(self, bad):
        topo, alloc = self.topo_alloc()
        with pytest.raises(ValueError, match=f"seed must be a whole number >= 0, got {bad!r}"):
            run_sim([one_slice()], topo, alloc,
                    SimConfig(horizon_s=1.0, warmup_s=0.1, propagation_ms=0.1), seed=bad)

    def test_arrivals_at_the_warmup_instant_count(self, monkeypatch):
        # a one-packet buffer and 2 ms per packet: every arrival after the
        # first of an instant is dropped, on both sides of the warmup
        arrivals = np.array([0.1, 0.1, 0.5, 0.5, 0.5, 0.9, 0.9])
        sizes = np.full(arrivals.size, 1000.0)
        monkeypatch.setattr(simulator, "generate_traffic",
                            lambda *_: (arrivals.copy(), sizes.copy()))
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=1)
        row = AllocationVector(np.array([0.1]), np.array([0.5]))
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.5, propagation_ms=0.1)
        spec = one_slice()
        res = run_sim([spec], topo, AllocationMatrix.from_rows({"s": row}), cfg, seed=0)["s"]
        link_rates, cpu_rate = stage_rates(row, topo)
        delays, served = simulate_pipeline(arrivals, sizes, link_rates, 1, cpu_rate,
                                           spec.demand_mi, cfg.propagation_ms)
        keep = arrivals >= cfg.warmup_s
        assert served.tolist() == [True, False, True, False, False, True, False]
        assert res.offered == int(keep.sum()) == 5
        assert res.success == int((served & keep).sum()) == 2
        assert res.offered - res.success == 3
        assert np.array_equal(res.delays_ms, delays[keep[served]])

    def test_a_long_lossless_slice_allocates_under_seven_arrays(self):
        # ~10^5 packets of reference slice1 at its M/M/1 row: the pipeline
        # makes each full-length array once, so the peak stays a small
        # multiple of one float array of the offered requests
        sc = reference_scenario()
        alloc, _ = size_all(sc.slices, sc.topology)
        spec = next(s for s in sc.slices if s.id == "slice1")
        cfg = dataclasses.replace(sc.sim, horizon_s=500.0)
        run_sim([spec], sc.topology, alloc, cfg, seed=0)
        tracemalloc.start()
        try:
            res = run_sim([spec], sc.topology, alloc, cfg, seed=0)["slice1"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.offered == res.success > 90_000
        assert peak < 7 * 8 * res.offered

    def test_deterministic_given_seed(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        a = run_sim([spec], topo, alloc, cfg, seed=11)["s"]
        b = run_sim([spec], topo, alloc, cfg, seed=11)["s"]
        assert np.array_equal(a.delays_ms, b.delays_ms)
        assert (a.offered, a.success) == (b.offered, b.success)

    def test_warmup_requests_excluded(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc()
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.4, propagation_ms=0.1)
        res = run_sim([spec], topo, alloc, cfg, seed=5)["s"]
        # the same packets, pushed through the pipeline by hand
        arrivals, sizes = generate_traffic(spec.traffic, cfg.horizon_s, 5, 0, {})
        row = alloc.row("s")
        delays, served = simulate_pipeline(
            arrivals, sizes, row.flows * topo.edge_bps, topo.buffer_pkts,
            float(row.cpu @ topo.core_mips), spec.demand_mi, cfg.propagation_ms)
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
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=100)
        both = AllocationMatrix.from_rows({
            "s": AllocationVector(np.array([0.1]), np.array([0.4])),
            "t": AllocationVector(np.array([0.1]), np.array([0.4])),
        })
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        paired = run_sim([s1, s2], topo, both, cfg, seed=6)
        alone = run_sim([s1], topo, AllocationMatrix.from_rows({"s": both.row("s")}),
                        cfg, seed=6)["s"]
        assert np.array_equal(paired["s"].delays_ms, alone.delays_ms)
        # one slice simulated by its index draws the stream it draws among all
        for k, spec in enumerate([s1, s2]):
            one = simulate_slice(spec, k, *stage_rates(both.row(spec.id), topo), topo, cfg, 6, {})
            assert np.array_equal(one.delays_ms, paired[spec.id].delays_ms)
            assert one.offered == paired[spec.id].offered
        assert not np.array_equal(paired["s"].delays_ms, paired["t"].delays_ms)

    def test_row_override_answers_what_if(self):
        spec = one_slice()
        topo, alloc = self.topo_alloc(f=0.05)
        cfg = SimConfig(horizon_s=1.0, warmup_s=0.2, propagation_ms=0.1)
        asked = AllocationVector(np.array([0.2]), np.array([0.5]))
        what_if = simulate_slice(spec, 0, *stage_rates(asked, topo), topo, cfg, 7, {})
        direct = run_sim([spec], topo, AllocationMatrix.from_rows({"s": asked}),
                         cfg, seed=7)["s"]
        assert np.array_equal(what_if.delays_ms, direct.delays_ms)
        at_alloc = run_sim([spec], topo, alloc, cfg, seed=7)["s"]
        assert not np.array_equal(what_if.delays_ms, at_alloc.delays_ms)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["poisson", "bursty-onoff"]),
           load=st.floats(1.2, 4.0), buffer_pkts=st.integers(1, 4),
           warmup_s=st.floats(0.0, 0.5))
    def test_every_offered_request_is_served_or_dropped(self, seed, kind, load,
                                                        buffer_pkts, warmup_s):
        # 300 req/s of 1000-byte packets carry 2.4 Mbps: the link share sets
        # the utilization to `load`, so the small buffer drops packets
        spec = one_slice(kind=kind, burst_len=6.0, off_time_ms=10.0)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=buffer_pkts)
        row = AllocationVector(np.array([0.06 / load]), np.array([0.5]))
        cfg = SimConfig(horizon_s=1.0, warmup_s=warmup_s, propagation_ms=0.1)
        res = run_sim([spec], topo, AllocationMatrix.from_rows({"s": row}), cfg,
                      seed=seed)["s"]
        arrivals, sizes = generate_traffic(spec.traffic, cfg.horizon_s, seed, 0, {})
        link_rates, srv_rate = stage_rates(row, topo)
        _, served = loop_pipeline(arrivals, sizes, link_rates, buffer_pkts, srv_rate,
                                  spec.demand_mi, cfg.propagation_ms)
        keep = arrivals >= warmup_s
        assert res.offered == int(keep.sum()) > res.success
        assert res.success == int((served & keep).sum()) == res.delays_ms.size

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), mips=st.floats(1.0, 1e10))
    @example(a=0.2697867137638703 + 0.02, b=0.2697867137638703, mips=3e8)
    def test_server_rate_ignores_the_order_of_equal_cores(self, a, b, mips):
        topo = Topology(edges=(("e", 40.0),), cores=(("c0", mips), ("c1", mips)),
                        buffer_pkts=100)
        rate = lambda cpu: stage_rates(AllocationVector(np.array([0.1]), np.array(cpu)),
                                       topo)[1]
        assert rate([a, b]) == rate([b, a])

    @pytest.mark.parametrize("widen, message", [
        ("flows", r"flows must hold one entry per topology edge \(1\), got 2"),
        ("cpu", r"cpu must hold one entry per topology core \(2\), got 3"),
    ], ids=["flows", "cpu"])
    def test_a_row_of_another_width_is_refused(self, widen, message):
        # a row is never broadcast over another chain: with a second, all-zero
        # flows column, numpy would push every slice through a zero-rate link
        sc = reference_scenario()
        a = sc.initial_alloc
        pad = lambda x: np.hstack([x, np.zeros((x.shape[0], 1))])
        wide = AllocationMatrix(a.slice_ids, pad(a.flows) if widen == "flows" else a.flows,
                                pad(a.cpu) if widen == "cpu" else a.cpu)
        with pytest.raises(InvariantViolation, match=message) as err:
            stage_rates(wide.row("slice1"), sc.topology)
        assert [field for field, _ in err.value.violations] == [widen]
        with pytest.raises(InvariantViolation, match=message):
            audit_allocation(sc.slices, sc.topology, wide, sc.sim, [0])
        with pytest.raises(InvariantViolation, match=message):
            run_osra(sc.slices, sc.topology, wide, sc.sim, sc.new_slice_id, sc.osra, seed=0)

    def test_more_bandwidth_never_hurts_on_average(self):
        spec = one_slice(rate=300.0)
        topo = Topology(edges=(("e", 40.0),), cores=(("c", 3e8),), buffer_pkts=100)
        lo = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.08]), np.array([0.5]))})
        hi = AllocationMatrix.from_rows(
            {"s": AllocationVector(np.array([0.16]), np.array([0.5]))})
        cfg = SimConfig(horizon_s=2.0, warmup_s=0.4, propagation_ms=0.1)
        means = []
        for alloc in (lo, hi):
            pooled = np.concatenate([
                run_sim([spec], topo, alloc, cfg, seed=s)["s"].delays_ms
                for s in range(10)
            ])
            means.append(pooled.mean())
        assert means[1] <= means[0]


# both arrival processes at 2000 packets/s; sizes are drawn after the arrivals
TRAFFIC_KINDS = (dict(kind="poisson"),
                 dict(kind="bursty-onoff", burst_len=8.0, off_time_ms=2.0))


class TestTraffic:
    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40 + 3])
    def test_slice_streams_are_seeded_by_seed_and_index(self, seed):
        tm = TrafficModel(kind="poisson", mean_rate=300.0, **SIZES)
        arrivals, _ = generate_traffic(tm, 1.0, seed, 2, {})
        want = loop_poisson_arrivals(300.0, 1.0, stream(seed, 2))
        assert arrivals.size > 200 and np.array_equal(arrivals, want)

    @pytest.mark.parametrize("kind", TRAFFIC_KINDS)
    def test_a_memo_answers_a_stream_as_drawn_and_read_only(self, kind, monkeypatch):
        tm = TrafficModel(mean_rate=2000.0, size_min=20, size_max=65535,
                          size_dist="uniform", **kind)
        memo = {}
        drawn = generate_traffic(tm, 1.0, 5, 1, memo)
        seeded = []
        real = simulator.seed_sequence
        monkeypatch.setattr(simulator, "seed_sequence", lambda *a: seeded.append(a) or real(*a))
        kept = generate_traffic(tm, 1.0, 5, 1, memo)
        assert seeded == []
        fresh = generate_traffic(tm, 1.0, 5, 1, {})
        assert seeded == [(5, 1)] and list(memo) == [(5, 1)]
        for a, b, c in zip(drawn, kept, fresh):
            assert a is b and a is not c and a.size > 1000 and np.array_equal(a, c)
            for array in (a, c):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0

    def test_poisson_rate(self):
        tm = TrafficModel(kind="poisson", mean_rate=500.0, **SIZES)
        arrivals, sizes = generate_traffic(tm, 40.0, 1, 0, {})
        assert arrivals.size / 40.0 == pytest.approx(500.0, rel=0.03)
        assert np.all(np.diff(arrivals) >= 0)
        assert sizes.size == arrivals.size

    def test_bursty_long_run_rate(self):
        # one 40 s run's rate spreads by about 8/s, so the test pools 50
        # seeds and holds their mean within 3 standard errors of the rate
        tm = TrafficModel(kind="bursty-onoff", mean_rate=200.0, burst_len=8.0,
                          off_time_ms=38.0, **SIZES)
        rates = []
        for seed in range(50):
            arrivals, _ = generate_traffic(tm, 40.0, seed, 0, {})
            assert np.all(np.diff(arrivals) >= -1e-15)
            rates.append(arrivals.size / 40.0)
        se = np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - 200.0) < 3 * se

    def test_uniform_sizes_within_bounds(self):
        for kind in TRAFFIC_KINDS:
            tm = TrafficModel(mean_rate=2000.0, size_min=20, size_max=65535,
                              size_dist="uniform", **kind)
            _, sizes = generate_traffic(tm, 10.0, 3, 0, {})
            assert sizes.min() >= 20 and sizes.max() <= 65535
            assert sizes.mean() == pytest.approx(tm.mean_size_bytes(), rel=0.02)

    @pytest.mark.parametrize("size_min, size_max", [
        (20, 65535), (1, 1), (1, 2**31 - 2), (1, 2**31 - 1), (2**31, 2**33)])
    def test_uniform_sizes_are_the_int64_draw(self, size_min, size_max):
        # int32 below 2**31 - 1, int64 from there: the values int64 draws
        tm = TrafficModel(kind="poisson", mean_rate=1.0, size_min=size_min,
                          size_max=size_max, size_dist="uniform")
        for seed in range(3):
            got = _draw_sizes(tm, 10_000, stream(seed, 0))
            want = int64_uniform_sizes(tm, 10_000, stream(seed, 0))
            assert got.dtype == want.dtype == float and np.array_equal(got, want)

    def test_exponential_sizes(self):
        for kind in TRAFFIC_KINDS:
            tm = TrafficModel(mean_rate=2000.0, size_dist="exponential",
                              size_mean=1000.0, size_min=20, size_max=65535, **kind)
            _, sizes = generate_traffic(tm, 10.0, 4, 0, {})
            assert sizes.min() >= 20 and sizes.max() <= 65535
            assert sizes.mean() == pytest.approx(1000.0, rel=0.05)


def bursty(burst_len, off_time_ms, mean_rate=200.0):
    return TrafficModel(kind="bursty-onoff", mean_rate=mean_rate,
                        burst_len=burst_len, off_time_ms=off_time_ms, **SIZES)


def burst_sizes(arrivals, gap):
    """Packets per burst: a new burst starts after any spacing above gap."""
    starts = np.flatnonzero(np.diff(arrivals) > gap * (1 + 1e-9))
    return np.diff(np.concatenate(([0], starts + 1, [arrivals.size])))


class TestPoissonAgainstLoop:
    """The chunked Poisson generator against the per-arrival loop t += E / rate."""

    @pytest.mark.parametrize("seed", [9518, 11322, 11399])
    def test_draws_spanning_two_chunks(self, seed):
        # at 50/s over 1 s the first chunk holds 76 draws, and on these
        # seeds they sum to less than the horizon
        tm = TrafficModel(kind="poisson", mean_rate=50.0, **SIZES)
        arrivals, _ = generate_traffic(tm, 1.0, seed, 0, {})
        want = loop_poisson_arrivals(50.0, 1.0, stream(seed, 0))
        assert arrivals.size > 76 and np.array_equal(arrivals, want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mean_rate=st.floats(0.5, 500.0),
        horizon_s=st.sampled_from([0.01, 1.0, 10.0]),
    )
    def test_arrivals_bit_identical(self, seed, mean_rate, horizon_s):
        tm = TrafficModel(kind="poisson", mean_rate=mean_rate, **SIZES)
        arrivals, _ = generate_traffic(tm, horizon_s, seed, 0, {})
        want = loop_poisson_arrivals(mean_rate, horizon_s, stream(seed, 0))
        assert np.array_equal(arrivals, want)


class CountingRng:
    """A generator that counts its bulk standard-exponential draws."""

    def __init__(self, rng):
        self.rng, self.bulk_draws = rng, 0

    def standard_exponential(self, size=None):
        self.bulk_draws += size is not None
        return self.rng.standard_exponential(size)


class TestOnOffAgainstLoop:
    """The bulk on/off generator against the per-burst loop it replaced."""

    @pytest.mark.parametrize("seed", [155, 1013, 1422])
    def test_draws_spanning_two_chunks(self, seed):
        # slice1's reference traffic over 10 s: on these seeds (23 of 0..4999)
        # the first chunk's bursts end before the horizon
        tm = bursty(8.0, 38.0)
        spy = CountingRng(np.random.default_rng(seed))
        arrivals = _onoff_arrivals(tm, 10.0, spy)
        want = loop_onoff_arrivals(tm, 10.0, np.random.default_rng(seed))
        assert spy.bulk_draws == 2 and np.array_equal(arrivals, want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        burst_len=st.floats(1.0, 40.0),
        off_time_ms=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
        horizon_s=st.sampled_from([10.0, 500.0]),
    )
    @example(seed=0, burst_len=8.0, off_time_ms=38.0, horizon_s=10.0)
    @example(seed=1, burst_len=8.0, off_time_ms=38.0, horizon_s=500.0)
    @example(seed=2, burst_len=8.0, off_time_ms=0.0, horizon_s=10.0)
    @example(seed=3, burst_len=8.0, off_time_ms=0.0, horizon_s=500.0)
    @example(seed=4, burst_len=1.0, off_time_ms=2.0, horizon_s=10.0)
    @example(seed=5, burst_len=1e4, off_time_ms=38.0, horizon_s=10.0)
    @example(seed=6, burst_len=1e4, off_time_ms=38.0, horizon_s=500.0)
    def test_arrivals_bit_identical(self, seed, burst_len, off_time_ms, horizon_s):
        # the mean rate is kept under the burst envelope burst_len/off_time
        tm = bursty(burst_len, off_time_ms,
                    mean_rate=min(200.0, 0.9e3 * burst_len / max(off_time_ms, 1e-9)))
        want = loop_onoff_arrivals(tm, horizon_s, stream(seed, 0))
        arrivals, _ = generate_traffic(tm, horizon_s, seed, 0, {})
        assert np.array_equal(arrivals, want)

    def test_burst_len_one_sends_single_packets(self):
        tm = bursty(1.0, 2.0)
        arrivals, _ = generate_traffic(tm, 20.0, 8, 0, {})
        assert (burst_sizes(arrivals, tm.intra_burst_gap_s()) == 1).all()
        assert arrivals.size / 20.0 == pytest.approx(200.0, rel=0.05)

    def test_a_burst_past_the_horizon_is_expanded_only_up_to_it(self):
        # slice1's reference traffic with ~10^6-packet bursts, each ~5000 s
        # long: ~2000 packets arrive in 10 s, and a burst expanded in full
        # would take 5-24 MB here
        spec = next(s for s in reference_scenario().slices if s.id == "slice1")
        tm = dataclasses.replace(spec.traffic, burst_len=1e6)
        generate_traffic(tm, 10.0, 0, 0, {})
        tracemalloc.start()
        try:
            arrivals, sizes = generate_traffic(tm, 10.0, 0, 0, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert arrivals.size == sizes.size > 1900
        assert peak < 1e6

    def test_a_burst_too_long_for_int64_is_capped_before_the_cast(self):
        # slice1's reference traffic with ~10^19-packet bursts: a burst size
        # cast to int64 uncapped overflows, which numpy reports as a warning
        spec = next(s for s in reference_scenario().slices if s.id == "slice1")
        tm = dataclasses.replace(spec.traffic, burst_len=1e19)
        for seed in range(3):
            arrivals, sizes = generate_traffic(tm, 10.0, seed, 0, {})
            assert arrivals.size == sizes.size > 1900
            assert (arrivals < 10.0).all()

    def test_no_arrivals_when_the_first_off_time_passes_the_horizon(self):
        # the leading off time has mean 38 ms, so a 1 ns horizon ends inside it
        arrivals, sizes = generate_traffic(bursty(8.0, 38.0), 1e-9, 0, 0, {})
        assert arrivals.size == 0 and sizes.size == 0

    @pytest.mark.parametrize("burst_len", [1.5, 2.0, 3.0])
    def test_short_bursts_keep_their_mean(self, burst_len):
        # the loop oracle shares the inversion sampler, so check its law here
        tm = bursty(burst_len, 2.0)
        arrivals, _ = generate_traffic(tm, 200.0, 9, 0, {})
        assert burst_sizes(arrivals, tm.intra_burst_gap_s()).mean() == \
            pytest.approx(burst_len, rel=0.03)

