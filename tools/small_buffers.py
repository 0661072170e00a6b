"""Time one `simulate_pipeline` call on 10^5 Poisson packets at link load
1.05, at buffers of 1, 2, 10 and 100 packets.

    PYTHONPATH=src python3 tools/small_buffers.py

Prints one JSON line: per buffer, the median of ROUNDS rounds of 3 calls,
in ms. The process pins itself to one CPU where it can.
"""
import json
import os
import statistics
import time

from slicelab import TrafficModel, simulator

BUFFERS = (1, 2, 10, 100)
LOAD = 1.05
ROUNDS = 6


def main():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # 200 packets/s over 500 s, uniform sizes of 20..65535 bytes
    traffic = TrafficModel(kind="poisson", mean_rate=200.0, size_min=20, size_max=65535,
                           size_dist="uniform")
    arrivals, sizes = simulator.generate_traffic(traffic, 500.0, 0.0, 0, 0, {})
    link_bps = 8.0 * traffic.mean_size_bytes() * traffic.mean_rate / LOAD
    ms = {}
    for b in BUFFERS:
        calls = []
        for _ in range(ROUNDS):
            for _ in range(3):
                start = time.perf_counter()
                simulator.simulate_pipeline(arrivals, sizes, [link_bps], b, 9e7, 1e4, 0.1)
                calls.append(time.perf_counter() - start)
        ms[b] = round(1e3 * statistics.median(calls), 3)
    print(json.dumps({"packets": arrivals.size, "link_load": LOAD, "rounds": ROUNDS,
                      "median_ms_by_buffer": ms}))


if __name__ == "__main__":
    main()
