"""Does the packet-level simulator agree with queueing theory?

With Poisson arrivals and exponentially distributed packet sizes, a link
serving one slice is an M/M/1 queue, so the mean sojourn time has a
closed form: 1/(mu - lambda). This script sweeps the offered load and
prints simulated vs analytic mean delay side by side, plus the same sweep
for bursty on-off traffic to show why the closed form stops applying.

Run: python3 demos/02_queueing_validation.py   (a few seconds)
"""
import dataclasses
import math

import numpy as np

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    QoeRequirement,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    run_sim,
)

# 8 Mbps link, 1000 B mean packets -> service rate 1000 pkt/s
TOPOLOGY = Topology(edges=(("link", 8.0),), cores=(("core", 3e8),),
                    buffer_pkts=10 ** 6)
ALLOC = AllocationMatrix.from_rows(
    {"s": AllocationVector(np.array([1.0]), np.array([1.0]))})
CFG = SimConfig(horizon_s=20.0, warmup_s=2.0, propagation_ms=0.0)
MU = 1000.0


def make_spec(traffic):
    return SliceSpec(id="s", requirement=QoeRequirement(math.inf, 0.0),
                     alpha_tau=1.0, alpha_rho=1.0, traffic=traffic,
                     demand_mi=1.0, priority_rank=0)


def pooled_mean_delay(spec, seeds=range(5)):
    delays = [run_sim((spec,), TOPOLOGY, ALLOC, CFG, seed=s)["s"].delays_ms
              for s in seeds]
    return float(np.concatenate(delays).mean())


def main():
    print(f"{'util':>5} {'sim mean (ms)':>14} {'M/M/1 (ms)':>11} {'error':>7}")
    print("-" * 42)
    poisson = make_spec(TrafficModel(
        kind="poisson", mean_rate=100.0, size_dist="exponential",
        size_mean=1000.0, size_min=1, size_max=10 ** 6))
    for util in (0.2, 0.3, 0.5, 0.7, 0.8):
        lam = util * MU
        spec = dataclasses.replace(
            poisson, traffic=dataclasses.replace(poisson.traffic,
                                                 mean_rate=lam))
        got = pooled_mean_delay(spec)
        want = 1e3 / (MU - lam)
        print(f"{util:5.1f} {got:14.3f} {want:11.3f} "
              f"{abs(got - want) / want:7.1%}")

    print()
    print("same loads, bursty on-off arrivals (8-packet bursts):")
    print(f"{'util':>5} {'sim mean (ms)':>14} {'M/M/1 (ms)':>11} {'ratio':>7}")
    print("-" * 42)
    for util in (0.2, 0.3, 0.5, 0.7, 0.8):
        lam = util * MU
        spec = make_spec(TrafficModel(
            kind="bursty-onoff", mean_rate=lam, burst_len=8.0,
            off_time_ms=min(30.0, 0.5 * 8e3 / lam),
            size_dist="exponential", size_mean=1000.0,
            size_min=1, size_max=10 ** 6))
        got = pooled_mean_delay(spec)
        want = 1e3 / (MU - lam)
        print(f"{util:5.1f} {got:14.3f} {want:11.3f} {got / want:7.2f}x")

    print()
    print("burstiness inflates queueing delay well past the Poisson value,")
    print("which is exactly what mean-based sizing misses.")


if __name__ == "__main__":
    main()
