"""Shared by the tests: a small fast scenario and the full reference sweep."""
import time

import numpy as np
import pytest

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    OsraConfig,
    QoeRequirement,
    ScenarioConfig,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    reference_scenario,
    run_osra,
)


# packet-size keys for a traffic model whose sizes a test does not care about
SIZES = dict(size_min=20, size_max=65535, size_dist="uniform")


def make_tiny_scenario(tau_new=3.0, rho_new=0.9, epsilon=0.05, max_iters=4,
                       probes=2, transfer_rule="algorithm1", statistic="mean",
                       horizon_s=0.6, eta=0.08):
    """Two-slice, one-edge, one-core scenario that runs in well under a second.

    The new slice starts starved on the link (f = 0.02 against a 300 req/s
    load that needs at least 0.06 for stability); the donor is generously
    overprovisioned, so a few transfer steps visibly help.
    """
    fixed_size = dict(size_min=1000, size_max=1000, size_dist="uniform")
    slices = (
        SliceSpec(
            id="new",
            requirement=QoeRequirement(tau_ms=tau_new, rho=rho_new),
            alpha_tau=2.0, alpha_rho=2.0,
            traffic=TrafficModel(kind="poisson", mean_rate=300.0, **fixed_size),
            demand_mi=1e4, priority_rank=0,
        ),
        SliceSpec(
            id="donor",
            requirement=QoeRequirement(tau_ms=50.0, rho=0.5),
            alpha_tau=0.5, alpha_rho=0.5,
            traffic=TrafficModel(kind="poisson", mean_rate=200.0, **fixed_size),
            demand_mi=1e4, priority_rank=1,
        ),
    )
    topology = Topology(edges=(("link", 40.0),), cores=(("core", 3e8),),
                        buffer_pkts=100)
    alloc = AllocationMatrix.from_rows({
        "new": AllocationVector(np.array([0.02]), np.array([0.05])),
        "donor": AllocationVector(np.array([0.90]), np.array([0.60])),
    })
    return ScenarioConfig(
        name="tiny",
        slices=slices,
        topology=topology,
        initial_alloc=alloc,
        sim=SimConfig(horizon_s=horizon_s, warmup_s=0.1, propagation_ms=0.1),
        osra=OsraConfig(
            eta=eta, delta=0.05, probes=probes, epsilon=epsilon,
            max_iters=max_iters, transfer_rule=transfer_rule,
            statistic=statistic, penalty_exponent=2, delay_ceiling_ms=1e3,
        ),
        new_slice_id="new",
    ).validate()


@pytest.fixture(scope="session")
def reference_sweep():
    """Ten full reconfiguration runs on the reference scenario, timed.

    Returns (scenario, {seed: OsraResult}, elapsed seconds). Shared by the
    acceptance tests so the sweep is paid for once.
    """
    sc = reference_scenario()
    t0 = time.perf_counter()
    results = {
        seed: run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                       sc.new_slice_id, sc.osra, seed=seed)
        for seed in range(10)
    }
    elapsed = time.perf_counter() - t0
    return sc, results, elapsed
