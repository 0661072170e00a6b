"""Transfer rule math, stopping behavior, and the full reconfiguration loop."""
import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    OsraConfig,
    ProbeMemory,
    QoeRequirement,
    ScenarioConfig,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    project_capped_simplex,
    run_osra,
    transfer_step,
)
from slicelab import osra
from slicelab.osra import (
    ZERO_GRADIENT_NORM,
    NonFiniteGradient,
    assert_feasible,
    order_key,
)

from conftest import make_tiny_scenario
from reference_impls import scalar_transfer_recursion


def run(sc: ScenarioConfig, seed=0, **kw):
    return run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                    sc.new_slice_id, sc.osra, seed=seed, **kw)


class TestTransferStep:
    def test_conservative_hand_case(self):
        transfer, stop, deltas, grant, used = transfer_step(
            {"a": np.array([2.0])}, np.array([-1.0]), {"a": 0.1}, "conservative")
        assert transfer == pytest.approx([0.3])
        assert stop == pytest.approx(0.3)
        assert deltas["a"] == pytest.approx([0.3])
        assert grant == pytest.approx([0.3])
        assert used == "conservative"

    def test_algorithm1_normalizes_the_whole_field(self):
        transfer, stop, deltas, grant, used = transfer_step(
            {"a": np.array([2.0])}, np.array([-2.0]), {"a": 0.1}, "algorithm1")
        # pressure 0.1*(2-(-2)) = 0.4; |g_j| = 2
        assert stop == pytest.approx(0.4)      # stop metric stays unscaled
        assert deltas["a"] == pytest.approx([0.2])
        assert grant == pytest.approx([0.2])
        assert used == "algorithm1"

    def test_zero_new_gradient_falls_back(self):
        _, _, deltas, grant, used = transfer_step(
            {"a": np.array([1.0])}, np.array([0.0]), {"a": 0.1}, "algorithm1")
        assert used == "conservative-fallback"
        assert deltas["a"] == pytest.approx([0.1])
        assert grant == pytest.approx([0.1])

    def test_tiny_but_nonzero_gradient_still_normalizes(self):
        g = np.array([10 * ZERO_GRADIENT_NORM])
        _, _, _, _, used = transfer_step({"a": np.array([1.0])}, g,
                                         {"a": 0.1}, "algorithm1")
        assert used == "algorithm1"

    def test_grant_equals_withdrawals_under_both_rules(self):
        rng = np.random.default_rng(0)
        for rule in ("conservative", "algorithm1"):
            donors = {f"d{i}": rng.normal(size=3) for i in range(4)}
            etas = {f"d{i}": float(rng.uniform(0.01, 0.2)) for i in range(4)}
            gj = rng.normal(size=3)
            _, _, deltas, grant, _ = transfer_step(donors, gj, etas, rule)
            total = sum(deltas.values())
            assert np.max(np.abs(total - grant)) <= 1e-12

    def test_per_donor_step_sizes(self):
        donors = {"a": np.array([1.0]), "b": np.array([1.0])}
        etas = {"a": 0.1, "b": 0.3}
        transfer, _, deltas, _, _ = transfer_step(donors, np.array([0.0]),
                                                  etas, "conservative")
        assert deltas["a"] == pytest.approx([0.1])
        assert deltas["b"] == pytest.approx([0.3])
        assert transfer == pytest.approx([0.4])


class TestScalarRecursion:
    def test_matches_hand_reference_to_1e12(self):
        # one donor at x=0.7 with penalty (x-0.3)^2, one new slice at 0.1
        # with hinge penalty max(0, 0.6-x)^2, eta 0.1, conservative rule
        eta, steps = 0.1, 12
        hand = scalar_transfer_recursion(0.7, 0.1, eta, steps)

        x1, xj = 0.7, 0.1
        got = [(x1, xj)]
        for _ in range(steps):
            g1 = np.array([2.0 * (x1 - 0.3)])
            gj = np.array([-2.0 * max(0.0, 0.6 - xj)])
            _, _, deltas, grant, _ = transfer_step(
                {"donor": g1}, gj, {"donor": eta}, "conservative")
            raw = np.array([x1 - deltas["donor"][0], xj + grant[0]])
            proj = project_capped_simplex(raw)
            x1, xj = float(proj[0]), float(proj[1])
            got.append((x1, xj))

        for (h1, hj), (g1_, gj_) in zip(hand, got):
            assert abs(h1 - g1_) <= 1e-12
            assert abs(hj - gj_) <= 1e-12

    def test_recursion_settles_where_pressures_cancel(self):
        # zero-sum moves keep x1+xj = 0.8, so the pair cannot reach the
        # unconstrained optimum (0.3, 0.6); it settles where both
        # gradients agree: x1 - 0.3 = xj - 0.6 -> (0.25, 0.55)
        hand = scalar_transfer_recursion(0.7, 0.1, 0.1, 60)
        x1, xj = hand[-1]
        assert x1 == pytest.approx(0.25, abs=1e-6)
        assert xj == pytest.approx(0.55, abs=1e-6)


class TestRunOsra:
    def satisfied_scenario(self):
        """Everything within requirement at the start, probes included."""
        sc = make_tiny_scenario(tau_new=500.0, rho_new=0.05, epsilon=0.05)
        alloc = AllocationMatrix.from_rows({
            "new": AllocationVector(np.array([0.50]), np.array([0.50])),
            "donor": AllocationVector(np.array([0.40]), np.array([0.40])),
        })
        return ScenarioConfig(
            name="satisfied", slices=sc.slices, topology=sc.topology,
            initial_alloc=alloc, sim=sc.sim, osra=sc.osra,
            new_slice_id="new").validate()

    def test_all_satisfied_stops_immediately(self):
        sc = self.satisfied_scenario()
        res = run(sc)
        assert res.converged
        assert res.iterations == 0
        assert len(res.traces) == 1
        tr = res.traces[0]
        assert np.all(tr.transfer == 0.0)
        assert tr.stop_metric == 0.0
        assert tr.rule_used == "conservative-fallback"  # |g_j| = 0 exactly
        assert res.final_alloc == sc.initial_alloc

    def test_huge_epsilon_one_trace(self):
        # the ceiling makes starved-probe gradients of order 1e7, so
        # "huge" has to clear that too
        sc = make_tiny_scenario(epsilon=1e9)
        res = run(sc)
        assert res.converged and res.iterations == 0 and len(res.traces) == 1
        assert res.final_alloc == sc.initial_alloc

    def test_zero_epsilon_hits_the_iteration_cap(self):
        # a 0.05 ms bound can never be met (propagation alone is 0.1 ms),
        # so the gradient never vanishes and the cap decides
        sc = make_tiny_scenario(tau_new=0.05, epsilon=0.0, max_iters=3)
        res = run(sc)
        assert not res.converged
        assert len(res.traces) == 3
        assert res.iterations == 3
        assert [t.k for t in res.traces] == [0, 1, 2]

    def test_stops_at_the_first_quiet_step(self):
        sc = make_tiny_scenario(epsilon=0.05, max_iters=8)
        res = run(sc)
        for tr in res.traces[:-1]:
            assert tr.stop_metric > sc.osra.epsilon
        if res.converged:
            assert res.traces[-1].stop_metric <= sc.osra.epsilon

    def test_every_iterate_feasible(self):
        sc = make_tiny_scenario(max_iters=5, epsilon=0.0, tau_new=0.05)
        res = run(sc)
        for tr in res.traces:
            assert_feasible(tr.alloc)
        assert_feasible(res.final_alloc)

    def test_reruns_are_identical_even_threaded(self):
        sc = make_tiny_scenario(max_iters=3, epsilon=0.0, tau_new=0.05)
        a = run(sc)
        b = run(sc)
        with ThreadPoolExecutor(max_workers=4) as pool:
            c = run(sc, map_fn=pool.map)
        assert pickle.dumps(a) == pickle.dumps(b) == pickle.dumps(c)

    def test_memory_records_all_probes(self):
        sc = make_tiny_scenario(max_iters=2, epsilon=0.0, tau_new=0.05, probes=2)
        mem = ProbeMemory()
        res = run(sc, memory=mem)
        dim = sc.topology.n_edges + sc.topology.n_cores
        assert len(mem) == len(res.traces) * 2 * dim * sc.osra.probes

    def test_reconfiguration_helps_the_new_slice(self):
        sc = make_tiny_scenario(max_iters=6)
        res = run(sc)
        hist = res.penalty_history("new")
        assert hist[-1] < hist[0]
        assert res.final_alloc.row("new").flows[0] > sc.initial_alloc.row("new").flows[0]

    def test_probed_donor_gradients_mode(self):
        sc = make_tiny_scenario(max_iters=2, epsilon=0.0, tau_new=0.05)
        sc = ScenarioConfig(
            name=sc.name, slices=sc.slices, topology=sc.topology,
            initial_alloc=sc.initial_alloc, sim=sc.sim,
            osra=OsraConfig(
                eta=sc.osra.eta, delta=sc.osra.delta, probes=2,
                epsilon=0.0, max_iters=2, transfer_rule="algorithm1",
                statistic="mean", donor_gradients="probed",
                delay_ceiling_ms=1e3),
            new_slice_id="new")
        res = run(sc)
        assert len(res.traces) == 2
        assert "donor" in res.traces[0].gradients

    def test_no_donors_is_an_error(self):
        sc = make_tiny_scenario()
        with pytest.raises(ValueError, match="no lower-priority"):
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     "donor", sc.osra)  # lowest-priority slice as "new"

    def test_unknown_new_slice(self):
        sc = make_tiny_scenario()
        with pytest.raises(KeyError):
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     "ghost", sc.osra)

    def test_non_finite_gradient_names_slice_and_iteration(self, monkeypatch):
        real = osra.probed_gradient
        calls = []

        def nan_after_first(*args, **kw):
            calls.append(None)
            g = real(*args, **kw)
            return g if len(calls) == 1 else np.full_like(g, np.nan)

        monkeypatch.setattr(osra, "probed_gradient", nan_after_first)
        with pytest.raises(NonFiniteGradient,
                           match=r"slice 'new' at iteration 1 is not finite"):
            run(make_tiny_scenario(epsilon=0.0))
        assert issubclass(NonFiniteGradient, ValueError)

    def test_eta_map_must_cover_donors(self):
        sc = make_tiny_scenario()
        bad = OsraConfig(eta={"someone-else": 0.1}, probes=2, max_iters=2)
        with pytest.raises(ValueError, match="eta map missing"):
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     "new", bad)


class TestFrozenSlices:
    def three_way_scenario(self):
        """Higher-priority slice above the new one must never move."""
        fixed = dict(size_min=1000, size_max=1000)
        slices = (
            SliceSpec(id="prio", requirement=QoeRequirement(100.0, 0.1),
                      alpha_tau=9.0, alpha_rho=9.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=100.0, **fixed),
                      demand_mi=1e4, priority_rank=0),
            SliceSpec(id="new", requirement=QoeRequirement(0.05, 0.9),
                      alpha_tau=2.0, alpha_rho=2.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=300.0, **fixed),
                      demand_mi=1e4, priority_rank=1),
            SliceSpec(id="donor", requirement=QoeRequirement(50.0, 0.1),
                      alpha_tau=0.5, alpha_rho=0.5,
                      traffic=TrafficModel(kind="poisson", mean_rate=200.0, **fixed),
                      demand_mi=1e4, priority_rank=2),
        )
        topology = Topology(edges=(("link", 40.0),), cores=(("core", 3e8),))
        alloc = AllocationMatrix.from_rows({
            "prio": AllocationVector(np.array([0.20]), np.array([0.20])),
            "new": AllocationVector(np.array([0.02]), np.array([0.05])),
            "donor": AllocationVector(np.array([0.70]), np.array([0.60])),
        })
        osra = OsraConfig(eta=0.08, delta=0.05, probes=2, epsilon=0.0,
                          max_iters=4, statistic="mean", delay_ceiling_ms=1e3)
        return slices, topology, alloc, osra

    def test_higher_priority_rows_never_move(self):
        slices, topology, alloc, osra = self.three_way_scenario()
        res = run_osra(slices, topology, alloc, SimConfig(0.6, 0.1, 0.1, 0),
                       "new", osra, seed=1)
        want = alloc.row("prio")
        for tr in res.traces:
            assert tr.alloc.row("prio") == want
        assert res.final_alloc.row("prio") == want

    def test_movable_rows_respect_the_leftover_budget(self):
        slices, topology, alloc, osra = self.three_way_scenario()
        res = run_osra(slices, topology, alloc, SimConfig(0.6, 0.1, 0.1, 0),
                       "new", osra, seed=1)
        for tr in res.traces + (None,):
            m = res.final_alloc if tr is None else tr.alloc
            movable_f = m.row("new").flows + m.row("donor").flows
            movable_c = m.row("new").cpu + m.row("donor").cpu
            assert np.all(movable_f <= 0.80 + 1e-9)
            assert np.all(movable_c <= 0.80 + 1e-9)


class TestOrderKey:
    def test_rank_then_id(self):
        a = SliceSpec(id="a", requirement=QoeRequirement(5.0, 0.5),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=1.0),
                      demand_mi=1.0, priority_rank=1)
        b = SliceSpec(id="b", requirement=QoeRequirement(5.0, 0.5),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=1.0),
                      demand_mi=1.0, priority_rank=1)
        assert order_key(a) < order_key(b)


class TestOsraConfig:
    def test_bad_rule(self):
        with pytest.raises(ValueError, match="transfer_rule"):
            OsraConfig(transfer_rule="both")

    def test_bad_schedule(self):
        with pytest.raises(ValueError, match="eta_schedule"):
            OsraConfig(eta_schedule="linear")

    def test_bad_donor_mode(self):
        with pytest.raises(ValueError, match="donor_gradients"):
            OsraConfig(donor_gradients="neural")

    def test_nonnegative_epsilon(self):
        OsraConfig(epsilon=0.0)  # explicitly allowed: cap-only runs
        with pytest.raises(ValueError, match="epsilon"):
            OsraConfig(epsilon=-0.1)

    def test_max_iters_floor(self):
        with pytest.raises(ValueError, match="max_iters"):
            OsraConfig(max_iters=0)

    def test_sqrt_decay_schedule(self):
        c = OsraConfig(eta=0.2, eta_schedule="sqrt-decay")
        assert c.eta_for("x", 0) == pytest.approx(0.2)
        assert c.eta_for("x", 3) == pytest.approx(0.1)

    def test_eta_map_lookup(self):
        c = OsraConfig(eta={"a": 0.1, "b": 0.2})
        assert c.eta_for("b", 0) == pytest.approx(0.2)
