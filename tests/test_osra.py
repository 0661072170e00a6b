"""Transfer rule math, stopping behavior, and the full reconfiguration loop."""
import collections
import dataclasses
import hashlib
import pickle
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from slicelab import (
    AllocationMatrix,
    AllocationVector,
    InvariantViolation,
    OsraConfig,
    ProbeMemory,
    QoeRequirement,
    ScenarioConfig,
    SimConfig,
    SliceSpec,
    Topology,
    TrafficModel,
    project_capped_simplex,
    reference_scenario,
    run_osra,
)
from slicelab import native, oracle, osra, simulator
from slicelab.domain import derive_seed
from slicelab.scenario import scenario_from_dict, scenario_to_dict
from slicelab.osra import (
    ZERO_GRADIENT_NORM,
    NonFiniteGradient,
    assert_feasible,
    order_key,
    transfer_step,
)

from conftest import SIZES, make_tiny_scenario
from reference_impls import (
    least_cpu_frontier,
    least_fitting_link,
    reprobed_stop,
    scalar_transfer_recursion,
    stop_state,
)


def run(sc: ScenarioConfig, seed=0, **kw):
    return run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                    sc.new_slice_id, sc.osra, seed=seed, **kw)


def knobs(**kw) -> OsraConfig:
    """The reference scenario's loop knobs with the given ones replaced."""
    return dataclasses.replace(reference_scenario().osra, **kw)


class TestTransferStep:
    def test_conservative_hand_case(self):
        transfer, stop, deltas, grant, used = transfer_step(
            {"a": np.array([2.0])}, np.array([-1.0]), 0.1, "conservative")
        assert transfer == pytest.approx([0.3])
        assert stop == pytest.approx(0.3)
        assert deltas["a"] == pytest.approx([0.3])
        assert grant == pytest.approx([0.3])
        assert used == "conservative"

    def test_algorithm1_normalizes_the_whole_field(self):
        transfer, stop, deltas, grant, used = transfer_step(
            {"a": np.array([2.0])}, np.array([-2.0]), 0.1, "algorithm1")
        # pressure 0.1*(2-(-2)) = 0.4; |g_j| = 2
        assert stop == pytest.approx(0.4)      # stop metric stays unscaled
        assert deltas["a"] == pytest.approx([0.2])
        assert grant == pytest.approx([0.2])
        assert used == "algorithm1"

    def test_zero_new_gradient_falls_back(self):
        _, _, deltas, grant, used = transfer_step(
            {"a": np.array([1.0])}, np.array([0.0]), 0.1, "algorithm1")
        assert used == "conservative-fallback"
        assert deltas["a"] == pytest.approx([0.1])
        assert grant == pytest.approx([0.1])

    @pytest.mark.parametrize("n_donors", [1, 2, 3])
    def test_the_fallback_grant_is_bounded_as_algorithm1s(self, n_donors):
        # steep donor gradients against a zero new one: the raw pressures,
        # each scaled by one factor so that the grant is eta per donor
        rng = np.random.default_rng(n_donors)
        donors = {f"d{i}": rng.normal(scale=50.0, size=3) for i in range(n_donors)}
        eta, bound = 0.06, 0.06 * n_donors
        transfer, stop, deltas, grant, used = transfer_step(donors, np.zeros(3), eta,
                                                            "algorithm1")
        assert used == "conservative-fallback" and stop > bound
        assert np.linalg.norm(grant) <= bound * (1 + 1e-12)   # rounding only
        for sid, g in donors.items():
            assert deltas[sid] == pytest.approx(eta * g * bound / stop, rel=1e-12)

    def test_the_stopping_row_falls_back_without_scaling(self):
        _, stop, deltas, grant, used = transfer_step(
            {"a": np.zeros(2), "b": np.zeros(2)}, np.zeros(2), 0.06, "algorithm1")
        assert used == "conservative-fallback" and stop == 0.0
        assert not grant.any() and not any(d.any() for d in deltas.values())

    def test_tiny_but_nonzero_gradient_still_normalizes(self):
        g = np.array([10 * ZERO_GRADIENT_NORM])
        _, _, _, _, used = transfer_step({"a": np.array([1.0])}, g,
                                         0.1, "algorithm1")
        assert used == "algorithm1"

    def test_grant_equals_withdrawals_under_both_rules(self):
        rng = np.random.default_rng(0)
        for rule in ("conservative", "algorithm1"):
            donors = {f"d{i}": rng.normal(size=3) for i in range(4)}
            eta = float(rng.uniform(0.01, 0.2))
            gj = rng.normal(size=3)
            _, _, deltas, grant, _ = transfer_step(donors, gj, eta, rule)
            total = sum(deltas.values())
            assert np.max(np.abs(total - grant)) <= 1e-12


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
                {"donor": g1}, gj, eta, "conservative")
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
        assert res.iterations == 2
        assert [t.k for t in res.traces] == [0, 1, 2]

    def test_stops_at_the_first_quiet_step(self):
        sc = make_tiny_scenario(epsilon=0.05, max_iters=8)
        res = run(sc)
        for tr in res.traces[:-1]:
            assert tr.stop_metric > sc.osra.epsilon
        if res.converged:
            assert res.traces[-1].stop_metric <= sc.osra.epsilon

    def test_every_iterate_feasible(self, monkeypatch):
        # a projection that overshoots must stop the run, not yield an iterate
        monkeypatch.setattr(osra, "project_columns", lambda x, budgets: 2 * x)
        sc = make_tiny_scenario(max_iters=5, epsilon=0.0, tau_new=0.05)
        with pytest.raises(InvariantViolation,
                           match=r"flows entries must lie in \[0,1\].*edge 0 sum \d"):
            run(sc)

    def test_assert_feasible_names_every_bound_broken(self):
        # no AllocationMatrix can break a bound, so build one around it
        bad = SimpleNamespace(flows=np.array([[-3e-9], [0.5]]), cpu=np.array([[0.6], [0.6]]))
        with pytest.raises(AssertionError,
                           match=r"flows entries must lie in \[0,1\]; core 0 sum 1\.2 > 1"):
            assert_feasible(bad)

    def test_reruns_are_identical(self):
        sc = make_tiny_scenario(max_iters=3, epsilon=0.0, tau_new=0.05)
        assert pickle.dumps(run(sc)) == pickle.dumps(run(sc))

    def test_the_reference_run_keeps_its_golden_digest(self, reference_sweep):
        # pickle protocol 4 is fixed, since the default may change; a change
        # that means to move outputs updates this digest and states the drift
        blob = pickle.dumps(reference_sweep[1][0], protocol=4)
        assert hashlib.sha256(blob).hexdigest() == (
            "9ebfe4fb23b1aaf71804fc5e979ca9c832c91567818bcd785bd05f782f89fa16")

    def test_every_reference_run_stops_on_exactly_zero_gradients(self, reference_sweep):
        # the stop reads the gradients, not the one monitored sample: a seed
        # may stop with slice1's monitored p99 over its bound, since every
        # probe repetition meets it (OUTCOMES, row ref-4)
        _, results, _ = reference_sweep
        for res in results.values():
            *applied, last = res.traces
            assert res.converged
            assert all(tr.rule_used == "algorithm1" for tr in applied)
            assert last.stop_metric == 0.0 and last.rule_used == "conservative-fallback"
            assert all((g == 0.0).all() for g in last.gradients.values())
            assert res.final_alloc.stacked().min() > 0.0

    def test_memory_records_all_probes(self):
        sc = make_tiny_scenario(max_iters=2, epsilon=0.0, tau_new=0.05, probes=2)
        mem = ProbeMemory()
        res = run(sc, memory=mem)
        dim = sc.topology.n_edges + sc.topology.n_cores
        assert len(mem) == len(res.traces) * 2 * dim * sc.osra.probes

    def test_reconfiguration_helps_the_new_slice(self):
        sc = make_tiny_scenario(max_iters=6)
        res = run(sc)
        hist = [t.penalties["new"] for t in res.traces]
        assert hist[-1] < hist[0]
        assert res.final_alloc.row("new").flows[0] > sc.initial_alloc.row("new").flows[0]

    @pytest.mark.parametrize("bad", [-1, 1.5])
    def test_bad_seed_is_named(self, bad):
        with pytest.raises(ValueError, match=f"seed must be a whole number >= 0, got {bad!r}"):
            run(make_tiny_scenario(), seed=bad)

    def test_no_donors_is_an_error(self):
        sc = make_tiny_scenario()
        with pytest.raises(ValueError, match="no lower-priority"):
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     "donor", sc.osra, seed=0)  # lowest-priority slice as "new"

    def test_unknown_new_slice(self):
        sc = make_tiny_scenario()
        with pytest.raises(InvariantViolation, match="'ghost' is not a slice id"):
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     "ghost", sc.osra, seed=0)

    @pytest.mark.parametrize("new_slice_id", ["ghost", "donor"], ids=["unknown", "no-donors"])
    def test_a_bad_new_slice_is_refused_as_validate_refuses_it(self, new_slice_id):
        sc = make_tiny_scenario()
        with pytest.raises(InvariantViolation) as checked:
            dataclasses.replace(sc, new_slice_id=new_slice_id).validate()
        with pytest.raises(InvariantViolation) as ran:
            run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                     new_slice_id, sc.osra, seed=0)
        assert ran.value.violations == checked.value.violations
        assert [field for field, _ in ran.value.violations] == ["new_slice"]

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



class TestReprobedStop:
    """The reference sweep's stops, probed again by `reprobed_stop`."""

    def test_the_reprobe_reproduces_the_last_gradient_bit_for_bit(self, reference_sweep,
                                                                  reprobed):
        _, results, _ = reference_sweep
        for seed, res in results.items():
            quotients = reprobed(f"ref-{seed}")[0]
            last = res.traces[-1].gradients["slice1"]
            assert quotients.tobytes() == last.tobytes(), seed

    def test_every_seed_stops_satisfied(self, reference_sweep, reprobed, measured):
        # every probe point and the centre meet slice1's bound on the
        # repetitions, even where one monitor sample does not (ROADMAP item
        # 18); each seed's monitored penalties are its OUTCOMES row's
        _, results, _ = reference_sweep
        for seed in results:
            _, pen, centre = reprobed(f"ref-{seed}")
            assert (pen == 0.0).all() and centre == 0.0, seed
            assert measured[f"ref-{seed}"] == OUTCOMES[f"ref-{seed}"], seed


class TestProbeMemory:
    """What `run_osra(memory=...)` records: every probe of the new slice."""

    def scenario(self):
        return make_tiny_scenario(max_iters=2, epsilon=0.0, tau_new=0.05, probes=3)

    def test_records_every_probe(self):
        sc = self.scenario()
        mem = ProbeMemory()
        res = run(sc, seed=4, memory=mem)
        dim = sc.topology.n_edges + sc.topology.n_cores
        p = sc.osra.probes
        assert len(mem) == len(res.traces) * 2 * dim * p
        # (coordinate, side, repetition) order: each probe point's repetitions
        # are consecutive, on one row and the gradient's p seeds
        for start in range(0, len(mem), p):
            block = mem[start:start + p]
            k = start // (2 * dim * p)
            assert all(pt is block[0][0] for pt, _, _ in block)
            assert isinstance(block[0][0], AllocationVector)
            assert [s for _, _, s in block] == [
                derive_seed(derive_seed(4, 7001, k), r) for r in range(p)]

    def test_replay_reproduces_samples(self):
        sc = self.scenario()
        mem = ProbeMemory()
        run(sc, memory=mem)
        replays = lambda statistic: all(
            oracle.sim_evaluate(sc.new_slice_id, pt, sc.slices, sc.topology, sc.sim, seed,
                                statistic, {}) == sample
            for pt, sample, seed in mem)
        assert replays(sc.osra.statistic)
        assert not replays("max")


class TestProbeMemo:
    """The per-gradient memo on the reference topology's two equal cores."""

    def scenario(self):
        sc = reference_scenario()
        return dataclasses.replace(sc, osra=dataclasses.replace(sc.osra, probes=3, max_iters=4))

    def test_memo_changes_no_result(self, monkeypatch):
        sc = self.scenario()
        memo_on = run(sc)
        real = osra.sim_evaluate
        monkeypatch.setattr(osra, "sim_evaluate",
                            lambda *a, memo, **k: real(*a, memo={}, **k))
        assert pickle.dumps(memo_on) == pickle.dumps(run(sc))

    def test_four_simulations_per_repetition(self, monkeypatch):
        # edge -/+ and core -/+: core0 +/- delta is core1 +/- delta
        sc = self.scenario()
        calls = {"run_sim": 0, "simulate_slice": 0, "sim_evaluate": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*a, **k):
                calls[name] += 1
                return real(*a, **k)
            monkeypatch.setattr(module, name, wrapper)

        counted(oracle, "run_sim")
        counted(oracle, "simulate_slice")
        counted(osra, "sim_evaluate")
        res = run(sc)
        gradients = len(res.traces)
        assert calls["sim_evaluate"] == gradients * 2 * 3 * sc.osra.probes
        assert calls["simulate_slice"] == gradients * 4 * sc.osra.probes
        # one monitoring run per iteration besides the probes
        assert calls["run_sim"] == gradients

    def test_one_simulation_per_monitored_slice_and_new_probe(self, monkeypatch):
        # a reference run simulates each slice once per iteration, and each
        # probe whose stage rates and seed no earlier probe had: a count that
        # does not depend on how the probes are drawn or how many are made
        sc = reference_scenario()
        calls = []
        real = simulator.simulate_pipeline
        monkeypatch.setattr(simulator, "simulate_pipeline",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        mem = ProbeMemory()
        res = run(sc, memory=mem)
        keys = set()
        for row, _, seed in mem:
            link_rates, cpu_rate = simulator.stage_rates(row, sc.topology)
            keys.add((link_rates.tobytes(), cpu_rate, seed))
        assert len(keys) < len(mem)
        assert len(calls) == len(sc.slices) * len(res.traces) + len(keys)

    def test_one_traffic_draw_per_slice_and_seed_in_a_gradient(self, monkeypatch):
        # seed 0 monitors 3 slices in each of 8 iterations and draws each of
        # a gradient's 10 repetitions once: 3 x 8 + 10 x 8 = 104 draws, while
        # every one of its 3 x 8 + 320 simulations still asks for its traffic
        sc = reference_scenario()
        calls = collections.Counter()
        for name in ("generate_traffic", "simulate_pipeline"):
            real = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, lambda *a, _real=real, _name=name, **k:
                                calls.update([_name]) or _real(*a, **k))
        library = native.LIBRARY

        class CountedLibrary:
            def __getattr__(self, name):
                if name == "draw_sizes":  # one call per drawn stream
                    calls[name] += 1
                return getattr(library, name)

        monkeypatch.setattr(native, "LIBRARY", CountedLibrary())
        res = run(sc)
        assert len(res.traces) == 8
        assert calls == {"draw_sizes": 104, "generate_traffic": 344, "simulate_pipeline": 344}

    def test_one_compiled_call_per_simulation(self, monkeypatch):
        # each of seed 0's 344 simulations makes one `run_pipeline` call, and
        # each of its 104 draws one `draw_arrivals` call, which seeds the
        # stream in C, and one `draw_sizes` call: no link or server pass is
        # called from Python on its own. One stream, 2,420 slice1 packets,
        # outgrows its room for 2,416 and is drawn again. Each of the 12
        # `derive_seed` calls of each of the 8 iterations makes one
        # `seed_state` call: 96
        sc = reference_scenario()
        calls = collections.Counter()
        library = native.LIBRARY

        class CountedLibrary:
            def __getattr__(self, name):
                calls[name] += 1
                return getattr(library, name)

        real = simulator.simulate_pipeline
        monkeypatch.setattr(native, "LIBRARY", CountedLibrary())
        monkeypatch.setattr(simulator, "simulate_pipeline",
                            lambda *a, **k: calls.update(["simulate_pipeline"]) or real(*a, **k))
        run(sc)
        assert calls == {"simulate_pipeline": 344, "run_pipeline": 344, "draw_arrivals": 105,
                         "draw_sizes": 104, "seed_state": 96}

    def test_equal_cores_stay_bit_equal(self, reference_sweep):
        sc, results, _ = reference_sweep
        for res in results.values():
            for tr in res.traces:
                cpu, grad = tr.alloc.row(sc.new_slice_id).cpu, tr.gradients[sc.new_slice_id]
                assert cpu[0] == cpu[1] and grad[1] == grad[2], tr.k
            cpu = res.final_alloc.row(sc.new_slice_id).cpu
            assert cpu[0] == cpu[1]


# the reference topology with its link (Mbps) and each core (MIPS) cut
CUTS = {"link900": (900.0, 2e8), "link1200": (1200.0, 3e8)}

# (f, seed, start, cut): demand growth from both starts, then the capacity cuts
GRID = [*((f, seed, start, None) for f in (2.0, 2.5) for seed in range(100, 103)
          for start in ("cold", "warm")),
        *((1.0, seed, "cold", cut) for cut in CUTS for seed in range(3))]


def _name(f, seed, start, cut):
    """A GRID run's name, like 2.0-100-cold or link900-0."""
    return f"{cut}-{seed}" if cut else f"{f}-{seed}-{start}"


def _variant(sc, f, cut):
    """(slices, topology): slice1's traffic compressed in time by f (f x the
    rate, 1/f x the off time), on the topology CUTS[cut] gives, or sc's."""
    slices = tuple(
        dataclasses.replace(s, traffic=dataclasses.replace(
            s.traffic, mean_rate=s.traffic.mean_rate * f,
            off_time_ms=s.traffic.off_time_ms / f)) if s.id == "slice1" else s
        for s in sc.slices)
    topology = sc.topology
    if cut:
        link, mips = CUTS[cut]
        topology = dataclasses.replace(
            topology, edges=tuple((eid, link) for eid, _ in topology.edges),
            cores=tuple((cid, mips) for cid, _ in topology.cores))
    return slices, topology


class Outcome(NamedTuple):
    """How a run ends: the state `stop_state` reads, the updates it applied,
    each slice's monitored penalty at the stop in SLICE_IDS order (to 5
    significant digits; 0 only when exactly 0), and the slices it leaves
    starved (a last monitored throughput of 0, a zero link share or zero on
    every core)."""
    state: str
    updates: int
    penalties: tuple
    starved: tuple


# the reference scenario's slices; slice1 is the new one
SLICE_IDS = ("slice1", "slice2", "slice3")

# How each of the 28 pinned runs ends: reference seeds 0-9 and the GRID
# runs, all with the reference knobs. A change that moves a run edits its
# row here and states the drift; the strict xfails below follow the rows.
OUTCOMES = {
    "ref-0":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-1":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-2":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-3":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-4":        Outcome("satisfied", 7, (0.5993, 0.0, 0.0), ()),
    "ref-5":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-6":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-7":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-8":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "ref-9":        Outcome("satisfied", 7, (0.0, 0.0, 0.0), ()),
    "2.0-100-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.0-100-warm": Outcome("satisfied", 3, (0.0, 0.0, 0.0), ()),
    "2.0-101-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.0-101-warm": Outcome("satisfied", 5, (0.0, 0.0, 0.0), ()),
    "2.0-102-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.0-102-warm": Outcome("satisfied", 3, (0.0, 0.0, 0.0), ()),
    "2.5-100-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.5-100-warm": Outcome("satisfied", 13, (0.0, 0.0, 0.0), ()),
    "2.5-101-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.5-101-warm": Outcome("satisfied", 6, (0.0, 0.0, 0.0), ()),
    "2.5-102-cold": Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "2.5-102-warm": Outcome("donor slice2 hurts", 7, (0.0, 7.2031, 0.0), ()),
    "link900-0":    Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "link900-1":    Outcome("stalled at 744.0", 1, (744.0, 0.0, 0.0), ()),
    "link900-2":    Outcome("max_iters", 14, (244.47, 0.0, 0.5), ("slice3",)),
    "link1200-0":   Outcome("max_iters", 14, (0.0, 11.204, 0.49255), ()),
    "link1200-1":   Outcome("max_iters", 14, (744.0, 0.0, 0.5), ("slice3",)),
    "link1200-2":   Outcome("max_iters", 14, (38.453, 0.0, 0.0), ()),
}

# What a row cannot hold: why its run breaks a property that a test below
# pins. A row that breaks one gets a strict xfail whose reason is this text
# with the row's facts at "{}", or those facts alone.
WHY = {
    **dict.fromkeys((f"{f}-{seed}-cold" for f in (2.0, 2.5) for seed in range(100, 103)),
                    "servable at f = 2 and 2.5; ROADMAP item 12: {}"),
    "2.5-102-warm": "servable; ROADMAP item 9: {} (its p99 12.2 ms against 5 ms)",
    **dict.fromkeys(("link900-0", "link900-1"),
                    "no allocation serves link900: slice1's penalty is above 0 even with the "
                    "whole link and both cores; ROADMAP items 12 and 14: {}"),
    "link900-2": "no allocation serves link900; ROADMAP item 9: algorithm1 steps zero slice3's "
                 "link share from k = 9; {}",
    "link1200-1": "no allocation serves link1200: the least link shares at which each slice is "
                  "served sum to 1.025; ROADMAP item 9: algorithm1 steps zero slice3's link "
                  "share at k = 8 and 9 and from k = 13; {}",
}


def _short(penalty):
    """A penalty as a reason writes it: to 2 decimals, trailing zeros cut."""
    return f"{round(penalty, 2):g}"


def _converged_facts(row):
    """e.g. "converged=True after 1 update, slice1's penalty 744"."""
    hurt = ", ".join(f"{sid}'s penalty {_short(p)}"
                     for sid, p in zip(SLICE_IDS, row.penalties) if p > 0.0)
    return f"converged=True after {row.updates} update{'s' * (row.updates != 1)}, {hurt}"


def _last_facts(row):
    """e.g. "15 iterations, slice3's throughput 0 and penalty 0.5, slice1's 744"."""
    penalty = dict(zip(SLICE_IDS, row.penalties))
    starved = "".join(f"{sid}'s throughput 0 and penalty {_short(penalty[sid])}, "
                      for sid in row.starved)
    return f"{row.updates + 1} iterations, {starved}slice1's {_short(penalty['slice1'])}"


# (breaks, facts) for each property of TestWarmRestart: whether a row
# breaks it, and the row's facts its reason gives
CONVERGED_AT_ZERO = (lambda row: row.state != "max_iters" and max(row.penalties) > 0.0,
                     _converged_facts)
UNSTARVED = (lambda row: bool(row.starved), _last_facts)
CONVERGED = (lambda row: row.state == "max_iters", _last_facts)


def _marks(name, prop):
    """A strict xfail for the run `name` where its OUTCOMES row breaks the
    property `prop`, with the reason WHY and the row give; else none. The
    change that mends the run edits its row, and the marker goes with it."""
    breaks, facts = prop
    row = OUTCOMES[name]
    if not breaks(row):
        return []
    return [pytest.mark.xfail(strict=True, reason=WHY.get(name, "{}").format(facts(row)))]


def _grid(prop):
    """The GRID runs as parameters named by `_name`, each marked by `_marks`."""
    return [pytest.param(*run, id=_name(*run), marks=_marks(_name(*run), prop))
            for run in GRID]


@pytest.fixture(scope="module")
def grid_run(reference_sweep):
    """run(f, seed, start, cut=None), start "warm" or "cold", on the
    topology that CUTS[cut] gives, or the reference one; each run made once."""
    sc, results, _ = reference_sweep
    runs = {}

    def run(f, seed, start, cut=None):
        if (f, seed, start, cut) not in runs:
            slices, topology = _variant(sc, f, cut)
            alloc = results[seed - 100].final_alloc if start == "warm" else sc.initial_alloc
            runs[f, seed, start, cut] = run_osra(slices, topology, alloc, sc.sim,
                                                 sc.new_slice_id, sc.osra, seed=seed)
        return runs[f, seed, start, cut]
    return run


@pytest.fixture(scope="module")
def finished(reference_sweep, grid_run):
    """finished(name): (OsraResult, slices, topology, seed) of the run that
    OUTCOMES names: a reference seed's from the sweep, a GRID run's from
    `grid_run`."""
    sc, results, _ = reference_sweep
    grid = {_name(*run): run for run in GRID}

    def finished(name):
        if name.startswith("ref-"):
            seed = int(name[len("ref-"):])
            return results[seed], sc.slices, sc.topology, seed
        f, seed, start, cut = grid[name]
        return (grid_run(f, seed, start, cut), *_variant(sc, f, cut), seed)
    return finished


@pytest.fixture(scope="module")
def reprobed(reference_sweep, finished):
    """reprobed(name): `reprobed_stop` of the run that OUTCOMES names, each
    made once."""
    sc, made = reference_sweep[0], {}

    def reprobed(name):
        if name not in made:
            res, slices, topology, seed = finished(name)
            made[name] = reprobed_stop(res, slices, topology, sc.sim, sc.osra,
                                       sc.new_slice_id, seed)
        return made[name]
    return reprobed


@pytest.fixture(scope="module")
def measured(finished, reprobed):
    """{name: Outcome} of each run that OUTCOMES names, as the run ends."""
    measured = {}
    for name in OUTCOMES:
        res = finished(name)[0]
        last = res.traces[-1]
        starved = tuple(sid for sid, sample in last.samples.items()
                        if not (sample.throughput > 0 and last.alloc.row(sid).flows.all()
                                and last.alloc.row(sid).cpu.any()))
        measured[name] = Outcome(
            stop_state(res, reprobed(name), "slice1"), res.iterations,
            tuple(float(f"{last.penalties[sid]:.5g}") for sid in SLICE_IDS), starved)
    return measured


def _grid_rows(state):
    """The OUTCOMES rows of GRID runs whose stop state begins with `state`."""
    grid = {_name(*run) for run in GRID}
    return {name: row for name, row in OUTCOMES.items()
            if name in grid and row.state.startswith(state)}


class TestOutcomes:
    """The 28 pinned runs against their OUTCOMES rows."""

    def test_every_run_ends_as_its_row_says(self, measured):
        # compared whole, so a change that moves runs reads as a list of rows
        moved = [f"{name}: {row}\n  now {measured[name]}"
                 for name, row in OUTCOMES.items() if measured[name] != row]
        assert not moved, "rows that moved, as OUTCOMES has them and as measured:\n" + (
            "\n".join(moved))

    def test_every_cause_explains_a_row_that_breaks_a_property(self):
        props = (CONVERGED_AT_ZERO, UNSTARVED, CONVERGED)
        assert {name for name in WHY
                if not any(breaks(OUTCOMES[name]) for breaks, _ in props)} == set()

    def test_every_cause_states_what_its_run_reads(self, finished):
        # the facts the reasons give beyond their rows: the iterations at
        # which slice3's link share is zero, and slice2's last p99
        def zeroed(name):
            return [tr.k for tr in finished(name)[0].traces
                    if tr.alloc.row("slice3").flows.min() == 0.0]
        assert zeroed("link900-2") == [9, 10, 11, 12, 13, 14]
        assert "slice3's link share from k = 9;" in WHY["link900-2"]
        assert zeroed("link1200-1") == [8, 9, 13, 14]
        assert "slice3's link share at k = 8 and 9 and from k = 13;" in WHY["link1200-1"]
        p99 = finished("2.5-102-warm")[0].traces[-1].samples["slice2"].delay_stat_ms
        assert f"{p99:.1f}" == "12.2" and "(its p99 12.2 ms against 5 ms)" in WHY["2.5-102-warm"]


class TestWarmRestart:
    """The loop tracks a demand change from the allocation it converged to,
    and a capacity cut from the reference start.

    slice1's traffic is compressed in time by f (f x the rate, 1/f x the off
    time), and the loop restarts on seeds 100-102 from the final allocations
    of reference seeds 0-2. At f = 1.25 and 1.5 every warm restart converges
    to zero penalties faster than a cold start. At f = 2 and 2.5, and from
    the reference start on seeds 0-2 with the link and cores cut (CUTS),
    properties are pinned, each with a strict xfail where the run's OUTCOMES
    row breaks it: a run that reports convergence has every penalty at 0, no
    slice ends starved, and a warm restart converges. Each run is made once
    and shared by the tests.
    """

    @pytest.fixture(scope="class")
    def frontiers(self):
        """frontiers(f, cut): each slice's `least_cpu_frontier` in `_variant`,
        over ten CRN seeds, as many as the loop's probes; each made once."""
        sc = reference_scenario()
        made = {}

        def frontier(spec, cut, topology):
            if (spec, cut) not in made:
                made[spec, cut] = least_cpu_frontier(spec, topology, sc.sim, sc.osra, range(10))
            return made[spec, cut]

        def frontiers(f, cut):
            slices, topology = _variant(sc, f, cut)
            return [frontier(spec, cut, topology) for spec in slices]
        return frontiers

    def test_twelve_grid_runs_can_be_served_and_six_cannot(self, frontiers):
        # the least total link share of a choice on the frontiers that fits,
        # slice2's 0.075 and slice3's 0.025 included; on the cuts none fits
        need = {(f, cut): least_fitting_link(frontiers(f, cut)) for f, _, _, cut in GRID}
        assert need == {(2.0, None): pytest.approx(0.75), (2.5, None): pytest.approx(0.875),
                        (1.0, "link900"): None, (1.0, "link1200"): None}
        # link900 serves slice1 at no share; link1200's least shares overfill the link
        assert set(frontiers(1.0, "link900")[0].values()) == {None}
        least = [min(f for f, c in frontier.items() if c is not None)
                 for frontier in frontiers(1.0, "link1200")]
        assert least == [0.85, 0.15, 0.025]
        servable = {_name(*run): need[run[0], run[3]] is not None for run in GRID}
        assert servable == {_name(*run): run[3] is None for run in GRID}
        assert sum(servable.values()) == 12

    def test_the_reference_runs_end_at_or_above_the_frontier(self, reference_sweep,
                                                              frontiers):
        # each final row gets at least the shares of a point its slice is
        # served at; slice1's final link share, 0.459-0.503 over the ten
        # seeds, is 0.034-0.078 above the least it can be served with, 0.425
        sc, results, _ = reference_sweep
        fronts = frontiers(1.0, None)
        assert least_fitting_link(fronts) == pytest.approx(0.525)
        least = min(f for f, c in fronts[0].items() if c is not None)
        margins = []
        for seed, res in results.items():
            for spec, frontier in zip(sc.slices, fronts):
                row = res.final_alloc.row(spec.id)
                f, c = row.flows.min(), row.cpu.min()
                assert any(g <= f and need is not None and need <= c
                           for g, need in frontier.items()), (seed, spec.id)
            margins.append(res.final_alloc.row("slice1").flows.min() - least)
        assert least == 0.425 and 0.03 < min(margins) and max(margins) < 0.08, margins

    @pytest.mark.parametrize("f", [1.25, 1.5])
    def test_converges_in_fewer_updates_than_a_cold_start(self, grid_run, f):
        for seed in range(100, 103):
            warm, cold = (grid_run(f, seed, start) for start in ("warm", "cold"))
            assert warm.converged and warm.iterations <= 3, seed
            assert set(warm.traces[-1].penalties.values()) == {0.0}, seed
            assert cold.iterations > warm.iterations, seed

    @pytest.mark.parametrize("f, seed, start, cut", _grid(CONVERGED_AT_ZERO))
    def test_a_converged_run_has_every_penalty_at_zero(self, grid_run, f, seed, start, cut):
        res = grid_run(f, seed, start, cut)
        if res.converged:
            assert set(res.traces[-1].penalties.values()) == {0.0}

    @pytest.mark.parametrize("f, seed, start, cut", _grid(UNSTARVED))
    def test_no_slice_ends_starved(self, grid_run, f, seed, start, cut):
        # a zero link share, or zero on every core, strands a slice's traffic
        last = grid_run(f, seed, start, cut).traces[-1]
        for sid, sample in last.samples.items():
            row = last.alloc.row(sid)
            assert sample.throughput > 0 and row.flows.all() and row.cpu.any(), sid

    @pytest.mark.parametrize("f, seed", [
        pytest.param(f, seed, id=f"{f}-{seed}",
                     marks=_marks(_name(f, seed, start, cut), CONVERGED))
        for f, seed, start, cut in GRID if start == "warm"])
    def test_a_warm_restart_converges(self, grid_run, f, seed):
        assert grid_run(f, seed, "warm").converged

    def test_a_run_returns_the_allocation_it_last_measured(self, reference_sweep, grid_run):
        # the reference seeds converge and four cut runs hit the cap: either
        # way the result is the last trace's record
        sc, results, _ = reference_sweep
        for res in [*results.values(), *(grid_run(*params) for params in GRID)]:
            last = res.traces[-1]
            assert res.final_alloc == last.alloc
            assert res.iterations == len(res.traces) - 1
            assert res.converged == (last.stop_metric <= sc.osra.epsilon)

    def test_the_reprobe_reproduces_slice1s_last_gradient(self, grid_run, reprobed):
        for params in GRID:
            last = grid_run(*params).traces[-1].gradients["slice1"]
            assert reprobed(_name(*params))[0].tobytes() == last.tobytes(), _name(*params)

    def test_a_converged_run_with_slice1_over_its_bound_has_stalled(self, grid_run,
                                                                    reprobed, measured):
        # the rule: such a stop reads equal, positive probe penalties, so its
        # gradient is flat; which runs stall, after how many updates and at
        # what penalty, their OUTCOMES rows say (ROADMAP items 12 and 14)
        stalled = {}
        for params in GRID:
            res, name = grid_run(*params), _name(*params)
            if res.converged and res.traces[-1].penalties["slice1"] > 0:
                _, pen, centre = reprobed(name)
                assert len({*pen.ravel().tolist(), float(centre)}) == 1 and centre > 0, name
                stalled[name] = measured[name]
        assert stalled == _grid_rows("stalled at ")

    def test_a_donor_hurts_under_a_zero_gradient(self, grid_run, reprobed, measured):
        # a run that stops with slice1 satisfied on every probe while a donor
        # misses its bound has that donor's gradient at exactly 0 (ROADMAP
        # items 9 and 14); which runs do, and the donor's penalty, their
        # OUTCOMES rows say
        hurt = {}
        for params in GRID:
            res, name = grid_run(*params), _name(*params)
            last = res.traces[-1]
            _, pen, centre = reprobed(name)
            donors = [sid for sid, p in last.penalties.items() if sid != "slice1" and p > 0]
            if res.converged and (pen == 0.0).all() and centre == 0.0 and donors:
                for sid in donors:
                    assert (last.gradients[sid] == 0.0).all(), (name, sid)
                hurt[name] = measured[name]
        assert hurt == _grid_rows("donor ")

    def test_the_grid_runs_keep_their_golden_digest(self, grid_run):
        # pickled and pinned as seed 0 is: these runs hold 29 nonzero donor
        # gradients, and every donor gradient of the reference sweep is 0; a
        # change that means to move them updates this and states the drift
        blob = b"".join(pickle.dumps(grid_run(*params), protocol=4) for params in GRID)
        assert hashlib.sha256(blob).hexdigest() == (
            "98d464724272d4ce112771745e3438cb63295335df28da540433d7a3556e219e")

    def test_four_cut_runs_run_to_the_iteration_cap(self, reference_sweep, grid_run,
                                                    measured):
        # which runs hit the cap, and the slices they starve, their OUTCOMES
        # rows say
        max_iters = reference_sweep[0].osra.max_iters
        capped = {}
        for params in GRID:
            res, name = grid_run(*params), _name(*params)
            if not res.converged:
                assert len(res.traces) == max_iters, name
                capped[name] = measured[name]
        assert capped == _grid_rows("max_iters")


class TestFrozenSlices:
    def three_way_scenario(self):
        """Higher-priority slice above the new one must never move."""
        fixed = dict(size_min=1000, size_max=1000, size_dist="uniform")
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
        topology = Topology(edges=(("link", 40.0),), cores=(("core", 3e8),),
                            buffer_pkts=100)
        alloc = AllocationMatrix.from_rows({
            "prio": AllocationVector(np.array([0.20]), np.array([0.20])),
            "new": AllocationVector(np.array([0.02]), np.array([0.05])),
            "donor": AllocationVector(np.array([0.70]), np.array([0.60])),
        })
        osra = knobs(eta=0.08, delta=0.05, probes=2, epsilon=0.0, max_iters=4,
                     statistic="mean", penalty_exponent=2, delay_ceiling_ms=1e3)
        return slices, topology, alloc, osra

    def test_higher_priority_rows_never_move(self):
        slices, topology, alloc, osra = self.three_way_scenario()
        res = run_osra(slices, topology, alloc, SimConfig(0.6, 0.1, 0.1),
                       "new", osra, seed=1)
        want = alloc.row("prio")
        for tr in res.traces:
            assert tr.alloc.row("prio") == want
        assert res.final_alloc.row("prio") == want

    def test_movable_rows_respect_the_leftover_budget(self):
        slices, topology, alloc, osra = self.three_way_scenario()
        res = run_osra(slices, topology, alloc, SimConfig(0.6, 0.1, 0.1),
                       "new", osra, seed=1)
        for tr in res.traces:
            m = tr.alloc
            movable_f = m.row("new").flows + m.row("donor").flows
            movable_c = m.row("new").cpu + m.row("donor").cpu
            assert np.all(movable_f <= 0.80 + 1e-9)
            assert np.all(movable_c <= 0.80 + 1e-9)

    def test_drained_donor_projects_onto_the_leftover_budget(self):
        # one step of eta 1 drains the donor past zero on every column, so
        # clipping it alone would push the movable rows past what prio left
        slices, topology, _, osra = self.three_way_scenario()
        alloc = AllocationMatrix.from_rows({
            "prio": AllocationVector(np.array([0.5]), np.array([0.5])),
            "new": AllocationVector(np.array([0.02]), np.array([0.02])),
            "donor": AllocationVector(np.array([0.3]), np.array([0.3])),
        })
        osra = dataclasses.replace(osra, eta=1.0, max_iters=2)
        res = run_osra(slices, topology, alloc, SimConfig(0.6, 0.1, 0.1),
                       "new", osra, seed=1)
        raw = alloc.row("donor").stacked() - res.traces[0].raw_deltas["donor"]
        assert res.iterations == 1 and np.all(raw < 0)
        final = res.final_alloc.stacked()
        assert final.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)
        assert np.all(final[res.final_alloc.index("donor")] == 0.0)


class TestOrderKey:
    def test_rank_then_id(self):
        a = SliceSpec(id="a", requirement=QoeRequirement(5.0, 0.5),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=1.0, **SIZES),
                      demand_mi=1.0, priority_rank=1)
        b = SliceSpec(id="b", requirement=QoeRequirement(5.0, 0.5),
                      alpha_tau=1.0, alpha_rho=1.0,
                      traffic=TrafficModel(kind="poisson", mean_rate=1.0, **SIZES),
                      demand_mi=1.0, priority_rank=1)
        assert order_key(a) < order_key(b)


class TestOsraConfig:
    def test_bad_rule(self):
        with pytest.raises(ValueError, match="transfer_rule"):
            knobs(transfer_rule="both")

    def test_nonnegative_epsilon(self):
        knobs(epsilon=0.0)  # explicitly allowed: cap-only runs
        with pytest.raises(ValueError, match="epsilon"):
            knobs(epsilon=-0.1)
        # an infinite threshold would stop the loop before its first update
        with pytest.raises(InvariantViolation, match=r"epsilon must be in \[0, inf\), got inf"):
            knobs(epsilon=float("inf"))
        data = scenario_to_dict(reference_scenario())
        data["osra"]["epsilon"] = float("inf")
        with pytest.raises(InvariantViolation, match="osra.epsilon: epsilon must be in"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("statistic", ["max", "mean", "p50", "p99", "p99.9"])
    def test_statistics_accepted(self, statistic):
        assert knobs(statistic=statistic).statistic == statistic

    @pytest.mark.parametrize("statistic", [99, None, "p", "p1e1", "p-5", "p 50", "pinf", "p0"])
    def test_bad_statistic_names_the_field(self, statistic):
        with pytest.raises(InvariantViolation) as exc:
            knobs(statistic=statistic)
        assert [f for f, _ in exc.value.violations] == ["statistic"]

    def test_statistic_just_above_100_is_refused(self):
        # a float reads it as 100.0, but it asks for a rank past the last
        with pytest.raises(InvariantViolation,
                           match=r"percentile out of \(0,100\]: p100\.0+1$") as exc:
            knobs(statistic="p100.0000000000000001")
        assert [f for f, _ in exc.value.violations] == ["statistic"]

    def test_max_iters_floor(self):
        with pytest.raises(ValueError, match="max_iters"):
            knobs(max_iters=0)

    @pytest.mark.parametrize("field, value", [
        ("probes", "3"), ("eta", "x"), ("delta", None), ("delta", 0.0), ("delta", 1e-20),
        ("delta", float("inf")), ("probes", 0), ("probes", 2.5), ("probes", True),
        ("max_iters", 2.5), ("penalty_exponent", 3), ("penalty_exponent", True),
        ("delay_ceiling_ms", 0.0), ("delay_ceiling_ms", float("inf"))])
    def test_probe_and_penalty_knobs_checked(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            knobs(**{field: value})

    @pytest.mark.parametrize("eta, field", [(-0.1, "eta"), (float("nan"), "eta"),
                                            (float("inf"), "eta")])
    def test_negative_step_size_names_its_donor(self, eta, field):
        knobs(eta=0.0)  # allowed: nothing moves
        with pytest.raises(InvariantViolation, match=r"eta must be in \[0, inf\)") as exc:
            knobs(eta=eta)
        assert [f for f, _ in exc.value.violations] == [field]
