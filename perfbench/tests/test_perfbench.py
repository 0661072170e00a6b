"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sl():
    return workloads.import_slicelab()


def _span(name, start, end, parent):
    return [name, float(start), float(end), parent]


def test_self_time_subtracts_covered_part_of_children():
    spans_ = [
        _span("root", 0, 10, None),
        _span("a", 1, 4, 0),
        _span("a.child", 2, 3, 1),
        _span("b", 5, 9, 0),
        _span("c", 8, 9.5, 0),      # overlaps b: the union is subtracted once
        _span("late", 9.5, 12, 0),  # runs past its parent: only 9.5..10 counts
    ]
    assert spans.self_times(spans_) == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 2.5])


def test_tracer_nests_spans_by_open_order():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_host_speed_scale_is_reference_over_mean_kernel_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == 1.0
    assert hostspeed.scale(ref, 3 * ref) == pytest.approx(0.5)
    assert hostspeed.measure() > 0


def test_stopwatch_samples_the_kernel_during_the_block_and_leaves_it_out():
    t0 = time.perf_counter()
    with hostspeed.Stopwatch(sample=True) as watch:
        while time.perf_counter() - t0 < 3 * hostspeed.SAMPLE_EVERY_S:
            pass
    wall = time.perf_counter() - t0
    assert len(watch.kernel) >= 2 and all(k > 0 for k in watch.kernel)
    assert 0 < watch.seconds <= wall - sum(watch.kernel)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _traced_task(sl, wl, seed):
    tracer = spans.Tracer()
    with spans.instrument(sl, tracer):
        inputs = wl.build(sl, tracer.span)
        record = run.run_task(sl, wl, inputs, seed, tracer.span, keep_blob=True)
    return record, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_result_pickles_like_untraced(sl, name):
    wl = workloads.WORKLOADS[name]
    plain = run.run_task(sl, wl, wl.build(sl), 3, keep_blob=True)
    traced, tracer = _traced_task(sl, wl, 3)
    assert not plain.problems and not traced.problems
    assert traced.blob == plain.blob
    assert pickle.loads(traced.blob) is not None
    metrics = spans.layer_metrics(tracer, 1.0, 1.0, [traced.outcome])
    assert (metrics["simulator.generate_traffic.calls"]["value"]
            == metrics["simulator.simulate_pipeline.calls"]["value"] > 0)


def test_osra_reference_probes_two_sides_per_coordinate_per_repetition(sl):
    wl = workloads.WORKLOADS["osra-reference"]
    record, tracer = _traced_task(sl, wl, 0)
    sc = wl.build(sl)
    dim = sc.topology.n_edges + sc.topology.n_cores
    metrics = spans.layer_metrics(tracer, 1.0, 1.0, [record.outcome])
    assert metrics["penalty.probed_gradient.sims_per_call"]["value"] == 2 * dim * sc.osra.probes == 60
    assert metrics["osra.run_osra.converged_frac"]["value"] == 1.0


def test_instrument_restores_the_wrapped_functions(sl):
    before = {(m, a): getattr(getattr(sl, m), a) for m, a, _ in spans.WRAPPED}
    with spans.instrument(sl, spans.Tracer()):
        assert sl.osra.sim_evaluate is not before[("osra", "sim_evaluate")]
    assert {(m, a): getattr(getattr(sl, m), a) for m, a, _ in spans.WRAPPED} == before


def test_instrument_raises_on_a_name_the_program_no_longer_has(sl, monkeypatch):
    before = {(m, a): getattr(getattr(sl, m), a) for m, a, _ in spans.WRAPPED}
    missing = ("osra", "no_such_function", "penalty.no_such_function")
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (missing,))
    with pytest.raises(AttributeError, match="no_such_function"):
        with spans.instrument(sl, spans.Tracer()):
            pass
    assert {key: getattr(getattr(sl, key[0]), key[1]) for key in before} == before


def test_overload_workload_drops_only_in_its_overloaded_slice(sl):
    wl = workloads.WORKLOADS["audit-overload-poisson"]
    report, _ = wl.run(sl, wl.build(sl), 0)
    assert report["slice1"].throughput < 0.8
    assert report["slice2"].throughput == report["slice3"].throughput == 1.0


def test_benchmark_json_matches_the_harness(sl):
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "audit-baseline-long", "--seed", "0",
                         "--seconds", "0.1", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_TASKS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_printing_when_the_program_is_absent(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "osra-reference",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
