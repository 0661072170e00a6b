"""slicelab benchmark: one workload, timed untraced or traced.

    python3 perfbench/run.py --workload osra-reference --seed 0 --seconds 30 --trace 0

Run it from any directory; it finds `src/` and `scenarios/` next to the
`perfbench/` directory and imports slicelab from there. Workloads are defined
in `workloads.py`. Tasks run one after another in this process, on
consecutive seeds from --seed, with every output checked. How many seeds a
run takes is fixed per workload and scaled by --seconds, never by how fast
the tasks go, so two commits run with the same arguments time the same seeds.

The process first pins itself, and the set-up probes it spawns, to one CPU.
--trace 0 times a window of about --seconds worth of tasks and reports the
end-to-end metrics. Times are given at reference host speed (see
`hostspeed.py`): each raw time is scaled by how fast a fixed kernel ran just
before, during and just after it. The raw figures are in the info line.

  setup_s      median, over SETUP_SAMPLES fresh interpreters, of the seconds
               from spawning the interpreter to inputs ready for the first
               task: importing slicelab, loading and validating the reference
               scenario, building the workload's allocation
  task_s.p50   median wall seconds of one task call
  tasks_per_s  tasks per second of summed task time; slow seeds move it
  pkts_per_s   post-warmup requests offered per second of summed task time,
               over every simulation the tasks paid for
  ok_frac      tasks that returned and passed every check, over tasks run
  peak_rss_mb  peak resident memory of this process

The first task is then run again and its pickled result compared byte for
byte with the first run's.

--trace 1 runs a fixed window of seeds, sized from --seconds, each seed once
untraced and then once with spans around each layer's calls (see
`spans.py`), and reports the per-layer metrics, in raw seconds. Each traced
result's pickle must have the same sha256 digest as the untraced one. Spans
are written to `.perfbench-out/`.

The last stdout line is the result JSON: correct, attempted, failed and
metrics. The line before it is an info JSON with the environment (cores,
load average at start and end, Python and numpy versions, git commit), each
task's seed, raw time and sha256 digest of its pickled result, and any
problem found. Exit status is 0 when a result was printed.
"""
import os

# one thread per BLAS/OpenMP pool, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9          # timed fresh-interpreter set-ups, after one warm-up
MIN_TASKS = 3              # untraced tasks run however small --seconds is
PICKLE_PROTOCOL = 5
OUT_DIR = workloads.ROOT / ".perfbench-out"


@dataclass
class TaskRecord:
    seed: int
    seconds: float
    kernel: list = field(default_factory=list)
    offered: int = 0
    digest: str = ""
    outcome: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    blob: bytes = b""

    def summary(self):
        return {"seed": self.seed, "s": self.seconds, "sha256": self.digest,
                **self.outcome, **({"problems": self.problems} if self.problems else {})}


def run_task(sl, wl, inputs, seed, span=workloads.no_span, keep_blob=False, sample=False):
    """One timed task call, then its checks and digest, untimed.

    keep_blob keeps the pickled result for a byte-for-byte comparison; only
    the digest of every other task is kept, so memory stays flat. sample
    times the host-speed kernel during the call, into the record's kernel.
    """
    watch = hostspeed.Stopwatch(sample)
    try:
        with span(wl.root_span), watch:
            result, aux = wl.run(sl, inputs, seed)
    except Exception as e:  # a task that raises is counted as failed, the run goes on
        traceback.print_exc(file=sys.stderr)
        return TaskRecord(seed, watch.seconds, kernel=watch.kernel, problems=[f"raised {e!r}"])
    blob = pickle.dumps(result, protocol=PICKLE_PROTOCOL)
    return TaskRecord(seed, watch.seconds, kernel=watch.kernel, offered=wl.offered(result, aux),
                      digest=hashlib.sha256(blob).hexdigest(),
                      outcome=wl.outcome(result), problems=wl.check(sl, result),
                      blob=blob if keep_blob else b"")


def measure_setup(workload):
    """Seconds from spawning a fresh interpreter to the workload's inputs
    ready, raw and at the host speed measured just before and after."""
    raw, scaled = [], []
    before = hostspeed.measure()
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        after = hostspeed.measure()
        if i:  # the first spawn also writes bytecode caches
            raw.append(float(proc.stdout) - t0)
            scaled.append(raw[-1] * hostspeed.scale(before, after))
        before = after
    return raw, scaled


def untraced(sl, wl, inputs, seed, seconds):
    n = max(MIN_TASKS, round(wl.tasks_per_10s * seconds / 10.0))
    records, kernel = [], [hostspeed.measure()]
    for s in range(seed, seed + n):
        records.append(run_task(sl, wl, inputs, s, keep_blob=not records, sample=True))
        kernel.append(hostspeed.measure())
    first = records[0]
    rerun = run_task(sl, wl, inputs, first.seed, keep_blob=True)
    if rerun.blob != first.blob:
        first.problems.append("rerun is not byte-identical")

    setup_raw, setup = measure_setup(wl.name)
    raw = [r.seconds for r in records]
    # each task at the host speed measured just before, during and just after it
    scaled = [r.seconds * hostspeed.scale(before, *r.kernel, after)
              for r, before, after in zip(records, kernel, kernel[1:])]
    offered = sum(r.offered for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "task_s.p50": (statistics.median(scaled), "s"),
        "tasks_per_s": (len(records) / sum(scaled), "1/s"),
        "pkts_per_s": (offered / sum(scaled), "1/s"),
        "ok_frac": (sum(not r.problems for r in records) / len(records), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"task_s.samples": len(records), "setup_s.samples": len(setup),
            "kernel_s.median": statistics.median(kernel), "kernel_s": kernel,
            "raw": {"setup_s": statistics.median(setup_raw), "task_s.p50": statistics.median(raw),
                    "tasks_per_s": len(records) / sum(raw), "pkts_per_s": offered / sum(raw)}}
    return records, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def traced(sl, wl, seed, seconds):
    """Each seed runs untraced, then traced, so host drift hits both alike."""
    n = max(1, round(wl.trace_tasks_per_10s * seconds / 10.0))
    tracer = spans.Tracer()
    plain, records = [], []
    walls = {False: 0.0, True: 0.0}

    def timed(on, fn):
        t0 = time.perf_counter()
        if on:
            with spans.instrument(sl, tracer):
                out = fn()
        else:
            out = fn()
        walls[on] += time.perf_counter() - t0
        return out

    inputs = timed(False, lambda: wl.build(sl))
    traced_inputs = timed(True, lambda: wl.build(sl, tracer.span))
    for s in range(seed, seed + n):
        plain.append(timed(False, lambda: run_task(sl, wl, inputs, s)))
        records.append(timed(True, lambda: run_task(sl, wl, traced_inputs, s, tracer.span)))
    for p, r in zip(plain, records):
        if p.digest != r.digest:
            r.problems.append("traced result differs from untraced result")

    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.dump(path, workload=wl.name, seed=seed, clock="perf_counter")
    metrics = spans.layer_metrics(tracer, walls[True], walls[False],
                                  [r.outcome for r in records])
    info = {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
            "spans": len(tracer.spans), "spans_file": str(path.relative_to(workloads.ROOT))}
    return plain + records, metrics, info


def git_commit():
    if not (workloads.ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sl = workloads.import_slicelab()
    except workloads.MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    # one CPU for this process and the set-up probes it spawns: no migration
    # between cores that the host runs at different speeds
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": loadavg(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": git_commit()}

    if args.trace:
        records, metrics, extra = traced(sl, wl, args.seed, args.seconds)
    else:
        inputs = wl.build(sl)
        records, metrics, extra = untraced(sl, wl, inputs, args.seed, args.seconds)
    failed = sum(bool(r.problems) for r in records)
    info.update(extra, loadavg_end=loadavg(), tasks=[r.summary() for r in records])
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
