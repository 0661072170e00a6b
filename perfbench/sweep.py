"""Run the benchmark over ten seeds per workload and summarise each metric.

    python3 perfbench/sweep.py [--out summary.json]

Runs `run.py` once per workload in BENCHMARK.json and seed 0, 1000, ...,
9000, one run at a time, with `run_seconds` from BENCHMARK.json, then one
traced run per workload at seed 0. For every end-to-end metric it reports
the median and quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median, the
figure each metric's `bound` is checked against, and the same for the raw
timings before host-speed scaling. Compare two commits by running this on
each.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(0, 10_000, 1000))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            info, result = run_once(name, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "loadavg": [info["loadavg_start"], info["loadavg_end"]],
                         "kernel_s": info["kernel_s.median"], "raw": info["raw"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        entry = {"runs": runs, "end_to_end": {
            metric: summarise([r["metrics"][metric] for r in runs]) for metric in bounds}}
        entry["raw"] = {metric: summarise([r["raw"][metric] for r in runs])
                        for metric in runs[0]["raw"]}
        for metric, s in entry["end_to_end"].items():
            raw = entry["raw"].get(metric)
            print(f"  {metric:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bounds[metric]}"
                  + (f"  (raw spread {raw['spread']:.4f})" if raw else ""))
        info, result = run_once(name, SEEDS[0], seconds, 1)
        entry["traced"] = {"seed": SEEDS[0], "correct": result["correct"],
                           "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        summary[name] = entry
    env = {k: info[k] for k in ("nproc", "python", "numpy", "commit")}
    if args.out:
        args.out.write_text(json.dumps({"run_seconds": seconds, "env": env,
                                        "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
