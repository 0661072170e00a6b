"""Experiment harness: run, compare, validate.

    slicelab run      --scenario file.yaml --out DIR --seeds 0..9
    slicelab compare  --scenario file.yaml --out DIR --seeds 0..9
    slicelab validate --scenario file.yaml

With no --scenario the built-in reference scenario is used. The
scenario's `osra:` section is the only place the algorithm's knobs are
set; no flag overrides them. --out defaults to ./slicelab-out. validate
prints a comment line, then the values the scenario states, as YAML. Seeds are
distinct non-negative integers, a comma list ("0,3,17") or an inclusive
range ("0..9"). Exit codes: 0 success, 2 for a scenario that does not
parse or validate (the message names the offending key, or
the path of a file that cannot be read as YAML), for bad --seeds, or for
an --out that cannot be made a directory (a file there, say). All CSV
schemas are documented in the README.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .baseline import audit_allocation, pool_audits, size_all
from .domain import InvariantViolation
from .osra import run_osra
from .scenario import (
    ScenarioConfig,
    load_scenario,
    reference_scenario,
    scenario_to_dict,
)

import yaml


def parse_seeds(text: str) -> list[int]:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
            seeds = list(range(lo, hi + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:  # a token int() refuses, or a range of other than two ends
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must be like '0,1,2' or '0..9', got {text!r}")
    if min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be non-negative, got {text!r}")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seeds must not repeat, got {text!r}")
    return seeds


def _load(args) -> ScenarioConfig:
    return load_scenario(args.scenario) if args.scenario else reference_scenario()


def _out_dir(args) -> Path:
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvariantViolation([("out", f"--out {args.out}: {e.strerror}")]) from None
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _share_columns(topology, tag=""):
    """The column names of an allocation row's entries, `tag` after each f_ and cpu_."""
    return ([f"f_{tag}{e}" for e, _ in topology.edges]
            + [f"cpu_{tag}{c}" for c, _ in topology.cores])


def _iteration_rows(sc: ScenarioConfig, result):
    ids = list(sc.initial_alloc.slice_ids)
    header = ["k", "stop_metric", "rule_used"]
    for sid in ids:
        header += [f"penalty_{sid}", f"delay_stat_{sid}", f"throughput_{sid}"]
    for sid in ids:
        header += _share_columns(sc.topology, f"{sid}_")
    rows = []
    for t in result.traces:
        row = [t.k, t.stop_metric, t.rule_used]
        for sid in ids:
            row += [t.penalties[sid], t.samples[sid].delay_stat_ms, t.samples[sid].throughput]
        for sid in ids:
            row += t.alloc.row(sid).stacked().tolist()
        rows.append(row)
    return header, rows


def cmd_run(args) -> int:
    sc = _load(args)
    out = _out_dir(args)
    seeds = args.seeds

    results = {}
    for seed in seeds:
        res = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                       sc.new_slice_id, sc.osra, seed=seed)
        results[seed] = res
        header, rows = _iteration_rows(sc, res)
        _write_csv(out / f"iterations_{seed}.csv", header, rows)
        tag = "converged" if res.converged else "hit max_iters"
        print(f"seed {seed}: {tag} after {res.iterations} update(s), "
              f"final stop metric {res.traces[-1].stop_metric:.3g}")

    # per-iteration QoE averaged over the seeds that reached iteration k
    ids = list(sc.initial_alloc.slice_ids)
    max_k = max(len(r.traces) for r in results.values())
    qoe_rows = []
    for k in range(max_k):
        live = [r for r in results.values() if k < len(r.traces)]
        for sid in ids:
            mean_d, max_d, tps, pens = [], [], [], []
            for r in live:
                smp = r.traces[k].samples[sid]
                raw = smp.raw_delays_ms
                if raw.size:
                    mean_d.append(float(raw.mean()))
                    max_d.append(float(raw.max()))
                tps.append(smp.throughput)
                pens.append(r.traces[k].penalties[sid])
            qoe_rows.append([
                k, sid,
                float(np.mean(mean_d)) if mean_d else float("nan"),
                float(np.mean(max_d)) if max_d else float("nan"),
                float(np.mean(tps)),
                float(np.mean(pens)),
                len(live),
            ])
    _write_csv(out / "qoe_per_iter.csv",
               ["k", "slice", "mean_delay_ms", "max_delay_ms", "throughput",
                "penalty", "n_seeds"],
               qoe_rows)

    final_rows = []
    for seed, res in results.items():
        for sid in ids:
            final_rows.append([seed, sid, int(res.converged), res.iterations]
                              + res.final_alloc.row(sid).stacked().tolist())
    _write_csv(out / "final_alloc.csv",
               ["seed", "slice", "converged", "iterations"] + _share_columns(sc.topology),
               final_rows)

    n_conv = sum(r.converged for r in results.values())
    print(f"{n_conv}/{len(seeds)} seeds converged; wrote "
          f"{len(seeds)} iteration trace(s) + qoe_per_iter.csv + "
          f"final_alloc.csv to {out}")
    return 0


def cmd_compare(args) -> int:
    sc = _load(args)
    out = _out_dir(args)
    seeds = args.seeds

    base_alloc, base_flags = size_all(sc.slices, sc.topology)
    osra_res = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                        sc.new_slice_id, sc.osra, seed=seeds[0])
    print(f"baseline sized (clamped: {sorted(k for k, v in base_flags.items() if v)}); "
          f"osra trained on seed {seeds[0]}: "
          f"{'converged' if osra_res.converged else 'hit max_iters'} "
          f"after {osra_res.iterations} update(s)")

    methods = {"baseline": (base_alloc, base_flags),
               "osra": (osra_res.final_alloc, {sid: False for sid in base_flags})}
    ids = list(sc.initial_alloc.slice_ids)
    rows = []
    pooled = {}
    for m, (alloc, flags) in methods.items():
        audits = [(seed, audit_allocation(sc.slices, sc.topology, alloc, sc.sim, [seed]))
                  for seed in seeds]
        pooled[m] = pool_audits(sc.slices, [report for _, report in audits])
        if len(seeds) > 1:
            audits.append(("pooled", pooled[m]))
        for seed, report in audits:
            for sid in ids:
                a = report[sid]
                rows.append([m, sid, seed, a.violation_fraction, a.mean_delay_ms,
                             a.max_delay_ms, a.throughput, int(flags[sid])])
    _write_csv(out / "compare.csv",
               ["method", "slice", "seed", "violation_fraction", "mean_delay",
                "max_delay", "throughput", "infeasible"],
               rows)

    hist_rows = []
    for sid in ids:
        spans = [pooled[m][sid].delays_ms for m in methods]
        hi = max((s.max() for s in spans if s.size), default=1.0)
        edges = np.linspace(0.0, float(hi) * 1.001 + 1e-9, 41)
        for m in methods:
            counts, _ = np.histogram(pooled[m][sid].delays_ms, bins=edges)
            hist_rows += [[m, sid, float(edges[b]), float(edges[b + 1]), int(counts[b])]
                          for b in range(len(counts))]
    _write_csv(out / "histograms.csv",
               ["method", "slice", "bin_left_ms", "bin_right_ms", "count"],
               hist_rows)
    print(f"wrote compare.csv + histograms.csv to {out}")
    return 0


def cmd_validate(args) -> int:
    sc = _load(args)
    donors = ", ".join(s.id for s in sc.donors())
    print(f"# scenario {sc.name!r} OK: {len(sc.slices)} slices, "
          f"new slice {sc.new_slice_id!r}, lower-priority [{donors}], "
          f"{sc.topology.n_edges} edge(s), {sc.topology.n_cores} core(s)")
    print(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicelab",
        description="Slice reconfiguration lab: simulate, reconfigure, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", help="scenario YAML (default: built-in reference)")
        p.set_defaults(fn=fn)
        return p

    for p in (command("run", cmd_run, "run the reconfiguration loop per seed"),
              command("compare", cmd_compare, "analytic sizing vs reconfigured allocation")):
        p.add_argument("--out", default="slicelab-out",
                       help="output dir (default: ./slicelab-out)")
        p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0..9"),
                       help="'0,1,2' or '0..9' (default 0..9)")
    command("validate", cmd_validate, "validate and print the scenario as YAML")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
