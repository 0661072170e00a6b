"""Experiment harness: run, compare, validate.

    slicelab run      --scenario file.yaml --out DIR --seeds 0..9
    slicelab compare  --scenario file.yaml --out DIR --seeds 0..9
    slicelab validate --scenario file.yaml

With no --scenario the built-in reference scenario is used. --out falls
back to $SLICELAB_OUT, then ./slicelab-out. Seeds are a comma list
("0,3,17") or an inclusive range ("0..9"). Exit codes: 0 success, 2 for a
scenario that does not parse or validate (the message names the offending
key). All CSV schemas are documented in the README.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import audit_allocation, pool_audits, size_all
from .domain import InvariantViolation
from .osra import run_osra
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    load_scenario,
    reference_scenario,
    scenario_to_dict,
    with_overrides,
)

import yaml


def parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        seeds = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must be like '0,1,2' or '0..9', got {text!r}")
    return seeds


def _load(args) -> ScenarioConfig:
    sc = load_scenario(args.scenario) if args.scenario else reference_scenario()
    overrides = {}
    if getattr(args, "transfer_rule", None):
        overrides["transfer_rule"] = args.transfer_rule
    if getattr(args, "statistic", None):
        overrides["statistic"] = args.statistic
    if overrides:
        sc = with_overrides(sc, **overrides)
    return sc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SLICELAB_OUT") or "slicelab-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return x


def _iteration_rows(sc: ScenarioConfig, result):
    ids = list(sc.initial_alloc.slice_ids)
    edges = [e for e, _ in sc.topology.edges]
    cores = [c for c, _ in sc.topology.cores]
    header = ["k", "stop_metric", "rule_used"]
    for sid in ids:
        header += [f"penalty_{sid}", f"delay_stat_{sid}", f"throughput_{sid}"]
    for sid in ids:
        header += [f"f_{sid}_{e}" for e in edges]
        header += [f"cpu_{sid}_{c}" for c in cores]
    rows = []
    for t in result.traces:
        row = [t.k, _fmt(t.stop_metric), t.rule_used]
        for sid in ids:
            row += [_fmt(t.penalties[sid]),
                    _fmt(t.samples[sid].delay_stat_ms),
                    _fmt(t.samples[sid].throughput)]
        for sid in ids:
            vec = t.alloc.row(sid)
            row += [_fmt(float(x)) for x in vec.flows]
            row += [_fmt(float(x)) for x in vec.cpu]
        rows.append(row)
    return header, rows


def cmd_run(args) -> int:
    sc = _load(args)
    if args.dry_run:
        print(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False), end="")
        return 0
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
                if raw is not None and raw.size:
                    mean_d.append(float(raw.mean()))
                    max_d.append(float(raw.max()))
                tps.append(smp.throughput)
                pens.append(r.traces[k].penalties[sid])
            qoe_rows.append([
                k, sid,
                _fmt(float(np.mean(mean_d)) if mean_d else float("nan")),
                _fmt(float(np.mean(max_d)) if max_d else float("nan")),
                _fmt(float(np.mean(tps))),
                _fmt(float(np.mean(pens))),
                len(live),
            ])
    _write_csv(out / "qoe_per_iter.csv",
               ["k", "slice", "mean_delay_ms", "max_delay_ms", "throughput",
                "penalty", "n_seeds"],
               qoe_rows)

    edges = [e for e, _ in sc.topology.edges]
    cores = [c for c, _ in sc.topology.cores]
    final_rows = []
    for seed, res in results.items():
        for sid in ids:
            vec = res.final_alloc.row(sid)
            final_rows.append(
                [seed, sid, int(res.converged), res.iterations]
                + [_fmt(float(x)) for x in vec.flows]
                + [_fmt(float(x)) for x in vec.cpu])
    _write_csv(out / "final_alloc.csv",
               ["seed", "slice", "converged", "iterations"]
               + [f"f_{e}" for e in edges] + [f"cpu_{c}" for c in cores],
               final_rows)

    n_conv = sum(r.converged for r in results.values())
    print(f"{n_conv}/{len(seeds)} seeds converged; wrote "
          f"{len(seeds)} iteration trace(s) + qoe_per_iter.csv + "
          f"final_alloc.csv to {out}")
    return 0


def cmd_compare(args) -> int:
    sc = _load(args)
    if args.dry_run:
        print(yaml.safe_dump(scenario_to_dict(sc), sort_keys=False), end="")
        return 0
    out = _out_dir(args)
    seeds = args.seeds

    base_alloc, base_flags = size_all(sc.slices, sc.topology, clamp=True)
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
                rows.append([m, sid, seed, _fmt(a.violation_fraction),
                             _fmt(a.mean_delay_ms), _fmt(a.max_delay_ms),
                             _fmt(a.throughput), int(flags[sid])])
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
            hist_rows += [[m, sid, _fmt(float(edges[b])), _fmt(float(edges[b + 1])),
                           int(counts[b])] for b in range(len(counts))]
    _write_csv(out / "histograms.csv",
               ["method", "slice", "bin_left_ms", "bin_right_ms", "count"],
               hist_rows)
    print(f"wrote compare.csv + histograms.csv to {out}")
    return 0


def cmd_validate(args) -> int:
    sc = _load(args)
    donors = ", ".join(s.id for s in sc.donors())
    print(f"scenario {sc.name!r} OK: {len(sc.slices)} slices, "
          f"new slice {sc.new_slice_id!r}, lower-priority [{donors}], "
          f"{sc.topology.n_edges} edge(s), {sc.topology.n_cores} core(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicelab",
        description="Slice reconfiguration lab: simulate, reconfigure, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds_default):
        p.add_argument("--scenario", help="scenario YAML (default: built-in reference)")
        p.add_argument("--out", help="output dir (default: $SLICELAB_OUT or ./slicelab-out)")
        p.add_argument("--seeds", type=parse_seeds, default=parse_seeds(seeds_default),
                       help=f"'0,1,2' or '0..9' (default {seeds_default})")
        p.add_argument("--transfer-rule", choices=["algorithm1", "conservative"],
                       help="override the scenario's transfer rule")
        p.add_argument("--statistic", help="override the delay statistic (max, mean, pNN)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved scenario, run nothing")

    p_run = sub.add_parser("run", help="run the reconfiguration loop per seed")
    common(p_run, "0..9")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="analytic sizing vs reconfigured allocation")
    common(p_cmp, "0..9")
    p_cmp.set_defaults(fn=cmd_compare)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("--scenario", help="scenario YAML (default: built-in reference)")
    p_val.set_defaults(fn=cmd_validate, dry_run=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, InvariantViolation, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
