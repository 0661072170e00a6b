"""Mean-delay sizing vs online reconfiguration, head to head.

The static baseline sizes every slice with stationary M/M/1 formulas:
pick service rates so the mean sojourn meets the delay bound, convert to
fractions, done. Under bursty arrivals that allocation misses the bound
for most requests even though the stationary mean looks fine. The
reconfigured allocation is what the probing loop actually converged to.

Run: python3 demos/04_baseline_comparison.py   (a few seconds)
"""
import numpy as np

from slicelab import (
    audit_allocation,
    reference_scenario,
    run_osra,
    size_all,
)

SEEDS = range(5)


def bar(count, total, width=46):
    n = int(round(width * count / max(total, 1)))
    return "#" * n


def print_report(title, report, slices):
    taus = {s.id: s.requirement.tau_ms for s in slices}
    print(title)
    print(f"  {'slice':8s} {'offered':>8} {'served':>8} {'tput':>7} "
          f"{'mean ms':>9} {'max ms':>9} {'viol':>7}")
    for sid, a in report.items():
        print(f"  {sid:8s} {a.offered:8d} {a.success:8d} "
              f"{a.throughput:7.4f} {a.mean_delay_ms:9.3f} "
              f"{a.max_delay_ms:9.3f} {a.violation_fraction:7.2%}"
              + ("" if np.isfinite(taus[sid]) else "  (no bound)"))


def main():
    sc = reference_scenario()

    base_alloc, flags = size_all(sc.slices, sc.topology)
    base_report = audit_allocation(sc.slices, sc.topology, base_alloc, sc.sim, SEEDS)
    res = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                   sc.new_slice_id, sc.osra, seed=0)
    osra_report = audit_allocation(sc.slices, sc.topology, res.final_alloc,
                                   sc.sim, SEEDS)

    print(f"slice1 bound: {sc.slices[0].requirement.tau_ms} ms; "
          f"baseline sized analytically"
          + (" (clamped!)" if any(flags.values()) else "") + ",")
    print(f"reconfigured allocation taken from a converged seed-0 run "
          f"({res.iterations} updates)\n")
    print_report("baseline (M/M/1-sized):", base_report, sc.slices)
    print()
    print_report("reconfigured:", osra_report, sc.slices)

    print()
    print("slice1 link share:  baseline "
          f"{base_alloc.row('slice1').flows[0]:.4f}   reconfigured "
          f"{res.final_alloc.row('slice1').flows[0]:.4f}")

    # shared-edge histograms make the tail shift visible
    b = base_report["slice1"].delays_ms
    o = osra_report["slice1"].delays_ms
    edges = np.linspace(0.0, float(max(b.max(), o.max())) + 1e-9, 13)
    bc, _ = np.histogram(b, bins=edges)
    oc, _ = np.histogram(o, bins=edges)
    print()
    print("slice1 delay distribution (pooled seeds):")
    print(f"  {'bin (ms)':>16}  {'baseline':>8}  {'reconfigured':>12}")
    for i in range(len(bc)):
        label = f"{edges[i]:6.1f}-{edges[i + 1]:6.1f}"
        print(f"  {label:>16}  {bc[i]:8d}  {oc[i]:12d}  "
              f"|{bar(bc[i], bc.sum(), 23):23s}|{bar(oc[i], oc.sum(), 23)}")
    bv = base_report["slice1"].violation_fraction
    ov = osra_report["slice1"].violation_fraction
    print()
    print(f"slice1 violation fraction: baseline {bv:.2%}, reconfigured {ov:.2%}"
          + (f" ({bv / ov:.0f}x)" if ov > 0 else ""))


if __name__ == "__main__":
    main()
