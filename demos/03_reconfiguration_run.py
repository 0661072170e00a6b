"""One reconfiguration run, narrated iteration by iteration.

The reference scenario starts with a fully committed link and server and
a freshly admitted slice (slice1) that owns almost nothing: its queue
blows up and most of its requests miss the 2 ms bound. Each iteration the
loop probes slice1's delay/throughput response to small allocation
nudges, estimates a gradient, and moves resources over from the two
lower-priority slices until the transfer pressure dies out.

Run: python3 demos/03_reconfiguration_run.py   (a few seconds)
"""
import numpy as np

from slicelab import reference_scenario, run_osra


def fmt_row(sid, trace):
    s = trace.samples[sid]
    raw = s.raw_delays_ms
    mean_d = raw.mean() if raw.size else float("nan")
    return (f"  {sid:8s} p99 {s.delay_stat_ms:9.3f} ms   "
            f"mean {mean_d:8.3f} ms   throughput {s.throughput:6.4f}   "
            f"penalty {trace.penalties[sid]:10.4f}")


def main():
    sc = reference_scenario()
    print(f"scenario {sc.name!r}: new slice {sc.new_slice_id!r}, "
          f"donors {[d.id for d in sc.donors()]}")
    print(f"link {sc.topology.edges[0][1]:.0f} Mbps, "
          f"{sc.topology.n_cores} cores, eta {sc.osra.eta}, "
          f"stop at ||transfer|| <= {sc.osra.epsilon}")
    print()

    res = run_osra(sc.slices, sc.topology, sc.initial_alloc, sc.sim,
                   sc.new_slice_id, sc.osra, seed=0)

    for t in res.traces:
        row = t.alloc.row("slice1")
        print(f"iteration {t.k}: slice1 owns link {row.flows[0]:.4f}, "
              f"cores {np.round(row.cpu, 4).tolist()}  "
              f"[rule {t.rule_used}, stop metric {t.stop_metric:.4f}]")
        for sid in t.alloc.slice_ids:
            print(fmt_row(sid, t))
    print()
    tag = "converged" if res.converged else "hit the iteration cap"
    print(f"{tag} after {res.iterations} applied update(s)")

    print()
    print("final allocation (rows are slices, columns link/core0/core1):")
    for sid in res.final_alloc.slice_ids:
        v = res.final_alloc.row(sid)
        print(f"  {sid:8s} link {v.flows[0]:.4f}   "
              f"cpu {np.round(v.cpu, 4).tolist()}")
    used_f = res.final_alloc.flows.sum(axis=0)
    used_c = res.final_alloc.cpu.sum(axis=0)
    print(f"  column sums: link {used_f[0]:.4f}, "
          f"cpu {np.round(used_c, 4).tolist()} (all <= 1)")

    hist = [t.penalties["slice1"] for t in res.traces]
    print()
    print("slice1 penalty trajectory:", [round(p, 2) for p in hist])


if __name__ == "__main__":
    main()
