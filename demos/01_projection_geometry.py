"""Where raw gradient updates land after projection.

The feasible region for each resource column is the capped simplex
{x >= 0, sum(x) <= 1}. Updates produced by the transfer rule can leave it
(negative entries when a donor is drained past zero, overfull columns when
the grant overshoots); the projection snaps them back to the nearest
feasible point. This script walks a few hand-picked vectors through the
projection and prints what moved.

Run: python3 demos/01_projection_geometry.py
"""
import numpy as np

from slicelab import project_capped_simplex, project_columns

CASES = [
    ("already feasible", np.array([0.20, 0.30, 0.10])),
    ("overfull, uniform", np.array([0.80, 0.80, 0.80])),
    ("one donor drained negative", np.array([-0.15, 0.45, 0.30])),
    ("everything negative", np.array([-0.4, -0.1, -0.2])),
    ("single huge coordinate", np.array([3.00, 0.05, 0.05])),
]


def show(label, y, budget=1.0):
    x = project_capped_simplex(y, budget=budget)
    moved = np.abs(x - y).max()
    print(f"{label:28s} {np.round(y, 3)!s:24s} -> {np.round(x, 3)!s:24s}"
          f" sum {x.sum():.3f}  max move {moved:.3f}")


def main():
    print("capped-simplex projection, budget 1.0")
    print("-" * 96)
    for label, y in CASES:
        show(label, y)

    print()
    print("same vectors against a 0.4 budget (a frozen slice owns the rest)")
    print("-" * 96)
    for label, y in CASES:
        show(label, y, budget=0.4)

    # the joint projection is just the per-column one applied independently
    print()
    print("joint projection of a 2-slice x 2-edge + 1-core allocation")
    flows = np.array([[0.9, 0.3], [0.4, 0.2]])
    cpu = np.array([[0.8], [0.7]])
    projected = project_columns(np.hstack([flows, cpu]), np.ones(3))
    pf, pc = projected[:, :2], projected[:, 2:]
    print("flows before:", flows.tolist(), " column sums", flows.sum(axis=0))
    print("flows after: ", np.round(pf, 4).tolist(), " column sums",
          np.round(pf.sum(axis=0), 4))
    print("cpu   before:", cpu.ravel().tolist(), " column sum", cpu.sum())
    print("cpu   after: ", np.round(pc.ravel(), 4).tolist(), " column sum",
          round(float(pc.sum()), 4))
    print()
    print("note the feasible edge column (sums 0.5) was left alone; only")
    print("the overfull columns moved.")


if __name__ == "__main__":
    main()
