"""Euclidean projection onto the feasible allocation set.

Each resource (edge or core) constrains the vector of per-slice fractions
to the capped simplex {x >= 0, sum(x) <= budget}; resources are otherwise
independent, so the joint projection decomposes column-by-column.
"""
from __future__ import annotations

import numpy as np


class DimensionMismatch(ValueError):
    pass


def project_capped_simplex(y, budget: float = 1.0) -> np.ndarray:
    """Project y onto {x >= 0, sum(x) <= budget}.

    Clip negatives first; if the clipped sum already fits the budget that
    is the answer. Otherwise the optimum lies on sum(x) = budget and the
    classic sort/threshold rule applies: x = max(y - theta, 0) with theta
    chosen so the kept coordinates sum to the budget. O(n log n).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"expected 1-D input, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"non-finite entries in projection input: {y.tolist()}")
    if budget <= 0:
        return np.zeros_like(y)

    clipped = np.maximum(y, 0.0)
    if clipped.sum() <= budget:
        return clipped

    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, y.size + 1)
    # largest k with u_k > (cumsum_k - budget)/k
    k = np.nonzero(u * j > css - budget)[0][-1]
    theta = (css[k] - budget) / (k + 1.0)
    return np.maximum(y - theta, 0.0)


def project_columns(flows, cpu, budgets_flows=None, budgets_cpu=None):
    """Column-wise capped-simplex projection on raw arrays.

    Accepts possibly-infeasible intermediate arrays (used mid-update,
    before an AllocationMatrix can be rebuilt). Optional per-column
    budgets support frozen higher-priority slices holding part of a
    resource.
    """
    flows = np.asarray(flows, dtype=float)
    cpu = np.asarray(cpu, dtype=float)
    out_f = np.empty_like(flows)
    out_c = np.empty_like(cpu)
    for e in range(flows.shape[1]):
        b = 1.0 if budgets_flows is None else budgets_flows[e]
        out_f[:, e] = project_capped_simplex(flows[:, e], b)
    for c in range(cpu.shape[1]):
        b = 1.0 if budgets_cpu is None else budgets_cpu[c]
        out_c[:, c] = project_capped_simplex(cpu[:, c], b)
    return out_f, out_c
