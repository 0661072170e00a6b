"""Euclidean projection onto the feasible allocation set.

Each resource (edge or core) constrains the vector of per-slice fractions
to the capped simplex {x >= 0, sum(x) <= budget}; resources are otherwise
independent, so the joint projection decomposes column-by-column.
"""
from __future__ import annotations

import numpy as np


def project_capped_simplex(y, budget: float = 1.0) -> np.ndarray:
    """Project y onto {x >= 0, sum(x) <= budget}.

    Clip negatives first; if the clipped sum already fits the budget that
    is the answer. Otherwise the optimum lies on sum(x) = budget and the
    classic sort/threshold rule applies: x = max(y - theta, 0) with theta
    chosen so the kept coordinates sum to the budget. O(n log n).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {y.shape}")
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
    # largest k with u_k > (cumsum_k - budget)/k; k = 1 always qualifies,
    # though rounding hides it when the budget is below u_1's last bit
    hits = np.nonzero(u * j > css - budget)[0]
    k = hits[-1] if hits.size else 0
    theta = (css[k] - budget) / (k + 1.0)
    return np.maximum(y - theta, 0.0)


def project_columns(x, budgets) -> np.ndarray:
    """Column-wise capped-simplex projection of a (slices x resources) array.

    Accepts a possibly-infeasible intermediate array (used mid-update,
    before an AllocationMatrix can be rebuilt). budgets holds each column's
    cap: what frozen higher-priority slices leave of the resource.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = project_capped_simplex(x[:, c], budgets[c])
    return out
