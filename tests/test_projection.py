"""Capped-simplex projection against a brute-force QP oracle."""
import numpy as np
import pytest

from slicelab import (
    DimensionMismatch,
    project_capped_simplex,
    project_columns,
)
from reference_impls import qp_capped_simplex


class TestCappedSimplex:
    def test_feasible_point_is_fixed(self):
        y = np.array([0.5, 0.3])
        assert project_capped_simplex(y) == pytest.approx([0.5, 0.3], abs=1e-12)

    def test_symmetric_overflow_split_evenly(self):
        assert project_capped_simplex(np.array([0.8, 0.8])) == pytest.approx(
            [0.5, 0.5], abs=1e-12)

    def test_negative_coordinate_clipped(self):
        assert project_capped_simplex(np.array([-0.2, 0.5])) == pytest.approx(
            [0.0, 0.5], abs=1e-12)

    def test_shrunken_budget(self):
        assert project_capped_simplex(np.array([0.8, 0.8]), budget=0.6) == pytest.approx(
            [0.3, 0.3], abs=1e-12)

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            y = rng.uniform(-0.5, 1.5, size=n)
            got = project_capped_simplex(y)
            want = qp_capped_simplex(y)
            assert got == pytest.approx(want, abs=1e-8), f"y={y}"

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y = rng.uniform(-1, 2, size=int(rng.integers(1, 6)))
            once = project_capped_simplex(y)
            twice = project_capped_simplex(once)
            assert np.max(np.abs(once - twice)) <= 1e-12

    def test_non_expansive(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            a, b = rng.uniform(-1, 2, size=n), rng.uniform(-1, 2, size=n)
            pa, pb = project_capped_simplex(a), project_capped_simplex(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_output_always_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            y = rng.normal(0, 2, size=int(rng.integers(1, 8)))
            x = project_capped_simplex(y)
            assert x.min() >= -1e-12
            assert x.sum() <= 1 + 1e-12


class TestConstraintSetProjection:
    """Column-wise projection of (slices x resources) allocation arrays."""

    def test_feasible_matrix_unchanged(self):
        flows = np.array([[0.3], [0.4]])
        cpu = np.array([[0.2], [0.2]])
        pf, pc = project_columns(flows, cpu)
        assert np.array_equal(pf, flows) and np.array_equal(pc, cpu)

    def test_overcommitted_edge_column(self):
        # raw columns may overflow; build from raw arrays via project_columns
        flows = np.array([[0.7], [0.7]])
        cpu = np.array([[0.2], [0.2]])
        pf, pc = project_columns(flows, cpu)
        assert pf[:, 0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert pc[:, 0] == pytest.approx([0.2, 0.2], abs=1e-12)  # untouched

    def test_group_independence(self):
        # only the violating column moves; each column matches the QP oracle
        flows = np.array([[0.9], [0.4]])
        cpu = np.array([[0.3], [0.5]])
        pf, pc = project_columns(flows, cpu)
        assert pf[:, 0] == pytest.approx(qp_capped_simplex(flows[:, 0]), abs=1e-8)
        assert np.array_equal(pc, cpu)

    def test_column_budgets(self):
        # a frozen slice took 0.4 of the edge: survivors project onto sum <= 0.6
        flows = np.array([[0.5], [0.5]])
        cpu = np.array([[0.1], [0.1]])
        pf, _ = project_columns(flows, cpu, budgets_flows=np.array([0.6]))
        assert pf[:, 0].sum() == pytest.approx(0.6, abs=1e-12)
        assert pf[:, 0] == pytest.approx([0.3, 0.3], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project_capped_simplex(np.array([[0.3, 0.4], [0.2, 0.2]]))
