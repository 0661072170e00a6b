"""Capped-simplex projection against a brute-force QP oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicelab import project_capped_simplex, project_columns
from reference_impls import qp_capped_simplex

entries = st.floats(-1.0, 2.0)


def vectors(size=None):
    lo, hi = (1, 6) if size is None else (size, size)
    return st.lists(entries, min_size=lo, max_size=hi).map(np.array)


def matrices(rows, cols):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v).reshape(rows, cols))


def budgets():
    return st.floats(0.0, 1.0)


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

    def test_budget_below_the_last_bit(self):
        x = project_capped_simplex(np.array([4.0, 1.0]), budget=1e-17)
        assert x.min() >= 0.0 and x.sum() <= 1e-17

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite entries in projection input"):
            project_capped_simplex(np.array([0.2, bad]))

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            y = rng.uniform(-0.5, 1.5, size=n)
            got = project_capped_simplex(y)
            want = qp_capped_simplex(y)
            assert got == pytest.approx(want, abs=1e-8), f"y={y}"

    @settings(max_examples=200, deadline=None)
    @given(y=vectors(), budget=budgets())
    def test_idempotent(self, y, budget):
        once = project_capped_simplex(y, budget)
        assert np.max(np.abs(project_capped_simplex(once, budget) - once)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(pair=vectors().flatmap(lambda a: st.tuples(st.just(a), vectors(a.size))),
           budget=budgets())
    def test_non_expansive(self, pair, budget):
        a, b = pair
        pa, pb = project_capped_simplex(a, budget), project_capped_simplex(b, budget)
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
        x = np.array([[0.3, 0.2], [0.4, 0.2]])
        assert np.array_equal(project_columns(x, np.ones(2)), x)

    def test_overcommitted_edge_column(self):
        # raw columns may overflow: an edge column, then a core column
        x = np.array([[0.7, 0.2], [0.7, 0.2]])
        px = project_columns(x, np.ones(2))
        assert px[:, 0] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert px[:, 1] == pytest.approx([0.2, 0.2], abs=1e-12)  # untouched

    def test_group_independence(self):
        # only the violating column moves; each column matches the QP oracle
        x = np.array([[0.9, 0.3], [0.4, 0.5]])
        px = project_columns(x, np.ones(2))
        assert px[:, 0] == pytest.approx(qp_capped_simplex(x[:, 0]), abs=1e-8)
        assert np.array_equal(px[:, 1], x[:, 1])

    def test_column_budgets(self):
        # a frozen slice took 0.4 of the edge: survivors project onto sum <= 0.6
        x = np.array([[0.5, 0.1], [0.5, 0.1]])
        px = project_columns(x, np.array([0.6, 1.0]))
        assert px[:, 0].sum() == pytest.approx(0.6, abs=1e-12)
        assert px[:, 0] == pytest.approx([0.3, 0.3], abs=1e-12)
        assert np.array_equal(px[:, 1], x[:, 1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 4))
    def test_idempotent_and_non_expansive(self, data, rows, cols):
        x, y = (data.draw(matrices(rows, cols)) for _ in range(2))
        caps = np.array(data.draw(st.lists(budgets(), min_size=cols, max_size=cols)))
        px, py = project_columns(x, caps), project_columns(y, caps)
        assert np.max(np.abs(project_columns(px, caps) - px)) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected 1-D"):
            project_capped_simplex(np.array([[0.3, 0.4], [0.2, 0.2]]))
